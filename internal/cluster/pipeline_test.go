package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tdp/internal/wire"
)

// gaugedSender wraps a Sender, counting frames and the peak number of
// concurrent SendWire calls — the observable the pipelining contract is
// about.
type gaugedSender struct {
	inner  Sender
	frames atomic.Int64
	cur    atomic.Int64
	peak   atomic.Int64

	mu       sync.Mutex
	perFrame []int // reports per frame, in completion order
}

func (s *gaugedSender) SendWire(ctx context.Context, node Member, body []byte) (WireAck, error) {
	n := s.cur.Add(1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer s.cur.Add(-1)
	s.frames.Add(1)
	ack, err := s.inner.SendWire(ctx, node, body)
	if err == nil {
		s.mu.Lock()
		s.perFrame = append(s.perFrame, ack.Accepted+len(ack.Rejected))
		s.mu.Unlock()
	}
	return ack, err
}

func (s *gaugedSender) FetchRing(ctx context.Context, node Member) (Config, error) {
	return s.inner.(RingFetcher).FetchRing(ctx, node)
}

// TestRouterPipelineChunkingExactness: with a small frame limit the
// router must slice each owner's partition into ceil(part/limit)
// frames, stay within the inflight bound, and still deliver every
// report to exactly one owner with bit-identical totals.
func TestRouterPipelineChunkingExactness(t *testing.T) {
	const frameLimit, inflight = 32, 4
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	reps := routerReports(300, 4)
	ring, err := Build(Config{Version: 1, Members: testMembers(3)})
	if err != nil {
		t.Fatal(err)
	}
	mem := &memSender{nodes: make(map[string]*memNode)}
	for _, m := range ring.Members() {
		mem.nodes[m.ID] = newMemNode(t, m.ID, ring, tab)
	}
	sender := &gaugedSender{inner: mem}
	rt, err := NewRouter(tab, ring, sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetMaxFrameReports(frameLimit); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetInflight(inflight); err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Send(context.Background(), reps)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reports != len(reps) || stats.Rerouted != 0 {
		t.Fatalf("delivered %d of %d (rerouted %d)", stats.Reports, len(reps), stats.Rerouted)
	}
	if peak := sender.peak.Load(); peak > inflight {
		t.Fatalf("%d frames in flight, bound %d", peak, inflight)
	}
	// Frame count: each owner's partition slices into ceil(part/limit).
	wantFrames := int64(0)
	perOwner := make(map[string]int)
	for i := range reps {
		perOwner[ring.OwnerID(reps[i].User)]++
	}
	for _, part := range perOwner {
		wantFrames += int64((part + frameLimit - 1) / frameLimit)
	}
	if got := sender.frames.Load(); got != wantFrames {
		t.Fatalf("sent %d frames, want %d (owners %v)", got, wantFrames, perOwner)
	}
	sender.mu.Lock()
	for _, n := range sender.perFrame {
		if n > frameLimit {
			t.Fatalf("frame carried %d reports, limit %d", n, frameLimit)
		}
	}
	sender.mu.Unlock()
	// Bit-identical totals against a single-node reference.
	refClass, _ := refTotals(reps)
	sum := make([]float64, len(routerClasses))
	for _, n := range mem.nodes {
		for j, v := range n.eng.ClassTotals() {
			sum[j] += v
		}
	}
	for j := range sum {
		//lint:allow floateq dyadic sums are exact; bit-identity is the property under test
		if sum[j] != refClass[j] {
			t.Fatalf("class %d: pipelined total %v, reference %v", j, sum[j], refClass[j])
		}
	}
}

// TestRouterInflightOneSerializes: inflight 1 restores strictly serial
// frame delivery.
func TestRouterInflightOneSerializes(t *testing.T) {
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Build(Config{Version: 1, Members: testMembers(3)})
	if err != nil {
		t.Fatal(err)
	}
	mem := &memSender{nodes: make(map[string]*memNode)}
	for _, m := range ring.Members() {
		mem.nodes[m.ID] = newMemNode(t, m.ID, ring, tab)
	}
	sender := &gaugedSender{inner: mem}
	rt, err := NewRouter(tab, ring, sender)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetInflight(1); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetMaxFrameReports(16); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Send(context.Background(), routerReports(100, 2)); err != nil {
		t.Fatal(err)
	}
	if peak := sender.peak.Load(); peak != 1 {
		t.Fatalf("inflight=1 reached %d concurrent frames", peak)
	}
}

// TestRouterExhaustionReportsRounds: the give-up error after maxRounds
// names the round count and wraps ErrRouting (the resend exhaustion
// path of the ≤8-round contract).
func TestRouterExhaustionReportsRounds(t *testing.T) {
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Build(Config{Version: 1, Members: testMembers(2)})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(tab, ring, &errSender{ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Send(context.Background(), routerReports(20, 2))
	if !errors.Is(err, ErrRouting) {
		t.Fatalf("endless rejection: %v, want ErrRouting", err)
	}
	if stats.Rounds != 8 {
		t.Fatalf("gave up after %d rounds, want exactly 8", stats.Rounds)
	}
	if stats.Reports != 0 {
		t.Fatalf("%d reports counted accepted while every frame was rejected", stats.Reports)
	}
}

// TestRouterSetterValidation: the pipelining knobs reject nonsense.
func TestRouterSetterValidation(t *testing.T) {
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Build(Config{Version: 1, Members: testMembers(2)})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(tab, ring, &errSender{ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetInflight(0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("inflight 0: %v, want ErrBadConfig", err)
	}
	if err := rt.SetMaxFrameReports(0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("frame limit 0: %v, want ErrBadConfig", err)
	}
}

// failingSender fails one specific node; the rest succeed.
type failingSender struct {
	inner  Sender
	victim string
}

func (s *failingSender) SendWire(ctx context.Context, node Member, body []byte) (WireAck, error) {
	if node.ID == s.victim {
		return WireAck{}, fmt.Errorf("%w: %s is on fire", ErrUnavailable, node.ID)
	}
	return s.inner.SendWire(ctx, node, body)
}

// TestRouterFirstErrorAborts: a node failure surfaces as the Send error
// (wrapped ErrUnavailable) instead of being silently swallowed by the
// pipeline.
func TestRouterFirstErrorAborts(t *testing.T) {
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Build(Config{Version: 1, Members: testMembers(3)})
	if err != nil {
		t.Fatal(err)
	}
	mem := &memSender{nodes: make(map[string]*memNode)}
	for _, m := range ring.Members() {
		mem.nodes[m.ID] = newMemNode(t, m.ID, ring, tab)
	}
	rt, err := NewRouter(tab, ring, &failingSender{inner: mem, victim: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetMaxFrameReports(16); err != nil {
		t.Fatal(err)
	}
	_, err = rt.Send(context.Background(), routerReports(200, 2))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("victim node failure: %v, want ErrUnavailable", err)
	}
}
