package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"tdp/internal/ingest"
	"tdp/internal/wire"
)

var routerClasses = []string{"web", "ftp", "video"}

// memNode is an in-process stand-in for a clustered tube server: it
// enforces ownership against its own ring view and accounts admitted
// reports exactly once — the same admission contract the HTTP handler
// implements, minus the transport.
type memNode struct {
	id   string
	eng  *ingest.Engine
	ring atomic.Pointer[Ring]

	mu  sync.Mutex
	dec *wire.Decoder
}

// memSender routes wire bodies to memNodes. It implements RingFetcher,
// so a stale router self-heals from the acks' ring versions.
type memSender struct {
	nodes map[string]*memNode
}

func (s *memSender) SendWire(_ context.Context, node Member, body []byte) (WireAck, error) {
	n, ok := s.nodes[node.ID]
	if !ok {
		return WireAck{}, fmt.Errorf("no such node %q", node.ID)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var reports []ingest.Report
	for len(body) > 0 {
		var consumed int
		var err error
		reports, consumed, err = n.dec.Decode(body, reports)
		if err != nil {
			return WireAck{}, err
		}
		body = body[consumed:]
	}
	ring := n.ring.Load()
	owned := make([]ingest.Report, 0, len(reports))
	var rejected []int
	for i := range reports {
		if ring.Owns(n.id, reports[i].User) {
			owned = append(owned, reports[i])
		} else {
			rejected = append(rejected, i)
		}
	}
	if err := n.eng.RecordBatch(owned); err != nil {
		return WireAck{}, err
	}
	return WireAck{Accepted: len(owned), Rejected: rejected, RingVersion: ring.Version()}, nil
}

func (s *memSender) FetchRing(_ context.Context, node Member) (Config, error) {
	n, ok := s.nodes[node.ID]
	if !ok {
		return Config{}, fmt.Errorf("no such node %q", node.ID)
	}
	return n.ring.Load().Config(), nil
}

func newMemNode(t testing.TB, id string, ring *Ring, tab *wire.ClassTable) *memNode {
	t.Helper()
	eng, err := ingest.NewEngine(routerClasses, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := &memNode{id: id, eng: eng, dec: wire.NewDecoder(tab)}
	n.ring.Store(ring)
	return n
}

// routerReports builds a deterministic shuffled stream of dyadic-volume
// reports — sums of multiples of 0.5 are exact in float64, so totals
// must match BIT-identically across any delivery split.
func routerReports(users, perUser int) []ingest.Report {
	var reps []ingest.Report
	for u := 0; u < users; u++ {
		for k := 0; k < perUser; k++ {
			reps = append(reps, ingest.Report{
				User:     fmt.Sprintf("u%05d", u),
				Class:    routerClasses[(u+k)%len(routerClasses)],
				VolumeMB: 1 + 0.5*float64((u*perUser+k)%4),
			})
		}
	}
	rng := rand.New(rand.NewPCG(42, 7))
	rng.Shuffle(len(reps), func(i, j int) { reps[i], reps[j] = reps[j], reps[i] })
	return reps
}

// TestRouterExactlyOnceProperty: at 1, 3 and 5 nodes, every report
// lands on exactly one owner and the cluster-wide totals are
// bit-identical to a single-node engine fed the same stream.
func TestRouterExactlyOnceProperty(t *testing.T) {
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	reps := routerReports(400, 6)
	ref, err := ingest.NewEngine(routerClasses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RecordBatch(append([]ingest.Report(nil), reps...)); err != nil {
		t.Fatal(err)
	}
	refClass := ref.ClassTotals()
	refUser := ref.UserTotals()

	for _, nNodes := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("nodes=%d", nNodes), func(t *testing.T) {
			ring, err := Build(Config{Version: 1, Members: testMembers(nNodes)})
			if err != nil {
				t.Fatal(err)
			}
			sender := &memSender{nodes: make(map[string]*memNode)}
			for _, m := range ring.Members() {
				sender.nodes[m.ID] = newMemNode(t, m.ID, ring, tab)
			}
			rt, err := NewRouter(tab, ring, sender)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var delivered int
			for lo := 0; lo < len(reps); lo += 64 {
				hi := min(lo+64, len(reps))
				stats, err := rt.Send(ctx, reps[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				if stats.Rerouted != 0 || stats.Rounds != 1 {
					t.Fatalf("stable ring rerouted %d in %d rounds", stats.Rerouted, stats.Rounds)
				}
				delivered += stats.Reports
			}
			if delivered != len(reps) {
				t.Fatalf("delivered %d of %d", delivered, len(reps))
			}
			// Cluster-wide class totals must match the single engine
			// bit-for-bit.
			sum := make([]float64, len(routerClasses))
			for _, n := range sender.nodes {
				for j, v := range n.eng.ClassTotals() {
					sum[j] += v
				}
			}
			for j := range sum {
				//lint:allow floateq dyadic sums are exact; bit-identity is the property under test
				if sum[j] != refClass[j] {
					t.Fatalf("class %d: cluster total %v, single-node %v", j, sum[j], refClass[j])
				}
			}
			// Exactly one owner per user, holding exactly the reference
			// total.
			for user, want := range refUser {
				holders := 0
				for _, n := range sender.nodes {
					if got, ok := n.eng.UserTotals()[user]; ok {
						holders++
						//lint:allow floateq dyadic sums are exact
						if got != want {
							t.Fatalf("user %s: node total %v, want %v", user, got, want)
						}
					}
				}
				if holders != 1 {
					t.Fatalf("user %s accounted on %d nodes, want exactly 1", user, holders)
				}
			}
		})
	}
}

// TestRouterRebalanceExactlyOnce drives a join with a STALE router (the
// nodes learn the new ring first): rejected reports must be rerouted —
// after a ring refetch — to the joining node, with nothing lost or
// double-counted.
func TestRouterRebalanceExactlyOnce(t *testing.T) {
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	reps := routerReports(300, 4)
	half := len(reps) / 2

	ringV1, err := Build(Config{Version: 1, Members: testMembers(3)})
	if err != nil {
		t.Fatal(err)
	}
	ringV2, err := Build(Config{Version: 2, Members: testMembers(4)})
	if err != nil {
		t.Fatal(err)
	}
	sender := &memSender{nodes: make(map[string]*memNode)}
	for _, m := range ringV1.Members() {
		sender.nodes[m.ID] = newMemNode(t, m.ID, ringV1, tab)
	}
	rt, err := NewRouter(tab, ringV1, sender)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rt.Send(ctx, reps[:half]); err != nil {
		t.Fatal(err)
	}

	// Join: n3 comes up on v2, existing nodes move to v2 — but the
	// router keeps its v1 view, simulating the control-plane update
	// racing the data path.
	sender.nodes["n3"] = newMemNode(t, "n3", ringV2, tab)
	for _, m := range ringV1.Members() {
		sender.nodes[m.ID].ring.Store(ringV2)
	}

	var rerouted int
	for lo := half; lo < len(reps); lo += 64 {
		hi := min(lo+64, len(reps))
		stats, err := rt.Send(ctx, reps[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		rerouted += stats.Rerouted
	}
	if rerouted == 0 {
		t.Fatal("stale-router join produced no reroutes — the rebalance path was not exercised")
	}
	if rt.Ring().Version() != 2 {
		t.Fatalf("router still on ring v%d after reroutes, want self-healed to 2", rt.Ring().Version())
	}

	// Conservation + exactly-once across the rebalance.
	ref, err := ingest.NewEngine(routerClasses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RecordBatch(append([]ingest.Report(nil), reps...)); err != nil {
		t.Fatal(err)
	}
	refClass := ref.ClassTotals()
	sum := make([]float64, len(routerClasses))
	var accepted int64
	for _, n := range sender.nodes {
		for j, v := range n.eng.ClassTotals() {
			sum[j] += v
		}
		accepted += n.eng.Accepted()
	}
	if accepted != int64(len(reps)) {
		t.Fatalf("cluster accounted %d reports, sent %d", accepted, len(reps))
	}
	for j := range sum {
		//lint:allow floateq dyadic sums are exact; bit-identity is the property under test
		if sum[j] != refClass[j] {
			t.Fatalf("class %d: cluster total %v, single-node %v", j, sum[j], refClass[j])
		}
	}
	if n3 := sender.nodes["n3"].eng.Accepted(); n3 == 0 {
		t.Fatal("joining node accounted nothing")
	}
}

// TestRouterLeaveExactlyOnce removes a member: its keys must flow to
// the survivors with nothing lost.
func TestRouterLeaveExactlyOnce(t *testing.T) {
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	reps := routerReports(200, 4)
	half := len(reps) / 2
	ringV1, err := Build(Config{Version: 1, Members: testMembers(3)})
	if err != nil {
		t.Fatal(err)
	}
	// v2 removes n1.
	ringV2, err := Build(Config{Version: 2, Members: []Member{
		testMembers(3)[0], testMembers(3)[2],
	}})
	if err != nil {
		t.Fatal(err)
	}
	sender := &memSender{nodes: make(map[string]*memNode)}
	for _, m := range ringV1.Members() {
		sender.nodes[m.ID] = newMemNode(t, m.ID, ringV1, tab)
	}
	rt, err := NewRouter(tab, ringV1, sender)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rt.Send(ctx, reps[:half]); err != nil {
		t.Fatal(err)
	}
	beforeLeave := sender.nodes["n1"].eng.Accepted()

	// Decommission n1: every view moves to v2 (n1 keeps serving reads
	// for the drain, but owns nothing).
	for _, n := range sender.nodes {
		n.ring.Store(ringV2)
	}
	rt.UpdateRing(ringV2)
	if _, err := rt.Send(ctx, reps[half:]); err != nil {
		t.Fatal(err)
	}
	if got := sender.nodes["n1"].eng.Accepted(); got != beforeLeave {
		t.Fatalf("decommissioned node accepted %d new reports", got-beforeLeave)
	}
	var accepted int64
	for _, n := range sender.nodes {
		accepted += n.eng.Accepted()
	}
	if accepted != int64(len(reps)) {
		t.Fatalf("cluster accounted %d reports, sent %d", accepted, len(reps))
	}
}

// errSender rejects everything, never updating its story: the router
// must give up with ErrRouting instead of spinning.
type errSender struct{ ring *Ring }

func (s *errSender) SendWire(_ context.Context, _ Member, body []byte) (WireAck, error) {
	tab, _ := wire.NewClassTable(routerClasses)
	dec := wire.NewDecoder(tab)
	reps, _, err := dec.Decode(body, nil)
	if err != nil {
		return WireAck{}, err
	}
	rej := make([]int, len(reps))
	for i := range rej {
		rej[i] = i
	}
	return WireAck{Accepted: 0, Rejected: rej, RingVersion: s.ring.Version()}, nil
}

func TestRouterGivesUpAfterMaxRounds(t *testing.T) {
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
	_, err = rt.Send(context.Background(), routerReports(10, 1))
	if !errors.Is(err, ErrRouting) {
		t.Fatalf("endless rejection: %v, want ErrRouting", err)
	}
}
