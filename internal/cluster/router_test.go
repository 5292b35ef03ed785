package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tdp/internal/ingest"
	"tdp/internal/wire"
)

var routerClasses = []string{"web", "ftp", "video"}

// memNode is an in-process stand-in for a clustered tube server: it
// admits a body the way the HTTP handler does — every frame decoded
// (DecodeRecords) and validated (CheckWire) before any is applied, then
// each frame's users checked against its own ring view (OwnsHashes) and
// its owned records applied (ApplyWire) — minus the transport.
type memNode struct {
	id   string
	eng  *ingest.Engine
	ring atomic.Pointer[Ring]

	mu       sync.Mutex
	dec      *wire.Decoder
	accepted int64 // reports applied, like the server's wire counter
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
	for buf := body; len(buf) > 0; {
		users, _, recs, consumed, err := n.dec.DecodeRecords(buf)
		if err == nil {
			err = n.eng.CheckWire(users, recs)
		}
		if err != nil {
			return WireAck{}, err
		}
		buf = buf[consumed:]
	}
	ring := n.ring.Load()
	ack := WireAck{RingVersion: ring.Version()}
	base := 0 // report index of the frame's first record, across frames
	for buf := body; len(buf) > 0; {
		users, hashes, recs, consumed, _ := n.dec.DecodeRecords(buf)
		owned := make([]bool, len(hashes))
		ring.OwnsHashes(n.id, hashes, owned)
		var mine []ingest.WireRecord
		for i, r := range recs {
			if owned[r.User] {
				mine = append(mine, r)
			} else {
				ack.Rejected = append(ack.Rejected, base+i)
			}
		}
		if err := n.eng.ApplyWire(users, hashes, mine); err != nil {
			return WireAck{}, err
		}
		ack.Accepted += len(mine)
		base += len(recs)
		buf = buf[consumed:]
	}
	n.accepted += int64(ack.Accepted)
	return ack, nil
}

// reportsApplied is the number of reports the node has applied.
func (n *memNode) reportsApplied() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.accepted
}

// userTotals closes eng's period and returns its per-user volumes by
// name.
func userTotals(eng *ingest.Engine) map[string]float64 {
	cut := eng.Rollover()
	defer cut.Release()
	out := make(map[string]float64)
	names := make(map[int][]string)
	cut.EachUser(func(shard int, id int32, mb float64) {
		if names[shard] == nil {
			names[shard] = eng.Names(shard)
		}
		out[names[shard][id]] = mb
	})
	return out
}

// refTotals is what one node accounts for the whole stream: the
// per-class and per-user sums, exact because every volume is dyadic.
func refTotals(reps []ingest.Report) ([]float64, map[string]float64) {
	class := make([]float64, len(routerClasses))
	user := make(map[string]float64)
	for _, r := range reps {
		class[slices.Index(routerClasses, r.Class)] += r.VolumeMB
		user[r.User] += r.VolumeMB
	}
	return class, user
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
	refClass, refUser := refTotals(reps)

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
			nodeUsers := make(map[string]map[string]float64)
			for id, n := range sender.nodes {
				nodeUsers[id] = userTotals(n.eng)
			}
			for user, want := range refUser {
				holders := 0
				for _, totals := range nodeUsers {
					if got, ok := totals[user]; ok {
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
	refClass, _ := refTotals(reps)
	sum := make([]float64, len(routerClasses))
	var accepted int64
	for _, n := range sender.nodes {
		for j, v := range n.eng.ClassTotals() {
			sum[j] += v
		}
		accepted += n.reportsApplied()
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
	if n3 := sender.nodes["n3"].reportsApplied(); n3 == 0 {
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
	beforeLeave := sender.nodes["n1"].reportsApplied()

	// Decommission n1: every view moves to v2 (n1 keeps serving reads
	// for the drain, but owns nothing).
	for _, n := range sender.nodes {
		n.ring.Store(ringV2)
	}
	rt.UpdateRing(ringV2)
	if _, err := rt.Send(ctx, reps[half:]); err != nil {
		t.Fatal(err)
	}
	if got := sender.nodes["n1"].reportsApplied(); got != beforeLeave {
		t.Fatalf("decommissioned node accepted %d new reports", got-beforeLeave)
	}
	var accepted int64
	for _, n := range sender.nodes {
		accepted += n.reportsApplied()
	}
	if accepted != int64(len(reps)) {
		t.Fatalf("cluster accounted %d reports, sent %d", accepted, len(reps))
	}
}

// errSender rejects every report of every frame, never updating its
// story: the router must give up with ErrRouting instead of spinning.
type errSender struct{ ring *Ring }

func (s *errSender) SendWire(_ context.Context, _ Member, body []byte) (WireAck, error) {
	tab, _ := wire.NewClassTable(routerClasses)
	dec := wire.NewDecoder(tab)
	ack := WireAck{RingVersion: s.ring.Version()}
	for len(body) > 0 {
		_, _, recs, consumed, err := dec.DecodeRecords(body)
		if err != nil {
			return WireAck{}, err
		}
		for range recs {
			ack.Rejected = append(ack.Rejected, len(ack.Rejected))
		}
		body = body[consumed:]
	}
	return ack, nil
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

// ackAllSender acks every report of every frame and keeps nothing of
// the body: it decodes the frame only to count its records.
type ackAllSender struct {
	mu  sync.Mutex
	dec *wire.Decoder
}

func (s *ackAllSender) SendWire(_ context.Context, _ Member, body []byte) (WireAck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _, recs, _, err := s.dec.DecodeRecords(body)
	if err != nil {
		return WireAck{}, err
	}
	return WireAck{Accepted: len(recs), RingVersion: 1}, nil
}

// TestRouterSendAllocsFlat: a warm Send reuses its round scratch, so it
// allocates the same at 256 and at 4096 reports; what it allocates is
// per Send (the pipelining goroutines), not per report or per frame.
func TestRouterSendAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Build(Config{Version: 1, Members: testMembers(4)})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(tab, ring, &ackAllSender{dec: wire.NewDecoder(tab)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := make(map[int]float64)
	for _, n := range []int{256, 4096} {
		reps := routerReports(n/4, 4)
		if _, err := rt.Send(ctx, reps); err != nil { // warm: size the scratch
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(50, func() {
			st, err := rt.Send(ctx, reps)
			if err != nil || st.Reports != n {
				t.Fatalf("Send of %d: %+v, %v", n, st, err)
			}
		})
	}
	t.Logf("allocs per Send: %v", allocs)
	if allocs[256] != allocs[4096] {
		t.Fatalf("allocs per Send %.1f at 256 reports, %.1f at 4096: a Send allocates per report or per frame", allocs[256], allocs[4096])
	}
}

// TestRouterConcurrentSends: Sends from several goroutines share one
// router, and so its spare round scratch; each report is still
// accounted exactly once, and the cluster's class totals equal a
// single engine fed the same stream.
func TestRouterConcurrentSends(t *testing.T) {
	tab, err := wire.NewClassTable(routerClasses)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Build(Config{Version: 1, Members: testMembers(3)})
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
	if err := rt.SetMaxFrameReports(32); err != nil {
		t.Fatal(err)
	}
	reps := routerReports(300, 4)
	refClass, _ := refTotals(reps)
	const senders, chunk = 4, 50
	var wg sync.WaitGroup
	var delivered atomic.Int64
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := g * chunk; lo < len(reps); lo += senders * chunk {
				st, err := rt.Send(context.Background(), reps[lo:min(lo+chunk, len(reps))])
				if err != nil {
					t.Error(err)
					return
				}
				delivered.Add(int64(st.Reports))
			}
		}()
	}
	wg.Wait()
	if delivered.Load() != int64(len(reps)) {
		t.Fatalf("delivered %d of %d", delivered.Load(), len(reps))
	}
	sum := make([]float64, len(routerClasses))
	for _, n := range sender.nodes {
		for j, v := range n.eng.ClassTotals() {
			sum[j] += v
		}
	}
	for j, want := range refClass {
		//lint:allow floateq dyadic sums are exact; bit-identity is the property under test
		if sum[j] != want {
			t.Fatalf("class %d: cluster total %v, single-node %v", j, sum[j], want)
		}
	}
}
