package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func treeRing(t *testing.T, n int, version uint64) *Ring {
	t.Helper()
	cfg := Config{Version: version}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%02d", i)
		cfg.Members = append(cfg.Members, Member{ID: id, Addr: "http://" + id})
	}
	ring, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

// TestTreeParentStructure: every follower has a parent, every parent
// chain terminates at the leader within log_fanout(N) + 1 hops, and no
// parent feeds more than fanout children.
func TestTreeParentStructure(t *testing.T) {
	const n, fanout = 13, 3
	ring := treeRing(t, n, 1)
	leaderID := "n05" // any member can lead; the tree excludes it from the follower order
	children := make(map[string]int)
	for _, m := range ring.Members() {
		if m.ID == leaderID {
			if _, ok := TreeParent(ring, leaderID, m.ID, fanout); ok {
				t.Fatal("leader was assigned a parent")
			}
			continue
		}
		hops := 0
		for id := m.ID; id != leaderID; hops++ {
			parent, ok := TreeParent(ring, leaderID, id, fanout)
			if !ok {
				t.Fatalf("follower %s has no parent", id)
			}
			if parent.ID == id {
				t.Fatalf("follower %s is its own parent", id)
			}
			if hops == 0 {
				children[parent.ID]++
			}
			id = parent.ID
			if hops > n {
				t.Fatalf("parent chain from %s never reaches the leader", m.ID)
			}
		}
		// Complete fanout-ary tree depth: ceil(log_fanout) bound with slack 1.
		if hops > 4 {
			t.Fatalf("follower %s is %d hops from the leader (n=%d fanout=%d)", m.ID, hops, n, fanout)
		}
	}
	for id, c := range children {
		if c > fanout {
			t.Fatalf("parent %s feeds %d children, fanout bound %d", id, c, fanout)
		}
	}
	// The leader itself serves at most fanout direct pulls — the whole
	// point of the tree.
	if children[leaderID] > fanout {
		t.Fatalf("leader serves %d direct children, want ≤ %d", children[leaderID], fanout)
	}
}

// TestTreeParentSelfHeals: the tree is a pure function of the ring, so
// dropping a member reshapes it with every surviving follower still
// rooted at the leader — no repair protocol, just recomputation.
func TestTreeParentSelfHeals(t *testing.T) {
	const fanout = 2
	before := treeRing(t, 8, 1)
	// n03 dies; ring v2 excludes it.
	cfg := before.Config()
	cfg.Version = 2
	survivors := cfg.Members[:0]
	for _, m := range cfg.Members {
		if m.ID != "n03" {
			survivors = append(survivors, m)
		}
	}
	cfg.Members = survivors
	after, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range after.Members() {
		if m.ID == "n00" {
			continue
		}
		hops := 0
		for id := m.ID; id != "n00"; hops++ {
			parent, ok := TreeParent(after, "n00", id, fanout)
			if !ok {
				t.Fatalf("post-heal follower %s has no parent", id)
			}
			if parent.ID == "n03" {
				t.Fatalf("follower %s still pulls from the departed member", id)
			}
			id = parent.ID
			if hops > 8 {
				t.Fatalf("post-heal chain from %s never reaches the leader", m.ID)
			}
		}
	}
}

func TestTreeParentDegenerateInputs(t *testing.T) {
	ring := treeRing(t, 4, 1)
	if _, ok := TreeParent(ring, "n00", "n00", 2); ok {
		t.Fatal("leader got a parent")
	}
	if _, ok := TreeParent(ring, "n00", "ghost", 2); ok {
		t.Fatal("unknown self got a parent")
	}
	if _, ok := TreeParent(ring, "ghost", "n01", 2); ok {
		t.Fatal("unknown leader produced a parent")
	}
	if _, ok := TreeParent(ring, "n00", "n01", 0); ok {
		t.Fatal("zero fanout produced a parent")
	}
	if _, ok := TreeParent(nil, "n00", "n01", 2); ok {
		t.Fatal("nil ring produced a parent")
	}
}

// TestReplicatorTreeSourceAndFallback: a follower pulls from its tree
// parent while the parent is healthy, and falls back to the leader
// after treeFallbackAfter consecutive failures — then returns to the
// parent once a pull succeeds.
func TestReplicatorTreeSourceAndFallback(t *testing.T) {
	snap := sampleSnapshot()
	var leaderPulls, parentPulls atomic.Int64
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		leaderPulls.Add(1)
		_ = snap.Encode(w)
	}))
	defer leader.Close()
	var parentDown atomic.Bool
	parent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if parentDown.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		parentPulls.Add(1)
		_ = snap.Encode(w)
	}))
	defer parent.Close()

	rep, err := NewReplicator(leader.URL, time.Hour, func(PriceSnapshot) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	rep.SetSource(func() (string, bool) { return parent.URL, true })
	ctx := context.Background()

	if err := rep.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if parentPulls.Load() != 1 || leaderPulls.Load() != 0 {
		t.Fatalf("healthy parent: parent=%d leader=%d pulls", parentPulls.Load(), leaderPulls.Load())
	}

	// Parent dies: the first treeFallbackAfter pulls fail against it,
	// then the replicator routes around it to the leader.
	parentDown.Store(true)
	for i := 0; i < treeFallbackAfter; i++ {
		if err := rep.PullOnce(ctx); err == nil {
			t.Fatalf("pull %d against a dead parent succeeded", i)
		}
	}
	if err := rep.PullOnce(ctx); err != nil {
		t.Fatalf("leader fallback pull failed: %v", err)
	}
	if leaderPulls.Load() != 1 {
		t.Fatalf("leader served %d pulls after fallback, want 1", leaderPulls.Load())
	}

	// Parent recovers: the successful fallback pull reset the streak, so
	// the next pull goes to the parent again — the tree self-heals.
	parentDown.Store(false)
	if err := rep.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if parentPulls.Load() != 2 {
		t.Fatalf("recovered parent served %d pulls, want 2", parentPulls.Load())
	}
}
