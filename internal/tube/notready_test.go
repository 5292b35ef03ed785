package tube

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tdp/internal/cluster"
)

// TestReplicatedPriceNotReady pins the sentinel contract: a follower
// asked for a price before its first snapshot replicates reports a
// wrapped tube.ErrNotReady — callers branch on errors.Is, not on the
// message text — and the HTTP surface maps it to 503.
func TestReplicatedPriceNotReady(t *testing.T) {
	cfg := cluster.Config{Version: 1}
	nodes := make([]*Server, 2)
	urls := make([]string, 2)
	for i := range nodes {
		opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(opt)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		nodes[i], urls[i] = srv, ts.URL
		cfg.Members = append(cfg.Members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: ts.URL})
	}
	// The follower joins first: its first pull finds no snapshot endpoint
	// at the leader, and with an hour before the retry it cannot sync
	// during the test. A pull that failed is not retried early, whereas
	// a pull that reached a cluster-enabled leader would sync at once.
	for _, i := range []int{1, 0} {
		srv := nodes[i]
		opts := ClusterOptions{SelfID: fmt.Sprintf("n%d", i), Ring: cfg}
		if i > 0 {
			opts.LeaderURL = urls[0]
			opts.ReplicateEvery = time.Hour
		}
		if err := srv.EnableCluster(opts); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
		if i > 0 {
			failures := srv.Registry().Counter("cluster_replication_failures_total", "", nil)
			deadline := time.Now().Add(5 * time.Second)
			for failures.Value() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("follower's first pull never failed against a leader without clustering")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	if _, err := nodes[1].currentPrice(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("unsynced follower price: %v, want errors.Is(err, ErrNotReady)", err)
	}

	resp, err := http.Get(urls[1] + "/price")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsynced follower /price returned %d, want 503", resp.StatusCode)
	}

	// The leader, by contrast, serves its own optimizer's price at once.
	if _, err := nodes[0].currentPrice(); err != nil {
		t.Fatalf("leader price: %v", err)
	}
}
