package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/obs"
	"tdp/internal/parallel"
	"tdp/internal/tube"
	"tdp/internal/wire"
)

// loadNode is one clustered tube server under harness control.
type loadNode struct {
	id       string
	opt      *tube.Optimizer
	srv      *tube.Server
	ln       net.Listener
	addr     string
	serveErr chan error
}

func newLoadNode(cfg loadConfig, i int) (*loadNode, error) {
	opt, err := tube.NewOptimizer(tube.OptimizerConfig{
		Scenario: cfg.optScenario(),
		Classes:  cfg.optClasses(),
		Shards:   cfg.shards,
	})
	if err != nil {
		return nil, err
	}
	srv, err := tube.NewServer(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &loadNode{
		id:   fmt.Sprintf("n%d", i),
		opt:  opt,
		srv:  srv,
		ln:   ln,
		addr: "http://" + ln.Addr().String(),
	}, nil
}

// enable joins the node to the ring (leader = the ring's first member)
// and starts serving.
func (nd *loadNode) enable(ring cluster.Config) error {
	opts := tube.ClusterOptions{SelfID: nd.id, Ring: ring, QueueDepth: 4096}
	if leader := ring.Members[0]; leader.ID != nd.id {
		opts.LeaderURL = leader.Addr
		opts.ReplicateEvery = 200 * time.Millisecond
		opts.ReplicateFanout = 2 // followers pull through the fan-out tree
	}
	if err := nd.srv.EnableCluster(opts); err != nil {
		return err
	}
	nd.serveErr = make(chan error, 1)
	go func() { nd.serveErr <- nd.srv.Serve(nd.ln) }()
	return nil
}

func (nd *loadNode) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = nd.srv.Shutdown(ctx)
	if nd.serveErr != nil {
		<-nd.serveErr
	}
}

// putRing pushes a ring config to one node's control endpoint.
func putRing(client *http.Client, addr string, cfg cluster.Config) error {
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, addr+"/cluster/ring", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("PUT ring to %s: %w", addr, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT ring to %s: status %d", addr, resp.StatusCode)
	}
	return nil
}

// runCluster drives the full load through a consistent-hash Router over
// n real nodes, rebalancing twice mid-drive: a node joins at 40% of the
// stream and one leaves (ring removal; the process stays up to drain
// and be accounted) at 70%. The router is deliberately NOT told about
// either ring change — it discovers both through ownership rejections
// and heals itself from the acks' ring versions, which is exactly the
// control-plane race a real deployment sees. Afterwards the harness
// asserts every report was accounted exactly once across all engines.
func runCluster(cfg loadConfig, n int, out io.Writer) error {
	if n < 2 {
		return fmt.Errorf("cluster mode needs ≥ 2 nodes (got %d)", n)
	}
	nodes := make([]*loadNode, 0, n+1)
	ring1 := cluster.Config{Version: 1}
	for i := 0; i < n; i++ {
		nd, err := newLoadNode(cfg, i)
		if err != nil {
			return err
		}
		nodes = append(nodes, nd)
		ring1.Members = append(ring1.Members, cluster.Member{ID: nd.id, Addr: nd.addr})
	}
	for _, nd := range nodes {
		if err := nd.enable(ring1); err != nil {
			return err
		}
	}
	defer func() {
		for _, nd := range nodes {
			nd.shutdown()
		}
	}()

	// The report stream is user-interleaved so every wire batch spans
	// owners, and GENERATED, not pre-materialized: at a million users the
	// old [][]ingest.Report slice was the harness's own memory ceiling
	// (users × reports × 48 bytes before the first Send). Each worker
	// fills a pooled buffer per batch instead.
	classes := cfg.optClasses()
	total := cfg.users * cfg.reports
	gen := newBatchGen(cfg.users, cfg.reports, cfg.batch, classes)
	nBatches := gen.numBatches()

	tab, err := wire.NewClassTable(classes)
	if err != nil {
		return err
	}
	initialRing, err := cluster.Build(ring1)
	if err != nil {
		return err
	}
	sender := cluster.NewHTTPSender(30 * time.Second)
	client := sender.Client
	rt, err := cluster.NewRouter(tab, initialRing, sender)
	if err != nil {
		return err
	}
	clientReg := obs.NewRegistry()
	rt.Instrument(clientReg)
	lat := clientReg.Histogram("tubeload_request_seconds",
		"client-observed router Send latency", obs.Labels{"mode": "cluster"}, latencyBuckets)

	var mu sync.Mutex
	agg := cluster.RouteStats{PerNode: make(map[string]int)}
	drive := func(from, to int) error {
		workers := parallel.Jobs(cfg.jobs)
		return parallel.ForEach(context.Background(), workers, workers, func(w int) error {
			for b := from + w; b < to; b += workers {
				buf := gen.fill(b)
				t0 := time.Now()
				stats, err := rt.Send(context.Background(), *buf)
				gen.put(buf) // Send retains nothing: release on every path
				if err != nil {
					return err
				}
				lat.Observe(time.Since(t0).Seconds())
				mu.Lock()
				agg.Reports += stats.Reports
				agg.Rerouted += stats.Rerouted
				agg.Shed += stats.Shed
				for id, c := range stats.PerNode {
					agg.PerNode[id] += c
				}
				mu.Unlock()
			}
			return nil
		})
	}

	joinAt, leaveAt := nBatches*40/100, nBatches*70/100
	start := time.Now()
	if err := drive(0, joinAt); err != nil {
		return err
	}

	// Join: a new node comes up on ring v2; every NODE learns v2, the
	// router stays on v1 until rejections teach it otherwise.
	joiner, err := newLoadNode(cfg, n)
	if err != nil {
		return err
	}
	ring2 := cluster.Config{Version: 2, Members: append(append([]cluster.Member(nil), ring1.Members...),
		cluster.Member{ID: joiner.id, Addr: joiner.addr})}
	if err := joiner.enable(ring2); err != nil {
		return err
	}
	nodes = append(nodes, joiner)
	for _, nd := range nodes[:n] {
		if err := putRing(client, nd.addr, ring2); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "cluster: %s joined (ring v2) at batch %d/%d\n", joiner.id, joinAt, nBatches)
	if err := drive(joinAt, leaveAt); err != nil {
		return err
	}

	// Leave: n1 is removed from the ring but its process stays up — the
	// drain-before-decommission pattern — so its accounted reports still
	// count in the final exactly-once check.
	leaver := nodes[1]
	ring3 := cluster.Config{Version: 3}
	for _, m := range ring2.Members {
		if m.ID != leaver.id {
			ring3.Members = append(ring3.Members, m)
		}
	}
	for _, nd := range nodes {
		if err := putRing(client, nd.addr, ring3); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "cluster: %s left the ring (ring v3) at batch %d/%d\n", leaver.id, leaveAt, nBatches)
	if err := drive(leaveAt, nBatches); err != nil {
		return err
	}
	elapsed := time.Since(start)

	// Flush every apply queue, then verify exactly-once accounting
	// across all engines (including the joiner's and the leaver's).
	var accepted, shed int64
	var accountedMB float64
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range nodes {
		if err := nd.srv.DrainCluster(dctx); err != nil {
			return err
		}
		eng := nd.opt.Measurement()
		accepted += eng.Accepted()
		shed += nd.srv.ShedReports()
		for _, v := range eng.ClassTotals() {
			accountedMB += v
		}
	}
	// Volumes are integral MB well below 2^53, so exact equality is the
	// correct exactly-once check: a tolerance would mask a lost or
	// doubled report.
	//lint:allow floateq integral sums below 2^53 are exact; tolerance would mask lost reports
	if accepted != int64(total) || accountedMB != float64(total) {
		return fmt.Errorf("exactly-once violated: %d reports / %.0f MB accounted across %d engines, want %d / %d (shed %d)",
			accepted, accountedMB, len(nodes), total, total, shed)
	}
	if shed != 0 {
		return fmt.Errorf("cluster shed %d reports with an underloaded queue", shed)
	}
	if agg.Rerouted == 0 {
		return fmt.Errorf("no reports rerouted across two rebalances — the join/leave path was not exercised")
	}

	snap := lat.Snapshot()
	fmt.Fprintf(out, "cluster:   %d reports / %d batches over %d→%d→%d nodes in %v → %.0f reports/s\n",
		total, nBatches, n, n+1, n, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	fmt.Fprintf(out, "           latency p50 %v  p95 %v  p99 %v\n",
		secondsToDuration(snap.Quantile(0.50)).Round(time.Microsecond),
		secondsToDuration(snap.Quantile(0.95)).Round(time.Microsecond),
		secondsToDuration(snap.Quantile(0.99)).Round(time.Microsecond))
	ids := make([]string, 0, len(agg.PerNode))
	for id := range agg.PerNode {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(out, "           per-node:")
	for _, id := range ids {
		fmt.Fprintf(out, " %s=%d", id, agg.PerNode[id])
	}
	fmt.Fprintf(out, "\n           rerouted %d reports across 2 rebalances; router healed to ring v%d\n",
		agg.Rerouted, rt.Ring().Version())
	fmt.Fprintf(out, "           drop rate %.2f%% (%d shed, cluster_shed_reports_total)\n",
		100*float64(shed)/float64(total), shed)
	fmt.Fprintf(out, "           verified: %d reports, %.0f MB accounted exactly once across %d engines\n",
		accepted, accountedMB, len(nodes))
	if cfg.metricsOut != "" {
		regs := []*obs.Registry{clientReg}
		for _, nd := range nodes {
			regs = append(regs, nd.srv.Registry())
		}
		if err := dumpMetrics(cfg.metricsOut, out, append(regs, obs.Default())...); err != nil {
			return err
		}
	}
	return nil
}
