package tube

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/ingest"
	"tdp/internal/wire"
)

// clusterNode bundles one clustered server with its test harness.
type clusterNode struct {
	id  string
	opt *Optimizer
	srv *Server
	ts  *httptest.Server
}

// startCluster brings up n clustered servers on real listeners sharing
// a ring; node 0 is the leader, the rest replicate prices from it.
func startCluster(t *testing.T, n int, queueDepth int) ([]*clusterNode, cluster.Config) {
	t.Helper()
	nodes := make([]*clusterNode, n)
	cfg := cluster.Config{Version: 1}
	// Two passes: addresses exist only after the listeners are up.
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
		nodes[i] = &clusterNode{id: fmt.Sprintf("n%d", i), opt: opt, srv: srv, ts: ts}
		cfg.Members = append(cfg.Members, cluster.Member{ID: nodes[i].id, Addr: ts.URL})
	}
	for i, nd := range nodes {
		opts := ClusterOptions{SelfID: nd.id, Ring: cfg, QueueDepth: queueDepth}
		if i > 0 {
			opts.LeaderURL = nodes[0].ts.URL
			opts.ReplicateEvery = 20 * time.Millisecond
		}
		if err := nd.srv.EnableCluster(opts); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = nd.srv.Shutdown(ctx)
			cancel()
			nd.ts.Close()
		}
	})
	return nodes, cfg
}

func clusterReports(users, perUser int) []ingest.Report {
	var reps []ingest.Report
	classes := testClasses()
	for u := 0; u < users; u++ {
		for k := 0; k < perUser; k++ {
			reps = append(reps, ingest.Report{
				User:     fmt.Sprintf("cu%04d", u),
				Class:    classes[(u+k)%len(classes)],
				VolumeMB: 1 + 0.25*float64((u+k)%8),
			})
		}
	}
	return reps
}

// drainClusterQueues flushes every node's apply queue so engine totals
// are comparable.
func drainClusterQueues(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, nd := range nodes {
		if err := nd.srv.cl.queue.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterWireIngestExactlyOnce drives a Router over real HTTP
// against 3 clustered nodes and checks every report lands exactly once,
// with totals bit-identical to a single engine (dyadic volumes).
func TestClusterWireIngestExactlyOnce(t *testing.T) {
	nodes, cfg := startCluster(t, 3, 1024)
	ring, err := cluster.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := wire.NewClassTable(testClasses())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(tab, ring, &cluster.HTTPSender{})
	if err != nil {
		t.Fatal(err)
	}
	reps := clusterReports(120, 5)
	ctx := context.Background()
	for lo := 0; lo < len(reps); lo += 64 {
		hi := min(lo+64, len(reps))
		stats, err := rt.Send(ctx, reps[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if stats.Shed != 0 {
			t.Fatalf("underloaded cluster shed %d reports", stats.Shed)
		}
	}
	drainClusterQueues(t, nodes)

	ref, err := ingest.NewEngine(testClasses(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RecordBatch(append([]ingest.Report(nil), reps...)); err != nil {
		t.Fatal(err)
	}
	refClass := ref.ClassTotals()
	sum := make([]float64, len(refClass))
	var accepted int64
	for _, nd := range nodes {
		eng := nd.opt.Measurement()
		for j, v := range eng.ClassTotals() {
			sum[j] += v
		}
		accepted += eng.Accepted()
		if eng.Accepted() == 0 {
			t.Fatalf("node %s accounted nothing", nd.id)
		}
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
}

// TestClusterRingUpdateAndMisrouteRejection pushes a new ring over PUT
// /cluster/ring and checks (a) version monotonicity, (b) the JSON path
// answers 421 + owner hint for a misrouted user, (c) the wire path
// rejects by index.
func TestClusterRingUpdateAndMisrouteRejection(t *testing.T) {
	nodes, cfg := startCluster(t, 2, 64)
	n0 := nodes[0]

	// Find a user n0 does NOT own.
	ring, err := cluster.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := ""
	for u := 0; u < 1000; u++ {
		cand := fmt.Sprintf("mu%04d", u)
		if ring.OwnerID(cand) != "n0" {
			other = cand
			break
		}
	}
	if other == "" {
		t.Fatal("no key hashed off n0")
	}

	// (b) JSON single-report path: 421 with a redirect hint.
	body, _ := json.Marshal(ingest.Report{User: other, Class: "web", VolumeMB: 1})
	resp, err := http.Post(n0.ts.URL+"/usage", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted /usage: status %d, want 421", resp.StatusCode)
	}
	if hint := resp.Header.Get("X-Tube-Owner"); hint != nodes[1].ts.URL {
		t.Fatalf("redirect hint %q, want %q", hint, nodes[1].ts.URL)
	}

	// (c) Wire path: rejected by index, nothing accounted.
	tab, err := wire.NewClassTable(testClasses())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.NewEncoder(tab).Encode([]ingest.Report{{User: other, Class: "web", VolumeMB: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(n0.ts.URL+"/usage/wire", cluster.WireContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var ack cluster.WireAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted != 0 || len(ack.Rejected) != 1 || ack.Rejected[0] != 0 {
		t.Fatalf("misrouted wire ack: %+v", ack)
	}

	// (a) Ring update: an older version is refused, a newer applied.
	put := func(c cluster.Config) ringAck {
		t.Helper()
		raw, _ := json.Marshal(c)
		req, _ := http.NewRequest(http.MethodPut, n0.ts.URL+"/cluster/ring", bytes.NewReader(raw))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT ring: status %d", resp.StatusCode)
		}
		var a ringAck
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	if a := put(cfg); a.Applied || a.Version != 1 {
		t.Fatalf("replayed ring v1: %+v", a)
	}
	solo := cluster.Config{Version: 2, Members: []cluster.Member{{ID: "n0", Addr: n0.ts.URL}}}
	if a := put(solo); !a.Applied || a.Version != 2 {
		t.Fatalf("ring v2: %+v", a)
	}
	// n0 now owns everything: the previously misrouted user is accepted.
	resp, err = http.Post(n0.ts.URL+"/usage", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("after takeover /usage: status %d, want 204", resp.StatusCode)
	}
}

// TestClusterPriceReplication: followers serve the leader's schedule
// from replicated snapshots and report staleness on /healthz.
func TestClusterPriceReplication(t *testing.T) {
	nodes, _ := startCluster(t, 2, 64)
	leader, follower := nodes[0], nodes[1]

	var want PriceInfo
	resp, err := http.Get(leader.ts.URL + "/price")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The follower converges within a few pull intervals.
	deadline := time.Now().Add(5 * time.Second)
	var got PriceInfo
	for {
		resp, err := http.Get(follower.ts.URL + "/price")
		if err != nil {
			t.Fatal(err)
		}
		ok := resp.StatusCode == http.StatusOK
		if ok {
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never served a replicated price")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got.Period != want.Period || len(got.Rewards) != len(want.Rewards) {
		t.Fatalf("replicated price %+v, leader %+v", got, want)
	}
	for i := range got.Rewards {
		//lint:allow floateq JSON round-trips float64 exactly
		if got.Rewards[i] != want.Rewards[i] {
			t.Fatalf("reward %d: follower %v, leader %v", i, got.Rewards[i], want.Rewards[i])
		}
	}

	// healthz on the follower reports cluster state and staleness.
	resp, err = http.Get(follower.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("follower healthz: status %d, %+v", resp.StatusCode, h)
	}
	if h.Cluster == nil || h.Cluster.Self != "n1" || h.Cluster.Leader ||
		h.Cluster.Members != 2 || len(h.Cluster.OwnedRanges) == 0 {
		t.Fatalf("follower cluster health: %+v", h.Cluster)
	}
	if h.Cluster.ReplicationStalenessSeconds == nil || *h.Cluster.ReplicationStalenessSeconds < 0 {
		t.Fatalf("follower staleness: %+v", h.Cluster.ReplicationStalenessSeconds)
	}
	if h.Cluster.OwnedFraction <= 0 || h.Cluster.OwnedFraction >= 1 {
		t.Fatalf("follower owns %.3f of the circle", h.Cluster.OwnedFraction)
	}
}

// TestHealthzSingleNode: healthz exists (and omits the cluster section)
// without EnableCluster.
func TestHealthzSingleNode(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var h Health
	if err := json.NewDecoder(rec.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Cluster != nil {
		t.Fatalf("single-node healthz: %+v", h)
	}
}

// TestBodyLimits: oversize bodies answer 413 and are counted in the
// handler rejection metrics (satellite: http.MaxBytesReader bounds).
func TestBodyLimits(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body []byte) int {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	// Valid JSON that only reveals its size by reading past the bound.
	oversize := func(size int) []byte {
		return []byte(`{"user":"` + strings.Repeat("x", size) + `"}`)
	}
	if code := post("/usage", oversize(maxUsageBody)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /usage: status %d, want 413", code)
	}
	if code := post("/usage/batch", []byte(`[{"user":"`+strings.Repeat("x", maxBatchBody)+`"}]`)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize /usage/batch: status %d, want 413", code)
	}
	counts := srv.RequestCounts()
	if counts["usage_rejected"] != 1 || counts["usage_batch_rejected"] != 1 {
		t.Fatalf("rejection counters: %+v", counts)
	}
	// A small malformed body is still a plain 400.
	if code := post("/usage", []byte("not json")); code != http.StatusBadRequest {
		t.Fatalf("malformed /usage: status %d, want 400", code)
	}
	if got := srv.RequestCounts()["usage_rejected"]; got != 1 {
		t.Fatalf("400 bumped the 413 counter to %d", got)
	}
}

// TestClusterLoadShedding: a depth-1 queue with a stalled drain sheds
// oldest batches, visibly, with per-class counts.
func TestClusterLoadShedding(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Version: 1, Members: []cluster.Member{{ID: "n0", Addr: "http://local"}}}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: cfg, QueueDepth: 1}); err != nil {
		t.Fatal(err)
	}
	// Stalling the drain worker deterministically is racy, so push
	// through the handler with the worker intact and the queue depth at
	// 1: how often a batch evicts its predecessor depends on timing.
	tab, err := wire.NewClassTable(testClasses())
	if err != nil {
		t.Fatal(err)
	}
	enc := wire.NewEncoder(tab)
	post := func(users []string) cluster.WireAck {
		t.Helper()
		var reps []ingest.Report
		for _, u := range users {
			reps = append(reps, ingest.Report{User: u, Class: "web", VolumeMB: 1})
		}
		frame, err := enc.Encode(reps)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/usage/wire", bytes.NewReader(frame))
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("wire status %d: %s", rec.Code, rec.Body.String())
		}
		var ack cluster.WireAck
		if err := json.NewDecoder(rec.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		return ack
	}
	// With the worker running, sheds are timing-dependent; assert only
	// the conservation the metrics promise: accepted == applied + shed.
	var sent int
	for i := 0; i < 200; i++ {
		ack := post([]string{fmt.Sprintf("su%03d", i), fmt.Sprintf("su%03d", i+1000)})
		sent += ack.Accepted
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.cl.queue.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	shed, byClass := srv.cl.queue.ShedTotals()
	applied := opt.Measurement().Accepted()
	if applied+shed != int64(sent) {
		t.Fatalf("conservation: applied %d + shed %d != accepted %d", applied, shed, sent)
	}
	var classSum int64
	for _, c := range byClass {
		classSum += c
	}
	if classSum != shed {
		t.Fatalf("per-class shed %d != total %d", classSum, shed)
	}
}

// TestClusterWireRejectsBadVolumes: POST /usage/wire validates every
// record before it acks. A frame carrying a negative or infinite volume
// is answered 400 with nothing queued, so the router sees the error
// instead of an ack for reports the engine would later drop; a body
// whose first frame is valid and whose second is not (bad volume or
// undecodable) queues neither.
func TestClusterWireRejectsBadVolumes(t *testing.T) {
	nodes, cfg := startCluster(t, 1, 16)
	nd := nodes[0]
	ring, err := cluster.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := wire.NewClassTable(testClasses())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.NewRouter(tab, ring, &cluster.HTTPSender{})
	if err != nil {
		t.Fatal(err)
	}
	good := ingest.Report{User: "alice", Class: "web", VolumeMB: 4}
	for _, v := range []float64{-1, math.Inf(1)} {
		bad := ingest.Report{User: "bob", Class: "ftp", VolumeMB: v}
		if _, err := rt.Send(context.Background(), []ingest.Report{good, bad}); err == nil {
			t.Errorf("volume %v: router Send acked a frame the node cannot apply", v)
		}
		enc := wire.NewEncoder(tab)
		body, err := enc.AppendFrame(nil, []ingest.Report{good})
		if err != nil {
			t.Fatal(err)
		}
		if body, err = enc.AppendFrame(body, []ingest.Report{bad}); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(nd.ts.URL+"/usage/wire", cluster.WireContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("volume %v in the second frame: status %d, want 400", v, resp.StatusCode)
		}
	}
	// A second frame that does not decode (CRC broken) also fails the
	// whole body, valid first frame included.
	frame, err := wire.NewEncoder(tab).Encode([]ingest.Report{good})
	if err != nil {
		t.Fatal(err)
	}
	body := append(append([]byte(nil), frame...), frame...)
	body[len(body)-1] ^= 0xff
	resp, err := http.Post(nd.ts.URL+"/usage/wire", cluster.WireContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt second frame: status %d, want 400", resp.StatusCode)
	}
	drainClusterQueues(t, nodes)
	if n := nd.opt.Measurement().Accepted(); n != 0 {
		t.Errorf("rejected bodies left %d reports accounted, want 0", n)
	}
	if shed := nd.srv.ShedReports(); shed != 0 {
		t.Errorf("rejected bodies shed %d reports", shed)
	}
	// The same node still acks and applies a valid frame.
	stats, err := rt.Send(context.Background(), []ingest.Report{good})
	if err != nil || stats.Reports != 1 {
		t.Fatalf("valid frame: stats %+v, err %v", stats, err)
	}
	drainClusterQueues(t, nodes)
	if n := nd.opt.Measurement().Accepted(); n != 1 {
		t.Errorf("valid frame: %d reports accounted, want 1", n)
	}
}

// TestEnableClusterValidation covers the config error paths.
func TestEnableClusterValidation(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Version: 1, Members: []cluster.Member{{ID: "n0", Addr: "http://a"}}}
	if err := srv.EnableCluster(ClusterOptions{Ring: cfg}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("no SelfID: %v", err)
	}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "ghost", Ring: cfg}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("self not in ring: %v", err)
	}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: cluster.Config{}}); !errors.Is(err, cluster.ErrBadConfig) {
		t.Fatalf("empty ring: %v", err)
	}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: cfg}); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: cfg}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("double enable: %v", err)
	}
	if srv.Ring() == nil || srv.Ring().Version() != 1 {
		t.Fatalf("Ring(): %+v", srv.Ring())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGUIWireRoundTrip drives the GUI client's wire path end to end.
func TestGUIWireRoundTrip(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Version: 1, Members: []cluster.Member{{ID: "n0", Addr: "http://local"}}}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: cfg}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	g, err := NewGUI(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := g.ReportUsageWire(ctx, clusterReports(3, 2)); err == nil ||
		!strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("wire before EnableWire: %v", err)
	}
	if err := g.EnableWire(testClasses()); err != nil {
		t.Fatal(err)
	}
	reps := clusterReports(5, 3)
	if err := g.ReportUsageWire(ctx, reps); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.cl.queue.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if got := opt.Measurement().Accepted(); got != int64(len(reps)) {
		t.Fatalf("engine accounted %d, sent %d", got, len(reps))
	}
}
