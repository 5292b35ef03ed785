package tube

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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
func startCluster(t *testing.T, n int) ([]*clusterNode, cluster.Config) {
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
		opts := ClusterOptions{SelfID: nd.id, Ring: cfg}
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

// TestClusterWireIngestExactlyOnce drives a Router over real HTTP
// against 3 clustered nodes and checks every report lands exactly once,
// with totals bit-identical to a single engine (dyadic volumes).
func TestClusterWireIngestExactlyOnce(t *testing.T) {
	nodes, cfg := startCluster(t, 3)
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
		if _, err := rt.Send(ctx, reps[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}

	// Every volume is dyadic, so a plain sum is what one node accounts.
	refClass := make([]float64, len(testClasses()))
	for _, r := range reps {
		refClass[slices.Index(testClasses(), r.Class)] += r.VolumeMB
	}
	sum := make([]float64, len(refClass))
	var accepted int64
	for _, nd := range nodes {
		for j, v := range nd.opt.Measurement().ClassTotals() {
			sum[j] += v
		}
		n := nd.srv.wireReports.Value()
		if n == 0 {
			t.Fatalf("node %s accounted nothing", nd.id)
		}
		accepted += n
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
// /cluster/ring and checks (a) version monotonicity, (b) the wire path
// rejects a misrouted user by index and accepts it once the ring moves
// the user to this node.
func TestClusterRingUpdateAndMisrouteRejection(t *testing.T) {
	nodes, cfg := startCluster(t, 2)
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

	// (b) Wire path: rejected by index, nothing accounted.
	misrouted := []ingest.Report{{User: other, Class: "web", VolumeMB: 1}}
	if code, ack := postWire(t, n0.ts.URL, misrouted); code != http.StatusOK ||
		ack.Accepted != 0 || len(ack.Rejected) != 1 || ack.Rejected[0] != 0 || ack.RingVersion != 1 {
		t.Fatalf("misrouted wire: status %d, ack %+v", code, ack)
	}
	if n := n0.srv.wireReports.Value(); n != 0 {
		t.Fatalf("misrouted report accounted: %d", n)
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
	if code, ack := postWire(t, n0.ts.URL, misrouted); code != http.StatusOK ||
		ack.Accepted != 1 || len(ack.Rejected) != 0 || ack.RingVersion != 2 {
		t.Fatalf("after takeover: status %d, ack %+v", code, ack)
	}
	if n := n0.srv.wireReports.Value(); n != 1 {
		t.Fatalf("after takeover: %d reports accounted, want 1", n)
	}
}

// TestClusterPriceReplication: followers serve the leader's schedule
// from replicated snapshots and report staleness on /healthz.
func TestClusterPriceReplication(t *testing.T) {
	nodes, _ := startCluster(t, 2)
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
// handler rejection metrics: a body past maxWireBody, and a frame whose
// header claims a payload past the decoder's frame bound.
func TestBodyLimits(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) int {
		t.Helper()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/usage/wire", bytes.NewReader(body))
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(make([]byte, maxWireBody+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", code)
	}
	frame := encodeWire(t, []ingest.Report{{User: "u", Class: "web", VolumeMB: 1}})
	binary.LittleEndian.PutUint32(frame[4:], wire.DefaultMaxFrameBytes+1)
	if code := post(frame); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize frame: status %d, want 413", code)
	}
	if got := srv.RequestCounts()["usage_wire_rejected"]; got != 2 {
		t.Fatalf("rejection counter %d, want 2", got)
	}
	// A small malformed body is still a plain 400.
	if code := post([]byte("not a frame")); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", code)
	}
	if got := srv.RequestCounts()["usage_wire_rejected"]; got != 2 {
		t.Fatalf("400 bumped the 413 counter to %d", got)
	}
	if got := opt.Measurement().ClassTotals(); !slices.Equal(got, make([]float64, len(got))) {
		t.Fatalf("rejected bodies left class totals %v", got)
	}
}

// TestWireAckMeansApplied: a node applies every frame before it acks it,
// so under any load the engine holds exactly what the acks accepted the
// moment the acks are back, with no drain and nothing shed. The node is
// built with QueueDepth 1, the setting under which an apply queue would
// shed most often.
func TestWireAckMeansApplied(t *testing.T) {
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
	const (
		posters = 8
		frames  = 50
	)
	var (
		wg       sync.WaitGroup
		accepted atomic.Int64
	)
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tab, err := wire.NewClassTable(testClasses())
			if err != nil {
				t.Error(err)
				return
			}
			enc := wire.NewEncoder(tab)
			for f := 0; f < frames; f++ {
				reps := []ingest.Report{
					{User: fmt.Sprintf("p%d-%d", p, f), Class: "web", VolumeMB: 1},
					{User: fmt.Sprintf("p%d-%d", p, f+1000), Class: "video", VolumeMB: 2},
				}
				frame, err := enc.Encode(reps)
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/usage/wire", bytes.NewReader(frame)))
				var ack cluster.WireAck
				if rec.Code != http.StatusOK || json.NewDecoder(rec.Body).Decode(&ack) != nil {
					t.Errorf("wire status %d: %s", rec.Code, rec.Body.String())
					return
				}
				accepted.Add(int64(ack.Accepted))
			}
		}(p)
	}
	wg.Wait()
	if want := int64(posters * frames * 2); accepted.Load() != want {
		t.Fatalf("acks accepted %d reports, sent %d", accepted.Load(), want)
	}
	if got := srv.wireReports.Value(); got != accepted.Load() {
		t.Fatalf("node applied %d reports once the acks are back, acks accepted %d", got, accepted.Load())
	}
	if got, want := opt.Measurement().ClassTotals(), []float64{posters * frames, 0, 2 * posters * frames}; !slices.Equal(got, want) {
		t.Fatalf("class totals %v, want %v", got, want)
	}
}

// TestAckedReportInClosingPeriod: a report whose ack came back before
// ClosePeriod began is in that period's observed totals, every time.
// Each period's frame is large, so an apply still running after the ack
// would miss the close.
func TestAckedReportInClosingPeriod(t *testing.T) {
	nodes, _ := startCluster(t, 1)
	nd := nodes[0]
	const perFrame = 4096
	reps := make([]ingest.Report, perFrame)
	for k := 0; k < 12; k++ {
		for i := range reps {
			reps[i] = ingest.Report{User: fmt.Sprintf("p%02d-u%04d", k, i), Class: "ftp", VolumeMB: 1}
		}
		rec := httptest.NewRecorder()
		nd.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/usage/wire", bytes.NewReader(encodeWire(t, reps))))
		if rec.Code != http.StatusOK {
			t.Fatalf("period %d: status %d: %s", k, rec.Code, rec.Body.String())
		}
		observed, err := nd.opt.ClosePeriod()
		if err != nil {
			t.Fatal(err)
		}
		//lint:allow floateq integral volumes sum exactly
		if observed[1] != perFrame {
			t.Fatalf("period %d observed ftp %v, want the acked %v", k, observed[1], perFrame)
		}
	}
}

// TestOneNodeRingAcksEveryUser: a server that never joined a cluster is
// the one-node ring. POST /usage/wire is mounted, every user is owned,
// and the ack carries RingVersion 0.
func TestOneNodeRingAcksEveryUser(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	reps := clusterReports(300, 2)
	code, ack := postWire(t, ts.URL, reps)
	if code != http.StatusOK || ack.Accepted != len(reps) || len(ack.Rejected) != 0 || ack.RingVersion != 0 {
		t.Fatalf("status %d, ack %+v; want all %d accepted at ring version 0", code, ack, len(reps))
	}
	if n := srv.wireReports.Value(); n != int64(len(reps)) {
		t.Fatalf("engine accounted %d, sent %d", n, len(reps))
	}
	if srv.Ring() != nil {
		t.Fatalf("Ring() = %+v on a server outside a cluster", srv.Ring())
	}
}

// TestClusterWireRejectsBadVolumes: POST /usage/wire validates every
// record before it applies or acks anything. A frame carrying a
// negative, infinite or over-cap volume is answered 400 with nothing
// applied, so the router sees the error; a body whose first frame is
// valid and whose second is not (bad volume or undecodable) applies
// neither.
func TestClusterWireRejectsBadVolumes(t *testing.T) {
	nodes, cfg := startCluster(t, 1)
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
	for _, v := range []float64{-1, math.Inf(1), 2 * ingest.MaxReportMB} {
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
	if got := nd.opt.Measurement().ClassTotals(); !slices.Equal(got, make([]float64, len(got))) {
		t.Errorf("rejected bodies left class totals %v, want none", got)
	}
	// The same node still acks and applies a valid frame.
	stats, err := rt.Send(context.Background(), []ingest.Report{good})
	if err != nil || stats.Reports != 1 {
		t.Fatalf("valid frame: stats %+v, err %v", stats, err)
	}
	if n := nd.srv.wireReports.Value(); n != 1 {
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
	if got := srv.wireReports.Value(); got != int64(len(reps)) {
		t.Fatalf("engine accounted %d, sent %d", got, len(reps))
	}
}

// encodeWire encodes reps as one wire frame over the test classes.
func encodeWire(t *testing.T, reps []ingest.Report) []byte {
	t.Helper()
	tab, err := wire.NewClassTable(testClasses())
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.NewEncoder(tab).Encode(reps)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// postWire posts reps as one wire frame to base + /usage/wire and
// returns the status and, on 200, the decoded ack.
func postWire(t *testing.T, base string, reps []ingest.Report) (int, cluster.WireAck) {
	t.Helper()
	resp, err := http.Post(base+"/usage/wire", cluster.WireContentType, bytes.NewReader(encodeWire(t, reps)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack cluster.WireAck
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ack
}

// servedPeriod waits until nd serves period p and returns its reward.
func servedPeriod(t *testing.T, nd *clusterNode, p int) float64 {
	t.Helper()
	gui := wireGUI(t, nd.ts.URL)
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := gui.PullPrice(context.Background())
		if err == nil && info.Period == p {
			return info.Reward
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never served period %d (last %+v, err %v)", nd.id, p, info, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerBillsServedPrice: a follower solves its own schedule but
// serves the leader's, and it must bill at the price it served. Over a
// day and a half of routed load (the two schedules part once the online
// engines fold a day of their different usage shares), every follower
// statement equals the user's usage times (base − the reward the
// follower served in each period).
func TestFollowerBillsServedPrice(t *testing.T) {
	nodes, cfg := startCluster(t, 2)
	follower := nodes[1]
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
	reps := clusterReports(300, 3)
	want := make(map[string]float64)
	ownDiffers := 0
	for p := 0; p < 18; p++ {
		served := servedPeriod(t, follower, p)
		if own := follower.opt.CurrentReward(); own != served {
			ownDiffers++
		}
		for lo := 0; lo < len(reps); lo += 64 {
			if _, err := rt.Send(context.Background(), reps[lo:min(lo+64, len(reps))]); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range reps {
			if ring.Owns(follower.id, r.User) {
				want[r.User] += r.VolumeMB * max(1-served, 0)
			}
		}
		for _, nd := range nodes {
			if _, err := nd.opt.ClosePeriod(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ownDiffers == 0 {
		t.Fatal("the follower's own schedule matched the served one in every period; the test shows nothing")
	}
	stmts := follower.opt.Billing().Statements()
	if len(stmts) != len(want) || len(stmts) == 0 {
		t.Fatalf("follower billed %d users, owns %d", len(stmts), len(want))
	}
	for _, st := range stmts {
		if w := want[st.User]; math.Abs(st.Charge-w) > 1e-9*w {
			t.Fatalf("%s charged %v, served prices give %v", st.User, st.Charge, w)
		}
	}
	if n := follower.srv.Registry().Counter("tube_billing_own_schedule_periods_total", "", nil).Value(); n != 0 {
		t.Fatalf("%v periods billed at the follower's own schedule after its first snapshot", n)
	}
}

// TestGUIPartialAckResend: a batch posted to one node of a 2-node
// cluster is applied only for the users that node owns. The error names
// the rejected reports, and resending exactly those to their owner
// applies every report once (resending the whole batch would bill the
// owned part twice).
func TestGUIPartialAckResend(t *testing.T) {
	nodes, cfg := startCluster(t, 2)
	ring, err := cluster.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := clusterReports(20, 1)
	ctx := context.Background()
	err = wireGUI(t, nodes[0].ts.URL).ReportUsageWire(ctx, batch)
	var partial *PartialAckError
	if !errors.As(err, &partial) || !errors.Is(err, ErrRemote) {
		t.Fatalf("mixed-owner batch: err = %v, want a *PartialAckError wrapping ErrRemote", err)
	}
	if partial.Accepted == 0 || len(partial.Rejected) == 0 || partial.Accepted+len(partial.Rejected) != len(batch) {
		t.Fatalf("partial ack %+v for %d reports", partial, len(batch))
	}
	resend := make([]UsageReport, 0, len(partial.Rejected))
	for _, i := range partial.Rejected {
		if ring.Owns(nodes[0].id, batch[i].User) {
			t.Fatalf("report %d of owned user %s rejected", i, batch[i].User)
		}
		resend = append(resend, batch[i])
	}
	if err := wireGUI(t, nodes[1].ts.URL).ReportUsageWire(ctx, resend); err != nil {
		t.Fatalf("resend to the owner: %v", err)
	}
	seen := make(map[string]int)
	var accepted int64
	for _, nd := range nodes {
		accepted += nd.srv.wireReports.Value()
		for user := range periodUsers(nd.opt.Measurement()) {
			seen[user]++
		}
	}
	if accepted != int64(len(batch)) || len(seen) != len(batch) {
		t.Fatalf("%d reports applied for %d users, want %d once each", accepted, len(seen), len(batch))
	}
	for user, n := range seen {
		if n != 1 {
			t.Fatalf("user %s applied on %d nodes", user, n)
		}
	}
}

// TestWireBodyAppliesAsOneFrame: the handler applies a multi-frame
// body's owned records as one frame, so a user that appears in two
// frames is folded into one account, misrouted records are rejected by
// their index across the body, and a bad record that only a misrouted
// user carries still fails the whole body.
func TestWireBodyAppliesAsOneFrame(t *testing.T) {
	nodes, cfg := startCluster(t, 2)
	n0 := nodes[0]
	ring, err := cluster.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mine, other string
	for u := 0; mine == "" || other == ""; u++ {
		if u == 1000 {
			t.Fatal("no user on each node")
		}
		cand := fmt.Sprintf("bu%04d", u)
		switch owned := ring.OwnerID(cand) == "n0"; {
		case owned && mine == "":
			mine = cand
		case !owned && other == "":
			other = cand
		}
	}
	tab, err := wire.NewClassTable(testClasses())
	if err != nil {
		t.Fatal(err)
	}
	post := func(frames ...[]ingest.Report) (int, cluster.WireAck) {
		t.Helper()
		enc := wire.NewEncoder(tab)
		var body []byte
		for _, f := range frames {
			if body, err = enc.AppendFrame(body, f); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(n0.ts.URL+"/usage/wire", cluster.WireContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack cluster.WireAck
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, ack
	}
	code, ack := post(
		[]ingest.Report{{User: mine, Class: "web", VolumeMB: 1}, {User: other, Class: "web", VolumeMB: 8}},
		[]ingest.Report{{User: other, Class: "ftp", VolumeMB: 8}, {User: mine, Class: "web", VolumeMB: 2}})
	if code != http.StatusOK || ack.Accepted != 2 || !slices.Equal(ack.Rejected, []int{1, 2}) {
		t.Fatalf("two-frame body: status %d, ack %+v", code, ack)
	}
	if got := n0.opt.Measurement().ClassTotals(); !slices.Equal(got, []float64{3, 0, 0}) {
		t.Fatalf("class totals %v, want [3 0 0]", got)
	}
	code, _ = post(
		[]ingest.Report{{User: mine, Class: "web", VolumeMB: 1}},
		[]ingest.Report{{User: other, Class: "ftp", VolumeMB: -1}})
	if code != http.StatusBadRequest {
		t.Fatalf("bad misrouted record: status %d, want 400", code)
	}
	if got := n0.opt.Measurement().ClassTotals(); !slices.Equal(got, []float64{3, 0, 0}) {
		t.Fatalf("rejected body left class totals %v, want [3 0 0]", got)
	}
	// Both frames listed mine; one account holds both records.
	if got := periodUsers(n0.opt.Measurement()); len(got) != 1 || got[mine] != 3 {
		t.Fatalf("period users %v, want only %s with 3 MB", got, mine)
	}
}
