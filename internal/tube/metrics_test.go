package tube

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"tdp/internal/core"
	"tdp/internal/obs"
)

// TestMetricsEndpoint drives the server through every handler and then
// checks that GET /metrics serves a Prometheus exposition covering the
// server, ingest, and optimizer-state metric families — the acceptance
// surface of the obs subsystem.
func TestMetricsEndpoint(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		var r *httptest.ResponseRecorder = httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		srv.ServeHTTP(r, req)
		return r
	}
	if w := do("GET", "/price", nil); w.Code != 200 {
		t.Fatalf("GET /price = %d", w.Code)
	}
	if w := do("POST", "/usage/wire", encodeWire(t, []UsageReport{{User: "u1", Class: "web", VolumeMB: 5}})); w.Code != 200 {
		t.Fatalf("POST /usage/wire = %d: %s", w.Code, w.Body)
	}
	if w := do("POST", "/usage/wire", encodeWire(t, []UsageReport{{User: "u2", Class: "ftp", VolumeMB: 3}, {User: "u1", Class: "web", VolumeMB: 1}})); w.Code != 200 {
		t.Fatalf("POST /usage/wire = %d: %s", w.Code, w.Body)
	}
	if w := do("POST", "/usage/wire", encodeWire(t, []UsageReport{{User: "u1", Class: "web", VolumeMB: -5}})); w.Code != 400 {
		t.Fatalf("bad volume = %d, want 400", w.Code)
	}

	w := do("GET", "/metrics", nil)
	if w.Code != 200 {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	out := w.Body.String()
	for _, want := range []string{
		"# TYPE tube_http_requests_total counter\n",
		`tube_http_requests_total{handler="price"} 1` + "\n",
		`tube_http_requests_total{handler="usage_wire"} 3` + "\n",
		"# TYPE tube_http_request_seconds histogram\n",
		`tube_http_request_seconds_bucket{handler="price",le="+Inf"} 1` + "\n",
		"ingest_reports_total 3\n",
		"ingest_batches_total 2\n",
		"ingest_reports_rejected_total 1\n",
		"cluster_wire_reports_total 3\n",
		"# TYPE ingest_shard_users gauge\n",
		"tube_current_period 0\n",
		"tube_billing_periods 0\n",
		// Solver metrics from the default registry: NewOptimizer's
		// initial offline solve has already recorded at least one solve.
		"# TYPE optimize_solves_total counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	counts := srv.RequestCounts()
	if counts["usage_wire"] != 3 || counts["metrics"] != 1 {
		t.Errorf("RequestCounts = %v", counts)
	}
}

func TestPprofDisabledByDefault(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != 404 {
		t.Fatalf("pprof without EnablePprof = %d, want 404", w.Code)
	}
	srv.EnablePprof()
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("pprof after EnablePprof = %d, want 200", w.Code)
	}
}

// TestRunDayTrace checks the span tree one RunDay produces: a
// controller.run_day root with the loop stages as children, all ended.
func TestRunDayTrace(t *testing.T) {
	c, err := NewController(controllerConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	model := truthModel(t)
	var reports []*DayReport
	for day := 0; day < 2; day++ {
		rep, err := c.RunDayCtx(context.Background(), model)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		reports = append(reports, rep)
	}

	for i, rep := range reports {
		if rep.Trace == nil {
			t.Fatalf("day %d: nil trace", i+1)
		}
		if rep.Trace.Name() != "controller.run_day" {
			t.Fatalf("day %d root = %q", i+1, rep.Trace.Name())
		}
		var names []string
		for _, ch := range rep.Trace.Children() {
			names = append(names, ch.Name())
			if !ch.Ended() {
				t.Errorf("day %d: span %q not ended", i+1, ch.Name())
			}
		}
		want := []string{"optimize.plan", "usage.react", "profile.observe"}
		if i == 1 {
			// Day 2 reaches MinObservations and re-estimates.
			want = append(want, "profile.estimate")
		}
		if len(names) != len(want) {
			t.Fatalf("day %d spans = %v, want %v", i+1, names, want)
		}
		for j := range want {
			if names[j] != want[j] {
				t.Fatalf("day %d spans = %v, want %v", i+1, names, want)
			}
		}
		if !strings.Contains(rep.Trace.Render(), "optimize.plan") {
			t.Errorf("render missing plan span:\n%s", rep.Trace.Render())
		}
	}
	if !reports[1].Reestimated {
		t.Fatal("day 2 did not re-estimate (MinObservations default changed?)")
	}
}

// TestPeriodSolveMetricsResolvedOnce: a close's solve metrics are
// handles resolved on the first solve of each start mode, the very
// series /metrics shows, so recording a solve counts it without a
// registry lookup and without allocating.
func TestPeriodSolveMetricsResolvedOnce(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	warm := core.PeriodSolve{Warm: true, Evals: 1}
	record := func() {
		opt.mu.Lock()
		opt.recordPeriodSolve(warm)
		opt.mu.Unlock()
	}
	record()
	m := opt.solveMet[1]
	reg := obs.Default()
	if m.solves != reg.Counter("online_period_solves_total", "", obs.Labels{"start": "warm"}) ||
		m.evals != reg.Histogram("online_period_solve_evals", "", obs.Labels{"start": "warm"}, periodEvalBuckets) {
		t.Fatal("warm solve handles are not the registry's series")
	}
	if opt.evalsSaved == nil || opt.evalsSaved != reg.Counter("online_period_evals_saved_total", "", nil) {
		t.Fatal("evals-saved handle is not the registry's series")
	}
	solves, saved := m.solves.Value(), opt.evalsSaved.Value()
	const n = 100
	for range n {
		record()
	}
	if got := m.solves.Value() - solves; got != n {
		t.Fatalf("%d solves recorded, counter moved by %d", n, got)
	}
	if got, want := opt.evalsSaved.Value()-saved, int64(n*(opt.coldPeriodEvals-warm.Evals)); got != want {
		t.Fatalf("evals saved moved by %d, want %d", got, want)
	}
	if raceEnabled {
		return // the race runtime allocates during AllocsPerRun
	}
	if allocs := testing.AllocsPerRun(n, record); allocs != 0 {
		t.Fatalf("recording a warm solve allocates %.1f times, want 0", allocs)
	}
}
