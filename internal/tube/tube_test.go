package tube

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"tdp/internal/cluster"
	"tdp/internal/core"
	"tdp/internal/ingest"
	"tdp/internal/wire"
)

// testScenario is a small 12-period, 3-class deployment: web, ftp, and
// streaming video with distinct patience indices.
func testScenario() *core.Scenario {
	classes := 3
	demand := make([][]float64, 12)
	base := []float64{22, 13, 8, 8, 11, 19, 20, 23, 24, 25, 23, 26}
	for i := range demand {
		demand[i] = make([]float64, classes)
		demand[i][0] = base[i] * 0.2 // web
		demand[i][1] = base[i] * 0.3 // ftp
		demand[i][2] = base[i] * 0.5 // video
	}
	return &core.Scenario{
		Periods:  12,
		Demand:   demand,
		Betas:    []float64{4, 1.5, 0.5}, // web impatient, video patient
		Capacity: []float64{18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18, 18},
		Cost:     core.LinearCost(3),
	}
}

func testClasses() []string { return []string{"web", "ftp", "video"} }

// meter applies reps to eng as one wire frame, decoded with
// DecodeRecords and applied with ApplyWire: the path every report takes
// through POST /usage/wire.
func meter(eng *ingest.Engine, reps ...ingest.Report) error {
	tab, err := wire.NewClassTable(eng.Classes())
	if err != nil {
		return err
	}
	frame, err := wire.NewEncoder(tab).Encode(reps)
	if err != nil {
		return err
	}
	users, hashes, recs, _, err := wire.NewDecoder(tab).DecodeRecords(frame)
	if err != nil {
		return err
	}
	return eng.ApplyWire(users, hashes, recs)
}

// periodUsers closes eng's period and returns the users it metered,
// with their volumes.
func periodUsers(eng *ingest.Engine) map[string]float64 {
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

// wireGUI returns a GUI for baseURL with the wire encoder over the test
// classes enabled.
func wireGUI(t *testing.T, baseURL string) *GUI {
	t.Helper()
	gui, err := NewGUI(baseURL)
	if err != nil {
		t.Fatalf("NewGUI: %v", err)
	}
	if err := gui.EnableWire(testClasses()); err != nil {
		t.Fatalf("EnableWire: %v", err)
	}
	return gui
}

// NewClassProfilerTruth returns a generator of per-period per-class
// usage under the test scenario's true betas.
func NewClassProfilerTruth(t *testing.T) (func(rewards []float64) [][]float64, error) {
	t.Helper()
	m, err := core.NewStaticModel(testScenario())
	if err != nil {
		return nil, err
	}
	return func(rewards []float64) [][]float64 {
		return m.UsageByType(rewards)
	}, nil
}

func TestProfilerEndToEnd(t *testing.T) {
	// Feed the per-class profiler days of usage generated from the true
	// patience indices and check the estimates recover them.
	scn := testScenario()
	prof, err := NewClassProfiler(scn.Demand, scn.NormReward(), 150)
	if err != nil {
		t.Fatalf("NewClassProfiler: %v", err)
	}
	if _, err := prof.EstimateBetas(); !errors.Is(err, ErrBadInput) {
		t.Errorf("estimate with no data: err = %v, want ErrBadInput", err)
	}
	truth, err := NewClassProfilerTruth(t)
	if err != nil {
		t.Fatalf("truth: %v", err)
	}
	const days = 4
	for d := 0; d < days; d++ {
		rewards := streamDayRewards(scn.Periods, d)
		if err := prof.AddObservation(rewards, truth(rewards)); err != nil {
			t.Fatalf("AddObservation: %v", err)
		}
	}
	if prof.ObservationCount() != days {
		t.Fatalf("ObservationCount = %d, want %d", prof.ObservationCount(), days)
	}
	betas, err := prof.EstimateBetas()
	if err != nil {
		t.Fatalf("EstimateBetas: %v", err)
	}
	for j, want := range scn.Betas {
		if math.Abs(betas[j]-want) > 0.1*want {
			t.Errorf("class %d: β = %v, want %v within 10%%", j, betas[j], want)
		}
	}
}

func TestProfilerObservationValidation(t *testing.T) {
	scn := testScenario()
	if _, err := NewClassProfiler(scn.Demand[:1], 1, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("one-period baseline: err = %v, want ErrBadInput", err)
	}
	if _, err := NewClassProfiler([][]float64{{1, 2}, {1}}, 1, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("ragged baseline: err = %v, want ErrBadInput", err)
	}
	if _, err := NewClassProfiler(scn.Demand, 0, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero max reward: err = %v, want ErrBadInput", err)
	}
	prof, err := NewClassProfiler(scn.Demand, scn.NormReward(), 0)
	if err != nil {
		t.Fatalf("NewClassProfiler: %v", err)
	}
	if err := prof.AddObservation([]float64{1}, [][]float64{{1, 2, 3}}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short obs: err = %v, want ErrBadInput", err)
	}
	usage := make([][]float64, scn.Periods)
	for i := range usage {
		usage[i] = []float64{1, 2}
	}
	if err := prof.AddObservation(make([]float64, scn.Periods), usage); !errors.Is(err, ErrBadInput) {
		t.Errorf("missing class: err = %v, want ErrBadInput", err)
	}
	if prof.ObservationCount() != 0 {
		t.Errorf("rejected observations recorded: %d", prof.ObservationCount())
	}
}

func TestOptimizerLifecycle(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{
		Scenario: testScenario(),
		Classes:  testClasses(),
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	if opt.Period() != 0 {
		t.Errorf("initial period = %d", opt.Period())
	}
	sched := opt.Schedule()
	if len(sched) != 12 {
		t.Fatalf("schedule has %d periods", len(sched))
	}
	if opt.CurrentReward() != sched[0] {
		t.Errorf("CurrentReward %v != schedule[0] %v", opt.CurrentReward(), sched[0])
	}
	// Record traffic matching the estimate and close the period.
	meas := opt.Measurement()
	for i, c := range testClasses() {
		if err := meter(meas, ingest.Report{User: "user1", Class: c, VolumeMB: testScenario().Demand[0][i]}); err != nil {
			t.Fatalf("meter: %v", err)
		}
	}
	observed, err := opt.ClosePeriod()
	if err != nil {
		t.Fatalf("ClosePeriod: %v", err)
	}
	if len(observed) != 3 {
		t.Fatalf("observed %v", observed)
	}
	if opt.Period() != 1 {
		t.Errorf("period = %d after close, want 1", opt.Period())
	}
	hist, err := opt.PriceHistory()
	if err != nil || len(hist) != 1 {
		t.Fatalf("PriceHistory = (%v, %v), want 1 point", hist, err)
	}
	if math.Abs(hist[0].Value-sched[0]) > 1e-12 {
		t.Errorf("history recorded %v, want %v", hist[0].Value, sched[0])
	}
	uh, err := opt.UsageHistory()
	if err != nil || len(uh) != 1 {
		t.Fatalf("UsageHistory = (%v, %v)", uh, err)
	}
	wantTotal := testScenario().Demand[0][0] + testScenario().Demand[0][1] + testScenario().Demand[0][2]
	if math.Abs(uh[0].Value-wantTotal) > 1e-9 {
		t.Errorf("usage history %v, want %v", uh[0].Value, wantTotal)
	}
}

func TestOptimizerConfigValidation(t *testing.T) {
	if _, err := NewOptimizer(OptimizerConfig{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil scenario: err = %v, want ErrBadInput", err)
	}
	if _, err := NewOptimizer(OptimizerConfig{
		Scenario: testScenario(),
		Classes:  []string{"web"},
	}); !errors.Is(err, ErrBadInput) {
		t.Errorf("class mismatch: err = %v, want ErrBadInput", err)
	}
}

func TestServerAndGUIEndToEnd(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{
		Scenario: testScenario(),
		Classes:  testClasses(),
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	gui := wireGUI(t, ts.URL)
	ctx := context.Background()

	info, err := gui.PullPrice(ctx)
	if err != nil {
		t.Fatalf("PullPrice: %v", err)
	}
	if info.Period != 0 || len(info.Rewards) != 12 {
		t.Errorf("PriceInfo = %+v", info)
	}
	if gui.CurrentReward() != info.Reward {
		t.Errorf("CurrentReward %v != pulled %v", gui.CurrentReward(), info.Reward)
	}

	// Report usage over the wire and close the period.
	if err := gui.ReportUsageWire(ctx, []UsageReport{{User: "user2", Class: "video", VolumeMB: 42}}); err != nil {
		t.Fatalf("ReportUsageWire: %v", err)
	}
	observed, err := opt.ClosePeriod()
	if err != nil {
		t.Fatalf("ClosePeriod: %v", err)
	}
	if observed[2] != 42 {
		t.Errorf("video observed %v, want 42", observed[2])
	}

	// Pull for the next period; local history should hold both periods.
	if _, err := gui.PullPrice(ctx); err != nil {
		t.Fatalf("PullPrice: %v", err)
	}
	hist, err := gui.PriceHistory()
	if err != nil {
		t.Fatalf("PriceHistory: %v", err)
	}
	if len(hist) != 2 {
		t.Errorf("GUI history has %d points, want 2", len(hist))
	}
	if gui.Pulls() != 2 {
		t.Errorf("Pulls = %d, want 2 (once per period)", gui.Pulls())
	}
}

func TestServerRejectsBadUsage(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{
		Scenario: testScenario(),
		Classes:  testClasses(),
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	srv, _ := NewServer(opt)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// A class the server does not account only encodes against another
	// class table, which the frame's table hash exposes.
	otherTab, err := wire.NewClassTable([]string{"web", "ftp", "nope"})
	if err != nil {
		t.Fatal(err)
	}
	unknownClass, err := wire.NewEncoder(otherTab).Encode([]UsageReport{{User: "u", Class: "nope", VolumeMB: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"unknown class", unknownClass},
		{"empty user", encodeWire(t, []UsageReport{{User: "", Class: "web", VolumeMB: 1}})},
		{"negative volume in batch", encodeWire(t, []UsageReport{
			{User: "u", Class: "web", VolumeMB: 2}, {User: "u", Class: "ftp", VolumeMB: -1}})},
		{"volume over the cap in batch", encodeWire(t, []UsageReport{
			{User: "u", Class: "web", VolumeMB: 2}, {User: "v", Class: "ftp", VolumeMB: 2 * ingest.MaxReportMB}})},
	} {
		resp, err := http.Post(ts.URL+"/usage/wire", cluster.WireContentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// All-or-nothing: the rejected batches' valid reports were not applied.
	for i, v := range opt.Measurement().ClassTotals() {
		if v != 0 {
			t.Errorf("class %d total %v after rejected requests, want 0", i, v)
		}
	}
}

func TestGUIHistoryPersistence(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{
		Scenario: testScenario(),
		Classes:  testClasses(),
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	srv, _ := NewServer(opt)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	gui, _ := NewGUI(ts.URL)
	ctx := context.Background()
	if _, err := gui.PullPrice(ctx); err != nil {
		t.Fatalf("PullPrice: %v", err)
	}
	if _, err := opt.ClosePeriod(); err != nil {
		t.Fatal(err)
	}
	if _, err := gui.PullPrice(ctx); err != nil {
		t.Fatalf("PullPrice: %v", err)
	}

	var buf bytes.Buffer
	if err := gui.SaveHistory(&buf); err != nil {
		t.Fatalf("SaveHistory: %v", err)
	}
	// A fresh GUI ("after restart") restores the archive.
	gui2, _ := NewGUI(ts.URL)
	if err := gui2.LoadHistory(&buf); err != nil {
		t.Fatalf("LoadHistory: %v", err)
	}
	want, _ := gui.PriceHistory()
	got, err := gui2.PriceHistory()
	if err != nil {
		t.Fatalf("PriceHistory: %v", err)
	}
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("restored %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := gui2.LoadHistory(bytes.NewBufferString("junk")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestNewGUIValidation(t *testing.T) {
	if _, err := NewGUI(""); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty URL: err = %v, want ErrBadInput", err)
	}
	if _, err := NewServer(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil optimizer: err = %v, want ErrBadInput", err)
	}
}
