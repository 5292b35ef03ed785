package tube

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"tdp/internal/obs"
)

// streamDayRewards returns a deterministic reward schedule for day d,
// varied enough across days to identify every period's β.
func streamDayRewards(n, d int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.1 + 0.8*float64((i*3+d)%7)/7
	}
	return p
}

// TestStreamProfilerMatchesBatch replays noiseless truth-model days
// period by period through the streaming profiler and requires (a) the
// streaming fit to match a cold batch fit over the same window to the
// 1e-6 contract, and (b) the reduced per-class betas to recover the
// true patience ordering.
func TestStreamProfilerMatchesBatch(t *testing.T) {
	scn := testScenario()
	truth, err := NewClassProfilerTruth(t)
	if err != nil {
		t.Fatalf("truth: %v", err)
	}
	sp, err := NewStreamProfiler(scn.Demand, scn.NormReward(), StreamConfig{Window: 3})
	if err != nil {
		t.Fatalf("NewStreamProfiler: %v", err)
	}
	var est *StreamEstimate
	for d := 0; d < 5; d++ {
		rewards := streamDayRewards(scn.Periods, d)
		usage := truth(rewards)
		for i := 0; i < scn.Periods; i++ {
			closed, err := sp.FoldPeriod(i, rewards[i], usage[i])
			if err != nil {
				t.Fatalf("day %d period %d: %v", d, i, err)
			}
			if closed != (i == scn.Periods-1) {
				t.Fatalf("day %d closed at period %d", d, i)
			}
		}
		if est, err = sp.Refine(); err != nil {
			t.Fatalf("day %d: Refine: %v", d, err)
		}
	}
	if !sp.WindowFull() || sp.Days() != 5 {
		t.Fatalf("window full=%v days=%d, want full after 5", sp.WindowFull(), sp.Days())
	}
	div, err := sp.Divergence()
	if err != nil {
		t.Fatalf("Divergence: %v", err)
	}
	if div > 1e-6 {
		t.Errorf("streaming vs batch divergence %.3g, want ≤ 1e-6", div)
	}
	// True ordering: web (4) > ftp (1.5) > video (0.5).
	if !(est.Betas[0] > est.Betas[1] && est.Betas[1] > est.Betas[2]) {
		t.Errorf("patience ordering not recovered: %v", est.Betas)
	}
	betas, ok := sp.Betas()
	if !ok {
		t.Fatal("Betas not available after refinement")
	}
	for j := range betas {
		if betas[j] != est.Betas[j] {
			t.Errorf("Betas()[%d] = %v, estimate %v", j, betas[j], est.Betas[j])
		}
	}
}

// TestStreamProfilerQuiescedReuse: refining twice with no new data
// returns the cached fit.
func TestStreamProfilerQuiescedReuse(t *testing.T) {
	scn := testScenario()
	truth, err := NewClassProfilerTruth(t)
	if err != nil {
		t.Fatalf("truth: %v", err)
	}
	sp, err := NewStreamProfiler(scn.Demand, scn.NormReward(), StreamConfig{Window: 2})
	if err != nil {
		t.Fatalf("NewStreamProfiler: %v", err)
	}
	rewards := streamDayRewards(scn.Periods, 0)
	usage := truth(rewards)
	for i := 0; i < scn.Periods; i++ {
		if _, err := sp.FoldPeriod(i, rewards[i], usage[i]); err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
	}
	if sp.StalePeriods() != scn.Periods {
		t.Errorf("stale periods %d, want %d", sp.StalePeriods(), scn.Periods)
	}
	first, err := sp.Refine()
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if first.Reused {
		t.Error("first refinement claims reuse")
	}
	if sp.StalePeriods() != 0 {
		t.Errorf("stale periods %d after refine, want 0", sp.StalePeriods())
	}
	second, err := sp.Refine()
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if !second.Reused {
		t.Error("quiesced refinement not reused")
	}
	for j := range first.Betas {
		if first.Betas[j] != second.Betas[j] {
			t.Errorf("reused betas drifted: %v vs %v", first.Betas, second.Betas)
		}
	}
}

// TestStreamProfilerReuseSkipsFitters: on an unchanged window (the 47
// mid-day closes of a 48-period day) Refine hands back the cached
// estimate — same betas, iterations and RSS — without re-reducing
// cloned fits, and still counts mode="reused". A Divergence call on a
// changed window refits through the same path, so the next Refine
// returns the new fits' reduction instead of stale betas.
func TestStreamProfilerReuseSkipsFitters(t *testing.T) {
	scn := testScenario()
	truth, err := NewClassProfilerTruth(t)
	if err != nil {
		t.Fatalf("truth: %v", err)
	}
	newProfiler := func() *StreamProfiler {
		sp, err := NewStreamProfiler(scn.Demand, scn.NormReward(), StreamConfig{Window: 1})
		if err != nil {
			t.Fatalf("NewStreamProfiler: %v", err)
		}
		return sp
	}
	fold := func(sp *StreamProfiler, d, from, to int) {
		rewards := streamDayRewards(scn.Periods, d)
		usage := truth(rewards)
		for i := from; i < to; i++ {
			if _, err := sp.FoldPeriod(i, rewards[i], usage[i]); err != nil {
				t.Fatalf("day %d period %d: %v", d, i, err)
			}
		}
	}
	sp := newProfiler()
	reg := obs.NewRegistry()
	sp.Instrument(reg)
	reused := reg.Counter("stream_refines_total", "", obs.Labels{"mode": "reused"})
	fold(sp, 0, 0, scn.Periods)
	first, err := sp.Refine()
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	fold(sp, 1, 0, scn.Periods-1) // mid-day: the window is unchanged
	again, err := sp.Refine()
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if !again.Reused || !again.Warm || again.Iterations != first.Iterations || again.RSS != first.RSS {
		t.Errorf("unchanged window: %+v, want the cached %+v marked reused", again, first)
	}
	for j := range first.Betas {
		if again.Betas[j] != first.Betas[j] {
			t.Errorf("class %d beta %v, cached %v", j, again.Betas[j], first.Betas[j])
		}
	}
	again.Betas[0] = -1 // the caller's copy must not alias the cache
	if b, _ := sp.Betas(); b[0] == -1 {
		t.Error("reused estimate aliases the cached betas")
	}
	if got := reused.Value(); got != 1 {
		t.Errorf("reused refines counted %d, want 1", got)
	}
	if !raceEnabled {
		if a := testing.AllocsPerRun(10, func() { _, _ = sp.Refine() }); a > 2 {
			t.Errorf("reused Refine allocates %v times, want ≤ 2 (the estimate and its betas)", a)
		}
	}

	// Divergence refits the fitters on the completed day; the next
	// Refine must return those fits' reduction.
	fold(sp, 1, scn.Periods-1, scn.Periods)
	if _, err := sp.Divergence(); err != nil {
		t.Fatalf("Divergence: %v", err)
	}
	after, err := sp.Refine()
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	twin := newProfiler()
	fold(twin, 0, 0, scn.Periods)
	if _, err := twin.Refine(); err != nil {
		t.Fatalf("twin Refine: %v", err)
	}
	fold(twin, 1, 0, scn.Periods)
	want, err := twin.Refine()
	if err != nil {
		t.Fatalf("twin Refine: %v", err)
	}
	for j := range want.Betas {
		if after.Betas[j] != want.Betas[j] {
			t.Errorf("after Divergence class %d beta %v, want the refit's %v", j, after.Betas[j], want.Betas[j])
		}
	}
}

// TestStreamProfilerValidation covers the lockstep-preserving error
// paths and the empty-window refine.
func TestStreamProfilerValidation(t *testing.T) {
	scn := testScenario()
	if _, err := NewStreamProfiler(nil, 1, StreamConfig{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil baseline: err = %v, want ErrBadInput", err)
	}
	if _, err := NewStreamProfiler(scn.Demand, 0, StreamConfig{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero max reward: err = %v, want ErrBadInput", err)
	}
	sp, err := NewStreamProfiler(scn.Demand, scn.NormReward(), StreamConfig{})
	if err != nil {
		t.Fatalf("NewStreamProfiler: %v", err)
	}
	if _, err := sp.Refine(); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty refine: err = %v, want ErrBadInput", err)
	}
	if _, err := sp.FoldPeriod(0, 0.5, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("class count: err = %v, want ErrBadInput", err)
	}
	bad := []float64{1, math.NaN(), 3}
	if _, err := sp.FoldPeriod(0, 0.5, bad); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN usage: err = %v, want ErrBadInput", err)
	}
	// After a rejected fold, a clean day still runs in lockstep.
	for i := 0; i < scn.Periods; i++ {
		if _, err := sp.FoldPeriod(i, 0.5, []float64{1, 2, 3}); err != nil {
			t.Fatalf("period %d after rejected fold: %v", i, err)
		}
	}
	if sp.Days() != 1 {
		t.Errorf("days = %d, want 1", sp.Days())
	}
	// At a day boundary, a non-zero period is a mid-day (re)attach: the
	// fold is skipped without error until the next day starts.
	if closed, err := sp.FoldPeriod(5, 0.5, []float64{1, 2, 3}); err != nil || closed {
		t.Errorf("boundary reattach: closed=%v err=%v, want silent skip", closed, err)
	}
	// Mid-day, skipping ahead IS an ordering violation.
	if _, err := sp.FoldPeriod(0, 0.5, []float64{1, 2, 3}); err != nil {
		t.Fatalf("day restart: %v", err)
	}
	if _, err := sp.FoldPeriod(2, 0.5, []float64{1, 2, 3}); !errors.Is(err, ErrBadInput) {
		t.Errorf("out-of-order fold: err = %v, want ErrBadInput", err)
	}
}

// TestOptimizerStreaming drives a streaming optimizer through two full
// days of period closes and checks the streaming estimate goes live
// inside the ClosePeriod critical section.
func TestOptimizerStreaming(t *testing.T) {
	scn := testScenario()
	o, err := NewOptimizer(OptimizerConfig{
		Scenario:  scn,
		Classes:   testClasses(),
		Streaming: true,
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	sp := o.Stream()
	if sp == nil {
		t.Fatal("Stream() nil with Streaming enabled")
	}
	truth, err := NewClassProfilerTruth(t)
	if err != nil {
		t.Fatalf("truth: %v", err)
	}
	for day := 0; day < 2; day++ {
		sched := o.Schedule()
		usage := truth(sched)
		for i := 0; i < scn.Periods; i++ {
			for j, class := range testClasses() {
				if err := meter(o.Measurement(), UsageReport{User: fmt.Sprintf("u%d", j), Class: class, VolumeMB: usage[i][j]}); err != nil {
					t.Fatalf("meter: %v", err)
				}
			}
			if _, err := o.ClosePeriod(); err != nil {
				t.Fatalf("day %d period %d: ClosePeriod: %v", day, i, err)
			}
		}
	}
	if sp.Days() != 2 {
		t.Fatalf("stream days = %d, want 2", sp.Days())
	}
	betas, ok := sp.Betas()
	if !ok {
		t.Fatal("no streaming estimate after two days of period closes")
	}
	if len(betas) != 3 {
		t.Fatalf("betas len %d", len(betas))
	}
	// Refinement ran this period, so staleness is zero right after close.
	if sp.StalePeriods() != 0 {
		t.Errorf("stale periods %d right after ClosePeriod, want 0", sp.StalePeriods())
	}
}

// TestOptimizerConcurrentCut is the satellite race regression: traffic
// recording, period closes and belief/schedule readers run concurrently
// (under -race in CI) and every period close must remain one atomic cut —
// the streaming fold consumes exactly the rollover totals of its own
// critical section, never a torn mix.
func TestOptimizerConcurrentCut(t *testing.T) {
	scn := testScenario()
	o, err := NewOptimizer(OptimizerConfig{
		Scenario:  scn,
		Classes:   testClasses(),
		Streaming: true,
		Shards:    8,
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			classes := testClasses()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := fmt.Sprintf("u%d-%d", g, i%13)
				if err := meter(o.Measurement(), UsageReport{User: u, Class: classes[i%3], VolumeMB: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = o.Schedule()
			_ = o.CurrentReward()
			if betas, ok := o.Stream().Betas(); ok && len(betas) != 3 {
				t.Error("torn betas read")
				return
			}
			_ = o.Stream().StalePeriods()
		}
	}()
	for p := 0; p < 2*scn.Periods; p++ {
		if _, err := o.ClosePeriod(); err != nil {
			t.Fatalf("ClosePeriod %d: %v", p, err)
		}
	}
	close(stop)
	wg.Wait()
	if o.Stream().Days() != 2 {
		t.Errorf("stream days = %d, want 2", o.Stream().Days())
	}
}

// TestControllerConcurrentReaders: belief readers race the day loop
// (run under -race in CI) — the day cut is one critical section, so
// reads see either the pre- or post-cut belief.
func TestControllerConcurrentReaders(t *testing.T) {
	cfg := controllerConfig()
	cfg.MinObservations = 1
	c, err := NewController(cfg)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	react := truthModel(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if betas := c.Betas(); len(betas) != 3 {
					t.Error("torn betas read")
					return
				}
				_ = c.Days()
			}
		}()
	}
	for day := 0; day < 2; day++ {
		rep, err := c.RunDay(react)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		if !rep.Reestimated {
			t.Errorf("day %d not re-estimated", day)
		}
	}
	close(stop)
	wg.Wait()
	if c.Days() != 2 {
		t.Errorf("days = %d, want 2", c.Days())
	}
}

// TestStreamProfilerInstrumented: the metric families the README quotes
// are really exported.
func TestStreamProfilerInstrumented(t *testing.T) {
	scn := testScenario()
	truth, err := NewClassProfilerTruth(t)
	if err != nil {
		t.Fatalf("truth: %v", err)
	}
	sp, err := NewStreamProfiler(scn.Demand, scn.NormReward(), StreamConfig{Window: 2})
	if err != nil {
		t.Fatalf("NewStreamProfiler: %v", err)
	}
	reg := obs.NewRegistry()
	sp.Instrument(reg)
	for d := 0; d < 2; d++ {
		rewards := streamDayRewards(scn.Periods, d)
		usage := truth(rewards)
		for i := 0; i < scn.Periods; i++ {
			if _, err := sp.FoldPeriod(i, rewards[i], usage[i]); err != nil {
				t.Fatalf("fold: %v", err)
			}
		}
		if _, err := sp.Refine(); err != nil {
			t.Fatalf("refine: %v", err)
		}
	}
	if _, err := sp.Divergence(); err != nil {
		t.Fatalf("Divergence: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"stream_folds_total",
		"stream_days_total",
		"stream_refines_total",
		"stream_stale_periods",
		"stream_window_days",
		"stream_batch_divergence",
		"stream_beta",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metric %q missing from exposition", want)
		}
	}
}
