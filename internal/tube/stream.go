// Streaming profiling: the live counterpart of the day-batch
// ClassProfiler (DESIGN.md §12).
//
// The batch engine collects whole days and re-fits from a neutral start
// when asked — the paper's "weekly" workflow. StreamProfiler instead
// rides the serving plane: it folds the per-class totals of every
// period close (the measurement rollover cut) into one
// estimate.StreamFitter per class, and warm-starts a Levenberg–Marquardt
// refinement from the previous fit each period — O(1) fold cost per
// period close and microseconds per refinement, versus a cold fit per
// day.
//
// Consistency: the fitters are fed only from rollover totals
// (FoldPeriod), inside the optimizer's period-close critical section,
// so a (reward, usage) pair never straddles a schedule update.
package tube

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"tdp/internal/estimate"
	"tdp/internal/obs"
)

// StreamConfig tunes a StreamProfiler.
type StreamConfig struct {
	// Window is the number of complete days each per-class fitter
	// retains (default 3).
	Window int
	// Tol is the LM convergence tolerance for both the streaming
	// refinement and the batch comparator (default 1e-13 — tight enough
	// that warm-started streaming and cold batch fits agree to the
	// 1e-6 divergence contract with two orders of margin).
	Tol float64
	// AbsTol, when > 0, lets a refinement return as soon as the residual
	// sum of squares is at or below it — the quiesced fast path.
	AbsTol float64
}

// StreamEstimate is the result of one streaming refinement.
type StreamEstimate struct {
	// Betas is the demand-weighted patience index per class.
	Betas []float64
	// Reused is true when every class returned its cached fit (no new
	// data since the previous refinement).
	Reused bool
	// Warm is true when at least one class seeded LM from its previous
	// fit rather than the neutral cold start.
	Warm bool
	// Iterations sums LM iterations across classes.
	Iterations int
	// RSS sums the residual sum of squares across classes.
	RSS float64
}

// StreamProfiler estimates per-class patience continuously from the
// period-close usage totals. FoldPeriod/Refine/Divergence are safe for
// concurrent use.
type StreamProfiler struct {
	mu        sync.Mutex
	periods   int
	classes   int
	baseline  [][]float64              // [period][class]; immutable after New
	fitters   []*estimate.StreamFitter // guarded by mu: one single-type fitter per class
	betas     []float64                // guarded by mu: last refined per-class patience
	refined   bool                     // guarded by mu: betas hold a fit (not still empty)
	periodsIn int                      // guarded by mu: period closes folded

	met atomic.Pointer[streamMetrics] // nil until Instrument, like ingest's hookup
}

// NewStreamProfiler builds one streaming fitter per class from the
// per-period, per-class TIP baseline (same shape as NewClassProfiler).
func NewStreamProfiler(baseline [][]float64, maxReward float64, cfg StreamConfig) (*StreamProfiler, error) {
	if len(baseline) < 2 || len(baseline[0]) == 0 {
		return nil, fmt.Errorf("baseline %dx?: %w", len(baseline), ErrBadInput)
	}
	if maxReward <= 0 {
		return nil, fmt.Errorf("max reward %v: %w", maxReward, ErrBadInput)
	}
	if cfg.Window <= 0 {
		cfg.Window = 3
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-13
	}
	classes := len(baseline[0])
	sp := &StreamProfiler{
		periods: len(baseline),
		classes: classes,
		betas:   make([]float64, classes),
	}
	for i, row := range baseline {
		if len(row) != classes {
			return nil, fmt.Errorf("ragged baseline at period %d: %w", i+1, ErrBadInput)
		}
		sp.baseline = append(sp.baseline, append([]float64(nil), row...))
	}
	for j := 0; j < classes; j++ {
		base := make([]float64, sp.periods)
		for i := range base {
			base[i] = sp.baseline[i][j]
		}
		m := &estimate.Model{
			Periods:     sp.periods,
			Types:       1,
			BaselineTIP: base,
			MaxReward:   maxReward,
			Tol:         cfg.Tol,
		}
		sf, err := estimate.NewStreamFitter(m, estimate.StreamConfig{
			Window: cfg.Window,
			Tol:    cfg.Tol,
			AbsTol: cfg.AbsTol,
		})
		if err != nil {
			return nil, badInput(fmt.Errorf("class %d: %w", j, err))
		}
		sp.fitters = append(sp.fitters, sf)
	}
	return sp, nil
}

// Classes returns the number of profiled classes.
func (sp *StreamProfiler) Classes() int { return sp.classes }

// FoldPeriod folds one closed period into every class fitter: the
// reward that was in force and the authoritative per-class usage totals
// from the measurement rollover. Call it from the same critical section that performs the rollover so
// the (reward, usage) pair cannot straddle a schedule update — the
// day-boundary hazard the batch path had.
func (sp *StreamProfiler) FoldPeriod(period int, reward float64, usageByClass []float64) (dayClosed bool, err error) {
	if len(usageByClass) != sp.classes {
		return false, fmt.Errorf("%d usage classes, want %d: %w", len(usageByClass), sp.classes, ErrBadInput)
	}
	// Validate up front: the per-class fitters must stay in lockstep, so
	// no fold may start unless every class's fold will be accepted.
	for j, v := range usageByClass {
		if math.IsNaN(v) {
			return false, fmt.Errorf("class %d: NaN usage: %w", j, ErrBadInput)
		}
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for j, sf := range sp.fitters {
		closed, err := sf.ObservePeriod(period, reward, usageByClass[j])
		if err != nil {
			// Period-sequencing errors are detected identically by every
			// fitter before any state changes, so lockstep is preserved.
			return false, badInput(fmt.Errorf("class %d: %w", j, err))
		}
		dayClosed = closed
	}
	sp.periodsIn++
	if m := sp.met.Load(); m != nil {
		m.folds.Inc()
		if dayClosed {
			m.days.Inc()
		}
	}
	return dayClosed, nil
}

// Refine runs one warm-started refinement per class and reduces the
// fitted per-period β's to a demand-weighted patience index per class.
// With no new data since the last call it returns the cached estimate
// in microseconds.
func (sp *StreamProfiler) Refine() (*StreamEstimate, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	est := &StreamEstimate{
		Betas:  make([]float64, sp.classes),
		Reused: true,
	}
	for j, sf := range sp.fitters {
		res, err := sf.Refine()
		if err != nil {
			return nil, badInput(fmt.Errorf("class %d: %w", j, err))
		}
		if !res.Reused {
			est.Reused = false
		}
		if res.Warm {
			est.Warm = true
		}
		est.Iterations += res.Iterations
		est.RSS += res.RSS
		base := sp.fitters[j].Model().BaselineTIP
		var num, den float64
		for i := 0; i < sp.periods; i++ {
			num += base[i] * res.Params.Beta[i][0]
			den += base[i]
		}
		if den == 0 {
			est.Betas[j] = 1
			continue
		}
		est.Betas[j] = num / den
	}
	copy(sp.betas, est.Betas)
	sp.refined = true
	if m := sp.met.Load(); m != nil {
		mode := "cold"
		if est.Reused {
			mode = "reused"
		} else if est.Warm {
			mode = "warm"
		}
		m.refines[mode].Inc()
		if !est.Reused {
			m.iterations.Observe(float64(est.Iterations))
		}
		for j, b := range est.Betas {
			m.beta[j].Set(b)
		}
	}
	return est, nil
}

// Betas returns the most recent refined per-class patience estimates;
// ok is false until the first successful Refine.
func (sp *StreamProfiler) Betas() (betas []float64, ok bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]float64(nil), sp.betas...), sp.refined
}

// WindowLen returns the number of complete days currently banked.
func (sp *StreamProfiler) WindowLen() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.fitters) == 0 {
		return 0
	}
	return sp.fitters[0].WindowLen()
}

// WindowFull reports whether the day window is at capacity.
func (sp *StreamProfiler) WindowFull() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.fitters) == 0 {
		return false
	}
	return sp.fitters[0].WindowFull()
}

// Days returns the number of complete days ever folded.
func (sp *StreamProfiler) Days() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if len(sp.fitters) == 0 {
		return 0
	}
	return sp.fitters[0].Days()
}

// StalePeriods returns the number of period closes folded since the
// last refinement (the estimate-staleness signal, also exported as a
// gauge by Instrument).
func (sp *StreamProfiler) StalePeriods() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.stalePeriodsLocked()
}

// stalePeriodsLocked returns the max staleness across classes. Callers
// must hold sp.mu.
func (sp *StreamProfiler) stalePeriodsLocked() int {
	stale := 0
	for _, sf := range sp.fitters {
		if s := sf.StalePeriods(); s > stale {
			stale = s
		}
	}
	return stale
}

// Divergence measures the streaming-vs-batch gap: for every class it
// runs a cold batch fit over exactly the fitter's windowed days and
// returns the largest parameter difference against the streaming fit —
// the contract is ≤ 1e-6 once the window is full. It is a diagnostic
// (one cold LM per class); the result is exported on the
// stream_batch_divergence gauge when instrumented.
func (sp *StreamProfiler) Divergence() (float64, error) {
	sp.mu.Lock()
	type job struct {
		model *estimate.Model
		obs   []estimate.Observation
		prm   estimate.Params
	}
	jobs := make([]job, 0, sp.classes)
	for j, sf := range sp.fitters {
		res, err := sf.Refine()
		if err != nil {
			sp.mu.Unlock()
			return 0, badInput(fmt.Errorf("class %d: %w", j, err))
		}
		shared := sf.Observations()
		obsCopy := make([]estimate.Observation, len(shared))
		for i, o := range shared {
			obsCopy[i] = estimate.Observation{
				Rewards: append([]float64(nil), o.Rewards...),
				T:       append([]float64(nil), o.T...),
			}
		}
		jobs = append(jobs, job{model: sf.Model(), obs: obsCopy, prm: res.Params})
	}
	sp.mu.Unlock()
	var worst float64
	for j, jb := range jobs {
		fit, err := jb.model.Fit(jb.obs)
		if err != nil {
			return 0, badInput(fmt.Errorf("class %d batch fit: %w", j, err))
		}
		if d := estimate.MaxAbsDiff(jb.prm, fit.Params); d > worst {
			worst = d
		}
	}
	if m := sp.met.Load(); m != nil {
		m.divergence.Set(worst)
	}
	return worst, nil
}

// streamMetrics is the obs hookup, nil until Instrument.
type streamMetrics struct {
	folds      *obs.Counter
	days       *obs.Counter
	refines    map[string]*obs.Counter
	iterations *obs.Histogram
	divergence *obs.Gauge
	beta       []*obs.Gauge
}

// refineIterBuckets spans 1…~1k LM iterations per refinement.
var refineIterBuckets = obs.ExpBuckets(1, 2, 11)

// Instrument registers the streaming profiler's metrics on reg:
// estimate staleness, window occupancy, fold/day counters, refinement
// modes and iterations, and streaming-vs-batch divergence.
func (sp *StreamProfiler) Instrument(reg *obs.Registry) {
	m := &streamMetrics{
		folds: reg.Counter("stream_folds_total", "period closes folded into the streaming fitters", nil),
		days:  reg.Counter("stream_days_total", "complete days folded into the streaming window", nil),
		refines: map[string]*obs.Counter{
			"cold":   reg.Counter("stream_refines_total", "streaming refinements, by start mode", obs.Labels{"mode": "cold"}),
			"warm":   reg.Counter("stream_refines_total", "streaming refinements, by start mode", obs.Labels{"mode": "warm"}),
			"reused": reg.Counter("stream_refines_total", "streaming refinements, by start mode", obs.Labels{"mode": "reused"}),
		},
		iterations: reg.Histogram("stream_refine_iterations", "LM iterations per non-reused refinement, summed over classes", nil, refineIterBuckets),
		divergence: reg.Gauge("stream_batch_divergence", "max parameter difference between the streaming fit and a cold batch fit over the same window, at the last Divergence call", nil),
	}
	for j := 0; j < sp.classes; j++ {
		m.beta = append(m.beta, reg.Gauge("stream_beta",
			"streaming patience estimate, by class index", obs.Labels{"class": strconv.Itoa(j)}))
	}
	reg.GaugeFunc("stream_stale_periods", "period closes folded since the last refinement (estimate staleness)", nil,
		func() float64 { return float64(sp.StalePeriods()) })
	reg.GaugeFunc("stream_window_days", "complete days banked in the streaming window (occupancy)", nil,
		func() float64 { return float64(sp.WindowLen()) })
	sp.met.Store(m)
}
