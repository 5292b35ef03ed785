package estimate

import (
	"errors"
	"fmt"
	"math"

	"tdp/internal/optimize"
)

// StreamConfig tunes a StreamFitter.
type StreamConfig struct {
	// Window is the number of complete day observations retained; older
	// days are evicted. Must be ≥ 1.
	Window int
	// MaxIter caps the Levenberg–Marquardt iterations of one Refine
	// (default 120). Warm starts usually converge in a handful.
	MaxIter int
	// Tol is the LM relative-reduction tolerance (default 1e-12 — tighter
	// than Fit's 1e-10 so warm and cold refinements land on the same
	// optimum to well below the 1e-6 streaming-vs-batch contract).
	Tol float64
	// AbsTol, when > 0, short-circuits a refinement whose residual sum of
	// squares is already at or below it (see optimize.LMConfig.AbsTol).
	AbsTol float64
}

// RefineResult reports one streaming refinement.
type RefineResult struct {
	FitResult
	// Reused is true when the window had no new data since the previous
	// refinement and the cached fit was returned without any LM work.
	Reused bool
	// Warm is true when the LM was seeded from the previous fit rather
	// than the cold start.
	Warm bool
}

// StreamFitter is the incremental counterpart of Model.Fit: it assembles
// per-period usage reports into day observations, retains a sliding
// window of the most recent days, and re-runs the §IV waiting-function
// estimation each period as a warm-started Levenberg–Marquardt
// refinement seeded from the previous fit — the same
// truncate-the-homotopy idea the optimizer's WithWarmStart uses, applied
// to estimation. On an unchanged window the refinement is O(1) (the
// cached fit is returned); with one new period of data it typically
// converges in one or two LM iterations instead of a cold fit's dozens.
//
// A StreamFitter is NOT internally synchronized: callers (the tube
// profiling engines) serialize access under their own locks, matching
// the rest of this package.
type StreamFitter struct {
	model *Model
	cfg   StreamConfig

	// ring is the observation window: Window slots with preallocated
	// Rewards/T backing arrays, overwritten in place on eviction so the
	// steady-state ingest path allocates nothing.
	ring  []Observation
	head  int // next slot to overwrite
	count int // complete days banked (≤ Window)
	days  int // complete days ever observed (monotonic)

	// day-in-progress assembly. Periods must arrive in order 0..n−1; a
	// stream attached mid-day discards the partial day rather than pair
	// its usage with rewards from the wrong day (see ObservePeriod).
	curRewards []float64
	curT       []float64
	curNext    int // next period index expected (0 = at a day boundary)

	// warm-start state.
	x     []float64 // packed parameter vector of the last fit
	warm  bool      // x holds a previous fit
	dirty bool      // window changed since the last successful Refine
	last  FitResult // cached fit (valid when warm)

	// stalePeriods counts period closes folded since the last successful
	// refinement — the estimate-staleness signal the obs layer exports.
	stalePeriods int

	resid *streamResid
	// scratch for Observations(): reused backing array, chronological.
	obsScratch []Observation
}

// NewStreamFitter builds a streaming fitter over the model. The model is
// validated once here; Refine does not re-validate.
func NewStreamFitter(m *Model, cfg StreamConfig) (*StreamFitter, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("stream window %d: %w", cfg.Window, ErrBadInput)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 120
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-12
	}
	n := m.Periods
	sf := &StreamFitter{
		model:      m,
		cfg:        cfg,
		ring:       make([]Observation, cfg.Window),
		curRewards: make([]float64, n),
		curT:       make([]float64, n),
	}
	for s := range sf.ring {
		sf.ring[s] = Observation{Rewards: make([]float64, n), T: make([]float64, n)}
	}
	sf.resid = newStreamResid(m)
	return sf, nil
}

// Model returns the underlying observation model.
func (sf *StreamFitter) Model() *Model { return sf.model }

// WindowLen returns the number of complete days currently banked.
func (sf *StreamFitter) WindowLen() int { return sf.count }

// WindowFull reports whether the window holds Window complete days.
func (sf *StreamFitter) WindowFull() bool { return sf.count == sf.cfg.Window }

// Days returns the number of complete days ever folded (monotonic; the
// window retains the most recent min(Days, Window) of them).
func (sf *StreamFitter) Days() int { return sf.days }

// Fresh reports whether the window is unchanged since the last
// successful Refine, so a Refine now would return the cached fit.
func (sf *StreamFitter) Fresh() bool { return sf.warm && !sf.dirty }

// StalePeriods returns the number of period closes folded since the last
// successful refinement.
func (sf *StreamFitter) StalePeriods() int { return sf.stalePeriods }

// ObservePeriod folds one closed period of the day in progress: the
// reward that was in force and the measured aggregate usage (the fitter
// derives T = baseline − usage itself, keeping the reward/usage pairing
// in one call — the day-boundary hazard of collecting them separately is
// what this API exists to remove). Periods must arrive in day order
// 0..n−1; completing period n−1 banks the day into the window (evicting
// the oldest day once full) and returns dayClosed = true.
//
// A fitter attached mid-day (first call with period > 0) discards
// reports until the next day boundary instead of stitching a day out of
// two different reward schedules. Out-of-order or duplicate periods
// within a day are rejected: silently re-aligning would attribute usage
// to the wrong rewards.
func (sf *StreamFitter) ObservePeriod(period int, reward, usage float64) (dayClosed bool, err error) {
	n := sf.model.Periods
	if period < 0 || period >= n {
		return false, fmt.Errorf("period %d of %d: %w", period, n, ErrBadInput)
	}
	if math.IsNaN(reward) || math.IsNaN(usage) {
		return false, fmt.Errorf("period %d: NaN report: %w", period, ErrBadInput)
	}
	if period != sf.curNext {
		if sf.curNext == 0 {
			// Attached mid-day: skip to the next day boundary.
			return false, nil
		}
		return false, fmt.Errorf("period %d out of order (want %d): %w", period, sf.curNext, ErrBadInput)
	}
	sf.curRewards[period] = reward
	sf.curT[period] = sf.model.BaselineTIP[period] - usage
	sf.stalePeriods++
	if period < n-1 {
		sf.curNext = period + 1
		return false, nil
	}
	sf.pushDay(sf.curRewards, sf.curT)
	sf.curNext = 0
	return true, nil
}

// AddDay banks one complete day observation directly — the replay/batch
// parity path: rewards and T exactly as Model.Fit's Observation. The
// fitter must be at a day boundary (no day in progress).
func (sf *StreamFitter) AddDay(rewards, t []float64) error {
	n := sf.model.Periods
	if len(rewards) != n || len(t) != n {
		return fmt.Errorf("day dims %d/%d, want %d: %w", len(rewards), len(t), n, ErrBadInput)
	}
	if sf.curNext != 0 {
		return fmt.Errorf("day in progress (next period %d): %w", sf.curNext, ErrBadInput)
	}
	sf.stalePeriods += n
	sf.pushDay(rewards, t)
	return nil
}

// pushDay copies a completed day into the ring, evicting the oldest slot
// when the window is full. No allocation: the slot's backing arrays are
// reused.
func (sf *StreamFitter) pushDay(rewards, t []float64) {
	slot := &sf.ring[sf.head]
	copy(slot.Rewards, rewards)
	copy(slot.T, t)
	sf.head = (sf.head + 1) % len(sf.ring)
	if sf.count < len(sf.ring) {
		sf.count++
	}
	sf.days++
	sf.dirty = true
}

// Observations returns the windowed day observations oldest-first. The
// returned slice and its contents are shared scratch: valid until the
// next call into the fitter.
func (sf *StreamFitter) Observations() []Observation {
	if sf.obsScratch == nil {
		sf.obsScratch = make([]Observation, 0, len(sf.ring))
	}
	sf.obsScratch = sf.obsScratch[:0]
	start := sf.head - sf.count
	if start < 0 {
		start += len(sf.ring)
	}
	for s := 0; s < sf.count; s++ {
		sf.obsScratch = append(sf.obsScratch, sf.ring[(start+s)%len(sf.ring)])
	}
	return sf.obsScratch
}

// Refine re-estimates (α, β) over the current window, warm-started from
// the previous fit when one exists. With no new data since the last
// successful refinement it returns the cached fit (Reused = true) at
// O(1) cost.
func (sf *StreamFitter) Refine() (*RefineResult, error) {
	if sf.count == 0 {
		return nil, fmt.Errorf("no complete days in window: %w", ErrBadInput)
	}
	if sf.Fresh() {
		res := &RefineResult{FitResult: sf.last, Reused: true, Warm: true}
		res.Params = sf.last.Params.clone()
		return res, nil
	}
	obs := sf.Observations()
	wasWarm := sf.warm
	var x0 []float64
	if sf.warm {
		x0 = sf.x
	} else {
		x0 = sf.model.coldStart()
	}
	bounds := sf.model.fitBounds()
	sf.resid.bind(obs)
	res, err := optimize.LevenbergMarquardt(sf.resid.residuals(), x0, optimize.LMConfig{
		MaxIter: sf.cfg.MaxIter,
		Tol:     sf.cfg.Tol,
		AbsTol:  sf.cfg.AbsTol,
		Bounds:  &bounds,
	})
	sf.resid.bind(nil)
	if err != nil && !errorsIsLMBenign(err) {
		return nil, fmt.Errorf("stream refine: %w", err)
	}
	sf.x = append(sf.x[:0], res.X...)
	sf.warm = true
	sf.dirty = false
	sf.stalePeriods = 0
	sf.last = FitResult{
		Params:     sf.model.unpack(res.X),
		RSS:        res.RSS,
		Iterations: res.Iterations,
	}
	out := &RefineResult{FitResult: sf.last, Warm: wasWarm}
	out.Params = sf.last.Params.clone()
	return out, nil
}

// errorsIsLMBenign mirrors Fit's treatment of LM termination: a stall or
// iteration cap still yields the best point found.
func errorsIsLMBenign(err error) bool {
	return errors.Is(err, optimize.ErrLMStalled) || errors.Is(err, optimize.ErrMaxIterations)
}

// clone deep-copies fitted parameters (the cached fit must not alias
// what Refine hands out).
func (p Params) clone() Params {
	n, m := p.Dims()
	out := NewParams(n, m)
	for i := 0; i < n; i++ {
		copy(out.Alpha[i], p.Alpha[i])
		copy(out.Beta[i], p.Beta[i])
	}
	return out
}

// MaxAbsDiff returns the largest absolute difference between two
// parameter sets of equal shape, over both α and β — the
// streaming-vs-batch divergence metric.
func MaxAbsDiff(a, b Params) float64 {
	var worst float64
	for i := range a.Beta {
		for j := range a.Beta[i] {
			if d := math.Abs(a.Beta[i][j] - b.Beta[i][j]); d > worst {
				worst = d
			}
			if d := math.Abs(a.Alpha[i][j] - b.Alpha[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// streamResid evaluates the net-flow residuals and their analytic
// Jacobian directly from the packed parameter vector, with no per-call
// allocation (NetFlows ∘ unpack allocates Params and rebuilds
// waiting.PowerLaw values for every (period, type) on every call). The
// math is identical to Model.NetFlows ∘ unpack; the equivalence tests pin
// the two to ≤ 1e-9, and the Jacobian tests pin jac to central
// differences.
type streamResid struct {
	m   *Model
	obs []Observation

	// lnt[dt-1] = ln(dt+1): (dt+1)^-β is computed as exp(−β·lnt), and
	// −lnt is the power's log-derivative in β.
	lnt []float64
	// Per-(period,type) power tables (dt+1)^-β for dt = 1..n−1, cached
	// keyed by the exact bits of β: an evaluation at the point the
	// Jacobian was just taken at (or vice versa) rebuilds nothing.
	powBits []uint64  // cached Float64bits(β) per (i,j); ^0 = empty
	pow     []float64 // [(i*Types+j)*(n-1) + (dt-1)]
	cnorm   []float64 // per (i,j): C(β) = 1/(maxReward·S), S = Σ_dt (dt+1)^-β
	dlogc   []float64 // per (i,j): ∂ln C/∂β = L/S, L = Σ_dt ln(dt+1)·(dt+1)^-β
	alpha   []float64 // per (i,j): row-normalized mixing proportion
	asum    []float64 // per period: Σ_j raw α (0 when the row fell back to uniform)
	tacc    []float64 // per period: net-flow accumulator
	grow    []float64 // per type: one Jacobian row of a period's α columns
}

func newStreamResid(m *Model) *streamResid {
	n, mt := m.Periods, m.Types
	r := &streamResid{
		m:       m,
		lnt:     make([]float64, n-1),
		powBits: make([]uint64, n*mt),
		pow:     make([]float64, n*mt*(n-1)),
		cnorm:   make([]float64, n*mt),
		dlogc:   make([]float64, n*mt),
		alpha:   make([]float64, n*mt),
		asum:    make([]float64, n),
		tacc:    make([]float64, n),
		grow:    make([]float64, mt),
	}
	for dt := 1; dt <= n-1; dt++ {
		r.lnt[dt-1] = math.Log(float64(dt + 1))
	}
	for k := range r.powBits {
		r.powBits[k] = ^uint64(0)
	}
	return r
}

// bind points the evaluator at the window for the duration of one solve.
func (r *streamResid) bind(obs []Observation) { r.obs = obs }

// residuals adapts the evaluator to the LM solver over the bound window.
func (r *streamResid) residuals() optimize.FuncResiduals {
	return optimize.FuncResiduals{N: len(r.obs) * r.m.Periods, Fn: r.eval, Jac: r.jac}
}

// refresh brings the β-dependent power tables and the row-normalized
// alphas up to date with x. The tables are bit-keyed on β, so unchanged
// parameters cost one integer compare.
func (r *streamResid) refresh(x []float64) {
	m := r.m
	n, mt := m.Periods, m.Types
	for i := 0; i < n; i++ {
		for j := 0; j < mt; j++ {
			k := i*mt + j
			beta := math.Max(x[m.betaIdx(i, j)], 0)
			bits := math.Float64bits(beta)
			if bits == r.powBits[k] {
				continue
			}
			r.powBits[k] = bits
			row := r.pow[k*(n-1) : (k+1)*(n-1)]
			var s, l float64
			for d, lt := range r.lnt {
				v := math.Exp(-beta * lt)
				row[d] = v
				s += v
				l += lt * v
			}
			r.cnorm[k] = 1 / (m.MaxReward * s)
			r.dlogc[k] = l / s
		}
	}
	// Row-normalize the raw alphas exactly as unpack does.
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < mt; j++ {
			a := math.Max(x[m.alphaIdx(i, j)], 0)
			r.alpha[i*mt+j] = a
			s += a
		}
		if s <= 0 {
			for j := 0; j < mt; j++ {
				r.alpha[i*mt+j] = 1 / float64(mt)
			}
			r.asum[i] = 0
			continue
		}
		r.asum[i] = s
		inv := 1 / s
		for j := 0; j < mt; j++ {
			r.alpha[i*mt+j] *= inv
		}
	}
}

// eval computes out[s*n+i] = predictedT[i] − obs[s].T[i] for every
// windowed day s, matching Fit's residual layout.
func (r *streamResid) eval(x, out []float64) {
	r.refresh(x)
	m := r.m
	n, mt := m.Periods, m.Types
	for s, o := range r.obs {
		tacc := r.tacc
		clear(tacc)
		p := o.Rewards
		for i := 0; i < n; i++ {
			xi := m.BaselineTIP[i]
			for j := 0; j < mt; j++ {
				k := i*mt + j
				a := r.alpha[k]
				if a == 0 {
					continue
				}
				coef := xi * a * r.cnorm[k]
				row := r.pow[k*(n-1) : (k+1)*(n-1)]
				for dt := 1; dt <= n-1; dt++ {
					pk := p[(i+dt)%n]
					if pk <= 0 {
						continue // waiting.PowerLaw.Value clamps p ≤ 0 to 0
					}
					q := coef * pk * row[dt-1]
					tacc[i] += q
					tacc[(i+dt)%n] -= q
				}
			}
		}
		base := s * n
		for i := 0; i < n; i++ {
			out[base+i] = tacc[i] - o.T[i]
		}
	}
}

// jac writes the Jacobian of eval at x in the solver's column-major
// layout, jac[col*rows + s*n + i], in one pass over the flows. Every flow
// term q = coef·p·(dt+1)^−β with coef = X_i·ā·C(β) leaves period i and
// enters period (i+dt) mod n, so its parameter derivatives land on those
// two rows with opposite signs:
//
//   - β: ∂q/∂β = q·(L/S − ln(dt+1)), C(β) contributing L/S.
//   - raw α_l of the same period: the normalization ā_j = a_j/Σa gives
//     ∂ā_j/∂a_l = (δ_jl − ā_j)/Σa, so column α_l is (G_l − F)/Σa, where
//     G_l holds type l's flows per unit ā and F = Σ_j ā_j·G_j is the
//     period's total flow. With one type G = F: the α columns are
//     identically zero (the proportion is pinned to 1), are not even
//     written, and the solver drops them.
//
// β below 0 is clamped by eval and α below 0 likewise, so those columns
// are zero there; at exactly 0 the right derivative is written, matching
// the box the solver keeps x in.
func (r *streamResid) jac(x, jac []float64) {
	r.refresh(x)
	clear(jac)
	m := r.m
	n, mt := m.Periods, m.Types
	rows := len(r.obs) * n
	for s, o := range r.obs {
		p := o.Rewards
		base := s * n
		day := func(c int) []float64 { return jac[c*rows+base : c*rows+base+n] } // column c's rows of day s
		for i := 0; i < n; i++ {
			xi := m.BaselineTIP[i]
			for j := 0; j < mt; j++ {
				k := i*mt + j
				a := r.alpha[k]
				var colB, colA []float64
				if a != 0 && x[m.betaIdx(i, j)] >= 0 {
					colB = day(m.betaIdx(i, j))
				}
				if mt > 1 && r.asum[i] > 0 {
					// G_j/Σa for now; the normalization is folded in below.
					colA = day(m.alphaIdx(i, j))
				}
				if colB == nil && colA == nil {
					continue
				}
				coef := xi * a * r.cnorm[k]
				perA := xi * r.cnorm[k] / r.asum[i]
				row := r.pow[k*(n-1) : (k+1)*(n-1)]
				dlogc := r.dlogc[k]
				for dt := 1; dt <= n-1; dt++ {
					to := (i + dt) % n
					pk := p[to]
					if pk <= 0 {
						continue
					}
					if colB != nil {
						dq := coef * pk * row[dt-1] * (dlogc - r.lnt[dt-1])
						colB[i] += dq
						colB[to] -= dq
					}
					if colA != nil {
						g := perA * pk * row[dt-1]
						colA[i] += g
						colA[to] -= g
					}
				}
			}
			if mt == 1 || r.asum[i] <= 0 {
				continue
			}
			// Fold in the normalization: column α_l becomes
			// Σ_j ā_j·(G_l − G_j)/Σa, which equals (G_l − F)/Σa since
			// Σ_j ā_j = 1, but is exactly 0 wherever types share a β
			// (as at the uniform cold start) instead of rounding noise
			// that Marquardt's column scaling would blow up into a step.
			g := r.grow
			for t := 0; t < n; t++ {
				for j := 0; j < mt; j++ {
					g[j] = day(m.alphaIdx(i, j))[t]
				}
				for l := 0; l < mt; l++ {
					var v float64
					if x[m.alphaIdx(i, l)] >= 0 {
						for j, a := range r.alpha[i*mt : (i+1)*mt] {
							v += a * (g[l] - g[j])
						}
					}
					day(m.alphaIdx(i, l))[t] = v
				}
			}
		}
	}
}
