package core

import (
	"fmt"
	"math"

	"tdp/internal/optimize"
	"tdp/internal/waiting"
)

// DynamicModel is the offline dynamic session model of §III-A in its
// single-bottleneck form (Prop. 5): the static model with (a) uniformly
// distributed arrival times inside each period, and (b) unfinished work
// carrying over between periods.
//
// Per period i the model tracks the fluid recursion
//
//	arr_i     = X_i − Out_i(p) + In_i(p)          (arrivals after deferral)
//	z_i       = backlog_{i−1} + arr_i − A_i        (end-of-period excess)
//	backlog_i = max(z_i, 0)
//	cost_i    = p_i·In_i + f(z_i)
//
// where f(z_i) is the paper's f(b·N(i)) — the cost of the work remaining
// at the end of the period. All cost breakpoints must be ≥ 0 so that
// f(max(z,0)) = f(z).
//
// Like StaticModel, the linear-in-p waiting family lets the model share
// the flattened deferKernel tables, so evaluations are branch-free O(n²)
// passes with pooled workspaces and no steady-state allocation.
type DynamicModel struct {
	scn    *Scenario
	wfs    []waiting.UniformArrival
	totals []float64
	kd     *deferKernel
	ws     wsPool
	n, m   int

	// StartBacklog is the work in the system at the start of period 1
	// (default 0, the paper's 12 am start).
	StartBacklog float64
}

// NewDynamicModel validates the scenario and precomputes kernel tables.
func NewDynamicModel(scn *Scenario) (*DynamicModel, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	for i, b := range scn.Cost.Breaks {
		if b < 0 {
			return nil, fmt.Errorf("dynamic model needs cost breaks ≥ 0, got %v at %d: %w",
				b, i, ErrBadScenario)
		}
	}
	n, m := scn.Periods, len(scn.Betas)
	p := scn.NormReward()
	dm := &DynamicModel{
		scn:    scn,
		totals: scn.TotalDemand(),
		n:      n,
		m:      m,
	}
	dm.wfs = make([]waiting.UniformArrival, m)
	for j, beta := range scn.Betas {
		w, err := waiting.NewUniformArrival(beta, n, p)
		if err != nil {
			return nil, fmt.Errorf("type %d: %w", j, err)
		}
		dm.wfs[j] = w
	}
	dm.kd = newDeferKernel(funcsOf(dm.wfs), scn.Demand, n, scn.NoWrap)
	dm.ws.init(n)
	return dm, nil
}

// Scenario returns the model's underlying scenario.
func (dm *DynamicModel) Scenario() *Scenario { return dm.scn }

// MaxReward returns the reward box bound: the smaller of the maximum
// marginal capacity-exceedance cost and the normalization reward.
func (dm *DynamicModel) MaxReward() float64 {
	return math.Min(dm.scn.Cost.MaxSlope(), dm.scn.NormReward())
}

// SetDemandRow replaces the demand estimate for period i (0-based) and
// incrementally updates the kernel tables in O(n·m).
func (dm *DynamicModel) SetDemandRow(i int, row []float64) error {
	if err := checkPeriod(i, dm.n); err != nil {
		return err
	}
	if len(row) != dm.m {
		return fmt.Errorf("demand row with %d types, want %d: %w", len(row), dm.m, ErrBadScenario)
	}
	var total float64
	for j, d := range row {
		if d < 0 || math.IsNaN(d) {
			return fmt.Errorf("demand %v for type %d: %w", d, j, ErrBadScenario)
		}
		total += d
	}
	copy(dm.scn.Demand[i], row)
	dm.totals[i] = total
	dm.kd.setDemandRow(i, dm.scn.Demand[i])
	return nil
}

// Arrivals returns the post-deferral arrival profile arr_i for rewards p.
func (dm *DynamicModel) Arrivals(p []float64) []float64 {
	w := dm.ws.get()
	defer dm.ws.put(w)
	dm.kd.arrivalsInto(p, dm.totals, w.x, w.in, w.p2)
	return append([]float64(nil), w.x...)
}

// Load returns the offered load per period (backlog carried in plus new
// arrivals) and the end-of-period backlog, the quantities Fig. 8 plots.
func (dm *DynamicModel) Load(p []float64) (load, backlog []float64) {
	w := dm.ws.get()
	defer dm.ws.put(w)
	dm.kd.arrivalsInto(p, dm.totals, w.x, w.in, w.p2)
	n := dm.n
	load = make([]float64, n)
	backlog = make([]float64, n)
	carry := dm.StartBacklog
	for i := 0; i < n; i++ {
		load[i] = carry + w.x[i]
		z := load[i] - dm.scn.Capacity[i]
		if z < 0 {
			z = 0
		}
		backlog[i] = z
		carry = z
	}
	return load, backlog
}

// CostAt evaluates the exact objective (3) at rewards p.
func (dm *DynamicModel) CostAt(p []float64) float64 {
	return dm.costSmoothed(p, 0)
}

// TIPCost returns the cost with no rewards offered.
func (dm *DynamicModel) TIPCost() float64 {
	w := dm.ws.get()
	zero := w.pwork
	for i := range zero {
		zero[i] = 0
	}
	c := dm.costSmoothed(zero, 0)
	dm.ws.put(w)
	return c
}

func (dm *DynamicModel) costSmoothed(p []float64, mu float64) float64 {
	w := dm.ws.get()
	defer dm.ws.put(w)
	dm.kd.arrivalsInto(p, dm.totals, w.x, w.in, w.p2)
	var c float64
	carry := dm.StartBacklog
	for i := 0; i < dm.n; i++ {
		z := carry + w.x[i] - dm.scn.Capacity[i]
		c += p[i]*w.in[i] + dm.scn.Cost.Smooth(z, mu)
		carry = optimize.SmoothMax(z, mu)
	}
	return c
}

// dynamicObjective is the softplus-smoothed dynamic cost with its analytic
// adjoint gradient. It implements optimize.ValueGrader: the fused path
// runs the arrival pass and backlog recursion once, caching the per-period
// derivatives for the adjoint sweep so value and gradient share all the
// transcendental work.
type dynamicObjective struct {
	dm *DynamicModel
	mu float64
}

var _ optimize.ValueGrader = dynamicObjective{}

// Value implements optimize.Objective.
func (o dynamicObjective) Value(p []float64) float64 { return o.dm.costSmoothed(p, o.mu) }

// Grad implements optimize.Objective.
func (o dynamicObjective) Grad(p, grad []float64) {
	dm := o.dm
	n := dm.n
	w := dm.ws.get()
	defer dm.ws.put(w)
	dm.kd.arrivalsInto(p, dm.totals, w.x, w.in, w.p2)
	carry := dm.StartBacklog
	for i := 0; i < n; i++ {
		w.z[i] = carry + w.x[i] - dm.scn.Capacity[i]
		carry = optimize.SmoothMax(w.z[i], o.mu)
	}
	o.adjoint(p, w, grad)
}

// ValueGrad implements optimize.ValueGrader.
func (o dynamicObjective) ValueGrad(p, grad []float64) float64 {
	dm := o.dm
	n := dm.n
	w := dm.ws.get()
	defer dm.ws.put(w)
	dm.kd.arrivalsInto(p, dm.totals, w.x, w.in, w.p2)
	var c float64
	carry := dm.StartBacklog
	for i := 0; i < n; i++ {
		z := carry + w.x[i] - dm.scn.Capacity[i]
		w.z[i] = z
		v, fp := dm.scn.Cost.SmoothBoth(z, o.mu)
		c += p[i]*w.in[i] + v
		w.fp[i] = fp
		carry, w.sder[i] = optimize.SmoothMaxBoth(z, o.mu)
	}
	// Adjoint sweep over the cached derivatives: λ_i = f'(z_i) +
	// λ_{i+1}·S'(z_i).
	lam := 0.0
	for i := n - 1; i >= 0; i-- {
		lam = w.fp[i] + lam*w.sder[i]
		w.lam2[i] = lam
		w.lam2[n+i] = lam
	}
	dm.kd.gradGather(p, w.lam2, grad)
	return c
}

// adjoint fills the gradient from the backlog state w.z (already computed
// for the current p), recomputing the per-period derivatives.
func (o dynamicObjective) adjoint(p []float64, w *evalWS, grad []float64) {
	dm := o.dm
	n := dm.n
	// λ_i = ∂C/∂z_i = f'(z_i) + λ_{i+1}·S'(z_i).
	lam := 0.0
	for i := n - 1; i >= 0; i-- {
		lam = dm.scn.Cost.SmoothDeriv(w.z[i], o.mu)
		if i < n-1 {
			lam += w.lam2[i+1] * optimize.SmoothMaxDeriv(w.z[i], o.mu)
		}
		w.lam2[i] = lam
		w.lam2[n+i] = lam
	}
	dm.kd.gradGather(p, w.lam2, grad)
}

// smoothedObjective builds the softplus-smoothed objective with its
// analytic (adjoint) gradient.
func (dm *DynamicModel) smoothedObjective(mu float64) optimize.Objective {
	return dynamicObjective{dm: dm, mu: mu}
}

// Solve minimizes the dynamic-model cost over rewards in [0, P]. Options
// are forwarded to the homotopy driver; optimize.WithWarmStart(prev)
// seeds the solve and truncates the smoothing schedule.
func (dm *DynamicModel) Solve(opts ...optimize.Option) (*Pricing, error) {
	bounds := optimize.UniformBounds(dm.n, 0, dm.MaxReward())
	x0 := make([]float64, dm.n)
	res, err := optimize.Homotopy(
		func(mu float64) optimize.Objective { return dm.smoothedObjective(mu) },
		dm.CostAt, x0, bounds, optimize.DefaultSchedule(), true,
		append([]optimize.Option{
			optimize.WithMaxIterations(3000), optimize.WithTolerance(1e-8),
		}, opts...)...,
	)
	if err != nil && res.X == nil {
		return nil, fmt.Errorf("dynamic solve: %w", err)
	}
	p := res.X
	w := dm.ws.get()
	dm.kd.arrivalsInto(p, dm.totals, w.x, w.in, w.p2)
	var outlay float64
	for i := 0; i < dm.n; i++ {
		outlay += p[i] * w.in[i]
	}
	arr := append([]float64(nil), w.x...)
	dm.ws.put(w)
	return &Pricing{
		Rewards:      p,
		Usage:        arr,
		Cost:         res.F,
		TIPCost:      dm.TIPCost(),
		RewardOutlay: outlay,
		LowerBound:   math.Inf(-1),
		Gap:          math.Inf(1),
		Iterations:   res.Iterations,
		Evals:        res.Evals,
	}, nil
}

// SolveForPeriodWarm is SolveForPeriodCold seeded with the previous reward
// for the slot; see StaticModel.SolveForPeriodWarm.
func (dm *DynamicModel) SolveForPeriodWarm(p []float64, period int, prev float64) (PeriodSolve, error) {
	return dm.solveForPeriod(p, period, prev, true)
}

// SolveForPeriodCold optimizes the single reward p_{period+1} with the
// others held fixed — the online algorithm's inner step against the
// dynamic cost; see StaticModel.SolveForPeriodCold.
func (dm *DynamicModel) SolveForPeriodCold(p []float64, period int) (PeriodSolve, error) {
	return dm.solveForPeriod(p, period, 0, false)
}

func (dm *DynamicModel) solveForPeriod(p []float64, period int, prev float64, warm bool) (PeriodSolve, error) {
	if err := checkPeriod(period, dm.n); err != nil {
		return PeriodSolve{}, err
	}
	w := dm.ws.get()
	defer dm.ws.put(w)

	// Arrivals are affine in p_r⁺ exactly as in the static model, so each
	// Brent evaluation runs the O(n) backlog recursion over the base
	// profile plus the coordinate sensitivity, not a fresh O(n²) pass.
	copy(w.pwork, p)
	w.pwork[period] = 0
	dm.kd.arrivalsInto(w.pwork, dm.totals, w.baseX, w.in, w.p2)
	var constOutlay float64
	for i := 0; i < dm.n; i++ {
		constOutlay += w.pwork[i] * w.in[i]
	}
	dm.kd.periodCoef(period, w.coef)
	inWr := dm.kd.inW[period]

	evals := 0
	eval := func(t float64) float64 {
		evals++
		tp := t
		if tp < 0 {
			tp = 0
		}
		c := constOutlay + t*tp*inWr
		carry := dm.StartBacklog
		for i := 0; i < dm.n; i++ {
			z := carry + w.baseX[i] + w.coef[i]*tp - dm.scn.Capacity[i]
			c += dm.scn.Cost.Value(z)
			if z < 0 {
				z = 0
			}
			carry = z
		}
		return c
	}

	best, _, usedWarm := minimizeCoord(eval, dm.MaxReward(), prev, warm)

	w.pwork[period] = best
	fbest := dm.CostAt(w.pwork)
	return PeriodSolve{Reward: best, Cost: fbest, Evals: evals, Warm: usedWarm}, nil
}
