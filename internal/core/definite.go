package core

import (
	"fmt"
	"math"
	"math/rand"

	"tdp/internal/optimize"
	"tdp/internal/waiting"
)

// DefiniteChoiceModel is Appendix D's alternative to the probabilistic
// waiting-function model: each session defers *deterministically* to the
// single period that maximizes its waiting function, rather than spreading
// probabilistically across periods.
//
// The paper notes this model's optimization problem is likely non-convex;
// indeed the cost here is piecewise-constant-in-argmax and is minimized by
// multistart coordinate descent rather than the convex machinery.
//
// Concretization: the paper leaves the "stay" alternative implicit. Here a
// session of type j in period i defers to t* = argmax_t w_j(p_{i+t}, t)
// iff w_j(p_{i+t*}, t*) ≥ Threshold, reading the waiting-function value as
// the propensity to defer (Threshold 0.5 = "more likely than not").
//
// The power-law decays (t+1)^{−β_j} are tabulated at construction so the
// argmax inner loop — the hot path of every multistart restart — runs with
// no math.Pow calls and no allocation; the products keep the same
// association as waiting.PowerLaw.Value, so choices are bit-identical to
// evaluating the waiting functions directly.
type DefiniteChoiceModel struct {
	scn    *Scenario
	wfs    []waiting.PowerLaw
	totals []float64
	powTab []float64 // m × n, powTab[j*n+dt] = (dt+1)^{−β_j}; [j*n+0] unused
	ws     wsPool
	n, m   int

	// Threshold is the minimum waiting-function value at which a session
	// commits to deferring (default 0.5; see type comment).
	Threshold float64
	// Starts is the number of multistart seeds for the non-convex solve
	// (default 8).
	Starts int
	// Seed makes the multistart deterministic.
	Seed int64
	// Jobs bounds the number of concurrent restarts (≤ 0: one per CPU).
	// Results are identical for every value; see optimize.MultistartJobs.
	Jobs int
}

// NewDefiniteChoiceModel validates the scenario and builds the model.
func NewDefiniteChoiceModel(scn *Scenario) (*DefiniteChoiceModel, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	wfs, err := scn.buildWaitingFuncs()
	if err != nil {
		return nil, err
	}
	n, m := scn.Periods, len(scn.Betas)
	dc := &DefiniteChoiceModel{
		scn:       scn,
		wfs:       wfs,
		totals:    scn.TotalDemand(),
		powTab:    make([]float64, m*n),
		n:         n,
		m:         m,
		Threshold: 0.5,
		Starts:    8,
		Seed:      1,
	}
	for j, beta := range scn.Betas {
		row := dc.powTab[j*n : j*n+n]
		for dt := 1; dt <= n-1; dt++ {
			row[dt] = math.Pow(float64(dt+1), -beta)
		}
	}
	dc.ws.init(n)
	return dc, nil
}

// Choices returns, for each period i and type j, the deferral target
// period index (or −1 for staying) under rewards p.
func (dc *DefiniteChoiceModel) Choices(p []float64) [][]int {
	out := make([][]int, dc.n)
	for i := 0; i < dc.n; i++ {
		out[i] = make([]int, dc.m)
		for j := 0; j < dc.m; j++ {
			out[i][j] = dc.choose(p, i, j)
		}
	}
	return out
}

// choose finds type j's deferral target from period i, or −1 to stay.
// The comparison value (c_j·p_k)·(dt+1)^{−β_j} multiplies in the same
// order as waiting.PowerLaw.Value, so the argmax matches it exactly.
func (dc *DefiniteChoiceModel) choose(p []float64, i, j int) int {
	n := dc.n
	c := dc.wfs[j].Norm()
	row := dc.powTab[j*n : j*n+n]
	best, bestDt := 0.0, -1
	for dt := 1; dt <= n-1; dt++ {
		k := i + dt
		if k >= n {
			k -= n
		}
		if pk := p[k]; pk > 0 {
			if v := c * pk * row[dt]; v > best {
				best, bestDt = v, dt
			}
		}
	}
	if bestDt < 0 || best < dc.Threshold {
		return -1
	}
	k := i + bestDt
	if k >= n {
		k -= n
	}
	return k
}

// UsageAt returns the usage profile after definite-choice deferrals.
func (dc *DefiniteChoiceModel) UsageAt(p []float64) []float64 {
	x := append([]float64(nil), dc.totals...)
	dc.applyChoices(p, x, nil)
	return x
}

// applyChoices moves each deferring session's demand in x and, when
// rewards is non-nil, accumulates the reward outlay into *rewards.
func (dc *DefiniteChoiceModel) applyChoices(p, x []float64, rewards *float64) {
	for i := 0; i < dc.n; i++ {
		for j := 0; j < dc.m; j++ {
			if k := dc.choose(p, i, j); k >= 0 {
				d := dc.scn.Demand[i][j]
				x[i] -= d
				x[k] += d
				if rewards != nil {
					*rewards += p[k] * d
				}
			}
		}
	}
}

// CostAt evaluates the objective (23): rewards paid to deferred sessions
// plus the capacity-exceedance cost.
func (dc *DefiniteChoiceModel) CostAt(p []float64) float64 {
	w := dc.ws.get()
	defer dc.ws.put(w)
	copy(w.x, dc.totals)
	var rewards float64
	dc.applyChoices(p, w.x, &rewards)
	c := rewards
	for i := 0; i < dc.n; i++ {
		c += dc.scn.Cost.Value(w.x[i] - dc.scn.Capacity[i])
	}
	return c
}

// TIPCost returns the no-reward cost.
func (dc *DefiniteChoiceModel) TIPCost() float64 {
	w := dc.ws.get()
	zero := w.pwork
	for i := range zero {
		zero[i] = 0
	}
	c := dc.CostAt(zero)
	dc.ws.put(w)
	return c
}

// Solve searches for good rewards with multistart coordinate descent; the
// returned pricing is the best local solution found, with no global
// optimality guarantee (the problem is non-convex, Appendix D). A
// optimize.WithWarmStart option replaces the deterministic zero start with
// the warm point; the random restarts still run, since a warm point must
// not suppress exploration on a non-convex landscape.
func (dc *DefiniteChoiceModel) Solve(opts ...optimize.Option) (*Pricing, error) {
	bounds := optimize.UniformBounds(dc.n, 0, math.Min(dc.scn.Cost.MaxSlope(), dc.scn.NormReward()))
	rng := rand.New(rand.NewSource(dc.Seed))
	starts := dc.Starts
	if starts < 1 {
		starts = 1
	}
	x0 := make([]float64, dc.n)
	if warm := optimize.WarmStartOf(opts); warm != nil {
		copy(x0, warm)
	}
	solve := func(x0 []float64) (optimize.Result, error) {
		return optimize.CoordinateDescent(dc.CostAt, x0, bounds,
			optimize.WithMaxIterations(60), optimize.WithTolerance(1e-6))
	}
	res, err := optimize.MultistartJobs(solve, x0, bounds, starts, rng, dc.Jobs)
	if err != nil && res.X == nil {
		return nil, fmt.Errorf("definite-choice solve: %w", err)
	}
	// Zero rewards is always feasible; never return anything worse.
	if tip := dc.TIPCost(); tip < res.F {
		res.X = make([]float64, dc.n)
		res.F = tip
	}
	return &Pricing{
		Rewards:    res.X,
		Usage:      dc.UsageAt(res.X),
		Cost:       res.F,
		TIPCost:    dc.TIPCost(),
		LowerBound: math.Inf(-1),
		Gap:        math.Inf(1),
	}, nil
}
