package core

import (
	"fmt"
	"math"

	"tdp/internal/optimize"
	"tdp/internal/waiting"
)

// StaticModel is the §II static session model: sessions are fixed blobs of
// demand that may be deferred between periods according to waiting
// functions, with no carry-over of unfinished work. Under Prop. 3's
// conditions (satisfied by construction here) the cost is convex in the
// rewards, and Solve certifies its global optimum (see AffineForm).
//
// Because the paper's waiting family w_β(p,t) = C_β·p/(t+1)^β is linear in
// p, the model precomputes the flattened kernel tables of deferKernel at
// construction, making each cost or gradient evaluation an O(n²) pass of
// branch-free dot products with no allocations and no transcendental
// calls — this is the "choice of representation" §II argues keeps the
// optimization tractable in near real time.
type StaticModel struct {
	scn    *Scenario
	wfs    []waiting.PowerLaw
	totals []float64 // X_i
	kd     *deferKernel
	ws     wsPool
	n, m   int
}

// NewStaticModel validates the scenario and precomputes the kernel tables.
func NewStaticModel(scn *Scenario) (*StaticModel, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	wfs, err := scn.buildWaitingFuncs()
	if err != nil {
		return nil, err
	}
	n, m := scn.Periods, len(scn.Betas)
	sm := &StaticModel{
		scn:    scn,
		wfs:    wfs,
		totals: scn.TotalDemand(),
		kd:     newDeferKernel(funcsOf(wfs), scn.Demand, n, scn.NoWrap),
		n:      n,
		m:      m,
	}
	sm.ws.init(n)
	return sm, nil
}

// Scenario returns the model's underlying scenario.
func (sm *StaticModel) Scenario() *Scenario { return sm.scn }

// MaxReward returns the box bound for rewards: the smaller of the maximum
// marginal cost of exceeding capacity (Appendix C — the ISP never
// rationally exceeds its marginal benefit) and the normalization reward
// (beyond which every deferrable session already defers).
func (sm *StaticModel) MaxReward() float64 {
	return math.Min(sm.scn.Cost.MaxSlope(), sm.scn.NormReward())
}

// SetDemandRow replaces the demand estimate for period i (0-based) and
// incrementally updates the kernel tables in O(n·m) — the online
// algorithm's per-period estimate fold, which previously rebuilt the whole
// model.
func (sm *StaticModel) SetDemandRow(i int, row []float64) error {
	if err := checkPeriod(i, sm.n); err != nil {
		return err
	}
	if len(row) != sm.m {
		return fmt.Errorf("demand row with %d types, want %d: %w", len(row), sm.m, ErrBadScenario)
	}
	var total float64
	for j, d := range row {
		if d < 0 || math.IsNaN(d) {
			return fmt.Errorf("demand %v for type %d: %w", d, j, ErrBadScenario)
		}
		total += d
	}
	copy(sm.scn.Demand[i], row)
	sm.totals[i] = total
	sm.kd.setDemandRow(i, sm.scn.Demand[i])
	return nil
}

// usageInto computes the TDP usage x and the deferred-into vector In for
// rewards p, into the workspace.
func (sm *StaticModel) usageInto(p []float64, w *evalWS) (x, in []float64) {
	sm.kd.arrivalsInto(p, sm.totals, w.x, w.in, w.p2)
	return w.x, w.in
}

// UsageAt returns the TDP usage profile x_i for the given rewards.
func (sm *StaticModel) UsageAt(p []float64) []float64 {
	w := sm.ws.get()
	defer sm.ws.put(w)
	x, _ := sm.usageInto(p, w)
	return append([]float64(nil), x...)
}

// UsageByType returns the per-period, per-type TDP usage x_i^j — the
// breakdown the TUBE measurement engine observes per traffic class.
func (sm *StaticModel) UsageByType(p []float64) [][]float64 {
	n := sm.n
	kern := sm.kd.kern
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]float64, sm.m)
		for j := 0; j < sm.m; j++ {
			xj := sm.scn.Demand[i][j]
			for dt := 1; dt <= n-1; dt++ {
				if !(sm.scn.NoWrap && i+dt >= n) {
					// Outflow from (i, j) toward period i+dt.
					k := i + dt
					if k >= n {
						k -= n
					}
					if pk := p[k]; pk > 0 {
						xj -= sm.scn.Demand[i][j] * kern[j*n+dt] * pk
					}
				}
				// Inflow into (i, j) from period i−dt.
				src := i - dt
				if src < 0 {
					src += n
				}
				if sm.scn.NoWrap && src+dt >= n {
					continue
				}
				if pi := p[i]; pi > 0 {
					xj += sm.scn.Demand[src][j] * kern[j*n+dt] * pi
				}
			}
			out[i][j] = xj
		}
	}
	return out
}

// CostAt evaluates the exact (unsmoothed) objective (1) at rewards p.
func (sm *StaticModel) CostAt(p []float64) float64 {
	w := sm.ws.get()
	defer sm.ws.put(w)
	x, in := sm.usageInto(p, w)
	var c float64
	for i := 0; i < sm.n; i++ {
		c += p[i]*in[i] + sm.scn.Cost.Value(x[i]-sm.scn.Capacity[i])
	}
	return c
}

// RewardOutlayAt returns the reward-payment portion Σ p_i·In_i of the cost.
func (sm *StaticModel) RewardOutlayAt(p []float64) float64 {
	w := sm.ws.get()
	defer sm.ws.put(w)
	_, in := sm.usageInto(p, w)
	var c float64
	for i := 0; i < sm.n; i++ {
		c += p[i] * in[i]
	}
	return c
}

// TIPCost returns the ISP's cost with no rewards (time-independent
// pricing): Σ_i f(X_i − A_i).
func (sm *StaticModel) TIPCost() float64 {
	var c float64
	for i := 0; i < sm.n; i++ {
		c += sm.scn.Cost.Value(sm.totals[i] - sm.scn.Capacity[i])
	}
	return c
}

// ProfitAt evaluates the ISP's profit π at rewards p per Prop. 2's
// accounting (eq. 12): revenue at the time-independent usage price,
// minus the rewards paid out, minus the constant marginal operating cost
// d per unit served, minus the capacity-exceedance cost. Prop. 2 shows
// maximizing this is equivalent to minimizing CostAt; the tests verify
// π(p) + CostAt(p) is constant in p.
func (sm *StaticModel) ProfitAt(p []float64, usagePrice, operatingCost float64) float64 {
	w := sm.ws.get()
	defer sm.ws.put(w)
	x, in := sm.usageInto(p, w)
	var revenue, rewards, opCost, congestion float64
	for i := 0; i < sm.n; i++ {
		revenue += usagePrice * sm.totals[i] // ΣX_i = Σx_i (no sessions vanish)
		rewards += p[i] * in[i]
		opCost += operatingCost * x[i]
		congestion += sm.scn.Cost.Value(x[i] - sm.scn.Capacity[i])
	}
	return revenue - rewards - opCost - congestion
}

// DeferredMatrix returns Q where Q[k][i] is the volume deferred from
// period k+1 to period i+1 under rewards p (diagonal zero).
func (sm *StaticModel) DeferredMatrix(p []float64) [][]float64 {
	n := sm.n
	q := make([][]float64, n)
	for k := range q {
		q[k] = make([]float64, n)
	}
	for k := 0; k < n; k++ {
		row := sm.kd.outW[k*n : k*n+n]
		for dt := 1; dt <= n-1; dt++ {
			i := (k + dt) % n
			if pi := p[i]; pi > 0 {
				q[k][i] = row[dt] * pi
			}
		}
	}
	return q
}

// AffineForm reads the model off as an AffineForm: X0 is the TIP usage,
// M the usage response to each reward and C the inflow weights, since
// the outlay is Σ p_i·In_i = Σ inW_i·p_i² on the box. The form is a
// snapshot; a later SetDemandRow does not change it.
func (sm *StaticModel) AffineForm() *AffineForm {
	return newAffineForm(func(p, out []float64) {
		w := sm.ws.get()
		x, _ := sm.usageInto(p, w)
		copy(out, x)
		sm.ws.put(w)
	}, append([]float64(nil), sm.kd.inW...), append([]float64(nil), sm.scn.Capacity...),
		sm.scn.Cost, sm.MaxReward())
}

// Solve minimizes the ISP cost over rewards in [0, MaxReward] with the
// exact dual solve of the model's AffineForm, to a certified relative gap
// of 1e-9 (Pricing.LowerBound and Pricing.Gap carry the certificate).
func (sm *StaticModel) Solve() (*Pricing, error) {
	pr := sm.AffineForm().Solve()
	w := sm.ws.get()
	x, in := sm.usageInto(pr.Rewards, w)
	for i := 0; i < sm.n; i++ {
		pr.RewardOutlay += pr.Rewards[i] * in[i]
	}
	pr.Usage = append([]float64(nil), x...)
	sm.ws.put(w)
	pr.TIPCost = sm.TIPCost()
	return pr, nil
}

// SolveForPeriodCold optimizes only reward p_{period+1}, holding the
// others at their values in p, by a search over the full [0, MaxReward]
// bracket. It reports the optimal reward, the resulting exact cost and
// the evaluations spent. This one-dimensional solve is the inner step of
// the online algorithm (§III-B).
func (sm *StaticModel) SolveForPeriodCold(p []float64, period int) (PeriodSolve, error) {
	return sm.solveForPeriod(p, period, 0, false)
}

// SolveForPeriodWarm is SolveForPeriodCold seeded with the previous reward
// for the slot: the one-dimensional search first brackets around prev and only
// falls back to the full [0, MaxReward] interval when the minimizer pins
// an interior bracket edge (the cost is convex along a coordinate, so an
// interior minimizer of the sub-bracket is the global one).
func (sm *StaticModel) SolveForPeriodWarm(p []float64, period int, prev float64) (PeriodSolve, error) {
	return sm.solveForPeriod(p, period, prev, true)
}

func (sm *StaticModel) solveForPeriod(p []float64, period int, prev float64, warm bool) (PeriodSolve, error) {
	if err := checkPeriod(period, sm.n); err != nil {
		return PeriodSolve{}, err
	}
	w := sm.ws.get()
	defer sm.ws.put(w)

	// O(n) incremental coordinate cost: with p_r zeroed once (one O(n²)
	// pass), the usage profile is affine in p_r⁺ with sensitivity coef, so
	// each Brent evaluation recomputes only n cost terms instead of the
	// full quadratic usage pass.
	copy(w.pwork, p)
	w.pwork[period] = 0
	sm.kd.arrivalsInto(w.pwork, sm.totals, w.baseX, w.in, w.p2)
	var constOutlay float64
	for i := 0; i < sm.n; i++ {
		constOutlay += w.pwork[i] * w.in[i]
	}
	sm.kd.periodCoef(period, w.coef)
	inWr := sm.kd.inW[period]

	evals := 0
	eval := func(t float64) float64 {
		evals++
		tp := t
		if tp < 0 {
			tp = 0
		}
		c := constOutlay + t*tp*inWr
		for i := 0; i < sm.n; i++ {
			c += sm.scn.Cost.Value(w.baseX[i] + w.coef[i]*tp - sm.scn.Capacity[i])
		}
		return c
	}

	best, _, usedWarm := minimizeCoord(eval, sm.MaxReward(), prev, warm)

	// Report the canonical exact cost at the optimum (one O(n²) pass), so
	// callers see the same value CostAt would produce.
	w.pwork[period] = best
	fbest := sm.CostAt(w.pwork)
	return PeriodSolve{Reward: best, Cost: fbest, Evals: evals, Warm: usedWarm}, nil
}

// minimizeCoord runs the one-dimensional reward search over [0, maxR]. A
// warm solve first tries a ±maxR/32 bracket around prev at a relaxed
// x-tolerance — when the coordinate minimum sits at a kink of the
// piecewise-linear cost the cost error is first-order in the x-tolerance,
// so 1e-7 in the reward keeps the cost within ~1e-10 of the cold answer —
// and accepts the result unless it pinned an artificial (interior)
// bracket edge. By convexity along a coordinate, an interior minimizer of
// the sub-bracket is the global one; a pinned edge means the true
// minimizer lies outside, so the solve falls back to the full interval at
// the cold tolerance.
func minimizeCoord(eval func(float64) float64, maxR, prev float64, warm bool) (best, fbest float64, usedWarm bool) {
	const (
		coldTol = 1e-10
		warmTol = 1e-7
	)
	if warm {
		half := maxR / 32
		lo := math.Max(0, prev-half)
		hi := math.Min(maxR, prev+half)
		if hi > lo {
			best, fbest = optimize.Brent(eval, lo, hi, warmTol)
			edge := 4 * warmTol * (1 + math.Abs(best))
			loPinned := lo > 0 && best-lo <= edge
			hiPinned := hi < maxR && hi-best <= edge
			if !loPinned && !hiPinned {
				return best, fbest, true
			}
		}
	}
	best, fbest = optimize.Brent(eval, 0, maxR, coldTol)
	return best, fbest, false
}
