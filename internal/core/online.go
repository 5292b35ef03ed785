package core

import "fmt"

// periodModel is the slice of StaticModel/DynamicModel the online
// algorithm needs after its initial full solve: incremental demand
// updates and warm single-period re-optimization as periods elapse.
type periodModel interface {
	SolveForPeriodWarm(p []float64, period int, prev float64) (PeriodSolve, error)
	SolveForPeriodCold(p []float64, period int) (PeriodSolve, error)
	SetDemandRow(i int, row []float64) error
	CostAt(p []float64) float64
}

// OnlineConfig tunes the online price determination algorithm.
type OnlineConfig struct {
	// UseDynamic selects the offline dynamic model (carry-over) instead of
	// the static model as the underlying optimizer.
	UseDynamic bool
	// Alpha is the exponential-moving-average weight for folding observed
	// arrivals into the demand estimate: est ← (1−α)·est + α·obs.
	// The default 1 replaces the estimate outright, as in §V-B where the
	// ISP adopts the measured 200 MBps for period 1.
	Alpha float64
}

// OnlineStats accumulates the work spent on per-period re-optimizations —
// the quantities the TUBE observability layer publishes to compare warm
// and cold operation.
type OnlineStats struct {
	// PeriodSolves counts completed Advance re-optimizations.
	PeriodSolves int
	// WarmSolves counts the solves settled inside the warm bracket
	// (0 on bracket-edge fallbacks).
	WarmSolves int
	// Evals is the cumulative number of one-dimensional cost evaluations.
	Evals int
}

// OnlineOptimizer implements §III-B's online price determination
// algorithm: start from the offline optimum, then after each elapsed
// period fold the observed arrivals into the demand estimate and
// re-optimize the reward for the same period one day ahead, holding the
// other n−1 rewards fixed.
//
// The demand fold updates the underlying model's kernel tables in place
// (O(n·m)) instead of rebuilding the model, and the per-period solve is
// warm-started from the reward currently published for the slot.
type OnlineOptimizer struct {
	scn     *Scenario
	cfg     OnlineConfig
	model   periodModel
	plan    *Pricing
	rewards []float64
	elapsed int
	stats   OnlineStats
}

// NewOnlineOptimizer initializes the rolling reward schedule with a full
// offline solve of the scenario (step 1 of the algorithm). The scenario is
// deep-copied; observations mutate only the optimizer's internal estimate.
func NewOnlineOptimizer(scn *Scenario, cfg OnlineConfig) (*OnlineOptimizer, error) {
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("alpha %v outside [0, 1]: %w", cfg.Alpha, ErrBadScenario)
	}
	cp := scn.Clone()
	o := &OnlineOptimizer{scn: cp, cfg: cfg}
	var (
		pr  *Pricing
		err error
	)
	if cfg.UseDynamic {
		var dm *DynamicModel
		if dm, err = NewDynamicModel(cp); err != nil {
			return nil, err
		}
		o.model = dm
		pr, err = dm.Solve()
	} else {
		var sm *StaticModel
		if sm, err = NewStaticModel(cp); err != nil {
			return nil, err
		}
		o.model = sm
		pr, err = sm.Solve()
	}
	if err != nil {
		return nil, fmt.Errorf("online init: %w", err)
	}
	o.plan = pr
	o.rewards = append([]float64(nil), pr.Rewards...)
	return o, nil
}

// InitialPlan returns the offline solve the schedule started from, with
// its cost accounting and optimality certificate. The caller must not
// modify it.
func (o *OnlineOptimizer) InitialPlan() *Pricing { return o.plan }

// Rewards returns a copy of the current rolling reward schedule, indexed
// by period (mod n).
func (o *OnlineOptimizer) Rewards() []float64 {
	return append([]float64(nil), o.rewards...)
}

// Elapsed returns the number of completed periods.
func (o *OnlineOptimizer) Elapsed() int { return o.elapsed }

// Stats returns the accumulated re-optimization work counters.
func (o *OnlineOptimizer) Stats() OnlineStats { return o.stats }

// CurrentReward returns the published reward for the period now beginning.
func (o *OnlineOptimizer) CurrentReward() float64 {
	return o.rewards[o.elapsed%o.scn.Periods]
}

// DemandEstimate returns a copy of the current per-period, per-type
// demand estimate.
func (o *OnlineOptimizer) DemandEstimate() [][]float64 {
	out := make([][]float64, len(o.scn.Demand))
	for i, row := range o.scn.Demand {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// Advance records the observed per-type arrivals for the period that just
// ended, folds them into the demand estimate, and re-optimizes the reward
// for that period's slot one day ahead (steps 2–3 of the algorithm). It
// returns the solve report (reward, exact cost, evaluation count, and
// whether the warm bracket sufficed).
func (o *OnlineOptimizer) Advance(observed []float64) (PeriodSolve, error) {
	n := o.scn.Periods
	idx := o.elapsed % n
	if len(observed) != len(o.scn.Betas) {
		return PeriodSolve{}, fmt.Errorf("observed %d types, want %d: %w", len(observed), len(o.scn.Betas), ErrBadScenario)
	}
	for j, v := range observed {
		if v < 0 {
			return PeriodSolve{}, fmt.Errorf("negative observation for type %d: %w", j, ErrBadScenario)
		}
		o.scn.Demand[idx][j] = (1-o.cfg.Alpha)*o.scn.Demand[idx][j] + o.cfg.Alpha*v
	}
	if err := o.model.SetDemandRow(idx, o.scn.Demand[idx]); err != nil {
		return PeriodSolve{}, err
	}
	ps, err := o.model.SolveForPeriodWarm(o.rewards, idx, o.rewards[idx])
	if err != nil {
		return PeriodSolve{}, err
	}
	o.rewards[idx] = ps.Reward
	o.elapsed++
	o.stats.PeriodSolves++
	o.stats.Evals += ps.Evals
	if ps.Warm {
		o.stats.WarmSolves++
	}
	return ps, nil
}

// CostAt evaluates the current model's daily cost for a reward schedule —
// used to compare adjusted vs nominal rewards as in §V-B.
func (o *OnlineOptimizer) CostAt(p []float64) float64 {
	return o.model.CostAt(p)
}

// ColdPeriodSolve runs a full-bracket single-period solve against the
// current model and schedule without mutating any state. Deployments use
// it once at startup to calibrate how much work a cold re-optimization
// costs, giving the warm-solve metrics an evals-saved baseline.
func (o *OnlineOptimizer) ColdPeriodSolve(period int) (PeriodSolve, error) {
	return o.model.SolveForPeriodCold(o.rewards, period)
}
