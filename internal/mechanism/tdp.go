package mechanism

import (
	"fmt"

	"tdp/internal/core"
	"tdp/internal/optimize"
)

func init() {
	Register("tdp", func(p Params) (Pricer, error) { return NewTDP(p), nil })
	Register("none", func(Params) (Pricer, error) { return None{}, nil })
}

// TDP is the paper's reward optimizer as a zoo backend: a full
// cost-minimizing solve of the §II static model (or the §III-A dynamic
// model) per day — the same plan path tube.Controller runs. The static
// solve is the certified dual solve and needs no seed; the dynamic
// model's homotopy warm-starts from the previous day's schedule, which
// truncates its smoothing schedule.
//
// The observed profile is ignored: under the Fig. 1 loop, observations
// reach the optimizer through the re-estimated scenario (demand and
// patience beliefs), not through the plan call.
type TDP struct {
	dynamic bool
	warm    []float64 // the dynamic homotopy's seed: the last schedule
	last    *core.Pricing
}

// NewTDP builds the paper's optimizer backend; Params.Dynamic selects
// the carry-over model.
func NewTDP(p Params) *TDP { return &TDP{dynamic: p.Dynamic} }

// Name implements Pricer.
func (t *TDP) Name() string { return "tdp" }

// PlanDay implements Pricer with a full offline solve.
func (t *TDP) PlanDay(scn *core.Scenario, _ *Observation) ([]float64, error) {
	if err := checkScenario(scn); err != nil {
		return nil, err
	}
	var (
		pr  *core.Pricing
		err error
	)
	if t.dynamic {
		var opts []optimize.Option
		if len(t.warm) == scn.Periods {
			opts = append(opts, optimize.WithWarmStart(t.warm))
		}
		var m *core.DynamicModel
		if m, err = core.NewDynamicModel(scn); err == nil {
			pr, err = m.Solve(opts...)
		}
	} else {
		var m *core.StaticModel
		if m, err = core.NewStaticModel(scn); err == nil {
			pr, err = m.Solve()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("tdp plan: %w", err)
	}
	t.warm = append(t.warm[:0], pr.Rewards...)
	t.last = pr
	return append([]float64(nil), pr.Rewards...), nil
}

// LastPricing returns the full solver result of the most recent
// PlanDay (nil before the first), for callers that want the solver's
// own cost accounting next to Evaluate's.
func (t *TDP) LastPricing() *core.Pricing { return t.last }

// None is the TIP baseline: no rewards, ever. It pins the matrix's
// "do nothing" row so every other mechanism's Δ is read off directly.
type None struct{}

// Name implements Pricer.
func (None) Name() string { return "none" }

// PlanDay implements Pricer with the all-zero schedule.
func (None) PlanDay(scn *core.Scenario, _ *Observation) ([]float64, error) {
	if err := checkScenario(scn); err != nil {
		return nil, err
	}
	return make([]float64, scn.Periods), nil
}
