package mechanism

import (
	"fmt"
	"math"

	"tdp/internal/core"
)

// Outcome scores one mechanism's day plan under the common §II static
// reaction model, so rows from different mechanisms are directly
// comparable: same scenario, same user behavior, only the reward
// surface differs.
type Outcome struct {
	// Mechanism is the registry name of the backend that planned.
	Mechanism string
	// Rewards is the planned per-period reward surface.
	Rewards []float64
	// Usage is the per-period aggregate usage the surface induces.
	Usage []float64
	// ISPCost is the provider's total daily cost: RewardOutlay plus
	// CongestionCost (the paper's objective (1)).
	ISPCost float64
	// TIPCost is the cost with no rewards offered — the "none" row's
	// ISPCost, repeated on every row so Δ is local.
	TIPCost float64
	// RewardOutlay is the rewards actually paid, Σ_i p_i·In_i.
	RewardOutlay float64
	// CongestionCost is Σ_i f(x_i − A_i).
	CongestionCost float64
	// UserWelfare is the aggregate user surplus gained over TIP. Under
	// the §II waiting family the deferral threshold of the marginal
	// deferrer is uniformly distributed up to each type's patience
	// bound, so surplus integrates to exactly half the outlay:
	// Σ q·p/2 = RewardOutlay/2 (see DESIGN.md §15).
	UserWelfare float64
	// Overflow is the total volume above capacity, Σ_i max(x_i − A_i, 0),
	// in the scenario's demand units — congestion in traffic terms,
	// independent of the cost function's scale.
	Overflow float64
	// OverflowPeriods counts periods whose usage exceeds capacity by more
	// than overflowTol·A_i (see overflow).
	OverflowPeriods int
}

// Savings is the relative ISP-cost reduction vs TIP (0.24 = 24%).
func (o *Outcome) Savings() float64 {
	if o.TIPCost == 0 {
		return 0
	}
	return (o.TIPCost - o.ISPCost) / o.TIPCost
}

// Evaluate scores a reward surface for the scenario under the static
// reaction model. The surface must be day-shaped, finite, non-negative,
// and within the scenario's normalization reward — beyond it the
// waiting-function family stops being meaningful (every deferrable
// session is already deferring), so a surface out there is a mechanism
// bug, not a bolder plan.
func Evaluate(name string, scn *core.Scenario, rewards []float64) (*Outcome, error) {
	if err := checkScenario(scn); err != nil {
		return nil, err
	}
	if len(rewards) != scn.Periods {
		return nil, fmt.Errorf("%s: %d rewards for %d periods: %w",
			name, len(rewards), scn.Periods, ErrBadMechanism)
	}
	const slack = 1e-9 // absorb cap-boundary roundoff from bisection/fixed-point plans
	bound := scn.NormReward() * (1 + slack)
	for i, p := range rewards {
		if math.IsNaN(p) || p < 0 || p > bound {
			return nil, fmt.Errorf("%s: reward %v in period %d outside [0, %v]: %w",
				name, p, i+1, scn.NormReward(), ErrBadMechanism)
		}
	}
	model, err := core.NewStaticModel(scn)
	if err != nil {
		return nil, fmt.Errorf("evaluate %s: %w", name, err)
	}
	p := append([]float64(nil), rewards...)
	out := &Outcome{
		Mechanism:    name,
		Rewards:      p,
		Usage:        model.UsageAt(p),
		ISPCost:      model.CostAt(p),
		TIPCost:      model.TIPCost(),
		RewardOutlay: model.RewardOutlayAt(p),
	}
	out.CongestionCost = out.ISPCost - out.RewardOutlay
	out.UserWelfare = out.RewardOutlay / 2
	out.Overflow, out.OverflowPeriods = overflow(out.Usage, scn.Capacity)
	return out, nil
}

// overflowTol is the relative excess over capacity below which a period
// does not count as overflowing. It sits above the certified price
// solve's resolution: that solve stops at a relative cost gap of 1e-9,
// and at the static48 optimum the periods it pins at capacity end within
// about 1e-7 of it on either side, so an exact x_i > A_i test would
// count the solver's last step rather than the plan.
const overflowTol = 1e-6

// overflow returns the exact volume above capacity, Σ_i max(x_i − A_i, 0),
// and the number of periods whose excess is more than overflowTol·A_i.
func overflow(usage, capacity []float64) (volume float64, periods int) {
	for i, x := range usage {
		over := x - capacity[i]
		if over > 0 {
			volume += over
		}
		if over > overflowTol*capacity[i] {
			periods++
		}
	}
	return volume, periods
}

// PlanAndEvaluate runs one mechanism end to end for the scenario:
// PlanDay under the optional observation, then Evaluate of the surface
// it produced.
func PlanAndEvaluate(p Pricer, scn *core.Scenario, obs *Observation) (*Outcome, error) {
	rewards, err := p.PlanDay(scn, obs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name(), err)
	}
	return Evaluate(p.Name(), scn, rewards)
}
