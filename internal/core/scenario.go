package core

import (
	"fmt"
	"math"

	"tdp/internal/waiting"
)

// Scenario describes one pricing problem instance: the day structure,
// demand under time-independent pricing (TIP) broken down by session type,
// each type's patience, available capacity, and the ISP's cost of
// exceeding capacity.
type Scenario struct {
	// Periods is the number of periods n in a day (e.g. 48 half-hours).
	Periods int
	// Demand[i][j] is the TIP demand of session type j originally in
	// period i+1, in 10 MBps.
	Demand [][]float64
	// Betas[j] is the patience index of session type j.
	Betas []float64
	// Capacity[i] is the available capacity A_{i+1} in 10 MBps (already
	// adjusted for below-cap users and safety cushion, §II).
	Capacity []float64
	// Cost is the capacity-exceedance cost f.
	Cost CostFunc
	// PeriodSeconds is the real-time length of each period (for volume
	// metrics); defaults to 1800 s when zero.
	PeriodSeconds float64
	// MaxRewardNorm overrides the reward P at which waiting functions are
	// normalized (Σ_t w(P,t) = 1). Zero uses Cost.MaxSlope(), the paper's
	// default. Set it when sweeping the cost scale (Fig. 6): user behavior
	// is a fixed property and must not rescale with the ISP's cost.
	MaxRewardNorm float64
	// NoWrap disables deferrals across the day boundary (period k of one
	// day to period i of the next). The paper's formulation allows the
	// wrap (§II's i−k mod n), but its Appendix I tables are only
	// reproducible without it; see EXPERIMENTS.md.
	NoWrap bool
}

// Clone deep-copies the scenario, including every scalar option
// (MaxRewardNorm, NoWrap, PeriodSeconds), so mutations of the copy never
// reach the original. It lives next to the struct definition so that new
// fields cannot be silently dropped the way an out-of-package field-list
// copy can.
func (s *Scenario) Clone() *Scenario {
	cp := *s // copies all scalar fields, present and future
	cp.Betas = append([]float64(nil), s.Betas...)
	cp.Capacity = append([]float64(nil), s.Capacity...)
	cp.Cost = CostFunc{
		Breaks: append([]float64(nil), s.Cost.Breaks...),
		Slopes: append([]float64(nil), s.Cost.Slopes...),
	}
	cp.Demand = make([][]float64, len(s.Demand))
	for i, row := range s.Demand {
		cp.Demand[i] = append([]float64(nil), row...)
	}
	return &cp
}

// Validate checks structural consistency.
func (s *Scenario) Validate() error {
	if s.Periods < 2 {
		return fmt.Errorf("%d periods: %w", s.Periods, ErrBadScenario)
	}
	if len(s.Demand) != s.Periods {
		return fmt.Errorf("demand has %d periods, want %d: %w", len(s.Demand), s.Periods, ErrBadScenario)
	}
	if len(s.Betas) == 0 {
		return fmt.Errorf("no session types: %w", ErrBadScenario)
	}
	for _, b := range s.Betas {
		if b < 0 {
			return fmt.Errorf("patience index %v: %w", b, ErrBadScenario)
		}
	}
	for i, row := range s.Demand {
		if len(row) != len(s.Betas) {
			return fmt.Errorf("demand period %d has %d types, want %d: %w", i+1, len(row), len(s.Betas), ErrBadScenario)
		}
		for j, d := range row {
			if d < 0 {
				return fmt.Errorf("negative demand at period %d type %d: %w", i+1, j, ErrBadScenario)
			}
		}
	}
	if len(s.Capacity) != s.Periods {
		return fmt.Errorf("capacity has %d periods, want %d: %w", len(s.Capacity), s.Periods, ErrBadScenario)
	}
	for i, a := range s.Capacity {
		if a < 0 {
			return fmt.Errorf("negative capacity in period %d: %w", i+1, ErrBadScenario)
		}
	}
	if s.MaxRewardNorm < 0 {
		return fmt.Errorf("normalization reward %v: %w", s.MaxRewardNorm, ErrBadScenario)
	}
	return s.Cost.Validate()
}

// NormReward returns the reward at which waiting functions are normalized:
// the explicit override, or the maximum marginal cost of exceeding
// capacity.
func (s *Scenario) NormReward() float64 {
	if s.MaxRewardNorm > 0 {
		return s.MaxRewardNorm
	}
	return s.Cost.MaxSlope()
}

// TotalDemand returns the per-period TIP demand totals X_i.
func (s *Scenario) TotalDemand() []float64 {
	out := make([]float64, s.Periods)
	for i, row := range s.Demand {
		for _, d := range row {
			out[i] += d
		}
	}
	return out
}

// periodSeconds returns the period length, defaulting to half an hour.
func (s *Scenario) periodSeconds() float64 {
	if s.PeriodSeconds > 0 {
		return s.PeriodSeconds
	}
	return 1800
}

// buildWaitingFuncs constructs the normalized power-law waiting function
// for each session type, using the scenario's maximum marginal cost as the
// normalizing reward P (§II).
func (s *Scenario) buildWaitingFuncs() ([]waiting.PowerLaw, error) {
	p := s.NormReward()
	out := make([]waiting.PowerLaw, len(s.Betas))
	for j, beta := range s.Betas {
		w, err := waiting.NewPowerLaw(beta, s.Periods, p)
		if err != nil {
			return nil, fmt.Errorf("type %d: %w", j, err)
		}
		out[j] = w
	}
	return out, nil
}

// Pricing is the outcome of a price optimization: the rewards, the
// resulting usage profile, and cost accounting.
type Pricing struct {
	// Rewards[i] is the optimal reward p_{i+1} in $0.10 for deferring
	// *to* period i+1.
	Rewards []float64
	// Usage[i] is the resulting TDP usage x_{i+1} in 10 MBps.
	Usage []float64
	// Cost is the ISP's total daily cost under TDP ($0.10 units):
	// rewards paid plus capacity-exceedance cost.
	Cost float64
	// TIPCost is the cost with no rewards offered (all p_i = 0).
	TIPCost float64
	// RewardOutlay is the portion of Cost paid out as rewards.
	RewardOutlay float64
	// LowerBound is a certified lower bound on the optimal cost, the dual
	// value at the solver's best dual point, and Gap = Cost − LowerBound
	// bounds how far Cost is above the optimum. Solves without a
	// certificate (the dynamic model's homotopy) report −Inf and +Inf.
	LowerBound, Gap float64
	// Iterations and Evals report solver effort.
	Iterations, Evals int
}

// RelGap returns Gap relative to |Cost| (Gap itself when Cost is 0).
func (p *Pricing) RelGap() float64 {
	if p.Cost == 0 {
		return p.Gap
	}
	return p.Gap / math.Abs(p.Cost)
}

// Savings returns the relative cost reduction of TDP vs TIP, e.g. 0.24 for
// the paper's 24% (§V-A).
func (p *Pricing) Savings() float64 {
	if p.TIPCost == 0 {
		return 0
	}
	return (p.TIPCost - p.Cost) / p.TIPCost
}
