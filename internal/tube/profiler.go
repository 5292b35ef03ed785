package tube

import (
	"fmt"
	"sync"

	"tdp/internal/estimate"
)

// ClassProfiler is the day-batch profiling engine: it accumulates whole
// days of published rewards and measured *per-class* usage, and fits one
// patience index per traffic class with the §IV waiting-function
// estimation algorithm. Exploiting the measurement engine's per-class
// accounting sidesteps the mixture-identifiability problem of the
// aggregate algorithm: each class is a single-type estimation with its
// own net flows.
//
// Every recorded day is retained; the Controller's experiment loops run
// for days, not months. The serving plane's long-running estimator is
// StreamProfiler, which keeps a bounded day window.
type ClassProfiler struct {
	mu        sync.Mutex
	periods   int
	classes   int
	baseline  [][]float64 // [period][class] TIP demand; immutable after New
	maxReward float64
	maxIter   int
	rewards   [][]float64   // guarded by mu: per-day rewards
	usage     [][][]float64 // guarded by mu: per-day [period][class] usage
}

// NewClassProfiler builds a per-class profiler from the per-period,
// per-class TIP baseline.
func NewClassProfiler(baseline [][]float64, maxReward float64, maxIter int) (*ClassProfiler, error) {
	if len(baseline) < 2 || len(baseline[0]) == 0 {
		return nil, fmt.Errorf("baseline %dx?: %w", len(baseline), ErrBadInput)
	}
	classes := len(baseline[0])
	cp := &ClassProfiler{
		periods:   len(baseline),
		classes:   classes,
		maxReward: maxReward,
		maxIter:   maxIter,
	}
	for i, row := range baseline {
		if len(row) != classes {
			return nil, fmt.Errorf("ragged baseline at period %d: %w", i+1, ErrBadInput)
		}
		cp.baseline = append(cp.baseline, append([]float64(nil), row...))
	}
	if maxReward <= 0 {
		return nil, fmt.Errorf("max reward %v: %w", maxReward, ErrBadInput)
	}
	return cp, nil
}

// AddObservation records one day: the published rewards and the measured
// per-period, per-class usage.
func (cp *ClassProfiler) AddObservation(rewards []float64, usage [][]float64) error {
	if len(rewards) != cp.periods || len(usage) != cp.periods {
		return fmt.Errorf("observation dims %d/%d, want %d: %w",
			len(rewards), len(usage), cp.periods, ErrBadInput)
	}
	for i, row := range usage {
		if len(row) != cp.classes {
			return fmt.Errorf("usage period %d has %d classes, want %d: %w",
				i+1, len(row), cp.classes, ErrBadInput)
		}
	}
	u := make([][]float64, cp.periods)
	for i, row := range usage {
		u[i] = append([]float64(nil), row...)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.rewards = append(cp.rewards, append([]float64(nil), rewards...))
	cp.usage = append(cp.usage, u)
	return nil
}

// ObservationCount returns the number of recorded days.
func (cp *ClassProfiler) ObservationCount() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.rewards)
}

// EstimateBetas fits one patience index per class: a single-type §IV
// estimation on that class's net flows, reduced to a demand-weighted
// average across periods.
func (cp *ClassProfiler) EstimateBetas() ([]float64, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	days := len(cp.rewards)
	if days == 0 {
		return nil, fmt.Errorf("no observations: %w", ErrBadInput)
	}
	betas := make([]float64, cp.classes)
	for j := 0; j < cp.classes; j++ {
		base := make([]float64, cp.periods)
		for i := range base {
			base[i] = cp.baseline[i][j]
		}
		model := &estimate.Model{
			Periods:     cp.periods,
			Types:       1,
			BaselineTIP: base,
			MaxReward:   cp.maxReward,
			MaxIter:     cp.maxIter,
		}
		var obs []estimate.Observation
		for d := 0; d < days; d++ {
			t := make([]float64, cp.periods)
			for i := 0; i < cp.periods; i++ {
				t[i] = base[i] - cp.usage[d][i][j]
			}
			obs = append(obs, estimate.Observation{Rewards: cp.rewards[d], T: t})
		}
		fit, err := model.Fit(obs)
		if err != nil {
			return nil, badInput(fmt.Errorf("class %d: %w", j, err))
		}
		var num, den float64
		for i := 0; i < cp.periods; i++ {
			num += base[i] * fit.Params.Beta[i][0]
			den += base[i]
		}
		if den == 0 {
			betas[j] = 1
			continue
		}
		betas[j] = num / den
	}
	return betas, nil
}
