package tube

import (
	"errors"
	"fmt"
	"testing"

	"tdp/internal/core"
	"tdp/internal/mechanism"
	"tdp/internal/obs"
)

// mustPricer builds a zoo mechanism for tests.
func mustPricer(t *testing.T, name string, p mechanism.Params) mechanism.Pricer {
	t.Helper()
	pr, err := mechanism.New(name, p)
	if err != nil {
		t.Fatalf("mechanism.New(%q): %v", name, err)
	}
	return pr
}

func TestOptimizerWithMechanism(t *testing.T) {
	scn := testScenario()
	opt, err := NewOptimizer(OptimizerConfig{
		Scenario: scn,
		Classes:  testClasses(),
		Pricer: mustPricer(t, "static-tod", mechanism.Params{
			Windows: mechanism.SlackWindows(scn, 0.8),
		}),
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}

	// The initial schedule is the mechanism's plan: day-shaped, with at
	// least one rewarded period (the test scenario has slack).
	sched := opt.Schedule()
	if len(sched) != scn.Periods {
		t.Fatalf("schedule has %d periods, want %d", len(sched), scn.Periods)
	}
	var rewarded bool
	for _, p := range sched {
		if p > 0 {
			rewarded = true
		}
	}
	if !rewarded {
		t.Fatalf("mechanism schedule all-zero: %v", sched)
	}

	// Run two full days of period closes; the schedule must survive the
	// day boundary (re-planned by the mechanism, not the online engine).
	for day := 0; day < 2; day++ {
		for p := 0; p < scn.Periods; p++ {
			if err := meter(opt.Measurement(), UsageReport{User: fmt.Sprintf("u%d", p%3), Class: "web", VolumeMB: 5}); err != nil {
				t.Fatalf("meter: %v", err)
			}
			if _, err := opt.ClosePeriod(); err != nil {
				t.Fatalf("ClosePeriod day %d period %d: %v", day, p, err)
			}
		}
	}
	if got := opt.Period(); got != 2*scn.Periods {
		t.Fatalf("period = %d, want %d", got, 2*scn.Periods)
	}
	// The day plans counted on one handle, resolved at the first plan:
	// the series /metrics shows.
	if plans := obs.Default().Counter("optimizer_mechanism_plans_total", "", obs.Labels{"mechanism": opt.cfg.Pricer.Name()}); opt.plans != plans || plans.Value() < 2 {
		t.Fatalf("plan counter handle %p, registry series %p at %d plans", opt.plans, plans, plans.Value())
	}
	sched2 := opt.Schedule()
	if len(sched2) != scn.Periods {
		t.Fatalf("post-replan schedule has %d periods", len(sched2))
	}
	// Static time-of-day pricing ignores observations, so the replanned
	// schedule is the same surface.
	for i := range sched {
		if sched[i] != sched2[i] {
			t.Fatalf("static-tod schedule drifted at %d: %v → %v", i, sched[i], sched2[i])
		}
	}

	// No online engine in mechanism mode: the demand estimate is the
	// declared scenario, not an EMA.
	est := opt.DemandEstimate()
	for i, row := range est {
		for j, v := range row {
			if v != scn.Demand[i][j] {
				t.Fatalf("demand estimate drifted at [%d][%d]: %v != %v", i, j, v, scn.Demand[i][j])
			}
		}
	}
}

func TestOptimizerMechanismObservationShiftsPlan(t *testing.T) {
	scn := testScenario()
	opt, err := NewOptimizer(OptimizerConfig{
		Scenario: scn,
		Classes:  testClasses(),
		Pricer:   mustPricer(t, "rebate", mechanism.Params{Budget: 6}),
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	initial := opt.Schedule()

	// A day of heavy traffic concentrated in the first half of the day:
	// the rebate's slack shape must move relative to the declared-demand
	// plan once the observation lands.
	for p := 0; p < scn.Periods; p++ {
		vol := 1.0
		if p < scn.Periods/2 {
			vol = 30
		}
		if err := meter(opt.Measurement(), UsageReport{User: "u1", Class: "video", VolumeMB: vol}); err != nil {
			t.Fatalf("meter: %v", err)
		}
		if _, err := opt.ClosePeriod(); err != nil {
			t.Fatalf("ClosePeriod: %v", err)
		}
	}
	replanned := opt.Schedule()
	var moved bool
	for i := range initial {
		if initial[i] != replanned[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatalf("rebate plan ignored the observed day: %v", replanned)
	}
}

// TestMechanismShortPlanRejected: a mechanism whose day plan does not
// cover every period is rejected as bad input on both plan paths — the
// optimizer's initial plan and its day-boundary replan.
func TestMechanismShortPlanRejected(t *testing.T) {
	scn := testScenario()
	if _, err := NewOptimizer(OptimizerConfig{
		Scenario: scn, Classes: testClasses(), Pricer: &shortPricer{},
	}); !errors.Is(err, ErrBadInput) || !errors.Is(err, mechanism.ErrBadMechanism) {
		t.Errorf("NewOptimizer: err = %v, want ErrBadInput ∧ ErrBadMechanism", err)
	}

	opt, err := NewOptimizer(OptimizerConfig{
		Scenario: scn, Classes: testClasses(), Pricer: &shortPricer{full: 1},
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	for p := 0; p < scn.Periods-1; p++ {
		if _, err := opt.ClosePeriod(); err != nil {
			t.Fatalf("ClosePeriod %d: %v", p, err)
		}
	}
	if _, err := opt.ClosePeriod(); !errors.Is(err, ErrBadInput) {
		t.Errorf("day-boundary ClosePeriod: err = %v, want ErrBadInput", err)
	}
}

// shortPricer plans full days for its first `full` calls and a day one
// period short after that.
type shortPricer struct {
	full, calls int
}

func (*shortPricer) Name() string { return "short" }
func (p *shortPricer) PlanDay(scn *core.Scenario, _ *mechanism.Observation) ([]float64, error) {
	p.calls++
	if p.calls <= p.full {
		return make([]float64, scn.Periods), nil
	}
	return make([]float64, scn.Periods-1), nil
}
