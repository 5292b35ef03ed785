package tube

import (
	"errors"
	"testing"

	"tdp/internal/core"
	"tdp/internal/estimate"
	"tdp/internal/ingest"
)

// TestErrorWrappingAudit pins the error contract of every public tube
// entry point: invalid input matches tube.ErrBadInput regardless of
// which lower layer rejected it, AND the lower layer's own sentinel
// stays reachable through the wrap — callers may program against
// either.
func TestErrorWrappingAudit(t *testing.T) {
	scn := testScenario()

	// --- ingest-origin errors -------------------------------------------
	dupCfg := OptimizerConfig{Scenario: scn, Classes: []string{"web", "web", "video"}}
	if _, err := NewOptimizer(dupCfg); !errors.Is(err, ErrBadInput) || !errors.Is(err, ingest.ErrBadReport) {
		t.Errorf("NewOptimizer duplicate class: %v, want tube.ErrBadInput ∧ ingest.ErrBadReport", err)
	}

	// --- estimate-origin errors -----------------------------------------
	sp, err := NewStreamProfiler(scn.Demand, scn.NormReward(), StreamConfig{})
	if err != nil {
		t.Fatalf("NewStreamProfiler: %v", err)
	}
	if _, err := sp.Refine(); !errors.Is(err, ErrBadInput) || !errors.Is(err, estimate.ErrBadInput) {
		t.Errorf("StreamProfiler empty refine: %v, want tube.ErrBadInput ∧ estimate.ErrBadInput", err)
	}
	if _, err := sp.FoldPeriod(0, 0.5, []float64{1, 2, 3}); err != nil {
		t.Fatalf("FoldPeriod: %v", err)
	}
	if _, err := sp.FoldPeriod(3, 0.5, []float64{1, 2, 3}); !errors.Is(err, ErrBadInput) || !errors.Is(err, estimate.ErrBadInput) {
		t.Errorf("StreamProfiler out-of-order fold: %v, want tube.ErrBadInput ∧ estimate.ErrBadInput", err)
	}

	// --- core-origin errors ---------------------------------------------
	badScn := testScenario()
	badScn.Capacity = nil
	if _, err := NewOptimizer(OptimizerConfig{Scenario: badScn, Classes: testClasses()}); !errors.Is(err, ErrBadInput) || !errors.Is(err, core.ErrBadScenario) {
		t.Errorf("NewOptimizer bad scenario: %v, want tube.ErrBadInput ∧ core.ErrBadScenario", err)
	}
	cfg := controllerConfig()
	cfg.Capacity = nil
	if _, err := NewController(cfg); !errors.Is(err, ErrBadInput) || !errors.Is(err, core.ErrBadScenario) {
		t.Errorf("NewController bad scenario: %v, want tube.ErrBadInput ∧ core.ErrBadScenario", err)
	}

	// --- tube-origin errors stay single-branded -------------------------
	p, err := NewClassProfiler(scn.Demand, scn.NormReward(), 50)
	if err != nil {
		t.Fatalf("NewClassProfiler: %v", err)
	}
	if _, err := p.EstimateBetas(); !errors.Is(err, ErrBadInput) {
		t.Errorf("EstimateBetas no observations: %v, want tube.ErrBadInput", err)
	}
	if err := p.AddObservation([]float64{1}, [][]float64{{1}}); !errors.Is(err, ErrBadInput) {
		t.Errorf("AddObservation bad dims: %v, want tube.ErrBadInput", err)
	}
	c, err := NewController(controllerConfig())
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	if _, err := c.ObserveDay([]float64{1}, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("ObserveDay bad dims: %v, want tube.ErrBadInput", err)
	}
}
