package core

import (
	"math"
	"testing"
)

func TestDefiniteChoiceValidation(t *testing.T) {
	s := paper12()
	s.Periods = 1
	if _, err := NewDefiniteChoiceModel(s); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestDefiniteChoiceZeroRewardsNobodyMoves(t *testing.T) {
	dc, err := NewDefiniteChoiceModel(paper12())
	if err != nil {
		t.Fatalf("NewDefiniteChoiceModel: %v", err)
	}
	zero := make([]float64, 12)
	for i, row := range dc.Choices(zero) {
		for j, k := range row {
			if k != -1 {
				t.Errorf("period %d type %d deferred to %d with zero rewards", i+1, j, k)
			}
		}
	}
	if got, want := dc.CostAt(zero), dc.TIPCost(); got != want {
		t.Errorf("CostAt(0) = %v, want TIPCost %v", got, want)
	}
}

func TestDefiniteChoiceHighRewardMovesTraffic(t *testing.T) {
	dc, err := NewDefiniteChoiceModel(paper12())
	if err != nil {
		t.Fatalf("NewDefiniteChoiceModel: %v", err)
	}
	dc.Threshold = 0.05
	// A big reward only on period 4 (the deepest valley, X=8).
	p := make([]float64, 12)
	p[3] = dc.scn.Cost.MaxSlope()
	x := dc.UsageAt(p)
	if x[3] <= dc.totals[3] {
		t.Errorf("usage in rewarded period did not grow: %v vs TIP %v", x[3], dc.totals[3])
	}
	// Conservation.
	var sx, sX float64
	for i := range x {
		sx += x[i]
		sX += dc.totals[i]
	}
	if math.Abs(sx-sX) > 1e-9 {
		t.Errorf("Σx = %v, ΣX = %v", sx, sX)
	}
	// Sessions defer to the argmax period only: with a single positive
	// reward all deferrals target period 4.
	for i, row := range dc.Choices(p) {
		for j, k := range row {
			if k != -1 && k != 3 {
				t.Errorf("period %d type %d deferred to %d, want 3", i+1, j, k)
			}
		}
	}
}

func TestDefiniteChoiceSolveNeverWorseThanTIP(t *testing.T) {
	dc, err := NewDefiniteChoiceModel(paper12())
	if err != nil {
		t.Fatalf("NewDefiniteChoiceModel: %v", err)
	}
	dc.Starts = 4
	pr, err := dc.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if pr.Cost > pr.TIPCost+1e-9 {
		t.Errorf("definite-choice solve cost %v above TIP %v", pr.Cost, pr.TIPCost)
	}
	if len(pr.Rewards) != 12 || len(pr.Usage) != 12 {
		t.Error("malformed pricing")
	}
}

func TestDefiniteChoiceThresholdMonotone(t *testing.T) {
	// Raising the threshold can only reduce the set of deferring sessions.
	dc, err := NewDefiniteChoiceModel(paper12())
	if err != nil {
		t.Fatalf("NewDefiniteChoiceModel: %v", err)
	}
	p := make([]float64, 12)
	p[3], p[4] = 1.2, 0.8
	count := func(th float64) int {
		dc.Threshold = th
		var c int
		for _, row := range dc.Choices(p) {
			for _, k := range row {
				if k >= 0 {
					c++
				}
			}
		}
		return c
	}
	low, high := count(0.01), count(0.9)
	if low < high {
		t.Errorf("deferral count grew with threshold: %d < %d", low, high)
	}
	if low == 0 {
		t.Error("no deferrals at low threshold with large rewards")
	}
}

func TestFixedDurationValidation(t *testing.T) {
	if _, err := NewFixedDurationModel(paper12(), 0, 1); err == nil {
		t.Error("zero departure rate accepted")
	}
	if _, err := NewFixedDurationModel(paper12(), 1, 0); err == nil {
		t.Error("zero session size accepted")
	}
	s := paper12()
	s.Betas = nil
	if _, err := NewFixedDurationModel(s, 1, 1); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestFixedDurationSessionDynamics(t *testing.T) {
	fm, err := NewFixedDurationModel(paper12(), 2, 1)
	if err != nil {
		t.Fatalf("NewFixedDurationModel: %v", err)
	}
	zero := make([]float64, 12)
	counts := fm.SessionCounts(zero)
	// With departure rate d and arrival rate ν, N converges toward ν/d;
	// counts must stay positive and bounded by max(ν)/d + start.
	maxNu := 0.0
	for _, x := range fm.totals {
		maxNu = math.Max(maxNu, x)
	}
	bound := maxNu/fm.DepartRate + 1
	for i, n := range counts {
		if n < 0 || n > bound {
			t.Errorf("N[%d] = %v outside (0, %v)", i, n, bound)
		}
	}
	// Doubling the departure rate lowers steady-state occupancy.
	fm2, err := NewFixedDurationModel(paper12(), 4, 1)
	if err != nil {
		t.Fatalf("NewFixedDurationModel: %v", err)
	}
	counts2 := fm2.SessionCounts(zero)
	if counts2[11] >= counts[11] {
		t.Errorf("faster departures did not lower occupancy: %v vs %v", counts2[11], counts[11])
	}
}

func TestFixedDurationSolve(t *testing.T) {
	// Pick capacity low enough that TIP congests.
	s := paper12()
	s.Capacity = constant(12, 9)
	s.Cost = LinearCost(1)
	fm, err := NewFixedDurationModel(s, 1, 1)
	if err != nil {
		t.Fatalf("NewFixedDurationModel: %v", err)
	}
	if fm.TIPCost() <= 0 {
		t.Fatal("scenario does not congest under TIP; test is vacuous")
	}
	pr, err := fm.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if pr.Cost > pr.TIPCost+1e-9 {
		t.Errorf("fixed-duration TDP cost %v above TIP %v", pr.Cost, pr.TIPCost)
	}
	if pr.Cost >= pr.TIPCost {
		t.Errorf("no improvement from pricing: %v vs %v", pr.Cost, pr.TIPCost)
	}
	if g := pr.RelGap(); g > 1e-9 {
		t.Errorf("fixed-duration relative gap %g, want ≤ 1e-9", g)
	}
}
