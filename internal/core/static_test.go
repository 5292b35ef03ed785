package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tdp/internal/waiting"
)

// paper48 is the §V-A static scenario: Table VII demand, A = 180 MBps,
// f(x) = 3·max(x, 0), 48 half-hour periods, units of 10 MBps and $0.10.
func paper48() *Scenario {
	return &Scenario{
		Periods:  48,
		Demand:   waiting.Demand48(),
		Betas:    append([]float64(nil), waiting.PatienceIndices...),
		Capacity: constant(48, 18),
		Cost:     LinearCost(3),
	}
}

// paper12 is the 12-period variant used for the perturbation studies:
// Table VIII demand, A = 180 MBps, f slope 3.
func paper12() *Scenario {
	return &Scenario{
		Periods:  12,
		Demand:   waiting.Demand12(),
		Betas:    append([]float64(nil), waiting.PatienceIndices...),
		Capacity: constant(12, 18),
		Cost:     LinearCost(3),
	}
}

func constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestScenarioValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"too few periods", func(s *Scenario) { s.Periods = 1 }},
		{"demand length", func(s *Scenario) { s.Demand = s.Demand[:5] }},
		{"no types", func(s *Scenario) { s.Betas = nil }},
		{"negative beta", func(s *Scenario) { s.Betas[0] = -1 }},
		{"ragged demand", func(s *Scenario) { s.Demand[3] = s.Demand[3][:2] }},
		{"negative demand", func(s *Scenario) { s.Demand[0][0] = -1 }},
		{"capacity length", func(s *Scenario) { s.Capacity = s.Capacity[:3] }},
		{"negative capacity", func(s *Scenario) { s.Capacity[0] = -5 }},
		{"bad cost", func(s *Scenario) { s.Cost = CostFunc{} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := paper12()
			tt.mutate(s)
			if err := s.Validate(); !errors.Is(err, ErrBadScenario) {
				t.Errorf("err = %v, want ErrBadScenario", err)
			}
			if _, err := NewStaticModel(s); err == nil {
				t.Error("NewStaticModel accepted invalid scenario")
			}
		})
	}
	if err := paper48().Validate(); err != nil {
		t.Errorf("paper scenario rejected: %v", err)
	}
}

func TestStaticTIPCost(t *testing.T) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	// Hand computation from Table VII: total excess over A=18 across the
	// day is 142 units of 10 MBps (the paper's Table V would give 144; its
	// own Table VII is one unit lower at periods 45&46), so TIP cost is
	// 3·142 = 426 in $0.10 units.
	if got := sm.TIPCost(); math.Abs(got-426) > 1e-9 {
		t.Errorf("TIPCost = %v, want 426", got)
	}
}

func TestStaticZeroRewardsIsTIP(t *testing.T) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	zero := make([]float64, 48)
	if got, want := sm.CostAt(zero), sm.TIPCost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("CostAt(0) = %v, want TIPCost %v", got, want)
	}
	x := sm.UsageAt(zero)
	for i, xi := range x {
		if math.Abs(xi-sm.totals[i]) > 1e-9 {
			t.Errorf("usage[%d] = %v, want TIP demand %v", i, xi, sm.totals[i])
		}
	}
}

func TestStaticUsageConservation(t *testing.T) {
	// TDP never destroys sessions: Σx_i = ΣX_i for any rewards in box.
	sm, err := NewStaticModel(paper48())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		p := make([]float64, 48)
		for i := range p {
			p[i] = rng.Float64() * sm.MaxReward()
		}
		x := sm.UsageAt(p)
		var sx, sX float64
		for i := range x {
			sx += x[i]
			sX += sm.totals[i]
		}
		if math.Abs(sx-sX) > 1e-6 {
			t.Fatalf("trial %d: Σx = %v, ΣX = %v", trial, sx, sX)
		}
		// Usage never negative: normalization caps deferred-out at demand.
		for i, xi := range x {
			if xi < -1e-9 {
				t.Fatalf("trial %d: negative usage %v in period %d", trial, xi, i+1)
			}
		}
	}
}

func TestStaticDeferredMatrixConsistency(t *testing.T) {
	sm, err := NewStaticModel(paper12())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	p := make([]float64, 12)
	for i := range p {
		p[i] = 0.1 * float64(i%4)
	}
	q := sm.DeferredMatrix(p)
	x := sm.UsageAt(p)
	for i := 0; i < 12; i++ {
		if q[i][i] != 0 {
			t.Errorf("Q[%d][%d] = %v, want 0", i, i, q[i][i])
		}
		var in, out float64
		for k := 0; k < 12; k++ {
			in += q[k][i]
			out += q[i][k]
		}
		want := sm.totals[i] - out + in
		if math.Abs(x[i]-want) > 1e-9 {
			t.Errorf("period %d: usage %v, flow-balance %v", i+1, x[i], want)
		}
	}
}

// Property: the exact cost is convex along random segments
// (Prop. 3), i.e. f(midpoint) ≤ (f(a)+f(b))/2.
func TestStaticConvexityProperty(t *testing.T) {
	sm, err := NewStaticModel(paper12())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 12)
		b := make([]float64, 12)
		mid := make([]float64, 12)
		for i := range a {
			a[i] = rng.Float64() * 1.5
			b[i] = rng.Float64() * 1.5
			mid[i] = (a[i] + b[i]) / 2
		}
		return sm.CostAt(mid) <= (sm.CostAt(a)+sm.CostAt(b))/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStaticSolvePaper48(t *testing.T) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	pr, err := sm.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if pr.Cost >= pr.TIPCost {
		t.Fatalf("TDP cost %v not below TIP cost %v", pr.Cost, pr.TIPCost)
	}
	if pr.LowerBound > pr.Cost || pr.RelGap() > 1e-9 {
		t.Errorf("certificate: lower bound %v, cost %v, relative gap %g", pr.LowerBound, pr.Cost, pr.RelGap())
	}
	// Paper: ~24% savings. Shape criterion: 10–40%.
	if s := pr.Savings(); s < 0.10 || s > 0.40 {
		t.Errorf("savings = %v, want within [0.10, 0.40] (paper: 0.24)", s)
	}
	// Paper §V-A: with linear waiting functions the ISP never offers more
	// than half the maximum marginal benefit, $0.15 = 1.5 units.
	for i, r := range pr.Rewards {
		if r > 1.5+1e-6 {
			t.Errorf("reward[%d] = %v exceeds the $0.15 bound", i+1, r)
		}
		if r < 0 {
			t.Errorf("reward[%d] = %v negative", i+1, r)
		}
	}
	// At least some rewards are positive (TDP is actually used).
	var positive int
	for _, r := range pr.Rewards {
		if r > 1e-6 {
			positive++
		}
	}
	if positive == 0 {
		t.Error("no positive rewards")
	}
	// Usage evens out: peak-to-trough shrinks vs TIP (paper: 200→119 MBps).
	tipRange := rangeOf(sm.totals)
	tdpRange := rangeOf(pr.Usage)
	if tdpRange >= tipRange {
		t.Errorf("TDP peak-to-trough %v not below TIP %v", tdpRange, tipRange)
	}
}

// TestStaticSolversAgree pins the certified dual solve against the
// former production homotopy (a test-only reference now): on the paper's
// scenarios the dual solve certifies a gap ≤ 1e-9 relative, never ends
// above the homotopy by more than that tolerance, and the homotopy's
// excess stays small.
func TestStaticSolversAgree(t *testing.T) {
	for name, scn := range map[string]*Scenario{"static12": paper12(), "static48": paper48()} {
		sm, err := NewStaticModel(scn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pr, err := sm.Solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g := pr.RelGap(); g > 1e-9 {
			t.Errorf("%s: certified gap %g relative, want ≤ 1e-9", name, g)
		}
		ref, err := sm.referenceHomotopySolve()
		if err != nil {
			t.Fatalf("%s homotopy: %v", name, err)
		}
		if pr.Cost > ref.F+1e-9*ref.F {
			t.Errorf("%s: certified cost %.10f above the homotopy's %.10f", name, pr.Cost, ref.F)
		}
		if ref.F < pr.LowerBound {
			t.Errorf("%s: homotopy cost %.10f below the dual bound %.10f", name, ref.F, pr.LowerBound)
		}
		if ref.F-pr.Cost > 1e-5*pr.Cost {
			t.Errorf("%s: homotopy %.10f far above the certified optimum %.10f", name, ref.F, pr.Cost)
		}
	}
}

func TestStaticSolveForPeriod(t *testing.T) {
	sm, err := NewStaticModel(paper12())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	pr, err := sm.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Re-optimizing any single coordinate of the certified optimum cannot
	// beat its dual lower bound.
	for _, period := range []int{0, 5, 11} {
		ps, err := sm.SolveForPeriodCold(pr.Rewards, period)
		if err != nil {
			t.Fatalf("SolveForPeriodCold(%d): %v", period, err)
		}
		if ps.Cost < pr.LowerBound-1e-9 {
			t.Errorf("period %d: 1-D reopt cost %v below the dual bound %v (reward %v vs %v)",
				period+1, ps.Cost, pr.LowerBound, ps.Reward, pr.Rewards[period])
		}
	}
	if _, err := sm.SolveForPeriodCold(pr.Rewards, 99); !errors.Is(err, ErrBadScenario) {
		t.Errorf("out-of-range period: err = %v, want ErrBadScenario", err)
	}
}

func TestStaticRewardsTrackDemand(t *testing.T) {
	// Fig. 4: "larger rewards roughly correlate with higher traffic" — the
	// reward for deferring *to* under-capacity valleys near peaks is
	// positive, while deep under-capacity periods with no nearby peaks get
	// little. Check the aggregate correlation between reward and the
	// demand of the preceding periods is not perverse: rewards must be
	// mostly concentrated in periods that are under capacity under TIP.
	sm, err := NewStaticModel(paper48())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	pr, err := sm.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	var rewardUnder, rewardOver float64
	for i, r := range pr.Rewards {
		if sm.totals[i] < sm.scn.Capacity[i] {
			rewardUnder += r
		} else {
			rewardOver += r
		}
	}
	if rewardUnder <= rewardOver {
		t.Errorf("rewards concentrate on over-capacity periods (under %v, over %v)",
			rewardUnder, rewardOver)
	}
}

// TestUsageByTypeConsistency: the per-class breakdown must sum to the
// aggregate usage and conserve each class's total demand.
func TestUsageByTypeConsistency(t *testing.T) {
	sm, err := NewStaticModel(paper12())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		p := make([]float64, 12)
		for i := range p {
			p[i] = rng.Float64() * sm.MaxReward()
		}
		byType := sm.UsageByType(p)
		total := sm.UsageAt(p)
		for i := range total {
			var s float64
			for _, v := range byType[i] {
				s += v
			}
			if math.Abs(s-total[i]) > 1e-9 {
				t.Fatalf("period %d: Σ_j x_ij = %v, x_i = %v", i+1, s, total[i])
			}
		}
		// Per-class conservation.
		for j := range sm.scn.Betas {
			var got, want float64
			for i := 0; i < 12; i++ {
				got += byType[i][j]
				want += sm.scn.Demand[i][j]
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("class %d: Σ_i x_ij = %v, demand %v", j, got, want)
			}
		}
	}
}

// TestProfitCostEquivalence verifies Prop. 2: profit plus cost is a
// constant independent of the rewards, so profit maximization and cost
// minimization pick the same prices.
func TestProfitCostEquivalence(t *testing.T) {
	sm, err := NewStaticModel(paper12())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	const usagePrice, opCost = 2.0, 0.3
	rng := rand.New(rand.NewSource(99))
	base := sm.ProfitAt(make([]float64, 12), usagePrice, opCost) + sm.CostAt(make([]float64, 12))
	for trial := 0; trial < 25; trial++ {
		p := make([]float64, 12)
		for i := range p {
			p[i] = rng.Float64() * sm.MaxReward()
		}
		got := sm.ProfitAt(p, usagePrice, opCost) + sm.CostAt(p)
		if math.Abs(got-base) > 1e-6*(1+math.Abs(base)) {
			t.Fatalf("π + C = %v, want constant %v (Prop. 2 violated)", got, base)
		}
	}
	// Consequently the optimal rewards maximize profit among candidates.
	pr, err := sm.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	bestProfit := sm.ProfitAt(pr.Rewards, usagePrice, opCost)
	for trial := 0; trial < 25; trial++ {
		p := make([]float64, 12)
		for i := range p {
			p[i] = rng.Float64() * sm.MaxReward()
		}
		if sm.ProfitAt(p, usagePrice, opCost) > bestProfit+1e-6 {
			t.Fatalf("random rewards beat the optimum's profit")
		}
	}
}

func TestPricingSavingsZeroTIP(t *testing.T) {
	p := &Pricing{Cost: 5, TIPCost: 0}
	if s := p.Savings(); s != 0 {
		t.Errorf("Savings with zero TIP cost = %v, want 0", s)
	}
}

func rangeOf(x []float64) float64 {
	mx, mn := x[0], x[0]
	for _, v := range x {
		mx = math.Max(mx, v)
		mn = math.Min(mn, v)
	}
	return mx - mn
}
