package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomScenario draws a seeded static scenario: n periods, 2–3 session
// types, 1–3 cost breaks, capacity near the mean demand so some periods
// congest, and one period with no demand at all.
func randomScenario(n int, seed int64, noWrap bool) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(2)
	demand := make([][]float64, n)
	var total float64
	for i := range demand {
		demand[i] = make([]float64, m)
		for j := range demand[i] {
			demand[i][j] = 1 + 9*rng.Float64()
			total += demand[i][j]
		}
	}
	zero := rng.Intn(n)
	for j := range demand[zero] {
		total -= demand[zero][j]
		demand[zero][j] = 0
	}
	betas := make([]float64, m)
	for j := range betas {
		betas[j] = 0.2 + 4*rng.Float64()
	}
	k := 1 + rng.Intn(3)
	cost := CostFunc{Breaks: make([]float64, k), Slopes: make([]float64, k)}
	for i := range cost.Breaks {
		cost.Breaks[i] = 4 * float64(i) * rng.Float64()
		if i > 0 {
			cost.Breaks[i] += cost.Breaks[i-1]
		}
		cost.Slopes[i] = 0.5 + 2*rng.Float64()
	}
	capacity := make([]float64, n)
	for i := range capacity {
		capacity[i] = (0.8 + 0.4*rng.Float64()) * total / float64(n)
	}
	return &Scenario{Periods: n, Demand: demand, Betas: betas, Capacity: capacity, Cost: cost, NoWrap: noWrap}
}

// boxRewards draws rewards uniformly inside [0, maxR].
func boxRewards(n int, maxR float64, rng *rand.Rand) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = maxR * rng.Float64()
	}
	return p
}

// TestAffineFormMatchesModel: the form read off each model reproduces the
// model's own load and reward outlay at random rewards in the box, to
// 1e-12 relative, so a certificate on the form is a certificate on the
// model.
func TestAffineFormMatchesModel(t *testing.T) {
	for _, n := range []int{6, 12, 24, 48} {
		for _, noWrap := range []bool{false, true} {
			scn := randomScenario(n, int64(n), noWrap)
			sm, err := NewStaticModel(scn.Clone())
			if err != nil {
				t.Fatal(err)
			}
			fm, err := NewFixedDurationModel(scn.Clone(), 0.8, 2)
			if err != nil {
				t.Fatal(err)
			}
			fm.StartSessions = 3
			as, af := sm.AffineForm(), fm.AffineForm()
			rng := rand.New(rand.NewSource(int64(n) * 3))
			y := make([]float64, n)
			for trial := 0; trial < 20; trial++ {
				p := boxRewards(n, sm.MaxReward(), rng)
				affineLoad(as, p, y)
				x := sm.UsageAt(p)
				for i := range x {
					if d := relDiff(y[i], x[i]); d > 1e-12 {
						t.Fatalf("n=%d noWrap=%v: static load[%d] %v, model %v (diff %g)", n, noWrap, i, y[i], x[i], d)
					}
				}
				if d := relDiff(outlay(as, p), sm.RewardOutlayAt(p)); d > 1e-12 {
					t.Fatalf("n=%d noWrap=%v: static outlay diff %g", n, noWrap, d)
				}
				affineLoad(af, p, y)
				counts := fm.SessionCounts(p)
				for i, c := range counts {
					if d := relDiff(y[i], fm.SessionSize*c); d > 1e-12 {
						t.Fatalf("n=%d noWrap=%v: fixed-duration load[%d] %v, model %v (diff %g)", n, noWrap, i, y[i], fm.SessionSize*c, d)
					}
				}
				if d := relDiff(outlay(af, p), fm.CostAt(p)-fixedCongestion(fm, y)); d > 1e-12 {
					t.Fatalf("n=%d noWrap=%v: fixed-duration outlay diff %g", n, noWrap, d)
				}
			}
		}
	}
}

// affineLoad writes y = X0 + M·p.
func affineLoad(a *AffineForm, p, y []float64) {
	for i := range y {
		y[i] = a.X0[i]
		for r, pr := range p {
			y[i] += a.M[i*a.N+r] * pr
		}
	}
}

// fixedCongestion is the fixed-duration model's congestion cost at load y.
func fixedCongestion(fm *FixedDurationModel, y []float64) float64 {
	var c float64
	for i, v := range y {
		c += fm.scn.Cost.Value(v - fm.scn.Capacity[i])
	}
	return c
}

func outlay(a *AffineForm, p []float64) float64 {
	var s float64
	for i, v := range p {
		s += a.C[i] * v * v
	}
	return s
}

// TestStaticSolveCertifiedProperty: on seeded random static scenarios
// (n ∈ {6, 12, 24, 48}, 1–3 cost breaks, NoWrap on and off, one period
// with no demand) the dual solve certifies a relative gap ≤ 1e-9, its
// lower bound holds against random feasible rewards, and it never ends
// above the former production homotopy by more than the certificate's
// own tolerance.
func TestStaticSolveCertifiedProperty(t *testing.T) {
	for _, n := range []int{6, 12, 24, 48} {
		seeds := 4
		if n == 48 {
			seeds = 2 // the homotopy reference dominates the test's time
		}
		for seed := int64(0); seed < int64(seeds); seed++ {
			for _, noWrap := range []bool{false, true} {
				name := fmt.Sprintf("n=%d seed=%d noWrap=%v", n, seed, noWrap)
				sm, err := NewStaticModel(randomScenario(n, 100*seed+int64(n), noWrap))
				if err != nil {
					t.Fatal(err)
				}
				pr, err := sm.Solve()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if g := pr.RelGap(); !(g <= 1e-9) {
					t.Errorf("%s: relative gap %g after %d iterations", name, g, pr.Iterations)
				}
				if d := relDiff(pr.Cost, sm.CostAt(pr.Rewards)); d > 1e-12 {
					t.Errorf("%s: reported cost %v, CostAt %v", name, pr.Cost, sm.CostAt(pr.Rewards))
				}
				rng := rand.New(rand.NewSource(seed))
				for trial := 0; trial < 20; trial++ {
					if c := sm.CostAt(boxRewards(n, sm.MaxReward(), rng)); c < pr.LowerBound-1e-9 {
						t.Fatalf("%s: feasible cost %v below the dual bound %v", name, c, pr.LowerBound)
					}
				}
				ref, err := sm.referenceHomotopySolve()
				if err != nil {
					t.Fatalf("%s homotopy: %v", name, err)
				}
				// The certificate is relative, so is the slack: the dual
				// solve stops within 1e-9·|cost| of the optimum, which a
				// homotopy run can land closer to.
				if pr.Cost > ref.F+1e-9*math.Abs(ref.F) {
					t.Errorf("%s: certified cost %.12f above the homotopy's %.12f", name, pr.Cost, ref.F)
				}
			}
		}
	}
}

// TestZeroInflowPeriodGetsNoReward: under NoWrap nothing defers into the
// first period, so its outlay weight and its column of M are zero; the
// solve sets its reward to 0 and still certifies.
func TestZeroInflowPeriodGetsNoReward(t *testing.T) {
	sm, err := NewStaticModel(randomScenario(12, 5, true))
	if err != nil {
		t.Fatal(err)
	}
	a := sm.AffineForm()
	if a.C[0] != 0 {
		t.Fatalf("period 1 outlay weight %v under NoWrap, want 0", a.C[0])
	}
	for i := 0; i < a.N; i++ {
		if a.M[i*a.N] != 0 {
			t.Fatalf("M[%d][0] = %v, want 0", i, a.M[i*a.N])
		}
	}
	pr, err := sm.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Rewards[0] != 0 || pr.RelGap() > 1e-9 {
		t.Fatalf("period 1 reward %v, relative gap %g", pr.Rewards[0], pr.RelGap())
	}
}

// TestNoCongestionCertifiesAtZero: with capacity above every period's
// demand the optimum is to offer nothing, at zero cost, and the solve
// certifies it at once.
func TestNoCongestionCertifiesAtZero(t *testing.T) {
	scn := paper12()
	scn.Capacity = constant(12, 1000)
	sm, err := NewStaticModel(scn)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sm.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if pr.Cost != 0 || pr.Gap != 0 || math.Abs(pr.LowerBound) > 0 {
		t.Fatalf("cost %v, gap %v, lower bound %v, want all 0", pr.Cost, pr.Gap, pr.LowerBound)
	}
	for i, r := range pr.Rewards {
		if r != 0 {
			t.Fatalf("reward[%d] = %v, want 0", i, r)
		}
	}
}
