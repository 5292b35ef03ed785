package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"tdp/internal/optimize"
)

// equivScenario builds an n-period, 3-type scenario with deterministic
// pseudo-random demand for the fast-vs-reference equivalence sweeps.
func equivScenario(n int, seed int64, noWrap bool) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	demand := make([][]float64, n)
	for i := range demand {
		demand[i] = make([]float64, 3)
		for j := range demand[i] {
			demand[i][j] = 2 + 8*rng.Float64()
		}
	}
	return &Scenario{
		Periods:  n,
		Demand:   demand,
		Betas:    []float64{0.2, 1.0, 3.0},
		Capacity: constant(n, 18),
		Cost:     CostFunc{Breaks: []float64{0, 5}, Slopes: []float64{2, 1}},
		NoWrap:   noWrap,
	}
}

// randRewards draws a reward vector including zeros, negatives, and
// values beyond the box, to exercise every clamp branch.
func randRewards(n int, maxR float64, rng *rand.Rand) []float64 {
	p := make([]float64, n)
	for i := range p {
		switch rng.Intn(5) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = -0.5 * rng.Float64()
		default:
			p[i] = rng.Float64() * 1.2 * maxR
		}
	}
	return p
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

// equivSizes are the period counts the acceptance criteria pin.
var equivSizes = []int{12, 24, 48, 96}

// TestStaticFastMatchesReference pins the flattened static evaluation
// paths — cost and usage — to the preserved original implementations at
// ≤1e-12.
func TestStaticFastMatchesReference(t *testing.T) {
	for _, n := range equivSizes {
		for _, noWrap := range []bool{false, true} {
			sm, err := NewStaticModel(equivScenario(n, int64(n), noWrap))
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			rng := rand.New(rand.NewSource(int64(n) * 7))
			for trial := 0; trial < 25; trial++ {
				p := randRewards(n, sm.MaxReward(), rng)
				if d := relDiff(sm.CostAt(p), sm.ReferenceCostAt(p)); d > 1e-12 {
					t.Fatalf("n=%d noWrap=%v: CostAt diff %g", n, noWrap, d)
				}
				x, xr := sm.UsageAt(p), sm.ReferenceUsageAt(p)
				for i := range x {
					if d := relDiff(x[i], xr[i]); d > 1e-12 {
						t.Fatalf("n=%d noWrap=%v: usage[%d] diff %g", n, noWrap, i, d)
					}
				}
			}
		}
	}
}

// TestDynamicFastMatchesReference pins the dynamic model's flattened
// paths (cost, smoothed value, adjoint gradient, fused value+gradient) to
// the preserved originals at ≤1e-12.
func TestDynamicFastMatchesReference(t *testing.T) {
	for _, n := range equivSizes {
		dm, err := NewDynamicModel(equivScenario(n, int64(n)+100, false))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dm.StartBacklog = 2.5
		rng := rand.New(rand.NewSource(int64(n) * 13))
		grad := make([]float64, n)
		refGrad := make([]float64, n)
		fusedGrad := make([]float64, n)
		for trial := 0; trial < 25; trial++ {
			p := randRewards(n, dm.MaxReward(), rng)
			if d := relDiff(dm.CostAt(p), dm.ReferenceCostAt(p)); d > 1e-12 {
				t.Fatalf("n=%d: CostAt diff %g", n, d)
			}
			for _, mu := range []float64{0, 0.003, 0.1, 1} {
				obj := dm.smoothedObjective(mu)
				ref := dm.ReferenceObjective(mu)
				if d := relDiff(obj.Value(p), ref.Value(p)); d > 1e-12 {
					t.Fatalf("n=%d mu=%v: Value diff %g", n, mu, d)
				}
				// Gradients get extra slack: the backlog adjoint runs the
				// kernel dot's reassociation rounding through n sigmoid-
				// weighted recursion steps, so small-magnitude components
				// reach ~1e-11 relative difference at tight mu while values
				// stay within 1e-12.
				obj.Grad(p, grad)
				ref.Grad(p, refGrad)
				for i := range grad {
					if d := relDiff(grad[i], refGrad[i]); d > 1e-10 {
						t.Fatalf("n=%d mu=%v: grad[%d] diff %g", n, mu, i, d)
					}
				}
				vg := obj.(optimize.ValueGrader)
				fv := vg.ValueGrad(p, fusedGrad)
				if d := relDiff(fv, ref.Value(p)); d > 1e-12 {
					t.Fatalf("n=%d mu=%v: fused value diff %g", n, mu, d)
				}
				for i := range fusedGrad {
					if d := relDiff(fusedGrad[i], refGrad[i]); d > 1e-10 {
						t.Fatalf("n=%d mu=%v: fused grad[%d] diff %g", n, mu, i, d)
					}
				}
			}
		}
	}
}

// TestStaticSolveForPeriodMatchesReference checks the O(n) incremental
// coordinate solve lands on the reference full-evaluation Brent optimum.
func TestStaticSolveForPeriodMatchesReference(t *testing.T) {
	for _, n := range []int{12, 48} {
		sm, err := NewStaticModel(equivScenario(n, int64(n)+7, false))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 10; trial++ {
			p := randRewards(n, sm.MaxReward(), rng)
			period := rng.Intn(n)
			ps, err := sm.SolveForPeriodCold(p, period)
			if err != nil {
				t.Fatal(err)
			}
			r, c := ps.Reward, ps.Cost
			rr, cr, err := sm.ReferenceSolveForPeriod(p, period)
			if err != nil {
				t.Fatal(err)
			}
			if d := relDiff(c, cr); d > 1e-9 {
				t.Fatalf("n=%d period=%d: cost %v vs reference %v (diff %g, rewards %v vs %v)",
					n, period, c, cr, d, r, rr)
			}
		}
	}
}

// TestSolveForPeriodWarmMatchesCold checks warm-started coordinate solves
// land on the cold optimum (≤1e-9 in cost), both when the previous reward
// is near the optimum and when it is far enough that the warm bracket
// must fall back.
func TestSolveForPeriodWarmMatchesCold(t *testing.T) {
	sm, err := NewStaticModel(equivScenario(24, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		p := randRewards(24, sm.MaxReward(), rng)
		period := rng.Intn(24)
		cold, err := sm.SolveForPeriodCold(p, period)
		if err != nil {
			t.Fatal(err)
		}
		for _, prev := range []float64{cold.Reward, 0, sm.MaxReward()} {
			warm, err := sm.SolveForPeriodWarm(p, period, prev)
			if err != nil {
				t.Fatal(err)
			}
			if d := relDiff(warm.Cost, cold.Cost); d > 1e-9 {
				t.Fatalf("period=%d prev=%v: warm cost %v vs cold %v (diff %g)",
					period, prev, warm.Cost, cold.Cost, d)
			}
		}
		// Seeded at the optimum, the warm bracket must suffice and must
		// spend fewer evaluations than the full-interval search.
		warm, err := sm.SolveForPeriodWarm(p, period, cold.Reward)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Warm {
			t.Fatalf("period=%d: warm solve seeded at the optimum fell back to the full bracket", period)
		}
		if warm.Evals >= cold.Evals {
			t.Fatalf("period=%d: warm solve used %d evals, cold %d", period, warm.Evals, cold.Evals)
		}
	}
}

// TestWarmStartSolveMatchesCold checks a warm-started homotopy solve of
// the dynamic model (the one full solve that still takes a warm start:
// mechanism.TDP's dynamic branch seeds it from yesterday's schedule)
// matches the cold optimum to ≤1e-9 while spending fewer evaluations.
func TestWarmStartSolveMatchesCold(t *testing.T) {
	dm, err := NewDynamicModel(paper12())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := dm.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the cold optimum slightly, as day-to-day belief drift
	// would, and re-solve warm.
	warm := append([]float64(nil), cold.Rewards...)
	rng := rand.New(rand.NewSource(11))
	for i := range warm {
		warm[i] = math.Max(0, warm[i]+0.01*(rng.Float64()-0.5))
	}
	pr, err := dm.Solve(optimize.WithWarmStart(warm))
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(pr.Cost, cold.Cost); d > 1e-9 {
		t.Fatalf("warm cost %v vs cold %v (diff %g)", pr.Cost, cold.Cost, d)
	}
	if pr.Evals >= cold.Evals {
		t.Fatalf("warm solve used %d evals, cold %d", pr.Evals, cold.Evals)
	}
}

// TestSetDemandRowMatchesRebuild checks the O(n·m) incremental kernel
// update is indistinguishable from rebuilding the model on the mutated
// scenario.
func TestSetDemandRowMatchesRebuild(t *testing.T) {
	scn := equivScenario(24, 17, false)
	sm, err := NewStaticModel(scn.Clone())
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewDynamicModel(scn.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	cur := scn.Clone()
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(24)
		row := []float64{10 * rng.Float64(), 10 * rng.Float64(), 10 * rng.Float64()}
		copy(cur.Demand[i], row)
		if err := sm.SetDemandRow(i, row); err != nil {
			t.Fatal(err)
		}
		if err := dm.SetDemandRow(i, row); err != nil {
			t.Fatal(err)
		}
		smRef, err := NewStaticModel(cur.Clone())
		if err != nil {
			t.Fatal(err)
		}
		dmRef, err := NewDynamicModel(cur.Clone())
		if err != nil {
			t.Fatal(err)
		}
		p := randRewards(24, sm.MaxReward(), rng)
		if d := relDiff(sm.CostAt(p), smRef.CostAt(p)); d > 1e-12 {
			t.Fatalf("trial %d: static incremental cost diff %g", trial, d)
		}
		if d := relDiff(dm.CostAt(p), dmRef.CostAt(p)); d > 1e-12 {
			t.Fatalf("trial %d: dynamic incremental cost diff %g", trial, d)
		}
	}
	// Error paths must leave the model untouched.
	if err := sm.SetDemandRow(99, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected period range error")
	}
	if err := sm.SetDemandRow(0, []float64{1}); err == nil {
		t.Fatal("expected row width error")
	}
	if err := sm.SetDemandRow(0, []float64{1, -2, 3}); err == nil {
		t.Fatal("expected negative demand error")
	}
}

// TestPooledWorkspacesParallel hammers the pooled evaluation workspaces
// (the static cost and the dynamic model's fused value+gradient) from
// many goroutines (as parallel multistarts do); run with
// -race it proves the pool keeps concurrent solves isolated, and the
// results must equal the single-threaded ones.
func TestPooledWorkspacesParallel(t *testing.T) {
	sm, err := NewStaticModel(equivScenario(24, 31, false))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewDynamicModel(equivScenario(24, 31, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	const workers = 8
	points := make([][]float64, 64)
	want := make([]float64, len(points))
	wantGrad := make([][]float64, len(points))
	obj := dm.smoothedObjective(0.01).(optimize.ValueGrader)
	wantCost := make([]float64, len(points))
	for i := range points {
		points[i] = randRewards(24, sm.MaxReward(), rng)
		g := make([]float64, 24)
		want[i] = obj.ValueGrad(points[i], g)
		wantGrad[i] = g
		wantCost[i] = sm.CostAt(points[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grad := make([]float64, 24)
			for rep := 0; rep < 20; rep++ {
				for i, p := range points {
					if got := obj.ValueGrad(p, grad); got != want[i] {
						t.Errorf("point %d: concurrent value %v, want %v", i, got, want[i])
						return
					}
					for k := range grad {
						if grad[k] != wantGrad[i][k] {
							t.Errorf("point %d: concurrent grad[%d] %v, want %v", i, k, grad[k], wantGrad[i][k])
							return
						}
					}
					// Exact equality against the serial fast-path baseline:
					// a pooled-workspace leak between goroutines would
					// perturb the deterministic sums. (Fast ≡ reference is
					// checked at tolerance in TestStaticFastMatchesReference;
					// the unrolled kernel dot reassociates, so the two paths
					// are not bit-identical.)
					if got := sm.CostAt(p); got != wantCost[i] {
						t.Errorf("point %d: concurrent CostAt mismatch", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDefiniteChoiceMultistartRace runs the definite-choice multistart
// with ≥8 workers over the pooled workspaces; under -race this checks the
// concurrent CostAt calls, and the result must not depend on parallelism.
func TestDefiniteChoiceMultistartRace(t *testing.T) {
	scn := equivScenario(12, 53, false)
	serial, err := NewDefiniteChoiceModel(scn.Clone())
	if err != nil {
		t.Fatal(err)
	}
	serial.Jobs = 1
	prSerial, err := serial.Solve()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewDefiniteChoiceModel(scn.Clone())
	if err != nil {
		t.Fatal(err)
	}
	parallel.Jobs = 8
	prParallel, err := parallel.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if prSerial.Cost != prParallel.Cost {
		t.Fatalf("parallel multistart cost %v, serial %v", prParallel.Cost, prSerial.Cost)
	}
}

// TestDefiniteChoiceTableMatchesWaitingFuncs pins the tabulated argmax to
// direct waiting-function evaluation.
func TestDefiniteChoiceTableMatchesWaitingFuncs(t *testing.T) {
	dc, err := NewDefiniteChoiceModel(equivScenario(24, 83, false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 10; trial++ {
		p := randRewards(24, 1, rng)
		for i := 0; i < dc.n; i++ {
			for j := 0; j < dc.m; j++ {
				got := dc.choose(p, i, j)
				// Reference: the original direct evaluation.
				best, bestDt := 0.0, -1
				for dt := 1; dt <= dc.n-1; dt++ {
					k := (i + dt) % dc.n
					if v := dc.wfs[j].Value(p[k], dt); v > best {
						best, bestDt = v, dt
					}
				}
				want := -1
				if bestDt >= 0 && best >= dc.Threshold {
					want = (i + bestDt) % dc.n
				}
				if got != want {
					t.Fatalf("choose(%d,%d) = %d, want %d", i, j, got, want)
				}
			}
		}
	}
}
