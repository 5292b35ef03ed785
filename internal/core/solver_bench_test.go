// Solver benchmarks live in core's external test package: they exercise
// the optimize solvers on the actual TDP pricing objective through core's
// exported surface, and the tdp96-ref variant reaches the reference twins
// in reference_test.go, which only this directory's tests can see.
//
// Each solver runs three workloads as sub-benchmarks:
//
//   - rosenbrock16: the classic smooth valley — pure solver overhead,
//     comparable with the pre-PR-5 top-level BenchmarkSolver* entries.
//   - tdp96: the paper's static pricing objective at quarter-hour
//     resolution on the fused zero-allocation kernel path
//     (optimize.ValueGrader).
//   - tdp96-ref: the same solve on the pre-flattening reference objective
//     (per-call allocations, wrapped-index branches, unfused gradient) —
//     the before/after pair tdp96-ref : tdp96 quantifies the evaluation
//     engine's win at the solver level.
package core_test

import (
	"errors"
	"testing"

	"tdp/internal/core"
	"tdp/internal/optimize"
	"tdp/internal/waiting"
)

// rosenbrockN is the classic n-dimensional Rosenbrock valley — a
// non-trivial smooth test problem so the solver benchmarks exercise the
// full line-search/curvature machinery rather than converging in a
// couple of steps.
func rosenbrockN(n int) optimize.Objective {
	return optimize.FuncObjective{
		Fn: func(x []float64) float64 {
			var s float64
			for i := 0; i+1 < len(x); i++ {
				a := x[i+1] - x[i]*x[i]
				b := 1 - x[i]
				s += 100*a*a + b*b
			}
			return s
		},
		GradFn: func(x, g []float64) {
			for i := range g {
				g[i] = 0
			}
			for i := 0; i+1 < len(x); i++ {
				a := x[i+1] - x[i]*x[i]
				g[i] += -400*a*x[i] - 2*(1-x[i])
				g[i+1] += 200 * a
			}
		},
	}
}

func benchStart(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = -1.2 + 0.1*float64(i%3)
	}
	return x
}

// benchModel builds the §V-A static scenario at quarter-hour resolution:
// Table VII demand expanded to 96 periods, A = 180 MBps, f(x) = 3·max(x, 0)
// — the largest instance in the equivalence sweep, where the O(n²) kernel
// dominates the evaluation.
func benchModel(b *testing.B) *core.StaticModel {
	b.Helper()
	const n = 96
	capacity := make([]float64, n)
	for i := range capacity {
		capacity[i] = 18
	}
	half := waiting.Demand48()
	demand := make([][]float64, n)
	for i := range demand {
		demand[i] = append([]float64(nil), half[i/2]...)
	}
	sm, err := core.NewStaticModel(&core.Scenario{
		Periods:  n,
		Demand:   demand,
		Betas:    append([]float64(nil), waiting.PatienceIndices...),
		Capacity: capacity,
		Cost:     core.LinearCost(3),
	})
	if err != nil {
		b.Fatal(err)
	}
	return sm
}

// The iteration budgets fix the amount of solver work so the tdp96 and
// tdp96-ref variants follow bit-for-bit identical trajectories (verified:
// both do the same evaluation count) and ns/op compares work-per-
// evaluation, not line-search luck. ErrMaxIterations is the expected
// outcome, not a failure. L-BFGS gets a smaller budget because its stall
// point on the kinked objective (~iteration 46) is where rounding-level
// differences between the two evaluation paths first flip a line-search
// decision.
const (
	pgBudget    = 200
	lbfgsBudget = 40
)

// benchMu is a mid-schedule homotopy temperature — fine enough that the
// objective is near its kinked limit, coarse enough that backtracking
// stays numerically stable for a fixed-work comparison.
const benchMu = 0.01

func runSolver(b *testing.B, solve func(obj optimize.Objective, x0 []float64, bounds optimize.Bounds) (optimize.Result, error), obj optimize.Objective, n int, lo, hi float64) {
	b.Helper()
	bounds := optimize.UniformBounds(n, lo, hi)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := solve(obj, benchStart(n), bounds)
		// ErrMaxIterations is the budgeted outcome; ErrNoProgress is the
		// line search bottoming out on the kinked TDP objective — both
		// still deliver the iterate, which is all a fixed-work benchmark
		// needs.
		if err != nil && !errors.Is(err, optimize.ErrMaxIterations) && !errors.Is(err, optimize.ErrNoProgress) {
			b.Fatal(err)
		}
		sinkFloat = res.F
	}
}

func BenchmarkSolverProjectedGradient(b *testing.B) {
	solve := func(obj optimize.Objective, x0 []float64, bounds optimize.Bounds) (optimize.Result, error) {
		return optimize.ProjectedGradient(obj, x0, bounds, optimize.WithMaxIterations(pgBudget))
	}
	b.Run("rosenbrock16", func(b *testing.B) {
		runSolver(b, solve, rosenbrockN(16), 16, -5, 5)
	})
	sm := benchModel(b)
	b.Run("tdp96", func(b *testing.B) {
		runSolver(b, solve, sm.SmoothedObjective(benchMu), 96, 0, sm.MaxReward())
	})
	b.Run("tdp96-ref", func(b *testing.B) {
		runSolver(b, solve, sm.ReferenceObjective(benchMu), 96, 0, sm.MaxReward())
	})
}

func BenchmarkSolverLBFGS(b *testing.B) {
	solve := func(obj optimize.Objective, x0 []float64, bounds optimize.Bounds) (optimize.Result, error) {
		return optimize.LBFGS(obj, x0, bounds, 8, optimize.WithMaxIterations(lbfgsBudget))
	}
	b.Run("rosenbrock16", func(b *testing.B) {
		runSolver(b, solve, rosenbrockN(16), 16, -5, 5)
	})
	sm := benchModel(b)
	b.Run("tdp96", func(b *testing.B) {
		runSolver(b, solve, sm.SmoothedObjective(benchMu), 96, 0, sm.MaxReward())
	})
	b.Run("tdp96-ref", func(b *testing.B) {
		runSolver(b, solve, sm.ReferenceObjective(benchMu), 96, 0, sm.MaxReward())
	})
}

var sinkFloat float64
