package optimize

import (
	"math"

	"tdp/internal/obs"
)

// Per-solve metrics, recorded on the default obs registry by the
// exported solver entry points and, through RecordSolve, by solvers
// outside this package (core's certified dual solve, solver="dual").
// Solves run once per period close (or per experiment), not per usage
// report, so the registry's get-or-create lookup per solve is cheap
// relative to the solve itself.
//
//	optimize_solves_total{solver=…}             solves started
//	optimize_solves_unconverged_total{solver=…} solves that hit an iteration/progress limit
//	optimize_solve_iterations{solver=…}         outer iterations per solve
//	optimize_solve_evals{solver=…}              objective/line-search evaluations per solve
//	optimize_solve_residual{solver=…}           final stationarity residual (projected-gradient
//	                                            ∞-norm; RSS for Levenberg–Marquardt; relative
//	                                            certified gap for the dual solve)

var (
	iterBuckets     = obs.ExpBuckets(1, 2, 16)      // 1 … 32768 iterations
	evalBuckets     = obs.ExpBuckets(1, 2, 20)      // 1 … ~5e5 evaluations
	residualBuckets = obs.ExpBuckets(1e-14, 10, 18) // 1e-14 … ~1e3
)

// RecordSolve publishes one solve's outcome. residual may be NaN when
// the solver has no meaningful stationarity measure (histograms drop
// NaN observations).
func RecordSolve(solver string, iters, evals int, residual float64, converged bool) {
	reg := obs.Default()
	lbl := obs.Labels{"solver": solver}
	reg.Counter("optimize_solves_total", "solver invocations", lbl).Inc()
	if !converged {
		reg.Counter("optimize_solves_unconverged_total", "solves ending at an iteration or progress limit", lbl).Inc()
	}
	reg.Histogram("optimize_solve_iterations", "outer iterations per solve", lbl, iterBuckets).
		Observe(float64(iters))
	reg.Histogram("optimize_solve_evals", "objective evaluations per solve", lbl, evalBuckets).
		Observe(float64(evals))
	reg.Histogram("optimize_solve_residual", "final stationarity residual per solve", lbl, residualBuckets).
		Observe(residual)
}

// finalResidual computes the projected-gradient ∞-norm at x — the
// convergence measure the gradient-based solvers test against their
// tolerance. Costs one extra gradient evaluation per solve.
func finalResidual(obj Objective, x []float64, b Bounds) float64 {
	if x == nil {
		return math.NaN()
	}
	grad, put := getScratch(len(x))
	defer put()
	obj.Grad(x, grad)
	return projGradNormInf(x, grad, b)
}

// ProjectedGradient minimizes obj over the box b starting from x0, using
// steepest descent with Armijo backtracking and projection onto the box.
//
// For convex objectives (the static TDP model satisfies Prop. 3's
// conditions) the returned point is a global minimizer up to tolerance.
// A Result is returned even alongside ErrMaxIterations.
func ProjectedGradient(obj Objective, x0 []float64, b Bounds, opts ...Option) (Result, error) {
	res, err := projectedGradient(obj, x0, b, opts...)
	RecordSolve("projgrad", res.Iterations, res.Evals, finalResidual(obj, res.X, b), res.Converged)
	return res, err
}

// LBFGS minimizes a smooth objective over a box using the limited-memory
// BFGS two-loop recursion with projected backtracking line search — a
// light L-BFGS-B. For the smoothed TDP objectives it converges in far
// fewer iterations than plain projected gradient, which matters as the
// number of periods grows (see BenchmarkAblationSolvers).
func LBFGS(obj Objective, x0 []float64, b Bounds, memory int, opts ...Option) (Result, error) {
	res, err := lbfgs(obj, x0, b, memory, opts...)
	RecordSolve("lbfgs", res.Iterations, res.Evals, finalResidual(obj, res.X, b), res.Converged)
	return res, err
}

// CoordinateDescent minimizes fn over the box b by cyclic exact
// minimization along each coordinate with golden-section search.
//
// It needs only function values (no gradient), which makes it robust on the
// piecewise-linear kinks of the un-smoothed TDP cost. The paper's Prop. 3
// shows the static model's Hessian is diagonal, which is exactly the regime
// where coordinate descent excels.
func CoordinateDescent(fn func([]float64) float64, x0 []float64, b Bounds, opts ...Option) (Result, error) {
	res, err := coordinateDescent(fn, x0, b, opts...)
	// No gradient available: the residual has no meaning here.
	RecordSolve("coorddesc", res.Iterations, res.Evals, math.NaN(), res.Converged)
	return res, err
}

// ProjectedSubgradient minimizes a convex (possibly non-smooth) objective
// over the box b using the classical projected subgradient method with a
// diminishing step size a/(1+k). It tracks and returns the best iterate.
//
// Subgradient methods converge slowly but need no smoothness; this is the
// baseline method in the solver ablation (DESIGN.md §5).
func ProjectedSubgradient(obj Objective, x0 []float64, b Bounds, opts ...Option) (Result, error) {
	res, err := projectedSubgradient(obj, x0, b, opts...)
	// Subgradients are not stationarity certificates on non-smooth
	// objectives, so no residual is recorded.
	RecordSolve("subgrad", res.Iterations, res.Evals, math.NaN(), res.Converged)
	return res, err
}

// LevenbergMarquardt minimizes ‖r(x)‖² with a damped Gauss–Newton
// iteration on the Jacobian the Residualer supplies. Optional box
// constraints are handled by projecting trial steps.
func LevenbergMarquardt(r Residualer, x0 []float64, cfg LMConfig) (LMResult, error) {
	res, err := levenbergMarquardt(r, x0, cfg)
	RecordSolve("lm", res.Iterations, res.Iterations, res.RSS, res.Converged)
	return res, err
}
