package core

import (
	"math"

	"tdp/internal/optimize"
)

// AffineForm is a pricing model read off as the exact structured program
// the static and fixed-duration models are on the reward box 0 ≤ p ≤ P:
// every waiting family is linear in p, so the load is affine in the
// rewards, the reward outlay is a diagonal quadratic, and f is convex
// piecewise-linear:
//
//	y(p) = X0 + M·p,    C(p) = Σ_i C_i·p_i² + Σ_i f(y_i(p) − A_i).
//
// Writing f(z) = max over λ_k ∈ [0, slope_k] of Σ_k λ_k·(z − break_k)
// gives a concave dual on the box λ_ik ∈ [0, slope_k], one price per
// period and cost break, whose inner minimum over p is closed form:
//
//	p_i(λ) = clip(−(Mᵀμ)_i / 2C_i, 0, P),   μ_i = Σ_k λ_ik.
//
// Every dual point is a lower bound on the optimal cost and every primal
// point an upper bound, so Solve stops on a certified gap instead of
// assuming convergence.
type AffineForm struct {
	N int
	// X0 is the load at p = 0: the usage for the static model, b·N for
	// the fixed-duration model.
	X0 []float64
	// M is N×N row-major: M[i*N+r] = ∂y_i/∂p_r.
	M []float64
	// C holds the outlay weights: the reward outlay is Σ C_i·p_i². A
	// period with C_i = 0 receives no deferred traffic, so its column
	// of M is zero and its reward is irrelevant; Solve sets it to 0.
	C         []float64
	Capacity  []float64
	Cost      CostFunc
	MaxReward float64
}

// newAffineForm reads the form off a model with n+1 passes of its load
// function, which writes the load for rewards p into out. The load is
// affine for p ≥ 0, so the passes at p = 0 and at each unit reward give
// X0 and the columns of M exactly, up to rounding.
func newAffineForm(load func(p, out []float64), c, capacity []float64, cost CostFunc, maxR float64) *AffineForm {
	n := len(c)
	a := &AffineForm{N: n, X0: make([]float64, n), M: make([]float64, n*n), C: c,
		Capacity: capacity, Cost: cost, MaxReward: maxR}
	p, col := make([]float64, n), make([]float64, n)
	load(p, a.X0)
	for r := 0; r < n; r++ {
		p[r] = 1
		load(p, col)
		p[r] = 0
		for i, v := range col {
			a.M[i*n+r] = v - a.X0[i]
		}
	}
	return a
}

// certTol is the relative gap at which Solve stops.
const certTol = 1e-9

// maxDualIters caps the dual ascent; a capped solve still reports its
// gap. The paper's scenarios certify in under 100 steps.
const maxDualIters = 100000

// Solve minimizes C over the box by accelerated projected gradient ascent
// on the dual (FISTA with O'Donoghue–Candès gradient restart), and stops
// once the best primal cost is within certTol·|cost| of the best dual
// bound. The Pricing carries the rewards, their cost, the bound and the
// gap; the caller fills in the model's own accounting.
func (a *AffineForm) Solve() *Pricing {
	n, nk := a.N, len(a.Cost.Breaks)
	slopes, breaks := a.Cost.Slopes, a.Cost.Breaks
	// off[i*nk+k] = X0_i − A_i − b_k, the dual objective's linear part.
	off := make([]float64, n*nk)
	for j := range off {
		off[j] = a.X0[j/nk] - a.Capacity[j/nk] - breaks[j%nk]
	}
	lam, prev, z := make([]float64, n*nk), make([]float64, n*nk), make([]float64, n*nk)
	mu, v, vPrev, vz := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	p, y := make([]float64, n), make([]float64, n)
	pr := &Pricing{Rewards: make([]float64, n), Cost: math.Inf(1), LowerBound: math.Inf(-1)}

	step, t := 1/a.lipschitz(), 1.0
	for pr.Iterations < maxDualIters {
		pr.Iterations++
		// The primal point at the extrapolated dual point z is an upper
		// bound, and its load gives the dual gradient y − A − b there.
		a.primal(vz, p)
		var ub float64
		for i := 0; i < n; i++ {
			y[i] = a.X0[i] + dot(a.M[i*n:i*n+n], p)
			ub += a.C[i]*p[i]*p[i] + a.Cost.Value(y[i]-a.Capacity[i])
		}
		if ub < pr.Cost {
			pr.Cost = ub
			copy(pr.Rewards, p)
		}
		copy(prev, lam)
		for j := range lam {
			i, k := j/nk, j%nk
			lam[j] = math.Min(math.Max(z[j]+step*(y[i]-a.Capacity[i]-breaks[k]), 0), slopes[k])
		}
		for i := range mu {
			mu[i] = 0
			for _, l := range lam[i*nk : i*nk+nk] {
				mu[i] += l
			}
		}
		// The dual value at the new, feasible point is a lower bound.
		copy(vPrev, v)
		a.mulT(mu, v)
		a.primal(v, p)
		g := dot(lam, off)
		for i := range p {
			g += a.C[i]*p[i]*p[i] + v[i]*p[i]
		}
		pr.LowerBound = math.Max(pr.LowerBound, g)
		if pr.Cost-pr.LowerBound <= certTol*math.Abs(pr.Cost) {
			break
		}
		// Momentum, restarted when the step turns against the last move.
		var turn float64
		for j := range lam {
			turn += (lam[j] - z[j]) * (lam[j] - prev[j])
		}
		beta := 0.0
		if turn < 0 {
			t = 1
		} else {
			tNext := (1 + math.Sqrt(1+4*t*t)) / 2
			beta, t = (t-1)/tNext, tNext
		}
		for j := range z {
			z[j] = lam[j] + beta*(lam[j]-prev[j])
		}
		for r := range vz { // Mᵀ is linear: v at z needs no product
			vz[r] = v[r] + beta*(v[r]-vPrev[r])
		}
	}
	pr.Gap = math.Max(pr.Cost-pr.LowerBound, 0)
	pr.Evals = pr.Iterations
	optimize.RecordSolve("dual", pr.Iterations, pr.Evals, pr.RelGap(), pr.RelGap() <= certTol)
	return pr
}

// mulT writes v = Mᵀ·u, row by row of M, skipping the rows u does not
// weigh: a period below its first cost break has μ_i = 0.
func (a *AffineForm) mulT(u, v []float64) {
	clear(v)
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		for r, m := range a.M[i*a.N : i*a.N+a.N] {
			v[r] += m * ui
		}
	}
}

// primal writes the closed-form inner minimizer for v = Mᵀμ into p.
func (a *AffineForm) primal(v, p []float64) {
	for i, vi := range v {
		switch {
		case a.C[i] > 0:
			p[i] = math.Min(math.Max(-vi/(2*a.C[i]), 0), a.MaxReward)
		case vi < 0:
			p[i] = a.MaxReward
		default:
			p[i] = 0
		}
	}
}

// lipschitz bounds the dual gradient's Lipschitz constant,
// K·λmax(M·diag(1/2C)·Mᵀ), by power iteration with a 10% margin.
func (a *AffineForm) lipschitz() float64 {
	n := a.N
	x, w := make([]float64, n), make([]float64, n)
	// Not the all-ones start: the static model conserves traffic, so
	// Mᵀ·1 = 0.
	for i := range x {
		x[i] = math.Sin(float64(2*i + 1))
	}
	var rho float64
	for it := 0; it < 20; it++ {
		a.mulT(x, w)
		for r := range w {
			if a.C[r] > 0 {
				w[r] /= 2 * a.C[r]
			} else {
				w[r] = 0
			}
		}
		for i := range x {
			x[i] = dot(a.M[i*n:i*n+n], w)
		}
		if rho = math.Sqrt(dot(x, x)); rho == 0 {
			// M = 0: the dual is linear, and one long step reaches its
			// corner.
			return 1e-300
		}
		for i := range x {
			x[i] /= rho
		}
	}
	return 1.1 * rho * float64(len(a.Cost.Breaks))
}
