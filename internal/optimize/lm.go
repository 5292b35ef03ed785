package optimize

import (
	"errors"
	"fmt"
	"math"

	"tdp/internal/linalg"
)

// ErrLMStalled is returned when Levenberg–Marquardt cannot reduce the
// residual any further before reaching its tolerance.
var ErrLMStalled = errors.New("optimize: levenberg-marquardt stalled")

// Residualer produces the residual vector r(x) whose squared norm is
// minimized, min_x ‖r(x)‖², together with its Jacobian.
type Residualer interface {
	// Residuals writes r(x) into out (len(out) == NumResiduals()).
	Residuals(x, out []float64)
	// Jacobian writes ∂r_i/∂x_j at x into jac[j*NumResiduals()+i]:
	// column-major, one contiguous column per parameter, so the normal
	// equations are dot products of contiguous columns. Every entry must
	// be written; an all-zero column marks a parameter the residual does
	// not depend on at x, and LM leaves it where it is.
	Jacobian(x, jac []float64)
	// NumResiduals reports the length of the residual vector.
	NumResiduals() int
}

// FuncResiduals adapts a residual function and its Jacobian (laid out
// as Residualer.Jacobian) to the Residualer interface.
type FuncResiduals struct {
	N   int
	Fn  func(x, out []float64)
	Jac func(x, jac []float64)
}

// NumResiduals implements Residualer.
func (f FuncResiduals) NumResiduals() int { return f.N }

// Residuals implements Residualer.
func (f FuncResiduals) Residuals(x, out []float64) { f.Fn(x, out) }

// Jacobian implements Residualer.
func (f FuncResiduals) Jacobian(x, jac []float64) { f.Jac(x, jac) }

// LMConfig tunes LevenbergMarquardt.
type LMConfig struct {
	MaxIter   int     // outer iterations (default 200)
	Tol       float64 // relative reduction tolerance (default 1e-10)
	InitialMu float64 // initial damping (default 1e-3)
	Bounds    *Bounds // optional box; steps are clamped into it
	// AbsTol, when > 0, declares convergence as soon as the residual sum
	// of squares drops to or below it — checked before every Jacobian
	// build, so a warm start already at the optimum returns after a
	// single residual evaluation instead of burning a full damping sweep.
	// Streaming re-fits that run every period rely on this fast path.
	AbsTol float64
}

// LMResult reports the outcome of a least-squares fit.
type LMResult struct {
	X          []float64 // fitted parameters
	RSS        float64   // residual sum of squares at X
	Iterations int
	Converged  bool
}

// levenbergMarquardt is the uninstrumented core of LevenbergMarquardt
// (metrics.go wraps it with per-solve recording).
func levenbergMarquardt(r Residualer, x0 []float64, cfg LMConfig) (LMResult, error) {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-10
	}
	if cfg.InitialMu <= 0 {
		cfg.InitialMu = 1e-3
	}
	n := len(x0)
	m := r.NumResiduals()
	if m == 0 || n == 0 {
		return LMResult{}, fmt.Errorf("lm with %d residuals, %d params: %w", m, n, ErrBadBounds)
	}
	if cfg.Bounds != nil {
		if err := cfg.Bounds.Validate(n); err != nil {
			return LMResult{}, err
		}
	}

	// Every buffer is allocated once per solve; the iterations allocate
	// nothing, bar solveDamped's rare LU fallback.
	x := append([]float64(nil), x0...)
	if cfg.Bounds != nil {
		cfg.Bounds.Project(x)
	}
	res := make([]float64, m)
	r.Residuals(x, res)
	rss := sumSquares(res)

	if cfg.AbsTol > 0 && rss <= cfg.AbsTol {
		return LMResult{X: x, RSS: rss, Iterations: 0, Converged: true}, nil
	}

	mu := cfg.InitialMu
	trial := make([]float64, n)
	tres := make([]float64, m)
	jac := make([]float64, m*n) // column-major, as Residualer.Jacobian
	cols := make([]int, 0, n)   // parameters with a nonzero Jacobian column
	jtj := make([]float64, n*n) // k×k over cols, row-major
	jtr := make([]float64, n)
	a := make([]float64, n*n)
	delta := make([]float64, n)

	for iter := 0; iter < cfg.MaxIter; iter++ {
		r.Jacobian(x, jac)

		// Normal equations (JᵀJ + μ·diag(JᵀJ))·δ = −Jᵀr, over J's nonzero
		// columns only: a zero column's damped equation is μ·δ_j = 0, so
		// its step is exactly 0 and dropping it changes nothing.
		cols = cols[:0]
		for j := 0; j < n; j++ {
			for _, v := range jac[j*m : (j+1)*m] {
				if v != 0 {
					cols = append(cols, j)
					break
				}
			}
		}
		k := len(cols)
		for p, cp := range cols {
			colP := jac[cp*m : (cp+1)*m]
			for q := 0; q <= p; q++ {
				colQ := jac[cols[q]*m : (cols[q]+1)*m]
				var s float64
				for i, v := range colP {
					s += v * colQ[i]
				}
				jtj[p*k+q] = s
				jtj[q*k+p] = s
			}
			var s float64
			for i, v := range colP {
				s += v * res[i]
			}
			jtr[p] = s
		}

		improved := false
		for attempt := 0; attempt < 30; attempt++ {
			for p := 0; p < k; p++ {
				delta[p] = -jtr[p]
			}
			if !solveDamped(a, jtj, k, mu, delta[:k]) {
				mu *= 10
				continue
			}
			copy(trial, x)
			for p, cp := range cols {
				trial[cp] += delta[p]
			}
			if cfg.Bounds != nil {
				cfg.Bounds.Project(trial)
			}
			r.Residuals(trial, tres)
			trss := sumSquares(tres)
			if trss < rss {
				relDrop := (rss - trss) / math.Max(rss, 1e-300)
				copy(x, trial)
				copy(res, tres)
				rss = trss
				mu = math.Max(mu/3, 1e-12)
				improved = true
				if relDrop < cfg.Tol || rss < cfg.Tol || (cfg.AbsTol > 0 && rss <= cfg.AbsTol) {
					return LMResult{X: x, RSS: rss, Iterations: iter + 1, Converged: true}, nil
				}
				break
			}
			mu *= 10
		}
		if !improved {
			if rss < math.Sqrt(cfg.Tol) {
				return LMResult{X: x, RSS: rss, Iterations: iter, Converged: true}, nil
			}
			return LMResult{X: x, RSS: rss, Iterations: iter}, ErrLMStalled
		}
	}
	return LMResult{X: x, RSS: rss, Iterations: cfg.MaxIter}, ErrMaxIterations
}

// solveDamped overwrites rhs with the solution of the damped normal
// equations (JᵀJ + μ·diag(JᵀJ))·δ = rhs over the k×k jtj, using a as
// scratch. The damped matrix is SPD by construction, so Cholesky is the
// natural solve; LU (which allocates) is the rare roundoff fallback. It
// reports false when neither solve succeeds.
func solveDamped(a, jtj []float64, k int, mu float64, rhs []float64) bool {
	damp(a, jtj, k, mu)
	if linalg.CholeskyInPlace(a, k) == nil {
		linalg.CholeskySolveInPlace(a, k, rhs)
		return true
	}
	damp(a, jtj, k, mu)
	dense := linalg.NewMatrix(k, k)
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			dense.Set(p, q, a[p*k+q])
		}
	}
	x, err := linalg.SolveLinear(dense, linalg.Vector(rhs))
	if err != nil {
		return false
	}
	copy(rhs, x)
	return true
}

// damp writes JᵀJ + μ·diag(JᵀJ) into dst, damping a zero diagonal entry
// by μ instead.
func damp(dst, jtj []float64, k int, mu float64) {
	copy(dst, jtj[:k*k])
	for p := 0; p < k; p++ {
		d := dst[p*k+p]
		if d == 0 {
			d = 1
		}
		dst[p*k+p] += mu * d
	}
}

func sumSquares(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}
