package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix: A = L·Lᵀ. It is the natural factorization for
// the damped normal equations Levenberg–Marquardt solves each iteration —
// half the work of LU and numerically safer on SPD systems.
type Cholesky struct {
	l *Matrix
}

// FactorCholesky computes the Cholesky factorization of a. It returns
// ErrSingular if a is not (numerically) positive definite and ErrDimension
// if it is not square. Only the lower triangle of a is read, so symmetry
// is assumed rather than verified.
func FactorCholesky(a *Matrix) (*Cholesky, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("cholesky of %dx%d: %w", a.Rows(), a.Cols(), ErrDimension)
	}
	l := a.Clone()
	if err := CholeskyInPlace(l.data, n); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		clear(l.data[i*n+i+1 : (i+1)*n])
	}
	return &Cholesky{l: l}, nil
}

// Solve solves A·x = b via forward/back substitution on the factor.
func (c *Cholesky) Solve(b Vector) (Vector, error) {
	n := c.l.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("cholesky solve rhs %d, want %d: %w", len(b), n, ErrDimension)
	}
	x := append(Vector(nil), b...)
	CholeskySolveInPlace(c.l.data, n, x)
	return x, nil
}

// SolveSPD solves a symmetric positive-definite system directly
// (factor + solve).
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	f, err := FactorCholesky(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// CholeskyInPlace is the allocation-free kernel under FactorCholesky: it
// overwrites the lower triangle of the n×n row-major matrix a with L,
// A = L·Lᵀ, reading only that triangle and leaving the strict upper one
// untouched. It returns ErrSingular if a is not (numerically) positive
// definite, in which case a's lower triangle is partially overwritten.
func CholeskyInPlace(a []float64, n int) error {
	for j := 0; j < n; j++ {
		rj := a[j*n : j*n+j]
		d := a[j*n+j]
		for _, v := range rj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("pivot %d = %v: %w", j, d, ErrSingular)
		}
		root := math.Sqrt(d)
		a[j*n+j] = root
		for i := j + 1; i < n; i++ {
			ri := a[i*n : i*n+j]
			s := a[i*n+j]
			for k, v := range ri {
				s -= v * rj[k]
			}
			a[i*n+j] = s / root
		}
	}
	return nil
}

// CholeskySolveInPlace solves L·Lᵀ·x = b for a factor produced by
// CholeskyInPlace (only its lower triangle is read), overwriting b with x.
func CholeskySolveInPlace(l []float64, n int, b []float64) {
	// L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range l[i*n : i*n+i] {
			s -= v * b[k]
		}
		b[i] = s / l[i*n+i]
	}
	// Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
}
