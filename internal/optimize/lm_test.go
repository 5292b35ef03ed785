package optimize

import (
	"errors"
	"math"
	"testing"
)

// numJacobian fills jac (column-major, as Residualer.Jacobian) with the
// forward-difference Jacobian of r at x, reusing the residual res at x:
// the reference analytic Jacobians are checked against.
func numJacobian(r Residualer, x, res, jac []float64) {
	m := r.NumResiduals()
	pert := make([]float64, m)
	xp := append([]float64(nil), x...)
	for j := range x {
		step := 1e-7 * (1 + math.Abs(x[j]))
		xp[j] = x[j] + step
		r.Residuals(xp, pert)
		xp[j] = x[j]
		for i := 0; i < m; i++ {
			jac[j*m+i] = (pert[i] - res[i]) / step
		}
	}
}

// expFit is the classic y = a·exp(b·t) fitting problem.
type expFit struct {
	ts, ys []float64
}

func (e expFit) NumResiduals() int { return len(e.ts) }

func (e expFit) Residuals(x, out []float64) {
	a, b := x[0], x[1]
	for i, t := range e.ts {
		out[i] = a*math.Exp(b*t) - e.ys[i]
	}
}

func (e expFit) Jacobian(x, jac []float64) {
	a, b := x[0], x[1]
	m := len(e.ts)
	for i, t := range e.ts {
		jac[i] = math.Exp(b * t)
		jac[m+i] = a * t * math.Exp(b*t)
	}
}

// TestExpFitJacobianMatchesNumeric pins the test problem's analytic
// Jacobian to the forward-difference reference.
func TestExpFitJacobianMatchesNumeric(t *testing.T) {
	fit := expFit{ts: []float64{0, 0.5, 1, 2, 4}, ys: []float64{2, 1.5, 1, 0.7, 0.1}}
	x := []float64{1.7, -0.3}
	m := fit.NumResiduals()
	res := make([]float64, m)
	fit.Residuals(x, res)
	got, want := make([]float64, 2*m), make([]float64, 2*m)
	fit.Jacobian(x, got)
	numJacobian(fit, x, res, want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
			t.Errorf("jac[%d] = %v, forward difference %v", i, got[i], want[i])
		}
	}
}

// TestLevenbergMarquardtSkipsZeroColumns: a parameter the residual does
// not depend on has an all-zero Jacobian column and must not move.
func TestLevenbergMarquardtSkipsZeroColumns(t *testing.T) {
	r := FuncResiduals{
		N: 2,
		Fn: func(x, out []float64) {
			out[0] = x[0] - 3
			out[1] = 2*x[2] - 1
		},
		Jac: func(x, jac []float64) {
			clear(jac)
			jac[0] = 1     // ∂r0/∂x0
			jac[2*2+1] = 2 // ∂r1/∂x2
		},
	}
	res, err := LevenbergMarquardt(r, []float64{0, 7.25, 0}, LMConfig{})
	if err != nil {
		t.Fatalf("LM: %v", err)
	}
	if res.X[1] != 7.25 {
		t.Errorf("x1 = %v, want 7.25 untouched", res.X[1])
	}
	if math.Abs(res.X[0]-3) > 1e-6 || math.Abs(res.X[2]-0.5) > 1e-6 {
		t.Errorf("x = %v, want (3, 7.25, 0.5)", res.X)
	}
}

func TestLevenbergMarquardtExponentialFit(t *testing.T) {
	truthA, truthB := 2.0, -0.5
	fit := expFit{}
	for i := 0; i <= 10; i++ {
		tt := float64(i) / 2
		fit.ts = append(fit.ts, tt)
		fit.ys = append(fit.ys, truthA*math.Exp(truthB*tt))
	}
	res, err := LevenbergMarquardt(fit, []float64{1, -0.1}, LMConfig{})
	if err != nil {
		t.Fatalf("LM: %v", err)
	}
	if !res.Converged {
		t.Error("not converged")
	}
	if math.Abs(res.X[0]-truthA) > 1e-5 || math.Abs(res.X[1]-truthB) > 1e-5 {
		t.Errorf("fit = %v, want (%v, %v)", res.X, truthA, truthB)
	}
	if res.RSS > 1e-10 {
		t.Errorf("RSS = %v, want ≈0", res.RSS)
	}
}

func TestLevenbergMarquardtLinearProblem(t *testing.T) {
	// A linear residual should converge in very few iterations.
	lin := FuncResiduals{
		N: 3,
		Fn: func(x, out []float64) {
			out[0] = x[0] + 2*x[1] - 5
			out[1] = 3*x[0] - x[1] - 1
			out[2] = x[0] + x[1] - 3
		},
		Jac: func(x, jac []float64) {
			copy(jac, []float64{1, 3, 1, 2, -1, 1})
		},
	}
	res, err := LevenbergMarquardt(lin, []float64{0, 0}, LMConfig{})
	if err != nil {
		t.Fatalf("LM: %v", err)
	}
	// Least-squares solution of the consistent system x=1, y=2.
	if math.Abs(res.X[0]-1) > 1e-6 || math.Abs(res.X[1]-2) > 1e-6 {
		t.Errorf("x = %v, want (1,2)", res.X)
	}
}

func TestLevenbergMarquardtBounds(t *testing.T) {
	// Unconstrained optimum at x=5; box caps it at 2.
	r := FuncResiduals{
		N:   1,
		Fn:  func(x, out []float64) { out[0] = x[0] - 5 },
		Jac: func(x, jac []float64) { jac[0] = 1 },
	}
	b := UniformBounds(1, 0, 2)
	res, err := LevenbergMarquardt(r, []float64{1}, LMConfig{Bounds: &b})
	// Stalling against an active bound is acceptable; the point matters.
	if err != nil && !errors.Is(err, ErrLMStalled) && !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("LM: %v", err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 {
		t.Errorf("x = %v, want 2 (clamped)", res.X[0])
	}
}

func TestLevenbergMarquardtEmptyProblem(t *testing.T) {
	r := FuncResiduals{N: 0, Fn: func(x, out []float64) {}, Jac: func(x, jac []float64) {}}
	if _, err := LevenbergMarquardt(r, []float64{1}, LMConfig{}); err == nil {
		t.Error("want error for zero residuals")
	}
}

func TestLevenbergMarquardtNoisyFit(t *testing.T) {
	// Data with deterministic "noise": LM must still land near the truth.
	fit := expFit{}
	for i := 0; i <= 20; i++ {
		tt := float64(i) / 4
		noise := 0.01 * math.Sin(float64(i)*1.7)
		fit.ts = append(fit.ts, tt)
		fit.ys = append(fit.ys, 3*math.Exp(-0.8*tt)+noise)
	}
	res, err := LevenbergMarquardt(fit, []float64{1, -0.1}, LMConfig{})
	if err != nil && !errors.Is(err, ErrLMStalled) {
		t.Fatalf("LM: %v", err)
	}
	if math.Abs(res.X[0]-3) > 0.05 || math.Abs(res.X[1]+0.8) > 0.05 {
		t.Errorf("fit = %v, want ≈(3, -0.8)", res.X)
	}
}
