// Package estimate implements §IV of the paper: estimating users' waiting
// functions — per-period patience indices β_{j,i} and traffic proportions
// α_{j,i} — from *aggregate* usage data only, plus the follow-on
// re-estimation of baseline TIP demand from TDP measurements (eq. 9).
//
// The ISP never observes which session deferred where; it sees only the
// per-period difference T_i between demand under TIP and usage under TDP
// for each set of offered rewards. The deferral matrix entries
//
//	Q_ik = X_i · Σ_j α_{j,i} · C(β_{j,i}) · p_k / (t(i→k)+1)^{β_{j,i}}
//
// are linear functions of the observations (eq. 7), so the parameters can
// be fitted by nonlinear least squares on the net-flow equations.
package estimate

import (
	"errors"
	"fmt"
	"math"

	"tdp/internal/linalg"
	"tdp/internal/optimize"
	"tdp/internal/waiting"
)

// ErrBadInput is returned for malformed estimation inputs.
var ErrBadInput = errors.New("estimate: invalid input")

// Params are per-period waiting-function parameters for m session types:
// mixing proportions Alpha (each row sums to 1) and patience indices Beta.
type Params struct {
	// Alpha[i][j] is the proportion of period-(i+1) traffic of type j.
	Alpha [][]float64
	// Beta[i][j] is the patience index of type j in period i+1.
	Beta [][]float64
}

// NewParams allocates zeroed parameters for n periods and m types.
func NewParams(n, m int) Params {
	a := make([][]float64, n)
	b := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, m)
		b[i] = make([]float64, m)
	}
	return Params{Alpha: a, Beta: b}
}

// Dims returns (periods, types).
func (p Params) Dims() (int, int) {
	if len(p.Alpha) == 0 {
		return 0, 0
	}
	return len(p.Alpha), len(p.Alpha[0])
}

// Validate checks shapes, β ≥ 0, α ≥ 0 with rows summing to ≈ 1.
func (p Params) Validate() error {
	n, m := p.Dims()
	if n == 0 || m == 0 || len(p.Beta) != n {
		return fmt.Errorf("params %dx%d: %w", n, m, ErrBadInput)
	}
	for i := 0; i < n; i++ {
		if len(p.Alpha[i]) != m || len(p.Beta[i]) != m {
			return fmt.Errorf("ragged params at period %d: %w", i+1, ErrBadInput)
		}
		var s float64
		for j := 0; j < m; j++ {
			if p.Alpha[i][j] < 0 || p.Beta[i][j] < 0 {
				return fmt.Errorf("negative parameter at (%d,%d): %w", i+1, j, ErrBadInput)
			}
			s += p.Alpha[i][j]
		}
		if math.Abs(s-1) > 1e-6 {
			return fmt.Errorf("alpha row %d sums to %v: %w", i+1, s, ErrBadInput)
		}
	}
	return nil
}

// Model generates and fits the §IV observation model.
type Model struct {
	// Periods and Types are n and m.
	Periods, Types int
	// BaselineTIP is X_i, the per-period demand under TIP.
	BaselineTIP []float64
	// MaxReward is the normalizing reward P for the power-law family.
	MaxReward float64
	// MaxIter caps the Levenberg–Marquardt iterations of Fit (0 = 400).
	// Large deployments (many periods × types) may trade accuracy for
	// latency here.
	MaxIter int
	// Tol is the LM relative-reduction tolerance (0 = the solver default,
	// 1e-10). The streaming-vs-batch parity tests tighten it so both
	// paths land on the same optimum to well below their 1e-6 contract.
	Tol float64
}

// Validate checks the model description.
func (m *Model) Validate() error {
	if m.Periods < 2 || m.Types < 1 {
		return fmt.Errorf("model %d periods, %d types: %w", m.Periods, m.Types, ErrBadInput)
	}
	if len(m.BaselineTIP) != m.Periods {
		return fmt.Errorf("baseline has %d periods, want %d: %w", len(m.BaselineTIP), m.Periods, ErrBadInput)
	}
	if m.MaxReward <= 0 {
		return fmt.Errorf("max reward %v: %w", m.MaxReward, ErrBadInput)
	}
	return nil
}

// DeferralMatrix returns Q, where Q[i][k] is the volume deferred from
// period i+1 to period k+1 under parameters prm and rewards p (eq. 6).
func (m *Model) DeferralMatrix(prm Params, p []float64) ([][]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(p) != m.Periods {
		return nil, fmt.Errorf("rewards have %d periods, want %d: %w", len(p), m.Periods, ErrBadInput)
	}
	n := m.Periods
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m.Types; j++ {
			alpha := prm.Alpha[i][j]
			if alpha == 0 {
				continue
			}
			w, err := waiting.NewPowerLaw(prm.Beta[i][j], n, m.MaxReward)
			if err != nil {
				return nil, err
			}
			for dt := 1; dt <= n-1; dt++ {
				k := (i + dt) % n
				q[i][k] += m.BaselineTIP[i] * alpha * w.Value(p[k], dt)
			}
		}
	}
	return q, nil
}

// NetFlows returns T, where T[i] = Σ_k Q[i][k] − Σ_k Q[k][i]: the decrease
// of period i+1's usage moving from TIP to TDP (eq. 7). ΣT = 0 always
// (sessions never disappear).
func (m *Model) NetFlows(prm Params, p []float64) ([]float64, error) {
	q, err := m.DeferralMatrix(prm, p)
	if err != nil {
		return nil, err
	}
	n := m.Periods
	t := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			t[i] += q[i][k] - q[k][i]
		}
	}
	return t, nil
}

// Observation is one control experiment: the offered rewards and the
// measured per-period usage decrease T_i (TIP demand minus TDP usage).
type Observation struct {
	Rewards []float64
	T       []float64
}

// FitResult is the outcome of waiting-function estimation.
type FitResult struct {
	Params Params
	// RSS is the residual sum of squares at the fit.
	RSS float64
	// Iterations reports LM effort.
	Iterations int
}

// Fit estimates (α, β) for every period from aggregate observations by
// Levenberg–Marquardt on the net-flow equations, starting from the cold
// start (uniform α, β spread around 1 across types). Since ΣT_i ≡ 0, one equation per observation
// is redundant — exactly the degree of freedom the paper's elimination
// step removes; LM handles the rank deficiency through damping.
func (m *Model) Fit(obs []Observation) (*FitResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(obs) == 0 {
		return nil, fmt.Errorf("no observations: %w", ErrBadInput)
	}
	for s, o := range obs {
		if len(o.Rewards) != m.Periods || len(o.T) != m.Periods {
			return nil, fmt.Errorf("observation %d malformed: %w", s, ErrBadInput)
		}
	}
	x0 := m.coldStart()
	bounds := m.fitBounds()

	// The residuals and their analytic Jacobian come from the packed fast
	// path shared with StreamFitter (identical math to NetFlows ∘ unpack,
	// pinned by the stream equivalence tests, without per-call Params or
	// PowerLaw allocations).
	fast := newStreamResid(m)
	fast.bind(obs)
	resid := fast.residuals()
	maxIter := m.MaxIter
	if maxIter <= 0 {
		maxIter = 400
	}
	res, err := optimize.LevenbergMarquardt(resid, x0, optimize.LMConfig{
		MaxIter: maxIter,
		Tol:     m.Tol,
		Bounds:  &bounds,
	})
	if err != nil && !errors.Is(err, optimize.ErrLMStalled) && !errors.Is(err, optimize.ErrMaxIterations) {
		return nil, fmt.Errorf("fit: %w", err)
	}
	return &FitResult{
		Params:     m.unpack(res.X),
		RSS:        res.RSS,
		Iterations: res.Iterations,
	}, nil
}

func (m *Model) alphaIdx(i, j int) int { return i*m.Types*2 + j }
func (m *Model) betaIdx(i, j int) int  { return i*m.Types*2 + m.Types + j }

// packedDim is the LM parameter-vector length: per period, m raw alphas
// then m betas.
func (m *Model) packedDim() int { return m.Periods * m.Types * 2 }

// coldStart is the start point shared by Fit and StreamFitter: uniform
// mixing proportions, and β = 1 with one type. With m > 1 types the
// β's are spread geometrically over [1/2, 2], β_j = 2^(2j/(m−1) − 1),
// still centred on 1. Types that share a β are interchangeable: their β
// columns of the Jacobian are identical and every raw-α derivative is
// exactly 0, so LM on an exact Jacobian would move a period's β's in
// lockstep and leave only rounding to tell the types apart.
func (m *Model) coldStart() []float64 {
	x0 := make([]float64, m.packedDim())
	for i := 0; i < m.Periods; i++ {
		for j := 0; j < m.Types; j++ {
			x0[m.alphaIdx(i, j)] = 1 / float64(m.Types)
			x0[m.betaIdx(i, j)] = 1
			if m.Types > 1 {
				x0[m.betaIdx(i, j)] = math.Exp2(2*float64(j)/float64(m.Types-1) - 1)
			}
		}
	}
	return x0
}

// fitBounds is the LM box shared by Fit and StreamFitter: α ∈ [1e-3, 1]
// (raw, renormalized by unpack) and β ∈ [0, 10].
func (m *Model) fitBounds() optimize.Bounds {
	dim := m.packedDim()
	lower := make([]float64, dim)
	upper := make([]float64, dim)
	for i := 0; i < m.Periods; i++ {
		for j := 0; j < m.Types; j++ {
			lower[m.alphaIdx(i, j)] = 1e-3
			upper[m.alphaIdx(i, j)] = 1
			lower[m.betaIdx(i, j)] = 0
			upper[m.betaIdx(i, j)] = 10
		}
	}
	return optimize.Bounds{Lower: lower, Upper: upper}
}

// unpack converts the packed LM vector into Params, normalizing each
// period's raw alphas to sum to 1.
func (m *Model) unpack(x []float64) Params {
	prm := NewParams(m.Periods, m.Types)
	for i := 0; i < m.Periods; i++ {
		var s float64
		for j := 0; j < m.Types; j++ {
			a := math.Max(x[m.alphaIdx(i, j)], 0)
			prm.Alpha[i][j] = a
			s += a
			prm.Beta[i][j] = math.Max(x[m.betaIdx(i, j)], 0)
		}
		if s <= 0 {
			for j := 0; j < m.Types; j++ {
				prm.Alpha[i][j] = 1 / float64(m.Types)
			}
			continue
		}
		for j := 0; j < m.Types; j++ {
			prm.Alpha[i][j] /= s
		}
	}
	return prm
}

// WaitingCurve evaluates the fitted aggregate waiting function of period
// i+1 at reward p over deferral times 1..n−1 — the curves compared in the
// paper's Fig. 2.
func (m *Model) WaitingCurve(prm Params, period int, p float64) ([]float64, error) {
	if period < 0 || period >= m.Periods {
		return nil, fmt.Errorf("period %d: %w", period, ErrBadInput)
	}
	out := make([]float64, m.Periods-1)
	for j := 0; j < m.Types; j++ {
		w, err := waiting.NewPowerLaw(prm.Beta[period][j], m.Periods, m.MaxReward)
		if err != nil {
			return nil, err
		}
		for dt := 1; dt <= m.Periods-1; dt++ {
			out[dt-1] += prm.Alpha[period][j] * w.Value(p, dt)
		}
	}
	return out, nil
}

// MaxPercentError reports the paper's Table III accuracy metric: the
// maximum percent difference between the actual and estimated aggregate
// waiting curves of a period, sampled at the given rewards.
func (m *Model) MaxPercentError(actual, est Params, period int, rewards []float64) (float64, error) {
	var worst float64
	for _, p := range rewards {
		a, err := m.WaitingCurve(actual, period, p)
		if err != nil {
			return 0, err
		}
		e, err := m.WaitingCurve(est, period, p)
		if err != nil {
			return 0, err
		}
		for i := range a {
			if a[i] == 0 {
				continue
			}
			if pe := 100 * math.Abs(e[i]-a[i]) / a[i]; pe > worst {
				worst = pe
			}
		}
	}
	return worst, nil
}

// EstimateBaseline recovers the per-period demand under TIP, X_i, from
// TDP usage measurements given known waiting-function parameters (eq. 9).
// Each usage observation contributes n linear equations
//
//	x_i = X_i·(1 − Σ_k ω_ik) + Σ_k X_k·ω_ki,
//
// where ω_ik is the fitted waiting value for deferring from i to k at the
// observation's rewards and X-relative volume; the stacked system over all
// observations is solved in least squares, averaging out measurement noise.
func (m *Model) EstimateBaseline(prm Params, usageObs []Observation) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(usageObs) == 0 {
		return nil, fmt.Errorf("no observations: %w", ErrBadInput)
	}
	n := m.Periods
	rows := len(usageObs) * n
	a := linalg.NewMatrix(rows, n)
	b := make(linalg.Vector, rows)
	for s, o := range usageObs {
		if len(o.Rewards) != n || len(o.T) != n {
			return nil, fmt.Errorf("observation %d malformed: %w", s, ErrBadInput)
		}
		// ω[i][k]: per-unit-X deferral fraction from i to k.
		omega, err := m.unitDeferrals(prm, o.Rewards)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			row := s*n + i
			var outSum float64
			for k := 0; k < n; k++ {
				outSum += omega[i][k]
			}
			a.Set(row, i, 1-outSum)
			for k := 0; k < n; k++ {
				if k != i {
					a.Set(row, k, a.At(row, k)+omega[k][i])
				}
			}
			// Here Observation.T carries the *usage under TDP* x_i.
			b[row] = o.T[i]
		}
	}
	x, err := linalg.LeastSquares(a, b)
	if err != nil {
		return nil, fmt.Errorf("baseline solve: %w", err)
	}
	return x, nil
}

// unitDeferrals returns ω[i][k]: the fraction of X_i deferred from i to k.
func (m *Model) unitDeferrals(prm Params, p []float64) ([][]float64, error) {
	n := m.Periods
	omega := make([][]float64, n)
	for i := range omega {
		omega[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m.Types; j++ {
			alpha := prm.Alpha[i][j]
			if alpha == 0 {
				continue
			}
			w, err := waiting.NewPowerLaw(prm.Beta[i][j], n, m.MaxReward)
			if err != nil {
				return nil, err
			}
			for dt := 1; dt <= n-1; dt++ {
				k := (i + dt) % n
				omega[i][k] += alpha * w.Value(p[k], dt)
			}
		}
	}
	return omega, nil
}
