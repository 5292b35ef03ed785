package core

import (
	"math"

	"tdp/internal/optimize"
)

// Reference implementations of the evaluation hot paths, preserving the
// pre-flattening loop structure (per-lag wrap arithmetic, positivity
// branches, fresh slices per call). They exist to pin the optimized
// kernel-table paths: the equivalence and fuzz tests check fast ≡ reference
// to ≤1e-12 on costs, gradients, and usage, and the static homotopy
// reference bounds the certified dual solve from above. They live in a
// test file, so no production path can reach them.

// referenceUsage is the original StaticModel.usage: allocating, with
// wrap arithmetic and positivity branches in the inner loop.
func (sm *StaticModel) referenceUsage(p []float64) (x, in []float64) {
	n := sm.n
	x = make([]float64, n)
	in = make([]float64, n)
	for i := 0; i < n; i++ {
		pi := math.Max(p[i], 0)
		in[i] = pi * sm.kd.inW[i]
	}
	for i := 0; i < n; i++ {
		var out float64
		row := sm.kd.outW[i*n : i*n+n]
		for dt := 1; dt <= n-1; dt++ {
			k := i + dt
			if k >= n {
				k -= n
			}
			if pk := p[k]; pk > 0 {
				out += row[dt] * pk
			}
		}
		x[i] = sm.totals[i] - out + in[i]
	}
	return x, in
}

// ReferenceCostAt is CostAt over the reference usage path.
func (sm *StaticModel) ReferenceCostAt(p []float64) float64 {
	x, in := sm.referenceUsage(p)
	var c float64
	for i := 0; i < sm.n; i++ {
		c += p[i]*in[i] + sm.scn.Cost.Value(x[i]-sm.scn.Capacity[i])
	}
	return c
}

// ReferenceUsageAt is UsageAt over the reference usage path.
func (sm *StaticModel) ReferenceUsageAt(p []float64) []float64 {
	x, _ := sm.referenceUsage(p)
	return x
}

// ReferenceSolveForPeriod is the original per-period solve: a Brent search
// whose every evaluation runs the full O(n²) cost.
func (sm *StaticModel) ReferenceSolveForPeriod(p []float64, period int) (float64, float64, error) {
	if err := checkPeriod(period, sm.n); err != nil {
		return 0, 0, err
	}
	work := append([]float64(nil), p...)
	best, fbest := optimize.Brent(func(t float64) float64 {
		work[period] = t
		return sm.ReferenceCostAt(work)
	}, 0, sm.MaxReward(), 1e-10)
	return best, fbest, nil
}

// homotopyObjective is the static model's former production objective:
// the softplus-smoothed cost at temperature mu with its fused analytic
// gradient over the kernel tables. Only the homotopy reference uses it.
type homotopyObjective struct {
	sm *StaticModel
	mu float64
}

// Value implements optimize.Objective.
func (o homotopyObjective) Value(p []float64) float64 {
	return o.ValueGrad(p, make([]float64, o.sm.n))
}

// Grad implements optimize.Objective.
func (o homotopyObjective) Grad(p, grad []float64) { o.ValueGrad(p, grad) }

// ValueGrad implements optimize.ValueGrader.
func (o homotopyObjective) ValueGrad(p, grad []float64) float64 {
	sm := o.sm
	n := sm.n
	w := sm.ws.get()
	defer sm.ws.put(w)
	x, in := sm.usageInto(p, w)
	var c float64
	for i := 0; i < n; i++ {
		v, fp := sm.scn.Cost.SmoothBoth(x[i]-sm.scn.Capacity[i], o.mu)
		c += p[i]*in[i] + v
		w.lam2[i] = fp
		w.lam2[n+i] = fp
	}
	sm.kd.gradGather(p, w.lam2, grad)
	return c
}

// referenceHomotopySolve is the static model's former production solve:
// projected gradient down the default seven-stage softplus schedule with
// a coordinate polish on the exact cost. The certified dual solve must
// never end above it.
func (sm *StaticModel) referenceHomotopySolve() (optimize.Result, error) {
	return optimize.Homotopy(
		func(mu float64) optimize.Objective { return homotopyObjective{sm: sm, mu: mu} },
		sm.CostAt, make([]float64, sm.n), optimize.UniformBounds(sm.n, 0, sm.MaxReward()),
		optimize.DefaultSchedule(), true,
		optimize.WithMaxIterations(3000), optimize.WithTolerance(1e-8))
}

// referenceArrivals is the original DynamicModel.arrivals.
func (dm *DynamicModel) referenceArrivals(p []float64) (arr, in []float64) {
	n := dm.n
	arr = make([]float64, n)
	in = make([]float64, n)
	for i := 0; i < n; i++ {
		if pi := p[i]; pi > 0 {
			in[i] = pi * dm.kd.inW[i]
		}
	}
	for i := 0; i < n; i++ {
		var out float64
		row := dm.kd.outW[i*n : i*n+n]
		for dt := 1; dt <= n-1; dt++ {
			k := i + dt
			if k >= n {
				k -= n
			}
			if pk := p[k]; pk > 0 {
				out += row[dt] * pk
			}
		}
		arr[i] = dm.totals[i] - out + in[i]
	}
	return arr, in
}

// ReferenceCostAt is the dynamic CostAt over the reference arrival path.
func (dm *DynamicModel) ReferenceCostAt(p []float64) float64 {
	arr, in := dm.referenceArrivals(p)
	var c float64
	carry := dm.StartBacklog
	for i := 0; i < dm.n; i++ {
		z := carry + arr[i] - dm.scn.Capacity[i]
		c += p[i]*in[i] + dm.scn.Cost.Smooth(z, 0)
		carry = optimize.SmoothMax(z, 0)
	}
	return c
}

// ReferenceObjective is the original smoothed dynamic objective with the
// allocating adjoint gradient. It does not implement optimize.ValueGrader.
func (dm *DynamicModel) ReferenceObjective(mu float64) optimize.Objective {
	return optimize.FuncObjective{
		Fn: func(p []float64) float64 {
			arr, in := dm.referenceArrivals(p)
			var c float64
			carry := dm.StartBacklog
			for i := 0; i < dm.n; i++ {
				z := carry + arr[i] - dm.scn.Capacity[i]
				c += p[i]*in[i] + dm.scn.Cost.Smooth(z, mu)
				carry = optimize.SmoothMax(z, mu)
			}
			return c
		},
		GradFn: func(p, grad []float64) {
			n := dm.n
			arr, _ := dm.referenceArrivals(p)
			z := make([]float64, n)
			carry := dm.StartBacklog
			for i := 0; i < n; i++ {
				z[i] = carry + arr[i] - dm.scn.Capacity[i]
				carry = optimize.SmoothMax(z[i], mu)
			}
			// Adjoint sweep: λ_i = ∂C/∂z_i = f'(z_i) + λ_{i+1}·S'(z_i).
			lambda := make([]float64, n)
			for i := n - 1; i >= 0; i-- {
				lambda[i] = dm.scn.Cost.SmoothDeriv(z[i], mu)
				if i < n-1 {
					lambda[i] += lambda[i+1] * optimize.SmoothMaxDeriv(z[i], mu)
				}
			}
			// grad[r] = 2p_r·inW[r] + λ_r·inW[r] − Σ_{i≠r} λ_i·outW[i][t(i→r)].
			for r := 0; r < n; r++ {
				g := (2*p[r] + lambda[r]) * dm.kd.inW[r]
				for dt := 1; dt <= n-1; dt++ {
					i := r - dt
					if i < 0 {
						i += n
					}
					if lambda[i] != 0 {
						g -= lambda[i] * dm.kd.outW[i*n+dt]
					}
				}
				grad[r] = g
			}
		},
	}
}
