package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// centralJacobian is the reference the analytic Jacobian is checked
// against: central differences, column-major as optimize.Residualer
// lays it out, Richardson-extrapolated over steps h and h/2 so the h²
// truncation term (large at β = 10, where (dt+1)^−β is steep) cancels.
// Where the backward point would cross the clamp at 0 that eval applies
// to α and β, it takes the second-order one-sided difference instead,
// so coordinates on the lower bound are differenced on the side the
// solver's box keeps them.
func centralJacobian(r *streamResid, x []float64) []float64 {
	rows := len(r.obs) * r.m.Periods
	jac := make([]float64, rows*len(x))
	f0 := make([]float64, rows)
	f1 := make([]float64, rows)
	f2 := make([]float64, rows)
	r.eval(x, f0)
	xp := append([]float64(nil), x...)
	diff := func(j int, h float64, col []float64) {
		if x[j]-h < 0 {
			xp[j] = x[j] + h
			r.eval(xp, f1)
			xp[j] = x[j] + 2*h
			r.eval(xp, f2)
			for i := range col {
				col[i] = (-3*f0[i] + 4*f1[i] - f2[i]) / (2 * h)
			}
		} else {
			xp[j] = x[j] + h
			r.eval(xp, f1)
			xp[j] = x[j] - h
			r.eval(xp, f2)
			for i := range col {
				col[i] = (f1[i] - f2[i]) / (2 * h)
			}
		}
		xp[j] = x[j]
	}
	coarse := make([]float64, rows)
	for j := range x {
		h := 1e-4 * (1 + math.Abs(x[j]))
		col := jac[j*rows : (j+1)*rows]
		diff(j, h, coarse)
		diff(j, h/2, col)
		for i := range col {
			col[i] = (4*col[i] - coarse[i]) / 3
		}
	}
	return jac
}

// TestStreamResidJacobianMatchesCentralDifferences is the property the
// LM solvers rely on: the analytic Jacobian of the packed residual
// matches central differences to ≤ 1e-6 relative per column (or, on the
// near-zero columns of α ≈ 1e-3 types, to the reference's own rounding
// floor), over n ∈ {3, 12, 48} and 1–3 types, with zero rewards in the
// schedule, β on both bounds of the fit box and raw α near its 1e-3
// floor. With one type the α columns must be exactly zero (the
// proportion is pinned to 1), which is what lets the solver drop them.
func TestStreamResidJacobianMatchesCentralDifferences(t *testing.T) {
	for _, n := range []int{3, 12, 48} {
		for types := 1; types <= 3; types++ {
			t.Run(fmt.Sprintf("n%d/types%d", n, types), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*n + types)))
				base := make([]float64, n)
				for i := range base {
					base[i] = 20 + 100*rng.Float64()
				}
				m := &Model{Periods: n, Types: types, BaselineTIP: base, MaxReward: 1.5}
				var obs []Observation
				for d := 0; d < 2; d++ {
					p := make([]float64, n)
					tt := make([]float64, n)
					for i := range p {
						if rng.Intn(4) > 0 {
							p[i] = m.MaxReward * rng.Float64()
						} // else a zero reward: no flow into period i
						tt[i] = rng.NormFloat64()
					}
					obs = append(obs, Observation{Rewards: p, T: tt})
				}
				x := m.coldStart()
				for i := 0; i < n; i++ {
					for j := 0; j < types; j++ {
						switch (i + j) % 4 {
						case 0:
							x[m.betaIdx(i, j)] = 0
						case 1:
							x[m.betaIdx(i, j)] = 10
						default:
							x[m.betaIdx(i, j)] = 4 * rng.Float64()
						}
						x[m.alphaIdx(i, j)] = 1e-3 + rng.Float64()
						if (i+j)%3 == 0 {
							x[m.alphaIdx(i, j)] = 1e-3 * (1 + rng.Float64())
						}
					}
				}
				r := newStreamResid(m)
				r.bind(obs)
				rows := len(obs) * n
				got := make([]float64, rows*len(x))
				r.jac(x, got)
				want := centralJacobian(r, x)
				// The reference's own rounding: differencing residuals of
				// magnitude ‖r‖∞ over a step h/2 loses ~ε·‖r‖∞/(h/2).
				res := make([]float64, rows)
				r.eval(x, res)
				var rmax float64
				for _, v := range res {
					rmax = math.Max(rmax, math.Abs(v))
				}
				for c := range x {
					gc, wc := got[c*rows:(c+1)*rows], want[c*rows:(c+1)*rows]
					var scale, worst float64
					for i := range wc {
						scale = math.Max(scale, math.Abs(wc[i]))
						worst = math.Max(worst, math.Abs(gc[i]-wc[i]))
					}
					floor := 4 * 0x1p-52 * rmax / (0.5e-4 * (1 + math.Abs(x[c])))
					if types == 1 && c%2 == 0 { // raw α column
						for i, v := range gc {
							if v != 0 {
								t.Fatalf("col %d (α) row %d = %v, want exactly 0 with one type", c, i, v)
							}
						}
						continue
					}
					if worst > math.Max(1e-6*scale, floor) {
						t.Errorf("col %d: max |analytic − central| = %.3g over column scale %.3g (rounding floor %.3g)", c, worst, scale, floor)
					}
				}
			})
		}
	}
}

// TestWarmRefineAllocationsFlatInIterations pins the allocation-free LM
// loop: a warm StreamFitter.Refine allocates the same count whether it
// runs a few LM iterations or many — the buffers are per solve, not per
// iteration.
func TestWarmRefineAllocationsFlatInIterations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime's own allocations make counts meaningless")
	}
	const n = 24
	m, truth := streamTruthModel(n)
	allocs := func(maxIter int) (float64, int) {
		// Tol is unreachably tight, so every warm refine runs to the cap
		// or to a stall; alternating days move the optimum each time.
		sf, err := NewStreamFitter(m, StreamConfig{Window: 1, MaxIter: maxIter, Tol: 1e-300})
		if err != nil {
			t.Fatalf("NewStreamFitter: %v", err)
		}
		days := make([]Observation, 2)
		for d := range days {
			p := dayRewards(n, d)
			tt, err := m.NetFlows(truth, p)
			if err != nil {
				t.Fatalf("NetFlows: %v", err)
			}
			for i := range tt {
				tt[i] += 0.5 * math.Sin(float64(3*i+d)) // noise: the optimum moves with the day
			}
			days[d] = Observation{Rewards: p, T: tt}
		}
		if err := sf.AddDay(days[0].Rewards, days[0].T); err != nil {
			t.Fatalf("AddDay: %v", err)
		}
		if _, err := sf.Refine(); err != nil {
			t.Fatalf("cold Refine: %v", err)
		}
		day, iters := 1, 0
		a := testing.AllocsPerRun(5, func() {
			if err := sf.AddDay(days[day].Rewards, days[day].T); err != nil {
				t.Fatalf("AddDay: %v", err)
			}
			res, err := sf.Refine()
			if err != nil {
				t.Fatalf("Refine: %v", err)
			}
			if !res.Warm || res.Reused {
				t.Fatalf("refine warm=%v reused=%v, want a warm LM run", res.Warm, res.Reused)
			}
			iters = res.Iterations
			day = 1 - day
		})
		return a, iters
	}
	fewA, fewIt := allocs(2)
	manyA, manyIt := allocs(40)
	if manyIt <= fewIt {
		t.Fatalf("iterations %d (cap 40) vs %d (cap 2): the pin needs runs of different length", manyIt, fewIt)
	}
	if manyA != fewA {
		t.Errorf("warm Refine allocates %v at %d LM iterations, %v at %d: per-iteration allocation", manyA, manyIt, fewA, fewIt)
	}
}
