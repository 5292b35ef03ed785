package core

import (
	"fmt"
	"sync"

	"tdp/internal/waiting"
)

// deferKernel is the shared zero-allocation evaluation engine for the
// linear-in-p session models (static, dynamic, fixed-duration, and the
// definite-choice argmax). It flattens the per-type and per-period kernel
// tables of the original implementation into contiguous row-major slices
// and precomputes wrapped-index ("gather") tables, so that every inner
// O(n²) loop is a straight dot product over adjacent memory — no mod, no
// wrap branch, no bounds surprises — which is what lets the solvers hit
// the paper's "near real time" bar (§II, §III-B) as n grows.
//
// Table layout (n periods, m session types, dt ∈ [1, n−1]):
//
//	kern[j*n+dt]     = w_j'(1, dt)                       per-type deferral kernel
//	outW[i*n+dt]     = Σ_j D[i][j]·kern[j*n+dt]          flow out of i toward i+dt
//	                   (zero when NoWrap blocks i+dt ≥ n)
//	gathW[r*(n−1)+s] = outW[src*n+dt], src=(r+1+s) mod n, dt=n−1−s
//	                                                      flow into r, by source
//	inW[r]           = Σ_dt outW[((r−dt) mod n)*n+dt]    total inflow weight
//
// gathW is outW re-indexed by *destination*: entry s of row r is the
// weight of traffic arriving into period r from source period (r+1+s) mod
// n. Together with a doubled buffer v2 (v2[i] = v2[n+i] = v[i]) this turns
// both the usage loop and the gradient gather into forward scans:
//
//	Out_i   = outW[i*n+1 : i*n+n] · p2[i+1 : i+n]
//	In-grad = gathW row r          · fp2[r+1 : r+n]
type deferKernel struct {
	n, m   int
	noWrap bool
	kern   []float64 // m × n, index j*n+dt; [j*n+0] unused
	outW   []float64 // n × n, index i*n+dt; [i*n+0] unused
	gathW  []float64 // n × (n−1), destination-major gather table
	inW    []float64 // n
}

// newDeferKernel precomputes the tables for the given per-type waiting
// functions and demand matrix. The construction order of outW and inW
// matches the original per-model implementations exactly, so the tables
// are bit-identical to the ones the pre-flattening code built.
func newDeferKernel(wfs []waiting.Func, demand [][]float64, n int, noWrap bool) *deferKernel {
	m := len(wfs)
	k := &deferKernel{
		n:      n,
		m:      m,
		noWrap: noWrap,
		kern:   make([]float64, m*n),
		outW:   make([]float64, n*n),
		gathW:  make([]float64, n*(n-1)),
		inW:    make([]float64, n),
	}
	for j, w := range wfs {
		row := k.kern[j*n : j*n+n]
		for dt := 1; dt <= n-1; dt++ {
			row[dt] = w.DerivP(1, dt)
		}
	}
	for i := 0; i < n; i++ {
		k.rebuildOutRow(i, demand[i])
	}
	for r := 0; r < n; r++ {
		var s float64
		for dt := 1; dt <= n-1; dt++ {
			src := r - dt
			if src < 0 {
				src += n
			}
			s += k.outW[src*n+dt]
		}
		k.inW[r] = s
	}
	k.rebuildGather()
	return k
}

// rebuildOutRow recomputes outW row i from the demand row.
func (k *deferKernel) rebuildOutRow(i int, demand []float64) {
	n := k.n
	row := k.outW[i*n : i*n+n]
	for dt := 1; dt <= n-1; dt++ {
		if k.noWrap && i+dt >= n {
			row[dt] = 0
			continue // deferral would cross the day boundary
		}
		var s float64
		for j, d := range demand {
			if d != 0 {
				s += d * k.kern[j*n+dt]
			}
		}
		row[dt] = s
	}
}

// rebuildGather refreshes the destination-major gather table from outW.
func (k *deferKernel) rebuildGather() {
	n := k.n
	for r := 0; r < n; r++ {
		grow := k.gathW[r*(n-1) : (r+1)*(n-1)]
		for s := 0; s < n-1; s++ {
			src := r + 1 + s
			if src >= n {
				src -= n
			}
			grow[s] = k.outW[src*n+(n-1-s)]
		}
	}
}

// setDemandRow updates the tables after demand row i changes — the online
// algorithm's per-period estimate fold (§III-B). Only outW row i, the n−1
// gather entries sourced from i, and the inW terms contributed by i are
// touched, so the update is O(n·m) instead of the O(n²·m) full rebuild.
func (k *deferKernel) setDemandRow(i int, demand []float64) {
	n := k.n
	old, vp := k.getVec()
	copy(old, k.outW[i*n:i*n+n])
	k.rebuildOutRow(i, demand)
	for dt := 1; dt <= n-1; dt++ {
		r := i + dt
		if r >= n {
			r -= n
		}
		// Destination r receives from i at lag dt: gathW slot s = n−1−dt.
		k.gathW[r*(n-1)+(n-1-dt)] = k.outW[i*n+dt]
		k.inW[r] += k.outW[i*n+dt] - old[dt]
	}
	vecPool.Put(vp)
}

// vecPool recycles length-n scratch for table updates.
var vecPool = sync.Pool{New: func() any { return new([]float64) }}

// getVec borrows a length-n scratch slice; return its handle to vecPool
// when done.
//
//tubelint:pooled
func (k *deferKernel) getVec() ([]float64, *[]float64) {
	vp := vecPool.Get().(*[]float64)
	if cap(*vp) < k.n {
		*vp = make([]float64, k.n)
	}
	v := (*vp)[:k.n]
	return v, vp
}

// dot is the kernel inner product, unrolled into eight independent
// accumulators so the multiply-add chains pipeline instead of serializing
// on one add's latency. The reassociated sum differs from a serial sum only by
// rounding (≪1e-12 relative at kernel sizes), which is inside every
// fast≡reference tolerance.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
		s4 += a[i+4] * b[i+4]
		s5 += a[i+5] * b[i+5]
		s6 += a[i+6] * b[i+6]
		s7 += a[i+7] * b[i+7]
	}
	s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// dot2 computes two inner products sharing one sliding window:
//
//	s = a · p[0:len(a)]    t = b · p[1:len(a)+1]
//
// The row-paired O(n²) loops use it so adjacent destinations reuse the
// window loads (three loads per two multiply-adds instead of four), which
// is the binding resource once the arithmetic is unrolled. Accumulator
// splitting reassociates the sums like dot does (four lanes per row), with
// the same ≪1e-12 rounding caveat.
func dot2(a, b, p []float64) (float64, float64) {
	n := len(a)
	b = b[:n]
	p = p[:n+1]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		p0, p1, p2, p3, p4 := p[i], p[i+1], p[i+2], p[i+3], p[i+4]
		s0 += a[i] * p0
		t0 += b[i] * p1
		s1 += a[i+1] * p1
		t1 += b[i+1] * p2
		s2 += a[i+2] * p2
		t2 += b[i+2] * p3
		s3 += a[i+3] * p3
		t3 += b[i+3] * p4
	}
	s := (s0 + s1) + (s2 + s3)
	t := (t0 + t1) + (t2 + t3)
	for ; i < n; i++ {
		s += a[i] * p[i]
		t += b[i] * p[i+1]
	}
	return s, t
}

// arrivalsInto computes the post-deferral volume profile and the
// deferred-into vector for rewards p, writing into the workspace:
//
//	x[i]  = totals[i] − Out_i + In_i
//	in[i] = max(p_i, 0)·inW[i]
//
// p2 must have length 2n; it is filled with the doubled clamped rewards so
// the Out_i dot product needs no wrap. The loop adds exact zeros where the
// original skipped non-positive rewards or NoWrap-blocked lags (those
// outW entries are zero), so the sums match the branchy original up to
// dot's reassociation rounding.
func (k *deferKernel) arrivalsInto(p, totals, x, in, p2 []float64) {
	n := k.n
	for i := 0; i < n; i++ {
		v := p[i]
		if v < 0 {
			v = 0
		}
		p2[i] = v
		p2[n+i] = v
		in[i] = v * k.inW[i]
	}
	i := 0
	for ; i+1 < n; i += 2 {
		rowA := k.outW[i*n+1 : i*n+n]
		rowB := k.outW[(i+1)*n+1 : (i+1)*n+n]
		s, t := dot2(rowA, rowB, p2[i+1:i+n+1])
		x[i] = totals[i] - s + in[i]
		x[i+1] = totals[i+1] - t + in[i+1]
	}
	for ; i < n; i++ {
		row := k.outW[i*n+1 : i*n+n]
		x[i] = totals[i] - dot(row, p2[i+1:i+n]) + in[i]
	}
}

// gradGather writes the model gradient for per-period sensitivities lam
// (λ_i = ∂C/∂x_i, doubled into lam2 by the caller):
//
//	grad[r] = (2p_r + λ_r)·inW[r] − Σ_s gathW[r][s]·λ_{(r+1+s) mod n}
//
// This is the flattened form of the original "−Σ_dt λ_{(r−dt) mod n}·
// outW[(r−dt) mod n][dt]" gather, traversed by source instead of lag.
func (k *deferKernel) gradGather(p, lam2, grad []float64) {
	n := k.n
	r := 0
	for ; r+1 < n; r += 2 {
		rowA := k.gathW[r*(n-1) : (r+1)*(n-1)]
		rowB := k.gathW[(r+1)*(n-1) : (r+2)*(n-1)]
		s, t := dot2(rowA, rowB, lam2[r+1:r+n+1])
		grad[r] = (2*p[r]+lam2[r])*k.inW[r] - s
		grad[r+1] = (2*p[r+1]+lam2[r+1])*k.inW[r+1] - t
	}
	for ; r < n; r++ {
		row := k.gathW[r*(n-1) : (r+1)*(n-1)]
		grad[r] = (2*p[r]+lam2[r])*k.inW[r] - dot(row, lam2[r+1:r+n])
	}
}

// periodCoef writes the single-coordinate sensitivity vector for reward r:
// coef[i] = ∂x_i/∂p_r⁺, i.e. +inW[r] at i = r and −(flow i→r weight)
// elsewhere. The per-period solve's O(n) incremental cost path is built on it.
func (k *deferKernel) periodCoef(r int, coef []float64) {
	n := k.n
	row := k.gathW[r*(n-1) : (r+1)*(n-1)]
	for s, w := range row {
		src := r + 1 + s
		if src >= n {
			src -= n
		}
		coef[src] = -w
	}
	coef[r] = k.inW[r]
}

// evalWS is a per-evaluation scratch workspace. Workspaces are pooled per
// model so concurrent solves (multistart restarts, parallel experiments)
// each borrow their own — the evaluation hot path allocates nothing in
// steady state and stays race-clean.
type evalWS struct {
	x, in []float64 // n: usage/arrival profile and deferred-into vector
	p2    []float64 // 2n: doubled clamped rewards
	lam2  []float64 // 2n: doubled per-period cost sensitivities
	z     []float64 // n: backlog recursion state (dynamic model)
	fp    []float64 // n: per-period cost derivatives (dynamic adjoint)
	sder  []float64 // n: smooth-max derivatives (dynamic adjoint)
	pwork []float64 // n: coordinate-solve reward copy
	coef  []float64 // n: coordinate-solve sensitivities
	baseX []float64 // n: coordinate-solve base profile
}

func newEvalWS(n int) *evalWS {
	return &evalWS{
		x:     make([]float64, n),
		in:    make([]float64, n),
		p2:    make([]float64, 2*n),
		lam2:  make([]float64, 2*n),
		z:     make([]float64, n),
		fp:    make([]float64, n),
		sder:  make([]float64, n),
		pwork: make([]float64, n),
		coef:  make([]float64, n),
		baseX: make([]float64, n),
	}
}

// wsPool pools evalWS instances for one model.
type wsPool struct {
	n    int
	pool sync.Pool
}

func (p *wsPool) init(n int) { p.n = n }

//tubelint:pooled
func (p *wsPool) get() *evalWS {
	if w, ok := p.pool.Get().(*evalWS); ok {
		return w
	}
	return newEvalWS(p.n)
}

func (p *wsPool) put(w *evalWS) { p.pool.Put(w) }

// funcsOf adapts a concrete waiting-function slice to []waiting.Func.
func funcsOf[F waiting.Func](ws []F) []waiting.Func {
	out := make([]waiting.Func, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out
}

// checkPeriod validates a 0-based period index.
func checkPeriod(period, n int) error {
	if period < 0 || period >= n {
		return fmt.Errorf("period %d of %d: %w", period, n, ErrBadScenario)
	}
	return nil
}

// PeriodSolve reports one single-coordinate (online §III-B) solve.
type PeriodSolve struct {
	// Reward is the optimal reward for the period.
	Reward float64
	// Cost is the exact model cost at the optimum.
	Cost float64
	// Evals is the number of one-dimensional cost evaluations spent.
	Evals int
	// Warm reports whether the warm-started bracket was sufficient (false
	// for cold solves and for warm solves that fell back to the full
	// bracket).
	Warm bool
}
