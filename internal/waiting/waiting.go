// Package waiting models users' willingness to defer application sessions:
// the paper's waiting functions w(p, t), which give the probability that a
// session is deferred by t periods when the ISP offers reward p.
//
// The workhorse family is the power law of §IV,
//
//	w_β(p, t) = C_β · p / (t+1)^β,
//
// where β ≥ 0 is the "patience index" (larger β = less patient) and C_β is
// the normalization constant that makes Σ_{t=1..n−1} w(P, t) = 1 at the
// maximum reward P (paper §II), so the usage deferred out of a period can
// never exceed the demand in it.
package waiting

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalid is returned for waiting-function parameters that violate the
// model's preconditions (negative patience, non-positive max reward, or
// fewer than two periods).
var ErrInvalid = errors.New("waiting: invalid parameters")

// Func is a waiting function: the fraction of a session's volume deferred
// by t periods at reward p. Prop. 3 requires implementations to be
// increasing and concave in p; all implementations here are.
type Func interface {
	// Value returns w(p, t) for reward p ≥ 0 and deferral time t ≥ 1
	// measured in periods.
	Value(p float64, t int) float64
	// DerivP returns ∂w/∂p at (p, t).
	DerivP(p float64, t int) float64
}

// PowerLaw is the paper's normalized power-law waiting function
// w_β(p,t) = C_β·p/(t+1)^β. It is linear (hence concave) in p.
type PowerLaw struct {
	Beta float64 // patience index (≥ 0); larger = less patient
	c    float64 // normalization constant C_β
}

var _ Func = PowerLaw{}

// NewPowerLaw builds a power-law waiting function normalized for a model
// with n periods and maximum reward maxReward (the maximum marginal cost of
// exceeding capacity, paper §II).
func NewPowerLaw(beta float64, n int, maxReward float64) (PowerLaw, error) {
	if beta < 0 || math.IsNaN(beta) {
		return PowerLaw{}, fmt.Errorf("patience index %v: %w", beta, ErrInvalid)
	}
	if n < 2 {
		return PowerLaw{}, fmt.Errorf("%d periods: %w", n, ErrInvalid)
	}
	if maxReward <= 0 || math.IsNaN(maxReward) {
		return PowerLaw{}, fmt.Errorf("max reward %v: %w", maxReward, ErrInvalid)
	}
	var s float64
	for t := 1; t <= n-1; t++ {
		s += math.Pow(float64(t+1), -beta)
	}
	return PowerLaw{Beta: beta, c: 1 / (maxReward * s)}, nil
}

// Value implements Func.
func (w PowerLaw) Value(p float64, t int) float64 {
	if p <= 0 || t < 1 {
		return 0
	}
	return w.c * p * math.Pow(float64(t+1), -w.Beta)
}

// DerivP implements Func.
func (w PowerLaw) DerivP(p float64, t int) float64 {
	if t < 1 {
		return 0
	}
	return w.c * math.Pow(float64(t+1), -w.Beta)
}

// Norm returns the normalization constant C_β.
func (w PowerLaw) Norm() float64 { return w.c }

// ValueAt evaluates the waiting function at a continuous deferral time
// t > 0 (in periods). The dynamic session model uses this for sessions
// arriving mid-period, whose wait to the start of period i+k is k−u for
// arrival offset u ∈ [0, 1).
func (w PowerLaw) ValueAt(p, t float64) float64 {
	if p <= 0 || t <= 0 {
		return 0
	}
	return w.c * p * math.Pow(t+1, -w.Beta)
}

// DeferTime returns the deferral time from period from to period to in an
// n-period day: the b ∈ [1, n] with b ≡ to−from (mod n) (paper §II). A
// result of n means "a full day later", which the models never use.
func DeferTime(from, to, n int) int {
	b := (to - from) % n
	if b <= 0 {
		b += n
	}
	return b
}
