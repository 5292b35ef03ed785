package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of the
// exact samples xs: the smallest sample with at least q·n samples at or
// below it. xs is sorted in place. An empty set yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// mean returns the arithmetic mean of xs (0 for an empty set).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so spreads printed here match that tool's. xs is sorted in place and
// must hold at least two values; a single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// relSpread returns the interquartile distance of xs as a share of its
// median (0 when the median is 0).
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// interval is a half-open span [lo, hi) of nanosecond offsets.
type interval struct{ lo, hi int64 }

// coveredWithin returns how much of [lo, hi) the union of ivs covers.
// Overlapping intervals (pipelined children) count once, and the parts
// of an interval outside [lo, hi) (a child that outlives its parent) do
// not count. ivs is sorted in place.
func coveredWithin(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime returns a span's duration minus the union of its children's
// intervals within it.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - coveredWithin(parent.lo, parent.hi, children)
}
