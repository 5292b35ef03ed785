package obs

import (
	"math"
	"testing"
)

func approxEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestQuantileEdgeCases covers the corners an older nearest-rank
// quantile code never exercised: empty, single observation, q=0,
// q=1, and all mass in one bucket.
func TestQuantileEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		s := NewHistogram([]float64{1, 2}).Snapshot()
		for _, q := range []float64{0, 0.5, 1} {
			if got := s.Quantile(q); got != 0 {
				t.Fatalf("Quantile(%v) on empty = %v, want 0", q, got)
			}
		}
		if s.Mean() != 0 {
			t.Fatalf("Mean on empty = %v, want 0", s.Mean())
		}
	})

	t.Run("single observation", func(t *testing.T) {
		h := NewHistogram([]float64{1, 2, 4})
		h.Observe(1.5)
		s := h.Snapshot()
		for _, q := range []float64{0, 0.25, 0.5, 1} {
			if got := s.Quantile(q); got != 1.5 {
				t.Fatalf("Quantile(%v) with one obs = %v, want the observation 1.5", q, got)
			}
		}
	})

	t.Run("q=0 and q=1 are min and max", func(t *testing.T) {
		h := NewHistogram(ExpBuckets(0.001, 2, 20))
		for _, v := range []float64{0.5, 3, 0.02, 7, 1} {
			h.Observe(v)
		}
		s := h.Snapshot()
		if got := s.Quantile(0); got != 0.02 {
			t.Fatalf("Quantile(0) = %v, want min 0.02", got)
		}
		if got := s.Quantile(1); got != 7.0 {
			t.Fatalf("Quantile(1) = %v, want max 7", got)
		}
		if got := s.Quantile(-0.5); got != 0.02 {
			t.Fatalf("Quantile(-0.5) = %v, want clamp to min", got)
		}
		if got := s.Quantile(1.5); got != 7.0 {
			t.Fatalf("Quantile(1.5) = %v, want clamp to max", got)
		}
	})

	t.Run("single bucket holds all mass", func(t *testing.T) {
		h := NewHistogram([]float64{10, 20, 30})
		for i := 0; i < 100; i++ {
			h.Observe(15) // all in the (10, 20] bucket
		}
		s := h.Snapshot()
		// With Min = Max = 15 the interpolation range collapses: every
		// quantile must be exactly 15, not a bucket-midpoint guess.
		for _, q := range []float64{0, 0.1, 0.5, 0.99, 1} {
			if got := s.Quantile(q); got != 15.0 {
				t.Fatalf("Quantile(%v) = %v, want 15", q, got)
			}
		}
		if got := s.Mean(); got != 15.0 {
			t.Fatalf("Mean = %v, want 15", got)
		}
	})
}

func TestQuantileInterpolation(t *testing.T) {
	// 100 observations uniform over (0, 100]; bucket width 10. The
	// interpolated median must land near 50 — within one bucket width.
	h := NewHistogram(LinearBuckets(10, 10, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); !approxEq(got, 50, 10) {
		t.Fatalf("median = %v, want 50±10", got)
	}
	if got := s.Quantile(0.9); !approxEq(got, 90, 10) {
		t.Fatalf("p90 = %v, want 90±10", got)
	}
	if got := s.Mean(); !approxEq(got, 50.5, 5) {
		t.Fatalf("mean = %v, want 50.5±5", got)
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le=1: {0.5, 1}; le=2: {1.5, 2}; le=4: {3, 4}; +Inf: {5, 100}.
	want := []int64{2, 2, 2, 2}
	for j, w := range want {
		if s.Counts[j] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", j, s.Counts[j], w, s.Counts)
		}
	}
	if s.Count != 8 || s.Min != 0.5 || s.Max != 100.0 {
		t.Fatalf("count/min/max = %d/%v/%v, want 8/0.5/100", s.Count, s.Min, s.Max)
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	h.Observe(0.5)
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1 (NaN dropped)", got)
	}
}

func TestHistogramBoundsNormalized(t *testing.T) {
	h := NewHistogram([]float64{4, 1, 2, 2, math.Inf(1), 1})
	s := h.Snapshot()
	want := []float64{1, 2, 4}
	if len(s.Bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", s.Bounds, want)
	}
	for i := range want {
		if s.Bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", s.Bounds, want)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0, 2, 4) did not panic")
		}
	}()
	ExpBuckets(0, 2, 4)
}

func TestSnapshotIsACopy(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	s := h.Snapshot()
	s.Bounds[0] = 99
	s.Counts[0] = 99
	s2 := h.Snapshot()
	if s2.Bounds[0] != 1.0 || s2.Counts[0] != 1 {
		t.Fatal("mutating a Snapshot leaked into the histogram")
	}
}
