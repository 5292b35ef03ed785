package waiting

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewPowerLawValidation(t *testing.T) {
	tests := []struct {
		name      string
		beta      float64
		n         int
		maxReward float64
	}{
		{name: "negative beta", beta: -1, n: 12, maxReward: 1},
		{name: "nan beta", beta: math.NaN(), n: 12, maxReward: 1},
		{name: "one period", beta: 1, n: 1, maxReward: 1},
		{name: "zero max reward", beta: 1, n: 12, maxReward: 0},
		{name: "negative max reward", beta: 1, n: 12, maxReward: -3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewPowerLaw(tt.beta, tt.n, tt.maxReward); !errors.Is(err, ErrInvalid) {
				t.Errorf("err = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestPowerLawNormalization(t *testing.T) {
	// At the maximum reward P, the total deferred fraction over all
	// possible deferral times must be exactly 1 (paper §II).
	for _, beta := range PatienceIndices {
		for _, tc := range []struct {
			n int
			p float64
		}{{12, 1}, {48, 3}, {24, 0.7}} {
			w, err := NewPowerLaw(beta, tc.n, tc.p)
			if err != nil {
				t.Fatalf("NewPowerLaw(%v): %v", beta, err)
			}
			var s float64
			for dt := 1; dt <= tc.n-1; dt++ {
				s += w.Value(tc.p, dt)
			}
			if math.Abs(s-1) > 1e-12 {
				t.Errorf("β=%v n=%d P=%v: Σw(P,t) = %v, want 1", beta, tc.n, tc.p, s)
			}
		}
	}
}

func TestPowerLawMonotoneInReward(t *testing.T) {
	w, err := NewPowerLaw(2, 12, 1)
	if err != nil {
		t.Fatalf("NewPowerLaw: %v", err)
	}
	if !(w.Value(0.5, 1) < w.Value(0.8, 1)) {
		t.Error("w not increasing in p")
	}
	if w.Value(0, 1) != 0 {
		t.Errorf("w(0,t) = %v, want 0", w.Value(0, 1))
	}
	if w.Value(-1, 1) != 0 {
		t.Errorf("w(p<0,t) = %v, want 0", w.Value(-1, 1))
	}
}

func TestPowerLawDecreasingInTime(t *testing.T) {
	// Users prefer shorter deferrals: w decreasing in t for β > 0.
	w, err := NewPowerLaw(1.5, 24, 1)
	if err != nil {
		t.Fatalf("NewPowerLaw: %v", err)
	}
	prev := math.Inf(1)
	for dt := 1; dt < 24; dt++ {
		v := w.Value(0.5, dt)
		if v >= prev {
			t.Fatalf("w not strictly decreasing at t=%d: %v ≥ %v", dt, v, prev)
		}
		prev = v
	}
}

func TestPowerLawPatienceOrdering(t *testing.T) {
	// For long deferrals, a patient session (small β) defers more than an
	// impatient one (large β) at the same reward — Fig. 3's crossover.
	patient, _ := NewPowerLaw(0.5, 12, 1)
	impatient, _ := NewPowerLaw(5, 12, 1)
	p := 0.49
	longDefer := 8
	if !(patient.Value(p, longDefer) > impatient.Value(p, longDefer)) {
		t.Errorf("patient w(%d) = %v not above impatient %v",
			longDefer, patient.Value(p, longDefer), impatient.Value(p, longDefer))
	}
	// And the impatient one concentrates more mass on t = 1.
	if !(impatient.Value(p, 1) > patient.Value(p, 1)) {
		t.Errorf("impatient w(1) = %v not above patient %v",
			impatient.Value(p, 1), patient.Value(p, 1))
	}
}

func TestPowerLawDerivP(t *testing.T) {
	w, _ := NewPowerLaw(2.5, 12, 1)
	const h = 1e-7
	for _, dt := range []int{1, 3, 11} {
		num := (w.Value(0.5+h, dt) - w.Value(0.5-h, dt)) / (2 * h)
		if math.Abs(num-w.DerivP(0.5, dt)) > 1e-6 {
			t.Errorf("t=%d: DerivP = %v, numeric %v", dt, w.DerivP(0.5, dt), num)
		}
	}
	if w.DerivP(0.5, 0) != 0 {
		t.Error("DerivP at t=0 must be 0")
	}
}

func TestPowerLawInvalidTime(t *testing.T) {
	w, _ := NewPowerLaw(1, 12, 1)
	if w.Value(0.5, 0) != 0 {
		t.Error("w(p, 0) must be 0 (no zero-time deferral)")
	}
	if w.Value(0.5, -3) != 0 {
		t.Error("w(p, t<0) must be 0")
	}
}

func TestDeferTime(t *testing.T) {
	tests := []struct {
		from, to, n, want int
	}{
		{1, 2, 12, 1},
		{1, 12, 12, 11},
		{12, 1, 12, 1}, // wraps to next day
		{10, 2, 12, 4}, // wraps
		{5, 5, 12, 12}, // same period = full day
		{48, 1, 48, 1}, // wrap at 48
		{3, 1, 48, 46}, // long wrap
	}
	for _, tt := range tests {
		if got := DeferTime(tt.from, tt.to, tt.n); got != tt.want {
			t.Errorf("DeferTime(%d,%d,%d) = %d, want %d", tt.from, tt.to, tt.n, got, tt.want)
		}
	}
}

// Property: DeferTime is always in [1, n] and satisfies the congruence
// b ≡ to−from (mod n).
func TestDeferTimeProperty(t *testing.T) {
	f := func(from, to uint8, nn uint8) bool {
		n := 2 + int(nn)%47
		fr := 1 + int(from)%n
		toP := 1 + int(to)%n
		b := DeferTime(fr, toP, n)
		if b < 1 || b > n {
			return false
		}
		return (b-(toP-fr))%n == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
