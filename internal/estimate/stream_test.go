package estimate

import (
	"errors"
	"math"
	"testing"
)

// streamTruthModel builds an n-period single-type model with a smoothly
// varying demand baseline — the shape of a tube-style per-class fit.
func streamTruthModel(n int) (*Model, Params) {
	base := make([]float64, n)
	for i := range base {
		base[i] = 100 + 50*math.Sin(2*math.Pi*float64(i)/float64(n))
	}
	m := &Model{Periods: n, Types: 1, BaselineTIP: base, MaxReward: 1, Tol: 1e-12}
	prm := NewParams(n, 1)
	for i := 0; i < n; i++ {
		prm.Alpha[i][0] = 1
		prm.Beta[i][0] = 0.5 + 1.5*float64(i)/float64(n)
	}
	return m, prm
}

// dayRewards returns a deterministic per-day reward schedule in
// (0.1, 1.0], varied across days so a short window still identifies
// every period's β.
func dayRewards(n, day int) []float64 {
	p := make([]float64, n)
	for k := 0; k < n; k++ {
		p[k] = 0.1 + 0.9*float64((k*7+day*3)%10+1)/10
	}
	return p
}

// TestStreamResidMatchesNetFlows pins the packed fast-path residual to
// the reference NetFlows ∘ unpack composition on a multi-type model.
func TestStreamResidMatchesNetFlows(t *testing.T) {
	m := table3Model()
	r := newStreamResid(m)
	var obs []Observation
	for d := 0; d < 3; d++ {
		obs = append(obs, Observation{Rewards: dayRewards(3, d), T: []float64{1, -0.5, -0.5}})
	}
	r.bind(obs)
	out := make([]float64, len(obs)*3)
	// Several packed points, including clamped negatives and the β the
	// bit-keyed pow cache must invalidate between calls.
	points := [][]float64{
		{0.5, 0.5, 1, 2, 0.2, 0.8, 1.5, 0.7, 0.9, 0.1, 0, 3},
		{0.5, 0.5, 1, 2, 0.2, 0.8, 1.5, 0.7, 0.9, 0.1, 0, 3},      // repeat: pure cache hit
		{-0.1, 0.5, 1.2, 2, 0.2, 0.8, 1.4, 0.7, 0.9, 0.1, 0.5, 3}, // raw α < 0 clamps
		{1, 1, 0.3, 0.3, 0.5, 0.5, 2.2, 2.2, 0.33, 0.67, 1.1, 0},
	}
	for pi, x := range points {
		r.eval(x, out)
		prm := m.unpack(x)
		for s, o := range obs {
			want, err := m.NetFlows(prm, o.Rewards)
			if err != nil {
				t.Fatalf("NetFlows: %v", err)
			}
			for i := 0; i < 3; i++ {
				got := out[s*3+i] + o.T[i]
				if math.Abs(got-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("point %d obs %d period %d: fast %v, reference %v", pi, s, i, got, want[i])
				}
			}
		}
	}
}

// TestStreamRefineMatchesBatchFit is the streaming-vs-batch contract:
// replay noiseless traces per period through the StreamFitter (warm
// refinement after every day) and require the final streaming estimate
// to match a cold Model.Fit over exactly the windowed observations to
// ≤ 1e-6, across n ∈ {12, 24, 48} × window sizes.
func TestStreamRefineMatchesBatchFit(t *testing.T) {
	for _, n := range []int{12, 24, 48} {
		for _, window := range []int{2, 3} {
			m, truth := streamTruthModel(n)
			sf, err := NewStreamFitter(m, StreamConfig{Window: window, Tol: 1e-12})
			if err != nil {
				t.Fatalf("n=%d w=%d: NewStreamFitter: %v", n, window, err)
			}
			days := window + 2
			var last *RefineResult
			for d := 0; d < days; d++ {
				p := dayRewards(n, d)
				tt, err := m.NetFlows(truth, p)
				if err != nil {
					t.Fatalf("NetFlows: %v", err)
				}
				for i := 0; i < n; i++ {
					usage := m.BaselineTIP[i] - tt[i]
					closed, err := sf.ObservePeriod(i, p[i], usage)
					if err != nil {
						t.Fatalf("n=%d w=%d day %d: ObservePeriod(%d): %v", n, window, d, i, err)
					}
					if closed != (i == n-1) {
						t.Fatalf("day closed at period %d", i)
					}
				}
				if last, err = sf.Refine(); err != nil {
					t.Fatalf("n=%d w=%d day %d: Refine: %v", n, window, d, err)
				}
			}
			if !sf.WindowFull() {
				t.Fatalf("window not full after %d days", days)
			}
			// Batch comparator: cold Model.Fit over the same window.
			obs := sf.Observations()
			batchObs := make([]Observation, len(obs))
			for i, o := range obs {
				batchObs[i] = Observation{
					Rewards: append([]float64(nil), o.Rewards...),
					T:       append([]float64(nil), o.T...),
				}
			}
			batch, err := m.Fit(batchObs)
			if err != nil {
				t.Fatalf("n=%d w=%d: batch Fit: %v", n, window, err)
			}
			if d := MaxAbsDiff(last.Params, batch.Params); d > 1e-6 {
				t.Errorf("n=%d w=%d: streaming vs batch divergence %.3g, want ≤ 1e-6", n, window, d)
			}
			// And both must have recovered the ground truth β's.
			if d := MaxAbsDiff(last.Params, truth); d > 1e-4 {
				t.Errorf("n=%d w=%d: streaming vs truth divergence %.3g, want ≤ 1e-4", n, window, d)
			}
		}
	}
}

func TestStreamWindowEviction(t *testing.T) {
	n := 4
	m, truth := streamTruthModel(n)
	sf, err := NewStreamFitter(m, StreamConfig{Window: 3})
	if err != nil {
		t.Fatalf("NewStreamFitter: %v", err)
	}
	var wantLast [][]float64
	for d := 0; d < 5; d++ {
		p := dayRewards(n, d)
		tt, err := m.NetFlows(truth, p)
		if err != nil {
			t.Fatalf("NetFlows: %v", err)
		}
		if err := sf.AddDay(p, tt); err != nil {
			t.Fatalf("AddDay: %v", err)
		}
		if d >= 2 {
			wantLast = append(wantLast, p)
		}
	}
	if sf.WindowLen() != 3 || sf.Days() != 5 || !sf.WindowFull() {
		t.Fatalf("window len %d days %d, want 3/5", sf.WindowLen(), sf.Days())
	}
	obs := sf.Observations()
	if len(obs) != 3 {
		t.Fatalf("Observations len %d, want 3", len(obs))
	}
	for s, o := range obs {
		for i := range o.Rewards {
			if math.Abs(o.Rewards[i]-wantLast[s][i]) > 0 {
				t.Fatalf("window slot %d holds wrong day (oldest-first eviction broken)", s)
			}
		}
	}
}

func TestStreamObservePeriodDayBoundaries(t *testing.T) {
	n := 4
	m, _ := streamTruthModel(n)
	sf, err := NewStreamFitter(m, StreamConfig{Window: 2})
	if err != nil {
		t.Fatalf("NewStreamFitter: %v", err)
	}
	// Attached mid-day: periods before the next day boundary are skipped.
	if closed, err := sf.ObservePeriod(2, 0.5, 90); err != nil || closed {
		t.Fatalf("mid-day attach: closed=%v err=%v, want skip", closed, err)
	}
	if sf.StalePeriods() != 0 {
		t.Fatalf("skipped period counted as stale")
	}
	// A proper day runs 0..n−1 and closes at the boundary.
	for i := 0; i < n; i++ {
		closed, err := sf.ObservePeriod(i, 0.5, 90)
		if err != nil {
			t.Fatalf("ObservePeriod(%d): %v", i, err)
		}
		if closed != (i == n-1) {
			t.Fatalf("period %d: closed = %v", i, closed)
		}
	}
	if sf.WindowLen() != 1 {
		t.Fatalf("window len %d after one day, want 1", sf.WindowLen())
	}
	// Out-of-order and duplicate periods are rejected mid-day.
	if _, err := sf.ObservePeriod(0, 0.5, 90); err != nil {
		t.Fatalf("day start: %v", err)
	}
	if _, err := sf.ObservePeriod(0, 0.5, 90); !errors.Is(err, ErrBadInput) {
		t.Errorf("duplicate period: err = %v, want ErrBadInput", err)
	}
	if _, err := sf.ObservePeriod(2, 0.5, 90); !errors.Is(err, ErrBadInput) {
		t.Errorf("skipped period: err = %v, want ErrBadInput", err)
	}
	if _, err := sf.ObservePeriod(9, 0.5, 90); !errors.Is(err, ErrBadInput) {
		t.Errorf("period out of range: err = %v, want ErrBadInput", err)
	}
	if _, err := sf.ObservePeriod(1, math.NaN(), 90); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN reward: err = %v, want ErrBadInput", err)
	}
	// AddDay refuses to interleave with a day in progress.
	if err := sf.AddDay(make([]float64, n), make([]float64, n)); !errors.Is(err, ErrBadInput) {
		t.Errorf("AddDay mid-day: err = %v, want ErrBadInput", err)
	}
}

func TestStreamRefineReuseAndStaleness(t *testing.T) {
	n := 6
	m, truth := streamTruthModel(n)
	sf, err := NewStreamFitter(m, StreamConfig{Window: 2})
	if err != nil {
		t.Fatalf("NewStreamFitter: %v", err)
	}
	if _, err := sf.Refine(); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty refine: err = %v, want ErrBadInput", err)
	}
	p := dayRewards(n, 0)
	tt, _ := m.NetFlows(truth, p)
	if err := sf.AddDay(p, tt); err != nil {
		t.Fatalf("AddDay: %v", err)
	}
	if sf.StalePeriods() != n {
		t.Fatalf("stale periods %d, want %d", sf.StalePeriods(), n)
	}
	r1, err := sf.Refine()
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if r1.Reused || r1.Warm {
		t.Errorf("first refine: Reused=%v Warm=%v, want cold fresh", r1.Reused, r1.Warm)
	}
	if sf.StalePeriods() != 0 {
		t.Errorf("stale periods %d after refine, want 0", sf.StalePeriods())
	}
	r2, err := sf.Refine()
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if !r2.Reused {
		t.Errorf("quiesced refine not reused")
	}
	if d := MaxAbsDiff(r1.Params, r2.Params); d > 0 {
		t.Errorf("reused refine drifted by %v", d)
	}
	// The cached params must not alias the caller's copy.
	r2.Params.Beta[0][0] = 99
	r3, _ := sf.Refine()
	if r3.Params.Beta[0][0] == 99 {
		t.Errorf("cached params aliased to caller copy")
	}
}

// TestStreamObserveAllocs pins the per-report ingest path: folding a
// period into the day in progress allocates nothing.
func TestStreamObserveAllocs(t *testing.T) {
	n := 12
	m, _ := streamTruthModel(n)
	sf, err := NewStreamFitter(m, StreamConfig{Window: 4})
	if err != nil {
		t.Fatalf("NewStreamFitter: %v", err)
	}
	period := 0
	allocs := testing.AllocsPerRun(10000, func() {
		if _, err := sf.ObservePeriod(period, 0.5, 90); err != nil {
			t.Fatalf("ObservePeriod: %v", err)
		}
		period = (period + 1) % n
	})
	if allocs > 0 {
		t.Errorf("ObservePeriod allocates %.1f per call, want 0", allocs)
	}
}
