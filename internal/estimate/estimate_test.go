package estimate

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// table3Model reproduces the §IV example: 3 periods, 2 session types,
// rewards swept in [0, 1], unit baseline demand scale.
func table3Model() *Model {
	return &Model{
		Periods:     3,
		Types:       2,
		BaselineTIP: []float64{22, 13, 8},
		MaxReward:   1,
	}
}

// table3Actual is Table III's "actual values" column.
func table3Actual() Params {
	prm := NewParams(3, 2)
	alpha1 := []float64{0.17, 0.5, 0.83}
	beta2 := []float64{2, 2.33, 2.67}
	for i := 0; i < 3; i++ {
		prm.Alpha[i][0] = alpha1[i]
		prm.Alpha[i][1] = 1 - alpha1[i]
		prm.Beta[i][0] = 1
		prm.Beta[i][1] = beta2[i]
	}
	return prm
}

// rewardGrid sweeps reward vectors in [0,1]³ as the paper's data
// generation does.
func rewardGrid() [][]float64 {
	var out [][]float64
	levels := []float64{0, 0.25, 0.5, 0.75, 1}
	for _, a := range levels {
		for _, b := range levels {
			for _, c := range levels {
				if a == 0 && b == 0 && c == 0 {
					continue
				}
				out = append(out, []float64{a, b, c})
			}
		}
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	good := table3Actual()
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := table3Actual()
	bad.Alpha[0][0] = 0.9 // row no longer sums to 1
	if err := bad.Validate(); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad alpha sum: err = %v, want ErrBadInput", err)
	}
	bad2 := table3Actual()
	bad2.Beta[1][1] = -3
	if err := bad2.Validate(); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative beta: err = %v, want ErrBadInput", err)
	}
	var empty Params
	if err := empty.Validate(); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty: err = %v, want ErrBadInput", err)
	}
}

func TestModelValidate(t *testing.T) {
	m := table3Model()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	m.BaselineTIP = m.BaselineTIP[:2]
	if err := m.Validate(); !errors.Is(err, ErrBadInput) {
		t.Errorf("short baseline: err = %v, want ErrBadInput", err)
	}
}

func TestNetFlowsConservation(t *testing.T) {
	// ΣT_i = 0: sessions never disappear (the redundancy the paper's
	// elimination step exploits).
	m := table3Model()
	prm := table3Actual()
	for _, p := range rewardGrid() {
		tt, err := m.NetFlows(prm, p)
		if err != nil {
			t.Fatalf("NetFlows: %v", err)
		}
		var s float64
		for _, v := range tt {
			s += v
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("ΣT = %v for rewards %v, want 0", s, p)
		}
	}
}

func TestDeferralMatrixShape(t *testing.T) {
	m := table3Model()
	prm := table3Actual()
	q, err := m.DeferralMatrix(prm, []float64{0.5, 0.5, 0.5})
	if err != nil {
		t.Fatalf("DeferralMatrix: %v", err)
	}
	for i := 0; i < 3; i++ {
		if q[i][i] != 0 {
			t.Errorf("Q[%d][%d] = %v, want 0", i, i, q[i][i])
		}
		for k := 0; k < 3; k++ {
			if q[i][k] < 0 {
				t.Errorf("negative deferral Q[%d][%d]", i, k)
			}
		}
	}
	// Zero rewards → zero deferrals.
	qz, err := m.DeferralMatrix(prm, []float64{0, 0, 0})
	if err != nil {
		t.Fatalf("DeferralMatrix: %v", err)
	}
	for i := range qz {
		for k := range qz[i] {
			if qz[i][k] != 0 {
				t.Errorf("deferral with zero rewards at (%d,%d)", i, k)
			}
		}
	}
	if _, err := m.DeferralMatrix(prm, []float64{1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short rewards: err = %v, want ErrBadInput", err)
	}
}

// TestFitTable3 reproduces the §IV estimation experiment: generate
// aggregate data from the actual parameters, fit, and require the
// estimated waiting curves to stay close (the paper reports ≤ 11.8% max
// percent error; we allow headroom since the mixture parameters are only
// weakly identifiable — the paper's own estimated α̂₁ = 0.46 vs actual
// 0.17 shows this).
func TestFitTable3(t *testing.T) {
	m := table3Model()
	actual := table3Actual()
	var obs []Observation
	for _, p := range rewardGrid() {
		tt, err := m.NetFlows(actual, p)
		if err != nil {
			t.Fatalf("NetFlows: %v", err)
		}
		obs = append(obs, Observation{Rewards: p, T: tt})
	}
	fit, err := m.Fit(obs)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if err := fit.Params.Validate(); err != nil {
		t.Errorf("fitted params invalid: %v", err)
	}
	probe := []float64{0.25, 0.5, 0.75, 1}
	for period := 0; period < 3; period++ {
		pe, err := m.MaxPercentError(actual, fit.Params, period, probe)
		if err != nil {
			t.Fatalf("MaxPercentError: %v", err)
		}
		if pe > 20 {
			t.Errorf("period %d: max percent error %.1f%%, want ≤ 20%% (paper: ≤ 11.8%%)",
				period+1, pe)
		}
	}
}

// TestFitTable3WithNoise repeats the estimation with measurement noise on
// the observed net flows — the regime the paper's §IV iteration is meant
// for ("due to noise in the data…"). The fitted curves must stay close.
func TestFitTable3WithNoise(t *testing.T) {
	m := table3Model()
	actual := table3Actual()
	rng := rand.New(rand.NewSource(2024))
	var obs []Observation
	for _, p := range rewardGrid() {
		tt, err := m.NetFlows(actual, p)
		if err != nil {
			t.Fatalf("NetFlows: %v", err)
		}
		noisy := make([]float64, len(tt))
		for i := range tt {
			noisy[i] = tt[i] + 0.05*rng.NormFloat64() // ≈2% of typical flows
		}
		obs = append(obs, Observation{Rewards: p, T: noisy})
	}
	fit, err := m.Fit(obs)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for period := 0; period < 3; period++ {
		pe, err := m.MaxPercentError(actual, fit.Params, period, []float64{0.5, 1})
		if err != nil {
			t.Fatalf("MaxPercentError: %v", err)
		}
		if pe > 25 {
			t.Errorf("period %d: noisy-fit curve error %.1f%%, want ≤ 25%%", period+1, pe)
		}
	}
}

// TestFitSeparatesTypes pins the multi-type cold start: on seeded
// 12-period, 10-type problems of the profiler's shape (six training
// schedules, 120 LM iterations, β_j uniform on [0.5, 5]) the fit must
// predict a held-out schedule's net flows to ≤ 0.1%. From a start where
// the types share β the exact Jacobian cannot tell them apart and the
// same problems read 0.17–0.98%.
func TestFitSeparatesTypes(t *testing.T) {
	train := [][]float64{
		{0, 0.5, 1, 0, 0.5, 1, 0, 0.5, 1, 0, 0.5, 1},
		{1.5, 0, 0, 1.5, 0, 0, 1.5, 0, 0, 1.5, 0, 0},
		{0.2, 0.4, 0.6, 0.8, 1, 1.2, 0.2, 0.4, 0.6, 0.8, 1, 1.2},
		{1.2, 1, 0.8, 0.6, 0.4, 0.2, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 1.2, 1, 0.8, 0.6, 0.4, 0.2},
		{0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7},
	}
	holdout := []float64{1.1, 0.2, 0.9, 0.4, 0.7, 0.1, 1.3, 0.3, 0.8, 0.5, 0.6, 1}
	const n, types = 12, 10
	rng := rand.New(rand.NewSource(7))
	for prob := 0; prob < 3; prob++ {
		base := make([]float64, n)
		for i := range base {
			base[i] = 10 + 40*rng.Float64()
		}
		m := &Model{Periods: n, Types: types, BaselineTIP: base, MaxReward: 1.5, MaxIter: 120}
		truth := NewParams(n, types)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < types; j++ {
				truth.Alpha[i][j] = rng.Float64()
				s += truth.Alpha[i][j]
				truth.Beta[i][j] = 0.5 + 4.5*rng.Float64()
			}
			for j := 0; j < types; j++ {
				truth.Alpha[i][j] /= s
			}
		}
		var obs []Observation
		for _, p := range train {
			tt, err := m.NetFlows(truth, p)
			if err != nil {
				t.Fatalf("NetFlows: %v", err)
			}
			obs = append(obs, Observation{Rewards: p, T: tt})
		}
		fit, err := m.Fit(obs)
		if err != nil {
			t.Fatalf("Fit: %v", err)
		}
		want, _ := m.NetFlows(truth, holdout)
		got, _ := m.NetFlows(fit.Params, holdout)
		var num, den float64
		for i := range want {
			num += (got[i] - want[i]) * (got[i] - want[i])
			den += want[i] * want[i]
		}
		if e := math.Sqrt(num / den); e > 1e-3 {
			t.Errorf("problem %d: held-out net-flow error %.3f%%, want ≤ 0.1%%", prob, 100*e)
		}
	}
}

func TestFitInputValidation(t *testing.T) {
	m := table3Model()
	if _, err := m.Fit(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("no obs: err = %v, want ErrBadInput", err)
	}
	bad := []Observation{{Rewards: []float64{1}, T: []float64{0, 0, 0}}}
	if _, err := m.Fit(bad); !errors.Is(err, ErrBadInput) {
		t.Errorf("malformed obs: err = %v, want ErrBadInput", err)
	}
}

func TestEstimateBaselineRecoversTIP(t *testing.T) {
	// Generate TDP usage from known X and params; the linear solve must
	// recover X (the eq. 9 iteration).
	m := table3Model()
	prm := table3Actual()
	xTrue := m.BaselineTIP
	var obs []Observation
	for _, p := range [][]float64{{0.3, 0.6, 0.1}, {0.9, 0.2, 0.5}, {0.1, 0.8, 0.7}} {
		omega, err := m.unitDeferrals(prm, p)
		if err != nil {
			t.Fatalf("unitDeferrals: %v", err)
		}
		usage := make([]float64, 3)
		for i := 0; i < 3; i++ {
			usage[i] = xTrue[i]
			for k := 0; k < 3; k++ {
				usage[i] -= xTrue[i] * omega[i][k]
				usage[i] += xTrue[k] * omega[k][i]
			}
		}
		obs = append(obs, Observation{Rewards: p, T: usage})
	}
	got, err := m.EstimateBaseline(prm, obs)
	if err != nil {
		t.Fatalf("EstimateBaseline: %v", err)
	}
	for i := range xTrue {
		if math.Abs(got[i]-xTrue[i]) > 1e-6*(1+xTrue[i]) {
			t.Errorf("X[%d] = %v, want %v", i, got[i], xTrue[i])
		}
	}
}

func TestEstimateBaselineValidation(t *testing.T) {
	m := table3Model()
	prm := table3Actual()
	if _, err := m.EstimateBaseline(prm, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("no obs: err = %v, want ErrBadInput", err)
	}
}

func TestWaitingCurveBounds(t *testing.T) {
	m := table3Model()
	prm := table3Actual()
	if _, err := m.WaitingCurve(prm, 5, 0.5); !errors.Is(err, ErrBadInput) {
		t.Errorf("bad period: err = %v, want ErrBadInput", err)
	}
	c, err := m.WaitingCurve(prm, 0, 1)
	if err != nil {
		t.Fatalf("WaitingCurve: %v", err)
	}
	if len(c) != 2 {
		t.Fatalf("curve has %d points, want 2", len(c))
	}
	// At the maximum reward, the aggregate curve sums to 1 (normalization
	// carried through the mixture).
	if s := c[0] + c[1]; math.Abs(s-1) > 1e-9 {
		t.Errorf("Σ curve at P = %v, want 1", s)
	}
	// Decreasing in deferral time.
	if c[0] <= c[1] {
		t.Errorf("curve not decreasing: %v", c)
	}
}
