package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tdp/internal/optimize"
	"tdp/internal/waiting"
)

// paperDyn48 is the §V-B offline dynamic scenario: Table VII arrivals,
// constant capacity 210 MBps, marginal over-capacity cost $0.10 (slope 1).
func paperDyn48() *Scenario {
	return &Scenario{
		Periods:  48,
		Demand:   waiting.Demand48(),
		Betas:    append([]float64(nil), waiting.PatienceIndices...),
		Capacity: constant(48, 21),
		Cost:     LinearCost(1),
	}
}

func TestNewDynamicModelValidation(t *testing.T) {
	s := paperDyn48()
	s.Periods = 0
	if _, err := NewDynamicModel(s); !errors.Is(err, ErrBadScenario) {
		t.Errorf("bad scenario: err = %v, want ErrBadScenario", err)
	}
	s = paperDyn48()
	s.Cost = CostFunc{Breaks: []float64{-1}, Slopes: []float64{1}}
	if _, err := NewDynamicModel(s); !errors.Is(err, ErrBadScenario) {
		t.Errorf("negative break: err = %v, want ErrBadScenario", err)
	}
}

func TestDynamicZeroRewardBacklogRecursion(t *testing.T) {
	dm, err := NewDynamicModel(paperDyn48())
	if err != nil {
		t.Fatalf("NewDynamicModel: %v", err)
	}
	zero := make([]float64, 48)
	load, backlog := dm.Load(zero)
	// Hand-verify the recursion on the first few periods:
	// X = [23,23,20,20,...], A = 21.
	// z1 = 23−21 = 2 → backlog 2; load2 = 2+23 = 25, z2 = 4; load3 = 4+20 = 24, z3 = 3...
	wantLoad := []float64{23, 25, 24, 23, 18}
	wantBack := []float64{2, 4, 3, 2, 0}
	for i := range wantLoad {
		if math.Abs(load[i]-wantLoad[i]) > 1e-9 {
			t.Errorf("load[%d] = %v, want %v", i, load[i], wantLoad[i])
		}
		if math.Abs(backlog[i]-wantBack[i]) > 1e-9 {
			t.Errorf("backlog[%d] = %v, want %v", i, backlog[i], wantBack[i])
		}
	}
	// TIP cost = Σ f(z_i) = slope·Σ backlog_i (for slope-1 cost all
	// positive z contribute their value).
	var want float64
	for _, b := range backlog {
		want += b
	}
	if got := dm.TIPCost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("TIPCost = %v, want Σbacklog = %v", got, want)
	}
}

func TestDynamicTIPCostExceedsStatic(t *testing.T) {
	// Carry-over makes the same traffic more costly than in the static
	// accounting with the same capacity/cost: backlog compounds.
	dyn, err := NewDynamicModel(paperDyn48())
	if err != nil {
		t.Fatalf("NewDynamicModel: %v", err)
	}
	static, err := NewStaticModel(paperDyn48())
	if err != nil {
		t.Fatalf("NewStaticModel: %v", err)
	}
	if dyn.TIPCost() <= static.TIPCost() {
		t.Errorf("dynamic TIP cost %v not above static %v", dyn.TIPCost(), static.TIPCost())
	}
}

func TestDynamicAnalyticGradient(t *testing.T) {
	s := paperDyn48()
	s.Periods = 12
	s.Demand = waiting.Demand12()
	s.Capacity = constant(12, 18)
	dm, err := NewDynamicModel(s)
	if err != nil {
		t.Fatalf("NewDynamicModel: %v", err)
	}
	for _, mu := range []float64{0.5, 0.05} {
		obj := dm.smoothedObjective(mu)
		rng := rand.New(rand.NewSource(3))
		p := make([]float64, 12)
		for i := range p {
			p[i] = rng.Float64() * 0.9
		}
		ana := make([]float64, 12)
		num := make([]float64, 12)
		obj.Grad(p, ana)
		optimize.NumGrad(obj.Value, p, num)
		for i := range ana {
			if math.Abs(ana[i]-num[i]) > 1e-4*(1+math.Abs(num[i])) {
				t.Errorf("mu=%v grad[%d]: analytic %v, numeric %v", mu, i, ana[i], num[i])
			}
		}
	}
}

func TestDynamicSolvePaper48(t *testing.T) {
	dm, err := NewDynamicModel(paperDyn48())
	if err != nil {
		t.Fatalf("NewDynamicModel: %v", err)
	}
	pr, err := dm.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if pr.Cost >= pr.TIPCost {
		t.Fatalf("TDP cost %v not below TIP %v", pr.Cost, pr.TIPCost)
	}
	// Fig. 7: dynamic rewards are generally larger relative to the
	// marginal cost than the static ones — the static bound is P/2; the
	// dynamic optimum should break it somewhere (the "$0.15 barrier").
	maxR := 0.0
	for _, r := range pr.Rewards {
		maxR = math.Max(maxR, r)
	}
	if maxR <= dm.MaxReward()/2 {
		t.Errorf("max dynamic reward %v does not exceed P/2 = %v (Fig. 7 barrier)",
			maxR, dm.MaxReward()/2)
	}
	for i, r := range pr.Rewards {
		if r < -1e-12 || r > dm.MaxReward()+1e-9 {
			t.Errorf("reward[%d] = %v outside [0, P]", i+1, r)
		}
	}
	// Fig. 8: the TDP offered-load profile has much lower residue than
	// TIP's because backlog no longer compounds.
	tipLoad, _ := dm.Load(make([]float64, 48))
	tdpLoad, _ := dm.Load(pr.Rewards)
	if spread(tdpLoad) >= spread(tipLoad) {
		t.Errorf("TDP load spread %v not below TIP %v", spread(tdpLoad), spread(tipLoad))
	}
	// Backlog at most periods should be reduced.
	_, tipB := dm.Load(make([]float64, 48))
	_, tdpB := dm.Load(pr.Rewards)
	if sum(tdpB) >= sum(tipB) {
		t.Errorf("TDP total backlog %v not below TIP %v", sum(tdpB), sum(tipB))
	}
}

func TestDynamicArrivalConservation(t *testing.T) {
	dm, err := NewDynamicModel(paperDyn48())
	if err != nil {
		t.Fatalf("NewDynamicModel: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		p := make([]float64, 48)
		for i := range p {
			p[i] = rng.Float64() * dm.MaxReward()
		}
		arr := dm.Arrivals(p)
		var sa, sX float64
		for i := range arr {
			sa += arr[i]
			sX += dm.totals[i]
			if arr[i] < -1e-9 {
				t.Fatalf("negative arrivals %v in period %d", arr[i], i+1)
			}
		}
		if math.Abs(sa-sX) > 1e-6 {
			t.Fatalf("Σarr = %v, ΣX = %v", sa, sX)
		}
	}
}

func TestDynamicSolveForPeriodOptimality(t *testing.T) {
	s := paperDyn48()
	s.Periods = 12
	s.Demand = waiting.Demand12()
	s.Capacity = constant(12, 18)
	dm, err := NewDynamicModel(s)
	if err != nil {
		t.Fatalf("NewDynamicModel: %v", err)
	}
	pr, err := dm.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for _, period := range []int{0, 6, 11} {
		ps, err := dm.SolveForPeriodCold(pr.Rewards, period)
		if err != nil {
			t.Fatalf("SolveForPeriodCold: %v", err)
		}
		if ps.Cost < pr.Cost-1e-4 {
			t.Errorf("period %d: 1-D reopt improved %v → %v", period+1, pr.Cost, ps.Cost)
		}
	}
	if _, err := dm.SolveForPeriodCold(pr.Rewards, -1); !errors.Is(err, ErrBadScenario) {
		t.Errorf("negative period: err = %v, want ErrBadScenario", err)
	}
}

func TestDynamicStartBacklog(t *testing.T) {
	dm, err := NewDynamicModel(paperDyn48())
	if err != nil {
		t.Fatalf("NewDynamicModel: %v", err)
	}
	base := dm.TIPCost()
	dm.StartBacklog = 10
	if dm.TIPCost() <= base {
		t.Error("starting backlog must increase cost")
	}
}

func spread(x []float64) float64 {
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	var s float64
	for _, v := range x {
		s += math.Abs(v - mean)
	}
	return s
}

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
