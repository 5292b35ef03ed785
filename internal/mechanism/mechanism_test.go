package mechanism

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"tdp/internal/core"
)

// testScenario is a small scenario with a pronounced peak (periods 1–2
// over capacity) and deep troughs, so every mechanism has something to
// do.
func testScenario() *core.Scenario {
	return &core.Scenario{
		Periods: 6,
		Demand: [][]float64{
			{14, 10}, {12, 9}, {4, 3}, {2, 2}, {3, 2}, {8, 6},
		},
		Betas:    []float64{1, 3},
		Capacity: []float64{18, 18, 18, 18, 18, 18},
		Cost:     core.LinearCost(3),
	}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"none", "rebate", "reverse", "static-tod", "tdp"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

func TestNewUnknown(t *testing.T) {
	_, err := New("auction", Params{})
	if !errors.Is(err, ErrBadMechanism) {
		t.Fatalf("New(auction) err = %v, want ErrBadMechanism", err)
	}
}

func TestEveryBackendPlansWithinBounds(t *testing.T) {
	scn := testScenario()
	maxR := maxReward(scn)
	for _, name := range Names() {
		p, err := New(name, Params{Windows: SlackWindows(scn, 0.5)})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		rewards, err := p.PlanDay(scn, nil)
		if err != nil {
			t.Fatalf("%s.PlanDay: %v", name, err)
		}
		if len(rewards) != scn.Periods {
			t.Fatalf("%s planned %d rewards, want %d", name, len(rewards), scn.Periods)
		}
		for i, r := range rewards {
			if math.IsNaN(r) || r < 0 || r > maxR*(1+1e-9) {
				t.Fatalf("%s reward[%d] = %v outside [0, %v]", name, i, r, maxR)
			}
		}
		if _, err := Evaluate(name, scn, rewards); err != nil {
			t.Fatalf("Evaluate(%s): %v", name, err)
		}
	}
}

func TestNonePlansZeros(t *testing.T) {
	scn := testScenario()
	rewards, err := None{}.PlanDay(scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rewards {
		if r != 0 {
			t.Fatalf("none reward[%d] = %v, want 0", i, r)
		}
	}
	out, err := Evaluate("none", scn, rewards)
	if err != nil {
		t.Fatal(err)
	}
	if out.ISPCost != out.TIPCost {
		t.Fatalf("none ISP cost %v != TIP cost %v", out.ISPCost, out.TIPCost)
	}
	if out.RewardOutlay != 0 || out.UserWelfare != 0 {
		t.Fatalf("none outlay %v welfare %v, want 0", out.RewardOutlay, out.UserWelfare)
	}
}

func TestTDPBeatsEveryOtherMechanism(t *testing.T) {
	// The paper's optimizer minimizes exactly the ISP cost Evaluate
	// reports, so no other backend may beat it on its own objective.
	scn := testScenario()
	tdp, err := PlanAndEvaluate(NewTDP(Params{}), scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tdp.ISPCost >= tdp.TIPCost {
		t.Fatalf("tdp cost %v did not improve on TIP %v", tdp.ISPCost, tdp.TIPCost)
	}
	for _, name := range []string{"none", "static-tod", "rebate", "reverse"} {
		p, err := New(name, Params{Windows: SlackWindows(scn, 0.5)})
		if err != nil {
			t.Fatal(err)
		}
		out, err := PlanAndEvaluate(p, scn, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.ISPCost < tdp.ISPCost-1e-6 {
			t.Fatalf("%s ISP cost %v beats the optimizer's %v", name, out.ISPCost, tdp.ISPCost)
		}
	}
}

func TestTDPWarmStartsSecondDay(t *testing.T) {
	scn := testScenario()
	p := NewTDP(Params{})
	first, err := p.PlanDay(scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.PlanDay(scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if math.Abs(first[i]-second[i]) > 1e-6 {
			t.Fatalf("warm replan moved reward[%d]: %v -> %v", i, first[i], second[i])
		}
	}
	if p.LastPricing() == nil {
		t.Fatal("LastPricing nil after PlanDay")
	}
}

func TestStaticTODSurface(t *testing.T) {
	scn := testScenario()
	p, err := NewStaticTOD(Params{
		Windows: []Window{
			{Name: "night", Periods: []int{3, 4}, Multiplier: 1},
			{Name: "shoulder", Periods: []int{4, 5}, Multiplier: 0.25}, // 4 overlaps: first wins
		},
		DefaultMultiplier: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rewards, err := p.PlanDay(scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxR := maxReward(scn)
	want := []float64{0.1 * maxR, 0.1 * maxR, maxR, maxR, 0.25 * maxR, 0.1 * maxR}
	if !reflect.DeepEqual(rewards, want) {
		t.Fatalf("surface = %v, want %v", rewards, want)
	}
}

func TestStaticTODRejectsBadWindows(t *testing.T) {
	cases := []Params{
		{Windows: []Window{{Periods: []int{1}, Multiplier: 1.5}}},
		{Windows: []Window{{Periods: []int{0}, Multiplier: 0.5}}},
		{Windows: []Window{{Periods: nil, Multiplier: 0.5}}},
		{DefaultMultiplier: -0.1},
	}
	for i, p := range cases {
		if _, err := NewStaticTOD(p); !errors.Is(err, ErrBadMechanism) {
			t.Fatalf("case %d: err = %v, want ErrBadMechanism", i, err)
		}
	}
	// Out-of-range period is caught at plan time, once n is known.
	p, err := NewStaticTOD(Params{Windows: []Window{{Periods: []int{7}, Multiplier: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.PlanDay(testScenario(), nil); !errors.Is(err, ErrBadMechanism) {
		t.Fatalf("plan with period 7 of 6: err = %v, want ErrBadMechanism", err)
	}
}

func TestRebateSpendsItsBudget(t *testing.T) {
	scn := testScenario()
	const budget = 2.0
	p, err := NewRebate(Params{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	out, err := PlanAndEvaluate(p, scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.RewardOutlay-budget) > 1e-6*budget {
		t.Fatalf("outlay %v, want the fixed budget %v", out.RewardOutlay, budget)
	}
	// Congested periods must not be rewarded: the slack shape zeroes them.
	totals := scn.TotalDemand()
	for i, r := range out.Rewards {
		if totals[i] > scn.Capacity[i] && r != 0 {
			t.Fatalf("congested period %d rewarded %v", i+1, r)
		}
	}
}

func TestRebateBudgetCeiling(t *testing.T) {
	// A budget beyond the capped surface's outlay is returned unspent:
	// the schedule pins at the cap instead of chasing the budget.
	scn := testScenario()
	p, err := NewRebate(Params{Budget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	out, err := PlanAndEvaluate(p, scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxR := maxReward(scn)
	var atCap int
	for _, r := range out.Rewards {
		if math.Abs(r-maxR) < 1e-9 {
			atCap++
		}
	}
	if atCap == 0 {
		t.Fatalf("no reward at the cap under an unspendable budget: %v", out.Rewards)
	}
	if out.RewardOutlay >= 1e9 {
		t.Fatalf("outlay %v chased the unspendable budget", out.RewardOutlay)
	}
}

func TestRebateDefaultBudgetFraction(t *testing.T) {
	scn := testScenario()
	p, err := NewRebate(Params{}) // budget 0 → half the TIP cost
	if err != nil {
		t.Fatal(err)
	}
	out, err := PlanAndEvaluate(p, scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewStaticModel(scn)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * model.TIPCost()
	if math.Abs(out.RewardOutlay-want) > 1e-6*want {
		t.Fatalf("outlay %v, want %v (half the TIP cost)", out.RewardOutlay, want)
	}
}

func TestReverseRewardsOnlyTroughs(t *testing.T) {
	scn := testScenario()
	p, err := NewReverse(Params{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := PlanAndEvaluate(p, scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The deepest trough (period 4: demand 4 of 18) must out-earn the
	// heaviest peak (period 1: demand 24 of 18) at equilibrium — note
	// the peak may still earn *something*: deferral away from it opens
	// slack there too.
	if out.Rewards[3] <= out.Rewards[0] {
		t.Fatalf("deepest trough reward %v not above peak reward %v: %v",
			out.Rewards[3], out.Rewards[0], out.Rewards)
	}
	// Equilibrium usage must be less congested than TIP.
	if out.Overflow <= 0 {
		t.Skip("scenario produced no TIP overflow") // guard: testScenario overflows by construction
	}
	none, err := Evaluate("none", scn, make([]float64, scn.Periods))
	if err != nil {
		t.Fatal(err)
	}
	if out.Overflow >= none.Overflow {
		t.Fatalf("reverse overflow %v did not improve on TIP %v", out.Overflow, none.Overflow)
	}
}

func TestReverseFixedPointSelfConsistent(t *testing.T) {
	// At the converged plan, the posted reward must equal the reward the
	// resulting usage profile would post: p = clamp(γ·P·slack/A).
	scn := testScenario()
	r, err := NewReverse(Params{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.PlanDay(scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	model, err := core.NewStaticModel(scn)
	if err != nil {
		t.Fatal(err)
	}
	x := model.UsageAt(p)
	maxR := maxReward(scn)
	for i := range p {
		target := 0.0
		if slack := scn.Capacity[i] - x[i]; slack > 0 {
			target = math.Min(scn.NormReward()*slack/scn.Capacity[i], maxR)
		}
		if math.Abs(p[i]-target) > 1e-6 {
			t.Fatalf("period %d: posted %v, self-consistent target %v", i+1, p[i], target)
		}
	}
}

func TestEvaluateAccountingIdentities(t *testing.T) {
	scn := testScenario()
	p, err := New("tdp", Params{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := PlanAndEvaluate(p, scn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.RewardOutlay + out.CongestionCost; math.Abs(got-out.ISPCost) > 1e-9*(1+out.ISPCost) {
		t.Fatalf("outlay %v + congestion %v != ISP cost %v", out.RewardOutlay, out.CongestionCost, out.ISPCost)
	}
	if out.UserWelfare != out.RewardOutlay/2 {
		t.Fatalf("welfare %v != outlay/2 %v", out.UserWelfare, out.RewardOutlay/2)
	}
	if out.Savings() <= 0 {
		t.Fatalf("tdp savings %v, want > 0", out.Savings())
	}
}

func TestEvaluateRejectsBadSurfaces(t *testing.T) {
	scn := testScenario()
	bad := [][]float64{
		{0, 0, 0},                             // wrong length
		{0, 0, 0, 0, 0, -1},                   // negative
		{0, 0, 0, 0, 0, math.NaN()},           // NaN
		{0, 0, 0, 0, 0, scn.NormReward() * 2}, // beyond the model's validity
	}
	for i, p := range bad {
		if _, err := Evaluate("x", scn, p); !errors.Is(err, ErrBadMechanism) {
			t.Fatalf("case %d: err = %v, want ErrBadMechanism", i, err)
		}
	}
}

func TestSlackWindows(t *testing.T) {
	scn := testScenario()
	ws := SlackWindows(scn, 0.5)
	if len(ws) != 1 {
		t.Fatalf("got %d windows, want 1", len(ws))
	}
	// Periods 1 (24) and 2 (21) exceed capacity 18; 3–6 have slack.
	if want := []int{3, 4, 5, 6}; !reflect.DeepEqual(ws[0].Periods, want) {
		t.Fatalf("off-peak periods %v, want %v", ws[0].Periods, want)
	}
	if ws[0].Multiplier != 0.5 {
		t.Fatalf("multiplier %v, want 0.5", ws[0].Multiplier)
	}

	// All-slack scenario falls back to below-median periods.
	flat := testScenario()
	for i := range flat.Capacity {
		flat.Capacity[i] = 100
	}
	ws = SlackWindows(flat, 0.25)
	if len(ws) != 1 || len(ws[0].Periods) == 0 || len(ws[0].Periods) == flat.Periods {
		t.Fatalf("all-slack fallback windows = %+v", ws)
	}
}

func TestObservationShiftsRebateAndReverse(t *testing.T) {
	// Feeding an observed profile that flips which periods have slack
	// must move where the rewards land.
	scn := testScenario()
	obs := &Observation{Usage: []float64{2, 2, 25, 25, 25, 2}} // troughs now at 1, 2, 6
	for _, name := range []string{"rebate", "reverse"} {
		p, err := New(name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.PlanDay(scn, nil)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := New(name, Params{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := p2.PlanDay(scn, obs)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(cold, warm) {
			t.Fatalf("%s ignored the observed profile: %v", name, cold)
		}
		if warm[0] == 0 {
			t.Fatalf("%s did not reward observed trough period 1: %v", name, warm)
		}
	}
}
