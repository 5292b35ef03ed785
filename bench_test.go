// Package tdp's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (DESIGN.md §4) plus the solver/scaling
// ablations of DESIGN.md §5. Run with
//
//	go test -bench=. -benchmem .
package tdp

import (
	"fmt"
	"testing"

	"tdp/internal/core"
	"tdp/internal/emul"
	"tdp/internal/experiments"
	"tdp/internal/waiting"
)

// BenchmarkFig3WaitingFunctions regenerates Fig. 3's patient-vs-impatient
// waiting-function curves.
func BenchmarkFig3WaitingFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Estimation regenerates Table III / Fig. 2: the §IV
// waiting-function estimation control experiment.
func BenchmarkTable3Estimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4StaticRewards regenerates Fig. 4 (and the §V-A cost
// figures): the full 48-period static optimization.
func BenchmarkFig4StaticRewards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5TrafficProfile isolates the profile metrics of Fig. 5 on a
// pre-solved schedule (the solve itself is Fig. 4's benchmark).
func BenchmarkFig5TrafficProfile(b *testing.B) {
	m, err := core.NewStaticModel(experiments.Static48())
	if err != nil {
		b.Fatal(err)
	}
	pr, err := m.Solve()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.UsageAt(pr.Rewards)
	}
}

// BenchmarkTable6DemandPerturbation regenerates Table VI: nine 12-period
// solves plus price/cost deltas.
func BenchmarkTable6DemandPerturbation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6CostSweep regenerates Fig. 6: the capacity-exceedance cost
// sweep (seven 48-period solves).
func BenchmarkFig6CostSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7DynamicRewards regenerates Fig. 7: the offline dynamic
// 48-period optimization (includes the static comparison solve).
func BenchmarkFig7DynamicRewards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8DynamicProfile isolates the Fig. 8 offered-load recursion.
func BenchmarkFig8DynamicProfile(b *testing.B) {
	dm, err := core.NewDynamicModel(experiments.Dynamic48())
	if err != nil {
		b.Fatal(err)
	}
	pr, err := dm.Solve()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = dm.Load(pr.Rewards)
	}
}

// BenchmarkTableXOnlineAdjustment regenerates Table X: a full online day
// with a period-1 arrival drop (48 single-period re-optimizations).
func BenchmarkTableXOnlineAdjustment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableX(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable12PerturbedRewards regenerates Table XII.
func BenchmarkTable12PerturbedRewards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table12(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable14WaitingPerturbation regenerates Tables XIII–XVI (the
// same run covers Table XVI's all-period case).
func BenchmarkTable14WaitingPerturbation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WaitPerturb(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable16AllPeriodPerturbation isolates the all-period
// mis-estimation solve of Table XVI.
func BenchmarkTable16AllPeriodPerturbation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := core.NewStaticModel(experiments.Static12WaitPerturbAll())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTubeOptimizerTiming is §VI-B's price-determination measurement:
// one online step on the 12-period, 10-type scenario (paper budget: 5 s).
func BenchmarkTubeOptimizerTiming(b *testing.B) {
	online, err := core.NewOnlineOptimizer(experiments.Static12(), core.OnlineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := online.Advance(waiting.Dist12[i%12][:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTubeEstimationTiming is §VI-B's waiting-function estimation
// measurement: 3 periods, 2 types (paper budget: 25 s).
func BenchmarkTubeEstimationTiming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12TubeTestbed regenerates the §VI-C testbed emulation
// (Figs. 11/12): TIP and TDP runs on the 10 MBps bottleneck.
func BenchmarkFig12TubeTestbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := emul.DefaultConfig()
		cfg.Seed = int64(i + 1)
		if _, _, err := emul.RunComparison(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProp5MonteCarlo runs the session-level validation of the fluid
// dynamic model (Prop. 5).
func BenchmarkProp5MonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Prop5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDropTailSweep runs the packet-level bottleneck load sweep.
func BenchmarkDropTailSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DropTail(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFiveDollarPlan runs the §VII congestion-dependent autopilot day.
func BenchmarkFiveDollarPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FiveDollarPlan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlLoop runs the four-day Fig. 1 loop with fluid users.
func BenchmarkControlLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Loop(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeekLongTrial runs the multi-day loop over the emulated testbed.
func BenchmarkWeekLongTrial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WeekLong(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwoPeriodAblation runs the §I day/night-vs-n-period comparison.
func BenchmarkTwoPeriodAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TwoPeriod(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel execution layer ---

// BenchmarkMultistartJobs measures the parallel multistart driver on the
// Appendix D definite-choice solve (8 restarts of coordinate descent) at
// several worker counts. Results are bit-identical across sub-benchmarks
// (per-start seeds; see optimize.MultistartJobs) — only wall-clock
// should change, scaling with worker count up to the restart count and
// the machine's cores.
func BenchmarkMultistartJobs(b *testing.B) {
	var serialCost float64
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				m, err := core.NewDefiniteChoiceModel(experiments.Static12())
				if err != nil {
					b.Fatal(err)
				}
				m.Jobs = jobs
				pr, err := m.Solve()
				if err != nil {
					b.Fatal(err)
				}
				cost = pr.Cost
			}
			if jobs == 1 {
				serialCost = cost
			} else if cost != serialCost {
				b.Fatalf("jobs=%d cost %v differs from serial %v", jobs, cost, serialCost)
			}
			b.ReportMetric(cost, "cost")
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationSolvers times the certified dual solve on the
// problems that have the exact affine form — static12, static48 and the
// Appendix G fixed-duration model — and reports each one's iterations
// and certified relative gap, failing above 1e-9.
func BenchmarkAblationSolvers(b *testing.B) {
	fixed := func() (*core.Pricing, error) {
		m, err := core.NewFixedDurationModel(experiments.Static12(), 1, 1)
		if err != nil {
			return nil, err
		}
		return m.Solve()
	}
	static := func(scn func() *core.Scenario) func() (*core.Pricing, error) {
		return func() (*core.Pricing, error) {
			m, err := core.NewStaticModel(scn())
			if err != nil {
				return nil, err
			}
			return m.Solve()
		}
	}
	for _, tc := range []struct {
		name  string
		solve func() (*core.Pricing, error)
	}{
		{"static12", static(experiments.Static12)},
		{"static48", static(experiments.Static48)},
		{"fixedduration12", fixed},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var pr *core.Pricing
			for i := 0; i < b.N; i++ {
				var err error
				if pr, err = tc.solve(); err != nil {
					b.Fatal(err)
				}
			}
			if pr.RelGap() > 1e-9 {
				b.Fatalf("relative gap %g, want ≤ 1e-9", pr.RelGap())
			}
			b.ReportMetric(float64(pr.Iterations), "iters")
			b.ReportMetric(pr.RelGap()*1e9, "relgap_ppb")
			b.ReportMetric(pr.Cost, "cost")
		})
	}
}

// BenchmarkAblationPeriods scales the static solve over the number of
// periods n ∈ {12, 24, 48, 96}.
func BenchmarkAblationPeriods(b *testing.B) {
	for _, n := range []int{12, 24, 48, 96} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			scn := scaledScenario(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := core.NewStaticModel(scn)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scaledScenario resamples the 48-period day to n periods.
func scaledScenario(n int) *core.Scenario {
	base := experiments.Static48()
	demand := make([][]float64, n)
	for i := 0; i < n; i++ {
		src := i * 48 / n
		demand[i] = append([]float64(nil), base.Demand[src]...)
	}
	capacity := make([]float64, n)
	for i := range capacity {
		capacity[i] = 18
	}
	// Clone-then-override instead of a field-list copy, so scalar options
	// added to Scenario later (the NoWrap/MaxRewardNorm bug class) carry
	// over to the resampled day automatically.
	scn := base.Clone()
	scn.Periods = n
	scn.Demand = demand
	scn.Capacity = capacity
	return scn
}
