package tube

import (
	"testing"

	"tdp/internal/core"
	"tdp/internal/scfg"
)

// BenchmarkStreamFitDay times one day-boundary refit of the streaming
// profiler in the shape a live leader runs it: the 48-period, 10-class
// static48 scenario, a one-day window, and the default tolerance. Each
// iteration folds a full day (untimed except for its last period, whose
// close banks the day) and refits every class. Days alternate between
// the optimal schedule and one with every reward scaled by 0.9, so each
// refit starts warm from the other day's optimum, as it does when the
// published price moves between days.
func BenchmarkStreamFitDay(b *testing.B) {
	b.Run("static48", func(b *testing.B) {
		cfg, err := scfg.ParseFile("../../examples/scenarios/static48.json")
		if err != nil {
			b.Fatal(err)
		}
		scn, err := cfg.Compile()
		if err != nil {
			b.Fatal(err)
		}
		model, err := core.NewStaticModel(scn)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := model.Solve()
		if err != nil {
			b.Fatal(err)
		}
		scaled := make([]float64, len(opt.Rewards))
		for i, p := range opt.Rewards {
			scaled[i] = 0.9 * p
		}
		days := [2]struct {
			rewards []float64
			usage   [][]float64
		}{{opt.Rewards, model.UsageByType(opt.Rewards)}, {scaled, model.UsageByType(scaled)}}
		sp, err := NewStreamProfiler(scn.Demand, scn.NormReward(), StreamConfig{Window: 1})
		if err != nil {
			b.Fatal(err)
		}
		n := scn.Periods
		fold := func(d, from, to int) {
			for i := from; i < to; i++ {
				if _, err := sp.FoldPeriod(i, days[d].rewards[i], days[d].usage[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
		fold(0, 0, n)
		if _, err := sp.Refine(); err != nil { // the cold first fit
			b.Fatal(err)
		}
		var iters int
		b.ReportAllocs()
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			d := (k + 1) % 2
			b.StopTimer()
			fold(d, 0, n-1)
			b.StartTimer()
			fold(d, n-1, n)
			est, err := sp.Refine()
			if err != nil {
				b.Fatal(err)
			}
			iters += est.Iterations
		}
		b.ReportMetric(float64(iters)/float64(b.N), "lm-iters/op")
	})
}
