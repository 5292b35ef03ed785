package core

import (
	"math/rand"
	"testing"
)

// benchRewards is a deterministic mid-box schedule exercising both active
// and clipped price regions.
func benchRewards(n int, maxR float64) []float64 {
	rng := rand.New(rand.NewSource(42))
	p := make([]float64, n)
	for i := range p {
		p[i] = rng.Float64() * maxR
	}
	return p
}

// The eval-layer benchmarks pin the tentpole claims directly: the pooled
// kernel paths run at 0 allocs/op steady state, and the Ref twins measure
// the pre-flattening implementations they replaced.

func BenchmarkStaticCostAt(b *testing.B) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		b.Fatal(err)
	}
	p := benchRewards(48, sm.MaxReward())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = sm.CostAt(p)
	}
}

func BenchmarkStaticCostAtRef(b *testing.B) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		b.Fatal(err)
	}
	p := benchRewards(48, sm.MaxReward())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = sm.ReferenceCostAt(p)
	}
}

// BenchmarkStaticSolve times the certified day solve on the paper's
// scenarios and reports its iterations and relative gap; it fails if the
// gap is not certified to 1e-9.
func BenchmarkStaticSolve(b *testing.B) {
	for _, tc := range []struct {
		name string
		scn  func() *Scenario
	}{{"static12", paper12}, {"static48", paper48}} {
		b.Run(tc.name, func(b *testing.B) {
			sm, err := NewStaticModel(tc.scn())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var pr *Pricing
			for i := 0; i < b.N; i++ {
				if pr, err = sm.Solve(); err != nil {
					b.Fatal(err)
				}
			}
			if pr.RelGap() > 1e-9 {
				b.Fatalf("relative gap %g, want ≤ 1e-9", pr.RelGap())
			}
			b.ReportMetric(float64(pr.Iterations), "iters")
			b.ReportMetric(pr.RelGap()*1e9, "relgap_ppb")
		})
	}
}

func BenchmarkDynamicCostAt(b *testing.B) {
	dm, err := NewDynamicModel(paper48())
	if err != nil {
		b.Fatal(err)
	}
	p := benchRewards(48, dm.MaxReward())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = dm.CostAt(p)
	}
}

func BenchmarkDynamicCostAtRef(b *testing.B) {
	dm, err := NewDynamicModel(paper48())
	if err != nil {
		b.Fatal(err)
	}
	p := benchRewards(48, dm.MaxReward())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = dm.ReferenceCostAt(p)
	}
}

// The per-period solve benchmarks measure the online algorithm's inner
// step (§III-B): the O(n) incremental coordinate path, warm vs cold
// bracketing, and the original full-O(n²)-per-eval Brent search.

func BenchmarkSolveForPeriodWarm(b *testing.B) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		b.Fatal(err)
	}
	p := benchRewards(48, sm.MaxReward())
	cold, err := sm.SolveForPeriodCold(p, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ps, err := sm.SolveForPeriodWarm(p, 7, cold.Reward)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ps.Cost
	}
}

func BenchmarkSolveForPeriodCold(b *testing.B) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		b.Fatal(err)
	}
	p := benchRewards(48, sm.MaxReward())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ps, err := sm.SolveForPeriodCold(p, 7)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ps.Cost
	}
}

func BenchmarkSolveForPeriodRef(b *testing.B) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		b.Fatal(err)
	}
	p := benchRewards(48, sm.MaxReward())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, fbest, err := sm.ReferenceSolveForPeriod(p, 7)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = fbest
	}
}

// BenchmarkSetDemandRow measures the O(n·m) incremental kernel update the
// online optimizer uses instead of rebuilding the model each period.
func BenchmarkSetDemandRow(b *testing.B) {
	sm, err := NewStaticModel(paper48())
	if err != nil {
		b.Fatal(err)
	}
	row := append([]float64(nil), sm.scn.Demand[5]...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row[0] = 1 + float64(i%3)
		if err := sm.SetDemandRow(5, row); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink float64
