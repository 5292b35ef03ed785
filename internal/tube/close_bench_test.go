package tube

import (
	"fmt"
	"testing"
)

// BenchmarkClosePeriod times Optimizer.ClosePeriod at scale: each
// iteration meters one period in which every one of 100k or 1M distinct
// users reports once (untimed), then closes it — the rollover, the
// billing accrual and the price solve, all under the optimizer's lock.
// The users are already in the table, as they are on a live node.
func BenchmarkClosePeriod(b *testing.B) {
	for _, users := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]UsageReport, users)
			for i := range batch {
				batch[i] = UsageReport{User: fmt.Sprintf("user%07d", i), Class: testClasses()[i%3], VolumeMB: 0.3}
			}
			period := func() {
				for lo := 0; lo < users; lo += 4096 {
					if err := opt.Measurement().RecordBatch(batch[lo:min(lo+4096, users)]); err != nil {
						b.Fatal(err)
					}
				}
			}
			period()
			if _, err := opt.ClosePeriod(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				period()
				b.StartTimer()
				if _, err := opt.ClosePeriod(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
