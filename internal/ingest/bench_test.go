package ingest

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func benchUsers(n int) []string {
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("user%06d", i)
	}
	return users
}

// BenchmarkIngestParallel measures concurrent Record throughput as the
// shard count grows: shards=1 is the original single-global-mutex
// design, the larger counts are the lock-striped engine. Run with
// several GOMAXPROCS values to see the scaling (on a 1-core box all
// variants serialize and the numbers converge):
//
//	GOMAXPROCS=8 go test -bench IngestParallel -cpu 1,4,8 ./internal/ingest
func BenchmarkIngestParallel(b *testing.B) {
	users := benchUsers(4096)
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng, err := NewEngine(classes3(), shards)
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				// Distinct stride per goroutine spreads users across
				// shards the way independent gateways would.
				j := int(next.Add(1)) * 7919
				for pb.Next() {
					u := users[j&(len(users)-1)]
					j++
					if err := eng.Record(u, "web", 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkUsageBatch measures per-report cost of batched ingestion at
// increasing batch sizes: one lock acquisition per touched shard per
// batch, versus one per report in the batch=1 row.
func BenchmarkUsageBatch(b *testing.B) {
	users := benchUsers(4096)
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			eng, err := NewEngine(classes3(), 64)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]Report, size)
			for i := range batch {
				batch[i] = Report{
					User:     users[(i*131)&(len(users)-1)],
					Class:    classes3()[i%3],
					VolumeMB: 1,
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.RecordBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*size)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// BenchmarkIngestRollover measures one full accounting period: a burst
// of batched reports followed by the atomic rollover with merged totals.
func BenchmarkIngestRollover(b *testing.B) {
	users := benchUsers(1024)
	eng, err := NewEngine(classes3(), 64)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]Report, 1024)
	for i := range batch {
		batch[i] = Report{User: users[i], Class: classes3()[i%3], VolumeMB: 2.5}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := eng.RecordBatch(batch); err != nil {
			b.Fatal(err)
		}
		ct, _ := eng.Rollover()
		if ct[0] == 0 {
			b.Fatal("empty rollover")
		}
	}
}

// BenchmarkIngestSubscribe measures the uncontended Record and
// RecordBatch paths on a 64-shard engine. The function and its
// "record/subs=0" and "batch64/subs=0" subtest names date from the
// removed delta subscription; they are kept so the checked-in CI
// baseline (BENCH_10.json) still gates these two paths.
func BenchmarkIngestSubscribe(b *testing.B) {
	users := benchUsers(4096)
	batch := make([]Report, 64)
	for i := range batch {
		batch[i] = Report{
			User:     users[(i*131)&(len(users)-1)],
			Class:    classes3()[i%3],
			VolumeMB: 1,
		}
	}
	mkEngine := func(b *testing.B) *Engine {
		eng, err := NewEngine(classes3(), 64)
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	b.Run("record/subs=0", func(b *testing.B) {
		eng := mkEngine(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.Record(users[(i*7919)&(len(users)-1)], "web", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch64/subs=0", func(b *testing.B) {
		eng := mkEngine(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.RecordBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "reports/s")
	})
}
