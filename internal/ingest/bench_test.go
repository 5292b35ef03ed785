package ingest

import (
	"fmt"
	"testing"
)

func benchUsers(n int) []string {
	users := make([]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("user%06d", i)
	}
	return users
}

// BenchmarkIngestRollover measures one full accounting period: a
// 1024-report frame applied through ApplyWire, followed by the atomic
// rollover with merged totals.
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
	names, hashes, recs := wireFormOf(batch, classes3())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := eng.ApplyWire(names, hashes, recs); err != nil {
			b.Fatal(err)
		}
		cut := eng.Rollover()
		if cut.ClassTotals()[0] == 0 {
			b.Fatal("empty rollover")
		}
		cut.Release()
	}
}
