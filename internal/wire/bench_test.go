package wire

import (
	"encoding/json"
	"fmt"
	"testing"

	"tdp/internal/ingest"
)

// benchBatch mirrors the per-user batches the load harness sends: one
// user, volume-1 reports rotating through the classes.
func benchBatch(n int) []ingest.Report {
	reps := make([]ingest.Report, n)
	for i := range reps {
		reps[i] = ingest.Report{
			User:     fmt.Sprintf("u%06d", i/8),
			Class:    testClasses[i%len(testClasses)],
			VolumeMB: 1,
		}
	}
	return reps
}

// BenchmarkWireEncode frames a batch with the binary codec vs
// encoding/json — same []Report in, bytes out. The bytes/report metric
// is the wire-size saving; ns/op the CPU saving.
func BenchmarkWireEncode(b *testing.B) {
	tab, err := NewClassTable(testClasses)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{16, 256} {
		batch := benchBatch(n)
		b.Run(fmt.Sprintf("wire/batch=%d", n), func(b *testing.B) {
			enc := NewEncoder(tab)
			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame, err := enc.Encode(batch)
				if err != nil {
					b.Fatal(err)
				}
				size = len(frame)
			}
			b.ReportMetric(float64(size)/float64(n), "bytes/report")
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "reports/s")
		})
		b.Run(fmt.Sprintf("json/batch=%d", n), func(b *testing.B) {
			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body, err := json.Marshal(batch)
				if err != nil {
					b.Fatal(err)
				}
				size = len(body)
			}
			b.ReportMetric(float64(size)/float64(n), "bytes/report")
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// BenchmarkWireDecode parses a frame back into reports vs
// encoding/json Unmarshal of the same batch.
func BenchmarkWireDecode(b *testing.B) {
	tab, err := NewClassTable(testClasses)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{16, 256} {
		batch := benchBatch(n)
		b.Run(fmt.Sprintf("wire/batch=%d", n), func(b *testing.B) {
			frame, err := NewEncoder(tab).Encode(batch)
			if err != nil {
				b.Fatal(err)
			}
			dec := NewDecoder(tab)
			dst := make([]ingest.Report, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := dec.Decode(frame, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != n {
					b.Fatal("short decode")
				}
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "reports/s")
		})
		b.Run(fmt.Sprintf("json/batch=%d", n), func(b *testing.B) {
			body, err := json.Marshal(batch)
			if err != nil {
				b.Fatal(err)
			}
			var out []ingest.Report
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = out[:0]
				if err := json.Unmarshal(body, &out); err != nil {
					b.Fatal(err)
				}
				if len(out) != n {
					b.Fatal("short decode")
				}
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// BenchmarkWireRoundTrip is the full codec path both directions — the
// number the ≥2× wire-vs-JSON acceptance criterion reads.
func BenchmarkWireRoundTrip(b *testing.B) {
	tab, err := NewClassTable(testClasses)
	if err != nil {
		b.Fatal(err)
	}
	const n = 256
	batch := benchBatch(n)
	b.Run("wire", func(b *testing.B) {
		enc := NewEncoder(tab)
		dec := NewDecoder(tab)
		dst := make([]ingest.Report, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame, err := enc.Encode(batch)
			if err != nil {
				b.Fatal(err)
			}
			out, _, err := dec.Decode(frame, dst[:0])
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatal("short decode")
			}
		}
		b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "reports/s")
	})
	b.Run("json", func(b *testing.B) {
		var out []ingest.Report
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body, err := json.Marshal(batch)
			if err != nil {
				b.Fatal(err)
			}
			out = out[:0]
			if err := json.Unmarshal(body, &out); err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatal("short decode")
			}
		}
		b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "reports/s")
	})
}

// BenchmarkApplyWire is the tentpole comparison: the zero-copy path
// (DecodeRecords → Engine.ApplyWire, no []Report materialized) against
// the classic twin (Decode → RecordBatch) on the same frame and
// shard count. The acceptance bar is ≥2× at batch=256 with 0 allocs/op
// on the warm zero-copy path.
func BenchmarkApplyWire(b *testing.B) {
	tab, err := NewClassTable(testClasses)
	if err != nil {
		b.Fatal(err)
	}
	const shards = 8 // pinned: DefaultShards scales with GOMAXPROCS
	for _, n := range []int{16, 256} {
		batch := benchBatch(n)
		frame, err := NewEncoder(tab).Encode(batch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("zerocopy/batch=%d", n), func(b *testing.B) {
			eng, err := ingest.NewEngine(testClasses, shards)
			if err != nil {
				b.Fatal(err)
			}
			dec := NewDecoder(tab)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				users, hashes, recs, _, err := dec.DecodeRecords(frame)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.ApplyWire(users, hashes, recs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "reports/s")
		})
		b.Run(fmt.Sprintf("decode/batch=%d", n), func(b *testing.B) {
			eng, err := ingest.NewEngine(testClasses, shards)
			if err != nil {
				b.Fatal(err)
			}
			dec := NewDecoder(tab)
			dst := make([]ingest.Report, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reps, _, err := dec.Decode(frame, dst[:0])
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.RecordBatch(reps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}
