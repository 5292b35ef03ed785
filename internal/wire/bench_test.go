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

// BenchmarkWireDecode parses a frame with DecodeRecords, the one
// production decoder (records in frame-index form, no []Report), vs
// encoding/json Unmarshal of the same batch into reports.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, recs, _, err := dec.DecodeRecords(frame)
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) != n {
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

// BenchmarkWireRoundTrip is the full codec path both directions, Encode
// then DecodeRecords, against a JSON round trip of the same batch.
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
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame, err := enc.Encode(batch)
			if err != nil {
				b.Fatal(err)
			}
			_, _, recs, _, err := dec.DecodeRecords(frame)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) != n {
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

// BenchmarkApplyWire times the node's ingest path, DecodeRecords →
// Engine.ApplyWire, with 0 allocs/op when warm. Re-applying one frame
// keeps its users' table entries in cache; the users=1M case cycles
// through frames over a million distinct users, already in the table,
// so every lookup goes to memory as it does on a node serving that
// many.
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
	}
	b.Run("zerocopy/users=1M/batch=256", func(b *testing.B) {
		frames, eng := coldFrames(b, tab, shards)
		dec := NewDecoder(tab)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(frames)
			if k == 0 {
				eng.Rollover().Release()
			}
			users, hashes, recs, _, err := dec.DecodeRecords(frames[k])
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.ApplyWire(users, hashes, recs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*256)/b.Elapsed().Seconds(), "reports/s")
	})
}

// coldUsers is the user count of BenchmarkApplyWire's users=1M case.
const coldUsers = 1 << 20

var coldCache struct {
	frames [][]byte
	eng    *ingest.Engine
}

// coldFrames returns frames of 256 reports, each to a distinct user,
// that together cover coldUsers users once, and an engine that has
// applied them all. Both are built once per process: the benchmark
// function runs again for every b.N it tries.
func coldFrames(b *testing.B, tab *ClassTable, shards int) ([][]byte, *ingest.Engine) {
	b.Helper()
	if coldCache.eng != nil {
		return coldCache.frames, coldCache.eng
	}
	eng, err := ingest.NewEngine(testClasses, shards)
	if err != nil {
		b.Fatal(err)
	}
	enc, dec := NewEncoder(tab), NewDecoder(tab)
	batch := make([]ingest.Report, 256)
	var frames [][]byte
	for u := 0; u < coldUsers; u += len(batch) {
		for i := range batch {
			batch[i] = ingest.Report{
				User:     fmt.Sprintf("u%07d", (u+i)*7919%coldUsers), // stride: a frame's users are not neighbours in the table
				Class:    testClasses[(u+i)%len(testClasses)],
				VolumeMB: 1,
			}
		}
		frame, err := enc.Encode(batch)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, append([]byte(nil), frame...))
	}
	// Two full periods: the first adds every user, and together they
	// size both period buffers the engine swaps at a rollover.
	for range 2 {
		for _, frame := range frames {
			users, hashes, recs, _, err := dec.DecodeRecords(frame)
			if err != nil {
				b.Fatal(err)
			}
			if err := eng.ApplyWire(users, hashes, recs); err != nil {
				b.Fatal(err)
			}
		}
		eng.Rollover().Release()
	}
	coldCache.frames, coldCache.eng = frames, eng
	return frames, eng
}
