package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: tdp/internal/obs
cpu: AMD EPYC 7B13
BenchmarkBareAtomicInc-1   	579030261	         2.072 ns/op	       0 B/op	       0 allocs/op
BenchmarkCounterInc-1      	538785920	         2.228 ns/op	       0 B/op	       0 allocs/op
BenchmarkHistogramObserve-1	100000000	        10.41 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	tdp/internal/obs	7.213s
pkg: tdp/internal/ingest
BenchmarkIngestRecord-1    	 5000000	       241.0 ns/op
PASS
ok  	tdp/internal/ingest	1.402s
`

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkCounterInc-1  538785920  2.228 ns/op  0 B/op  0 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if b.Name != "BenchmarkCounterInc-1" || b.Iterations != 538785920 {
		t.Errorf("got %+v", b)
	}
	if b.NsPerOp != 2.228 {
		t.Errorf("ns/op = %v", b.NsPerOp)
	}
	if b.Metrics["B/op"] != 0 || b.Metrics["allocs/op"] != 0 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	for _, bad := range []string{
		"",
		"PASS",
		"ok  	tdp/internal/obs	7.213s",
		"Benchmark",                       // no fields beyond the name
		"BenchmarkX-1 notanumber 1 ns/op", // bad iteration count
		"BenchmarkX-1 100 xyz ns/op",      // bad value
		"BenchmarkX-1 100 2.0",            // value without unit
	} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("line %q accepted", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout strings.Builder
	if err := run([]string{"-out", out}, strings.NewReader(sampleBench), &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading output: %v", err)
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, raw)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.CPU != "AMD EPYC 7B13" {
		t.Errorf("env headers: %+v", doc)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(doc.Benchmarks))
	}
	if doc.Benchmarks[0].Package != "tdp/internal/obs" {
		t.Errorf("package attribution: %+v", doc.Benchmarks[0])
	}
	if doc.Benchmarks[3].Name != "BenchmarkIngestRecord-1" ||
		doc.Benchmarks[3].Package != "tdp/internal/ingest" {
		t.Errorf("last benchmark: %+v", doc.Benchmarks[3])
	}
}

func TestRunStdout(t *testing.T) {
	var stdout strings.Builder
	if err := run(nil, strings.NewReader(sampleBench), &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), `"name": "BenchmarkBareAtomicInc-1"`) {
		t.Errorf("stdout output:\n%s", stdout.String())
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\nok\n"), &strings.Builder{}); err == nil {
		t.Error("empty benchmark input accepted")
	}
}

// writeDoc marshals a Document to a temp file and returns its path.
func writeDoc(t *testing.T, doc Document) string {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchDoc(ns map[string]float64) Document {
	var doc Document
	for name, v := range ns {
		doc.Benchmarks = append(doc.Benchmarks, Benchmark{
			Name: name, Package: "tdp/internal/x", Iterations: 100, NsPerOp: v,
		})
	}
	return doc
}

func TestBenchKeyStripsProcSuffix(t *testing.T) {
	a := Benchmark{Name: "BenchmarkX-16", Package: "p"}
	b := Benchmark{Name: "BenchmarkX-1", Package: "p"}
	if benchKey(a) != benchKey(b) {
		t.Errorf("keys differ: %q vs %q", benchKey(a), benchKey(b))
	}
	// A sub-benchmark suffix that is not numeric must survive.
	c := Benchmark{Name: "BenchmarkX/shards=8-16", Package: "p"}
	if got := benchKey(c); got != "p\tBenchmarkX/shards=8" {
		t.Errorf("key = %q", got)
	}
}

func TestDiffWithinThreshold(t *testing.T) {
	base := writeDoc(t, benchDoc(map[string]float64{"BenchmarkA-1": 100, "BenchmarkB-1": 200}))
	cur := writeDoc(t, benchDoc(map[string]float64{"BenchmarkA-2": 110, "BenchmarkB-2": 190}))
	var out strings.Builder
	if err := run([]string{"-diff", base, cur}, nil, &out); err != nil {
		t.Fatalf("diff within threshold failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 common benchmarks") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	base := writeDoc(t, benchDoc(map[string]float64{"BenchmarkA-1": 100}))
	cur := writeDoc(t, benchDoc(map[string]float64{"BenchmarkA-1": 121}))
	var out strings.Builder
	err := run([]string{"-diff", base, cur}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("regression not reported: %v", err)
	}
}

func TestDiffTrackLimitsGate(t *testing.T) {
	base := writeDoc(t, benchDoc(map[string]float64{"BenchmarkA-1": 100, "BenchmarkNoisy-1": 100}))
	cur := writeDoc(t, benchDoc(map[string]float64{"BenchmarkA-1": 105, "BenchmarkNoisy-1": 400}))
	var out strings.Builder
	if err := run([]string{"-diff", base, "-track", "BenchmarkA", cur}, nil, &out); err != nil {
		t.Fatalf("untracked regression failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "untracked") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestDiffMedianOfRepeatedRuns(t *testing.T) {
	// Repeated runs collapse to their median: one slow sample does not
	// fail the gate, and one fast sample does not hide a regression the
	// middle of the runs shows.
	runs := func(vs ...float64) string {
		var d Document
		for _, v := range vs {
			d.Benchmarks = append(d.Benchmarks, Benchmark{
				Name: "BenchmarkA-1", Package: "tdp/internal/x", Iterations: 10, NsPerOp: v,
			})
		}
		return writeDoc(t, d)
	}
	base := runs(100, 98, 103, 101, 99)
	var out strings.Builder
	if err := run([]string{"-diff", base, runs(300, 104, 99, 102)}, nil, &out); err != nil {
		t.Fatalf("one slow run failed the gate: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"-diff", base, runs(90, 140, 135, 150, 131)}, nil, &out); err == nil {
		t.Fatalf("a 35%% median regression passed the gate:\n%s", out.String())
	}
}

func TestDiffCurrentFromBenchText(t *testing.T) {
	// The current side may be raw `go test -bench` text on stdin.
	base := writeDoc(t, Document{Benchmarks: []Benchmark{{
		Name: "BenchmarkCounterInc-1", Package: "tdp/internal/obs", Iterations: 1, NsPerOp: 2.5,
	}}})
	var out strings.Builder
	err := run([]string{"-diff", base, "-track", "CounterInc"}, strings.NewReader(sampleBench), &out)
	if err != nil {
		t.Fatalf("text input diff: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkCounterInc") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestDiffNoCommonBenchmarks(t *testing.T) {
	base := writeDoc(t, benchDoc(map[string]float64{"BenchmarkA-1": 100}))
	cur := writeDoc(t, benchDoc(map[string]float64{"BenchmarkB-1": 100}))
	err := run([]string{"-diff", base, cur}, nil, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "no common benchmarks") {
		t.Fatalf("disjoint documents accepted: %v", err)
	}
}
