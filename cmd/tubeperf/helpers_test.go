package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tdp/internal/ingest"
	"tdp/internal/obs"
	"tdp/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.99, 50}, {1, 50},
	} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles = %v %v %v, want %v %v %v", q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", s)
	}
}

func TestSelfTimeUnionOfChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		covered  int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 30},
		// Pipelined frames overlap: the overlap counts once.
		{"overlapping", []interval{{110, 140}, {120, 160}, {130, 135}}, 50},
		{"touching", []interval{{110, 120}, {120, 130}}, 20},
		// A child running past its parent counts only inside it.
		{"past parent", []interval{{90, 110}, {190, 260}}, 20},
		{"outside", []interval{{10, 50}, {250, 300}}, 0},
		{"unsorted", []interval{{150, 190}, {105, 155}}, 85},
	} {
		kids := append([]interval(nil), c.children...)
		if got := coveredWithin(parent.lo, parent.hi, kids); got != c.covered {
			t.Errorf("%s: covered %d, want %d", c.name, got, c.covered)
		}
		kids = append([]interval(nil), c.children...)
		if got := selfTime(parent, kids); got != 100-c.covered {
			t.Errorf("%s: self %d, want %d", c.name, got, 100-c.covered)
		}
	}
}

func TestMisattributedSpans(t *testing.T) {
	routes := []span{
		{ID: 1, Name: spanRoute, Start: 100, End: 200},
		{ID: 2, Name: spanRoute, Start: 150, End: 300},
		{ID: 9, Name: spanClose, Start: 0, End: 1000},
	}
	for _, c := range []struct {
		name  string
		child span
		bad   string
	}{
		{"inside", span{ID: 3, Parent: 1, Name: spanHTTP, Start: 110, End: 200}, ""},
		{"fetch inside", span{ID: 3, Parent: 2, Name: spanRingFetch, Start: 150, End: 160}, ""},
		{"not a child", span{ID: 3, Name: spanPull, Start: 0, End: 5000}, ""},
		{"outlives parent", span{ID: 3, Parent: 1, Name: spanHTTP, Start: 190, End: 210}, "outside its route span"},
		{"starts early", span{ID: 3, Parent: 2, Name: spanRingFetch, Start: 140, End: 160}, "outside its route span"},
		{"orphan", span{ID: 3, Name: spanHTTP, Start: 110, End: 120}, "no route span"},
		{"parent not a route", span{ID: 3, Parent: 9, Name: spanHTTP, Start: 110, End: 120}, "no route span"},
	} {
		got := misattributed(append(append([]span(nil), routes...), c.child))
		if (c.bad == "") != (got == "") || !strings.Contains(got, c.bad) {
			t.Errorf("%s: misattributed = %q, want %q", c.name, got, c.bad)
		}
	}
}

func TestFrameShapeReadsHeader(t *testing.T) {
	classes := []string{"a", "b", "c"}
	tab, err := wire.NewClassTable(classes)
	if err != nil {
		t.Fatal(err)
	}
	reps := []ingest.Report{
		{User: "u1", Class: "a", VolumeMB: 1}, {User: "u1", Class: "b", VolumeMB: 1},
		{User: "u2", Class: "c", VolumeMB: 0.5}, {User: "u3", Class: "a", VolumeMB: 2},
	}
	body, err := wire.NewEncoder(tab).Encode(reps)
	if err != nil {
		t.Fatal(err)
	}
	recs, users, ok := frameShape(body)
	if !ok || recs != 4 || users != 3 {
		t.Fatalf("frameShape = %d records, %d users, ok %v; want 4, 3, true", recs, users, ok)
	}
	if _, _, ok := frameShape(body[:10]); ok {
		t.Error("frameShape accepted a truncated frame")
	}
}

func TestSumSamples(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total", "", obs.Labels{"mode": "warm"}).Add(3)
	reg.Counter("x_total", "", obs.Labels{"mode": "cold"}).Add(4)
	reg.Counter("x_total_other", "", nil).Add(100)
	reg.GaugeFunc("depth", "", obs.Labels{"shard": "0"}, func() float64 { return 2.5 })
	reg.GaugeFunc("depth", "", obs.Labels{"shard": "1"}, func() float64 { return 1 })
	var sc scraper
	for _, c := range []struct {
		name, label string
		want        float64
	}{
		{"x_total", "", 7}, {"x_total", `mode="warm"`, 3}, {"depth", "", 3.5}, {"missing", "", 0},
	} {
		if got := sc.sum(reg, c.name, c.label); got != c.want {
			t.Errorf("sum(%s, %s) = %v, want %v", c.name, c.label, got, c.want)
		}
	}
}

func TestTracerWritesSpansAtTheEnd(t *testing.T) {
	tr := newTracer(time.Now())
	parent := tr.newID()
	tr.add(span{Trace: 7, ID: parent, Name: spanRoute, Start: 10, End: 50})
	tr.add(span{Trace: 7, Parent: parent, Name: spanHTTP, Node: "n1", Start: 20, End: 30})
	var nilTracer *tracer
	nilTracer.add(span{Name: spanRoute}) // untraced passes record nothing
	if nilTracer.newID() != 0 || nilTracer.snapshot() != nil {
		t.Fatal("nil tracer recorded state")
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeJSONL(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d span lines, want 2", len(lines))
	}
	var child span
	if err := json.Unmarshal([]byte(lines[1]), &child); err != nil {
		t.Fatal(err)
	}
	if child.Parent != parent || child.Trace != 7 || child.Name != spanHTTP || child.ID == 0 {
		t.Errorf("child span = %+v", child)
	}
}

func TestDiffVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("bench.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "lat", "better": "lower", "bound": 0.1},
		{"name": "rate", "better": "higher", "bound": 0.1},
		{"name": "noisy", "better": "lower", "bound": 0.1},
	}})
	set := func(lat, rate, noisy []float64) runSet {
		return runSet{Workloads: map[string]*workloadSet{"w": {Runs: len(lat), Metrics: map[string]*metricSet{
			"lat": {Values: lat}, "rate": {Values: rate}, "noisy": {Values: noisy},
		}}}}
	}
	a := write("a.json", set([]float64{10, 10, 10, 10, 10}, []float64{100, 100, 100, 100, 100}, []float64{1, 5, 10, 15, 20}))
	same := write("b.json", set([]float64{10.5, 10.5, 10.5, 10.5, 10.5}, []float64{95, 95, 95, 95, 95}, []float64{1, 5, 10, 15, 20}))
	var out bytes.Buffer
	if err := diffSets(bench, a, same, &out); err != nil {
		t.Fatalf("within bounds: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy metric not reported unresolved:\n%s", out.String())
	}
	slow := write("c.json", set([]float64{12, 12, 12, 12, 12}, []float64{80, 80, 80, 80, 80}, []float64{1, 5, 10, 15, 20}))
	out.Reset()
	if err := diffSets(bench, a, slow, &out); err == nil || strings.Count(out.String(), "regressed") != 2 {
		t.Errorf("want two regressions, got err %v:\n%s", err, out.String())
	}

	// Equal medians do not excuse runs that fail their correctness gate
	// or fail more operations per run than the parent's.
	for _, c := range []struct {
		name      string
		incorrect int
		failed    int64
	}{{"incorrect", 1, 0}, {"failing", 0, 2}} {
		s := set([]float64{10, 10, 10, 10, 10}, []float64{100, 100, 100, 100, 100}, []float64{1, 5, 10, 15, 20})
		s.Workloads["w"].Incorrect, s.Workloads["w"].Failed = c.incorrect, c.failed
		out.Reset()
		err := diffSets(bench, a, write(c.name+".json", s), &out)
		if !errors.Is(err, errRegressed) || !strings.Contains(out.String(), "correctness") {
			t.Errorf("%s: want a correctness regression, got err %v:\n%s", c.name, err, out.String())
		}
	}
	// Fewer failures per run than the parent is no regression, even over
	// more runs.
	parent := set([]float64{10, 10}, []float64{100, 100}, []float64{10, 10})
	parent.Workloads["w"].Failed = 2
	child := set([]float64{10, 10, 10, 10}, []float64{100, 100, 100, 100}, []float64{10, 10, 10, 10})
	child.Workloads["w"].Failed = 3
	out.Reset()
	if err := diffSets(bench, write("parent.json", parent), write("child.json", child), &out); err != nil {
		t.Errorf("fewer failures per run: %v\n%s", err, out.String())
	}
}
