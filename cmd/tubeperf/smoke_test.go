package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"tdp/internal/cluster"
)

const testScenario = "testdata/tiny.json"

// scaled shrinks a workload to a smoke-test size: a small population and
// sub-second phases. The tests run a 6-period, 3-class scenario, whose
// solves are cheap and whose 150 ms day puts day boundaries (and the
// patience refits) inside the run.
func scaled(w spec) spec {
	w.users = min(w.users, 2_000)
	w.warmup = 100 * time.Millisecond
	if w.rate > 0 {
		w.rate = 20_000
	}
	if w.shaped {
		w.reportMB = 1.0 / 16
	}
	return w
}

type benchMetric struct{ Name, Unit, Better string }

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBench(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// resultLine runs report and parses the result line it prints.
func resultLine(t *testing.T, name string, res outcome, traced bool) resultJSON {
	t.Helper()
	var buf bytes.Buffer
	if err := report(&buf, name, res, traced); err != nil {
		t.Fatalf("report: %v (problems %v, errors %v)", err, res.problems, res.errors)
	}
	line, err := lastResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(strings.TrimSpace(buf.String()), "\n")[:len(line.Metrics)] {
		if f := strings.Fields(l); len(f) != 5 || f[0] != name || !strings.HasPrefix(f[4], "n=") {
			t.Errorf("human line %q is not '<workload> <metric> <value> <unit> n=<samples>'", l)
		}
	}
	return line
}

func sameMetrics(t *testing.T, what string, got map[string]metricJSON, want []benchMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: missing %s", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestMetricListsMatchBenchmark(t *testing.T) {
	bf := readBench(t)
	for _, c := range []struct {
		what string
		defs []metricDef
		want []benchMetric
	}{{"end-to-end", endToEnd, bf.EndToEnd}, {"per-layer", perLayer, bf.PerLayer}} {
		if len(c.defs) != len(c.want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", c.what, len(c.defs), len(c.want))
		}
		for i, d := range c.defs {
			if w := c.want[i]; d.name != w.Name || d.unit != w.Unit || d.better != w.Better {
				t.Errorf("%s #%d: %+v here, %+v in BENCHMARK.json", c.what, i, d, w)
			}
		}
	}
}

// TestWorkloadsEmitBenchmarkMetrics runs every workload scaled down,
// traced, and checks it passes its correctness gate and prints exactly
// the metric names and units BENCHMARK.json lists. The workloads run in
// parallel: each builds a plane of its own, and only the values of the
// process-wide counters, which this test does not check, are shared.
func TestWorkloadsEmitBenchmarkMetrics(t *testing.T) {
	t.Parallel()
	bf := readBench(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := run(options{w: scaled(w), seed: 1, window: 300 * time.Millisecond,
				scenario: testScenario, setups: 1, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Errorf("%d of %d operations failed: %v", res.failed, res.attempted, res.errors)
			}
			sameMetrics(t, "end-to-end", resultLine(t, w.name, res, false).Metrics, bf.EndToEnd)
			sameMetrics(t, "per-layer", resultLine(t, w.name, res, true).Metrics, bf.PerLayer)
			if v := res.endToEnd["reports_per_s"]; v.v <= 0 {
				t.Errorf("reports_per_s = %v", v.v)
			}
			// Only the streaming workloads re-estimate patience.
			refits := res.perLayer["estimate.refines_warm"].v + res.perLayer["estimate.refines_cold"].v
			if (refits > 0) != w.streaming {
				t.Errorf("%v patience refits in the window, streaming %v", refits, w.streaming)
			}
		})
	}
}

// dupSender delivers its first frame twice: a retry that double-bills.
type dupSender struct {
	cluster.Sender
	once sync.Once
}

func (d *dupSender) SendWire(ctx context.Context, node cluster.Member, body []byte) (cluster.WireAck, error) {
	dup := false
	d.once.Do(func() { dup = true })
	if dup {
		if _, err := d.Sender.SendWire(ctx, node, body); err != nil {
			return cluster.WireAck{}, err
		}
	}
	return d.Sender.SendWire(ctx, node, body)
}

func (d *dupSender) FetchRing(ctx context.Context, node cluster.Member) (cluster.Config, error) {
	return d.Sender.(cluster.RingFetcher).FetchRing(ctx, node)
}

func TestConservationCatchesDuplicateFrame(t *testing.T) {
	t.Parallel()
	w, err := lookupSpec("ingest")
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(options{w: scaled(w), seed: 3, window: 200 * time.Millisecond, scenario: testScenario, setups: 1,
		wrap: func(s cluster.Sender) cluster.Sender { return &dupSender{Sender: s} }})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range res.problems {
		found = found || strings.Contains(p, "exactly-once violated")
	}
	if !found {
		t.Fatalf("duplicated frame passed the conservation check; problems: %v", res.problems)
	}
	if err := report(&bytes.Buffer{}, w.name, res, false); !errors.Is(err, errIncorrect) {
		t.Errorf("report = %v, want errIncorrect", err)
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-diff", "only-one.json"},
	} {
		if err := cli(args, &bytes.Buffer{}); err == nil {
			t.Errorf("cli(%v) succeeded", args)
		}
	}
}
