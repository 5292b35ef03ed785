// Command tubeperf is the end-to-end benchmark of the TUBE serving
// plane. One process runs one workload over four tube.Server nodes on
// loopback: a cluster.Router feeds them wire frames, a period clock
// closes periods on every node (leader first), followers replicate the
// leader's price through the fan-out tree, and tube.GUI probes pull
// GET /price round-robin. Every layer is timed from outside, by calls
// into its public functions.
//
//	tubeperf -workload loop -seed 1 -seconds 16 -trace 0
//
// prints every end-to-end metric as "<workload> <metric> <value> <unit>
// n=<samples>", then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 1 the run
// repeats traced and reports the per-layer metrics instead; -spans
// names the span JSONL file. The exit status is nonzero when a
// correctness check fails.
//
//	tubeperf -runs 10 -workload loop,price -seed 1 -out set.json
//	tubeperf -diff a.json b.json
//
// -runs runs one process per run (seeds seed, seed+1, …) and prints each
// metric's median, quartiles and relative spread; -diff applies the
// BENCHMARK.json bounds to two such sets. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tubeperf:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose correctness gate failed; its result
// line is still printed.
var errIncorrect = errors.New("correctness check failed")

// scenarioPath is the scenario every node runs: the paper's 48-period,
// 10-class day.
const scenarioPath = "examples/scenarios/static48.json"

func cli(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tubeperf", flag.ContinueOnError)
	workload := fs.String("workload", "loop", "workload name (-runs: comma-separated list)")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured window in seconds")
	trace := fs.Int("trace", 0, "1: run traced after the plain run and report the per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans.jsonl", "traced run: write the spans as JSONL to this file (empty: don't)")
	runs := fs.Int("runs", 0, "run the workloads this many times, one process per run, and summarize")
	out := fs.String("out", "", "-runs: write the collected values as JSON to this file")
	diff := fs.Bool("diff", false, "compare two -runs files (the two arguments) under the BENCHMARK.json bounds")
	bench := fs.String("bench", "BENCHMARK.json", "-diff: benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *diff:
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff takes two -runs files")
		}
		return diffSets(*bench, fs.Arg(0), fs.Arg(1), stdout)
	case *runs > 0:
		return repeat(*runs, strings.Split(*workload, ","), *seed, *seconds, *trace == 1, *out, stdout)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	w, err := lookupSpec(*workload)
	if err != nil {
		return err
	}
	res, err := run(options{
		w:        w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		scenario: scenarioPath,
		setups:   3,
		trace:    *trace == 1,
		spans:    *spans,
	})
	if err != nil {
		return err
	}
	return report(stdout, w.name, res, *trace == 1)
}

// metricJSON is one entry of the result line's "metrics" object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints the human lines and the result line; it returns
// errIncorrect when the correctness gate failed.
func report(w io.Writer, workload string, res outcome, traced bool) error {
	defs, vals := endToEnd, res.endToEnd
	if traced {
		defs, vals = perLayer, res.perLayer
	}
	line := resultJSON{
		Correct:   len(res.problems) == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", workload, d.name, v.v, d.unit, v.n)
		line.Metrics[d.name] = metricJSON{Value: v.v, Unit: d.unit}
	}
	fmt.Fprintf(w, "%s error_rate %.6g failed/attempted n=%d\n",
		workload, float64(res.failed)/float64(line.Attempted), line.Attempted)
	for _, e := range res.errors {
		fmt.Fprintf(os.Stderr, "tubeperf: %s: %s\n", workload, e)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "tubeperf: %s: CORRECTNESS: %s\n", workload, p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	if !line.Correct {
		return errIncorrect
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
