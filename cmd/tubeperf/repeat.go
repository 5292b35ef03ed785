package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runSet is what -runs collects and -diff compares.
type runSet struct {
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	Runs      int                   `json:"runs"`
	Incorrect int                   `json:"incorrect"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]*metricSet `json:"metrics"`
}

type metricSet struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// repeat runs each workload n times, each in a process of its own with
// seeds seed, seed+1, …, and prints every metric's median, quartiles and
// relative spread (interquartile distance over median).
func repeat(n int, names []string, seed uint64, seconds float64, traced bool, out string, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Seconds: seconds, Workloads: make(map[string]*workloadSet)}
	for _, name := range names {
		if _, err := lookupSpec(name); err != nil {
			return err
		}
		ws := &workloadSet{Metrics: make(map[string]*metricSet)}
		set.Workloads[name] = ws
		for i := 0; i < n; i++ {
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				return fmt.Errorf("run %s seed %d: %w", name, seed+uint64(i), err)
			}
			res, perr := lastResult(stdout)
			if perr != nil {
				return fmt.Errorf("run %s seed %d: %v (exit: %v)", name, seed+uint64(i), perr, err)
			}
			ws.Runs++
			ws.Failed += res.Failed
			if !res.Correct {
				ws.Incorrect++
			}
			for k, m := range res.Metrics {
				ms := ws.Metrics[k]
				if ms == nil {
					ms = &metricSet{Unit: m.Unit}
					ws.Metrics[k] = ms
				}
				ms.Values = append(ms.Values, m.Value)
			}
			fmt.Fprintf(os.Stderr, "tubeperf: %s run %d/%d done\n", name, i+1, n)
		}
	}
	fmt.Fprintf(w, "%-10s %-34s %14s %14s %14s %8s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range names {
		ws := set.Workloads[name]
		for _, k := range sortedKeys(ws.Metrics) {
			ms := ws.Metrics[k]
			xs := append([]float64(nil), ms.Values...)
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-10s %-34s %14.6g %14.6g %14.6g %8.4f %s\n", name, k, q1, q2, q3, relSpread(xs), ms.Unit)
		}
		fmt.Fprintf(w, "%-10s runs %d, incorrect %d, failed operations %d\n", name, ws.Runs, ws.Incorrect, ws.Failed)
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// lastResult parses the result line: the last non-empty line of stdout.
func lastResult(stdout []byte) (resultJSON, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res resultJSON
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return res, errors.New("no result line")
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

// benchDef is the part of BENCHMARK.json -diff reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// errRegressed is returned by diffSets when a pair regressed.
var errRegressed = errors.New("regression beyond the benchmark's bound")

// diffSets compares run set b (a change) against a (its parent) for
// every (end-to-end metric, workload) pair in both: "regressed" when b's
// median is worse than a's by more than the metric's bound, "unresolved"
// when either set's spread exceeds the bound (unless every run of b
// beats every run of a), "ok" otherwise. A workload whose b runs fail
// their correctness gate, or fail more operations per run than a's,
// has regressed whatever its medians say.
func diffSets(benchPath, aPath, bPath string, w io.Writer) error {
	var def benchDef
	if err := readJSON(benchPath, &def); err != nil {
		return err
	}
	var a, b runSet
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(w, "%-10s %-22s %14s %14s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "bound", "sprdA", "sprdB", "verdict")
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		// Failed operations per run, compared without dividing.
		if wb.Incorrect > 0 || wb.Failed*int64(max(wa.Runs, 1)) > wa.Failed*int64(max(wb.Runs, 1)) {
			fmt.Fprintf(w, "%-10s %-22s incorrect runs %d / %d, failed operations %d in %d runs / %d in %d runs  regressed\n",
				name, "correctness", wa.Incorrect, wb.Incorrect, wa.Failed, wa.Runs, wb.Failed, wb.Runs)
			regressed++
		}
		for _, m := range def.EndToEnd {
			ma, mb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if ma == nil || mb == nil || len(ma.Values) == 0 || len(mb.Values) == 0 {
				continue
			}
			xa, xb := append([]float64(nil), ma.Values...), append([]float64(nil), mb.Values...)
			_, medA, _ := quartiles(xa)
			_, medB, _ := quartiles(xb)
			sa, sb := relSpread(xa), relSpread(xb)
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
				if allBetter(xa, xb, m.Better) {
					verdict = "ok (every run better)"
				}
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-10s %-22s %14.6g %14.6g %+8.2f%% %6.1f%% %6.1f%% %6.1f%%  %s\n",
				name, m.Name, medA, medB, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d pairs: %w", regressed, errRegressed)
	}
	return nil
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}
