// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so CI can publish the repo's
// performance trajectory (BENCH_<n>.json artifacts) without external
// tooling. It reads benchmark output on stdin (or from files given as
// arguments) and writes one JSON object:
//
//	go test ./internal/obs ./internal/ingest -bench . -benchmem | benchjson -out BENCH_4.json
//
// Lines that are not benchmark results (test chatter, PASS/ok, build
// noise) are ignored; `pkg:` headers attribute subsequent benchmarks to
// their package.
//
// With -diff it becomes a regression gate instead of a converter:
//
//	benchjson -diff BENCH_4.json BENCH_5.json -track 'Ingest|Usage' -threshold 0.20
//
// Benchmarks present in both documents (matched by package and name,
// ignoring the -P GOMAXPROCS suffix) are compared on the median ns/op of
// their runs on each side; the command fails if any benchmark matching
// -track regressed by more than -threshold. Entries that appear on only
// one side are listed but never fail the gate — renames and new
// benchmarks are not regressions.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"flag"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Document is the emitted JSON root.
type Document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "-", "output file (- for stdout)")
	diffBase := fs.String("diff", "", "baseline JSON document; compare ns/op instead of emitting JSON")
	threshold := fs.Float64("threshold", 0.20, "allowed fractional ns/op regression in -diff mode")
	track := fs.String("track", "", "regexp of benchmark names the -diff gate enforces (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *diffBase != "" {
		re, err := compileTrack(*track)
		if err != nil {
			return err
		}
		base, err := readDocument(*diffBase)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", *diffBase, err)
		}
		var cur Document
		if fs.NArg() == 0 {
			if err := loadInto(&cur, stdin); err != nil {
				return err
			}
		}
		for _, path := range fs.Args() {
			d, err := readDocument(path)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			cur.Benchmarks = append(cur.Benchmarks, d.Benchmarks...)
		}
		return diffDocuments(base, cur, re, *threshold, stdout)
	}

	var doc Document
	if fs.NArg() == 0 {
		if err := parseInto(&doc, stdin); err != nil {
			return err
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = parseInto(&doc, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}

	out := stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// compileTrack compiles the -track expression; empty means "gate every
// common benchmark".
func compileTrack(expr string) (*regexp.Regexp, error) {
	if expr == "" {
		return nil, nil
	}
	re, err := regexp.Compile(expr)
	if err != nil {
		return nil, fmt.Errorf("-track %q: %w", expr, err)
	}
	return re, nil
}

// readDocument loads either a benchjson JSON document or raw `go test
// -bench` text from path, so the gate accepts both checked-in artifacts
// and fresh benchmark output.
func readDocument(path string) (Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return Document{}, err
	}
	defer f.Close()
	var doc Document
	if err := loadInto(&doc, f); err != nil {
		return Document{}, err
	}
	return doc, nil
}

// loadInto sniffs r: a leading '{' means a JSON document, anything else is
// parsed as benchmark text.
func loadInto(doc *Document, r io.Reader) error {
	br := bufio.NewReader(r)
	head, err := br.Peek(1)
	if err != nil && err != io.EOF {
		return err
	}
	if len(head) == 1 && head[0] == '{' {
		var d Document
		if err := json.NewDecoder(br).Decode(&d); err != nil {
			return err
		}
		if doc.Goos == "" {
			doc.Goos, doc.Goarch, doc.CPU = d.Goos, d.Goarch, d.CPU
		}
		doc.Benchmarks = append(doc.Benchmarks, d.Benchmarks...)
		return nil
	}
	return parseInto(doc, br)
}

// benchKey identifies a benchmark across documents: package plus name with
// the trailing -P GOMAXPROCS suffix stripped, so runs from machines with
// different core counts still match.
func benchKey(b Benchmark) string {
	name := b.Name
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return b.Package + "\t" + name
}

// medianNs collapses repeated runs of one benchmark to their median
// ns/op (the mean of the two middle runs for an even count). The gate
// times the two sides in alternating rounds, so a slow spell of a
// shared machine lands on both sides; the median then ignores a spell
// that hit one round of either side, where a minimum would reward the
// side that happened to run in the quietest moment. Entries without an
// ns/op measurement are dropped.
func medianNs(doc Document) map[string]float64 {
	runs := make(map[string][]float64)
	for _, b := range doc.Benchmarks {
		if b.NsPerOp > 0 {
			k := benchKey(b)
			runs[k] = append(runs[k], b.NsPerOp)
		}
	}
	med := make(map[string]float64, len(runs))
	for k, v := range runs {
		sort.Float64s(v)
		med[k] = (v[(len(v)-1)/2] + v[len(v)/2]) / 2
	}
	return med
}

// diffDocuments compares ns/op for the benchmarks common to base and cur,
// prints the full comparison, and fails if any tracked benchmark regressed
// beyond the threshold.
func diffDocuments(base, cur Document, track *regexp.Regexp, threshold float64, w io.Writer) error {
	old := medianNs(base)
	now := medianNs(cur)
	keys := make([]string, 0, len(old))
	for k := range old {
		if _, ok := now[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var failed []string
	for _, k := range keys {
		o, n := old[k], now[k]
		delta := (n - o) / o
		name := strings.ReplaceAll(k, "\t", " ")
		status := "ok"
		tracked := track == nil || track.MatchString(k)
		if tracked && delta > threshold {
			status = "REGRESSED"
			failed = append(failed, fmt.Sprintf("%s: %.4g → %.4g ns/op (%+.1f%%)", name, o, n, 100*delta))
		} else if !tracked {
			status = "untracked"
		}
		fmt.Fprintf(w, "%-72s %12.4g %12.4g %+8.1f%%  %s\n", name, o, n, 100*delta, status)
	}
	var only []string
	for k := range old {
		if _, ok := now[k]; !ok {
			only = append(only, fmt.Sprintf("%-72s only in baseline", strings.ReplaceAll(k, "\t", " ")))
		}
	}
	for k := range now {
		if _, ok := old[k]; !ok {
			only = append(only, fmt.Sprintf("%-72s only in current", strings.ReplaceAll(k, "\t", " ")))
		}
	}
	sort.Strings(only)
	for _, line := range only {
		fmt.Fprintln(w, line)
	}
	if len(keys) == 0 {
		return fmt.Errorf("no common benchmarks between baseline and current")
	}
	if len(failed) > 0 {
		return fmt.Errorf("ns/op regression beyond %.0f%%:\n  %s",
			100*threshold, strings.Join(failed, "\n  "))
	}
	fmt.Fprintf(w, "%d common benchmarks within %.0f%%\n", len(keys), 100*threshold)
	return nil
}

// parseInto scans r line by line, accumulating benchmark results and
// environment headers into doc.
func parseInto(doc *Document, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		b.Package = pkg
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	return sc.Err()
}

// parseBenchLine parses one `BenchmarkName-P  N  v1 u1  v2 u2 ...`
// result line. Returns ok=false for anything else.
func parseBenchLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	// Shortest legal line: name + iteration count + one value/unit pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters < 0 {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       fields[0],
		Iterations: iters,
		Metrics:    make(map[string]float64),
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		unit := fields[i+1]
		b.Metrics[unit] = v
		if unit == "ns/op" {
			b.NsPerOp = v
		}
	}
	return b, true
}
