// Command tubeload is the load-generation harness for the TUBE usage
// ingestion path: it starts a TUBE Optimizer price server on a real TCP
// listener, drives M synthetic users × K usage reports at it over HTTP
// from a bounded worker pool, and reports sustained throughput plus
// p50/p95/p99 request latency. With -compare it pits the per-report
// POST /usage endpoint against the batched POST /usage/batch endpoint
// and the binary POST /usage/wire endpoint and prints the
// sustained-reports/s speedups.
//
// With -cluster N the harness instead brings up N clustered nodes on
// real listeners, drives the full load through a consistent-hash
// Router, and — mid-drive — joins a new node at 40% and decommissions
// one at 70%, verifying afterwards that every report was accounted
// exactly once across all engines despite the rebalances.
//
// Latencies are accumulated in a streaming obs.Histogram — the workers
// observe concurrently on the hot path, exactly like the instrumented
// server — and the percentiles are histogram quantiles. -metrics-out
// dumps the full Prometheus exposition (client, server, and process
// registries) after the run; -pprof mounts /debug/pprof on the server
// under load.
//
// After the drive, the harness verifies in-process that the sharded
// accounting engine saw every report exactly once (volumes are integral
// MB, so the check is exact).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/core"
	"tdp/internal/obs"
	"tdp/internal/parallel"
	"tdp/internal/scfg"
	"tdp/internal/tube"
	"tdp/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tubeload:", err)
		os.Exit(1)
	}
}

type loadConfig struct {
	addr       string
	users      int
	reports    int
	batch      int
	jobs       int
	shards     int
	pprof      bool
	metricsOut string
	// scenario and classes parameterize the optimizer under load; nil
	// falls back to the built-in 12-period deployment.
	scenario *core.Scenario
	classes  []string
}

// optScenario returns the deployment the optimizer runs under load.
func (c *loadConfig) optScenario() *core.Scenario {
	if c.scenario != nil {
		return c.scenario.Clone()
	}
	return loadScenario()
}

// optClasses returns the class names reports are tagged with.
func (c *loadConfig) optClasses() []string {
	if c.classes != nil {
		return c.classes
	}
	return loadClasses
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tubeload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address for the price server under load")
	users := fs.Int("users", 256, "number of synthetic users")
	reports := fs.Int("reports", 64, "usage reports per user")
	batch := fs.Int("batch", 64, "reports per request in batch mode")
	jobs := fs.Int("jobs", 0, "concurrent load workers (0 = one per CPU)")
	shards := fs.Int("shards", 0, "measurement engine shards (0 = auto)")
	mode := fs.String("mode", "batch", `ingestion mode: "single", "batch" or "wire"`)
	compare := fs.Bool("compare", false, "run all modes and report the batch/single and wire/batch speedups")
	clusterN := fs.Int("cluster", 0, "drive N clustered nodes through the consistent-hash router, with a mid-run join and leave (0 = single-node modes)")
	pprofFlag := fs.Bool("pprof", false, "mount /debug/pprof on the server under load")
	metricsOut := fs.String("metrics-out", "", "write the final Prometheus metrics snapshot to this file (- for stdout)")
	cfgPath := fs.String("config", "", "scenario config file (scfg format): the optimizer under load runs this workload's scenario and classes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users < 1 || *reports < 1 || *batch < 1 {
		return fmt.Errorf("users, reports and batch must be ≥ 1")
	}
	cfg := loadConfig{
		addr: *addr, users: *users, reports: *reports,
		batch: *batch, jobs: *jobs, shards: *shards,
		pprof: *pprofFlag, metricsOut: *metricsOut,
	}
	if *cfgPath != "" {
		sc, err := scfg.ParseFile(*cfgPath)
		if err != nil {
			return err
		}
		if cfg.scenario, err = sc.Compile(); err != nil {
			return err
		}
		cfg.classes = sc.ClassNames()
		fmt.Fprintf(out, "workload config: %s (%d periods, %d classes)\n",
			sc.Name, cfg.scenario.Periods, len(cfg.classes))
	}
	fmt.Fprintf(out, "tubeload: %d users × %d reports = %d reports, %d workers, shards=%d\n",
		cfg.users, cfg.reports, cfg.users*cfg.reports, parallel.Jobs(cfg.jobs), cfg.shards)

	if *clusterN > 0 {
		return runCluster(cfg, *clusterN, out)
	}

	var last *loadResult
	if *compare {
		single, err := runLoad(cfg, modeSingle)
		if err != nil {
			return err
		}
		single.print(out)
		batched, err := runLoad(cfg, modeBatch)
		if err != nil {
			return err
		}
		batched.print(out)
		wired, err := runLoad(cfg, modeWire)
		if err != nil {
			return err
		}
		wired.print(out)
		fmt.Fprintf(out, "batch/single speedup: %.1f× sustained reports/s\n",
			batched.throughput()/single.throughput())
		fmt.Fprintf(out, "wire/batch speedup:   %.2f× sustained reports/s\n",
			wired.throughput()/batched.throughput())
		last = wired
	} else {
		switch *mode {
		case modeSingle, modeBatch, modeWire:
		default:
			return fmt.Errorf("unknown mode %q (want single, batch or wire)", *mode)
		}
		res, err := runLoad(cfg, *mode)
		if err != nil {
			return err
		}
		res.print(out)
		last = res
	}
	if cfg.metricsOut != "" {
		// In -compare mode the snapshot covers the last (batched) run's
		// client and server registries plus the shared process registry.
		if err := dumpMetrics(cfg.metricsOut, out, last.registries...); err != nil {
			return err
		}
	}
	return nil
}

// dumpMetrics writes the merged exposition to path ("-" = the harness's
// own output writer).
func dumpMetrics(path string, out io.Writer, regs ...*obs.Registry) error {
	if path == "-" {
		return obs.WritePrometheusAll(out, regs...)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := obs.WritePrometheusAll(f, regs...); err != nil {
		f.Close()
		return fmt.Errorf("metrics-out: %w", err)
	}
	return f.Close()
}

var loadClasses = []string{"web", "ftp", "video"}

// loadScenario is a 12-period, 3-class deployment for the optimizer
// under load; the ingestion path does not depend on its numbers.
func loadScenario() *core.Scenario {
	demand := make([][]float64, 12)
	base := []float64{22, 13, 8, 8, 11, 19, 20, 23, 24, 25, 23, 26}
	capacity := make([]float64, 12)
	for i := range demand {
		demand[i] = []float64{base[i] * 0.2, base[i] * 0.3, base[i] * 0.5}
		capacity[i] = 18
	}
	return &core.Scenario{
		Periods:  12,
		Demand:   demand,
		Betas:    []float64{4, 1.5, 0.5},
		Capacity: capacity,
		Cost:     core.LinearCost(3),
	}
}

type loadResult struct {
	mode       string
	reports    int
	requests   int
	elapsed    time.Duration
	p50        time.Duration
	p95        time.Duration
	p99        time.Duration
	verified   string
	registries []*obs.Registry // client, server, and process registries for -metrics-out
}

func (r *loadResult) throughput() float64 {
	return float64(r.reports) / r.elapsed.Seconds()
}

func (r *loadResult) print(out io.Writer) {
	fmt.Fprintf(out, "%-10s %d reports / %d requests in %v → %.0f reports/s\n",
		r.mode+":", r.reports, r.requests, r.elapsed.Round(time.Millisecond), r.throughput())
	fmt.Fprintf(out, "           latency p50 %v  p95 %v  p99 %v\n",
		r.p50.Round(time.Microsecond), r.p95.Round(time.Microsecond), r.p99.Round(time.Microsecond))
	fmt.Fprintf(out, "           %s\n", r.verified)
}

// latencyBuckets resolves client-side request latency from 1µs to ~12s
// with ~±20% bucket resolution (factor-1.5 geometric spacing).
var latencyBuckets = obs.ExpBuckets(1e-6, 1.5, 40)

// Single-node ingestion modes.
const (
	modeSingle = "single"
	modeBatch  = "batch"
	modeWire   = "wire"
)

// runLoad starts a fresh optimizer+server, drives the full load, and
// verifies the accounted totals in-process before tearing down.
func runLoad(cfg loadConfig, loadMode string) (*loadResult, error) {
	classes := cfg.optClasses()
	opt, err := tube.NewOptimizer(tube.OptimizerConfig{
		Scenario: cfg.optScenario(),
		Classes:  classes,
		Shards:   cfg.shards,
	})
	if err != nil {
		return nil, err
	}
	srv, err := tube.NewServer(opt)
	if err != nil {
		return nil, err
	}
	if cfg.pprof {
		srv.EnablePprof()
	}
	mode := loadMode
	if loadMode != modeSingle {
		mode = fmt.Sprintf("%s=%d", loadMode, cfg.batch)
	}
	var tab *wire.ClassTable
	if loadMode == modeWire {
		// The wire endpoint exists on clustered servers; a one-member ring
		// makes this node own every user.
		tab, err = wire.NewClassTable(classes)
		if err != nil {
			return nil, err
		}
		if err := srv.EnableCluster(tube.ClusterOptions{
			SelfID:     "n0",
			Ring:       cluster.Config{Version: 1, Members: []cluster.Member{{ID: "n0", Addr: "http://self"}}},
			QueueDepth: 4096,
		}); err != nil {
			return nil, err
		}
	}
	// The harness's own registry: client-observed latency, striped so
	// the workers' concurrent Observes stay off each other's cache lines
	// — the same hot path the server's middleware runs.
	clientReg := obs.NewRegistry()
	lat := clientReg.Histogram("tubeload_request_seconds",
		"client-observed request latency", obs.Labels{"mode": mode}, latencyBuckets)
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveErr
	}()
	base := "http://" + ln.Addr().String()

	workers := parallel.Jobs(cfg.jobs)
	start := time.Now()
	err = parallel.ForEach(context.Background(), workers, workers, func(w int) error {
		client := &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		}
		defer client.CloseIdleConnections()
		var enc *wire.Encoder
		if loadMode == modeWire {
			enc = wire.NewEncoder(tab) // encoders are single-goroutine; one per worker
		}
		for u := w; u < cfg.users; u += workers {
			user := fmt.Sprintf("u%06d", u)
			switch loadMode {
			case modeBatch, modeWire:
				for lo := 0; lo < cfg.reports; lo += cfg.batch {
					hi := min(lo+cfg.batch, cfg.reports)
					reps := make([]tube.UsageReport, 0, hi-lo)
					for r := lo; r < hi; r++ {
						reps = append(reps, tube.UsageReport{
							User: user, Class: classes[r%len(classes)], VolumeMB: 1,
						})
					}
					var d time.Duration
					var err error
					if loadMode == modeWire {
						d, err = postWireTimed(client, base+"/usage/wire", enc, reps)
					} else {
						d, err = postTimed(client, base+"/usage/batch", reps, http.StatusOK)
					}
					if err != nil {
						return err
					}
					lat.Observe(d.Seconds())
				}
			default:
				for r := 0; r < cfg.reports; r++ {
					rep := tube.UsageReport{
						User: user, Class: classes[r%len(classes)], VolumeMB: 1,
					}
					d, err := postTimed(client, base+"/usage", rep, http.StatusNoContent)
					if err != nil {
						return err
					}
					lat.Observe(d.Seconds())
				}
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	if loadMode == modeWire {
		// Wire batches are acked on admission; flush the apply queue so
		// the engine totals below are final.
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.DrainCluster(dctx); err != nil {
			return nil, err
		}
		if shed := srv.ShedReports(); shed != 0 {
			return nil, fmt.Errorf("wire queue shed %d reports under load", shed)
		}
	}

	// Verify the sharded engine accounted every report exactly once.
	total := float64(cfg.users * cfg.reports)
	var accounted float64
	for _, v := range opt.Measurement().ClassTotals() {
		accounted += v
	}
	accepted := opt.Measurement().Accepted()
	// Every report carries exactly 1 MB, so the sums are integers well
	// below 2^53 and exact equality is the correct exactly-once check: a
	// tolerance would mask a lost or doubled report.
	//lint:allow floateq integral sums below 2^53 are exact; tolerance would mask lost reports
	if accounted != total || accepted != int64(cfg.users*cfg.reports) {
		return nil, fmt.Errorf("accounting mismatch: %.0f MB / %d reports accounted, want %.0f / %d",
			accounted, accepted, total, cfg.users*cfg.reports)
	}
	verified := fmt.Sprintf("verified: %d reports, %.0f MB accounted", accepted, accounted)

	// One merged snapshot serves all three quantiles (and the request
	// count) — no sorting, no per-request slice retention.
	snap := lat.Snapshot()
	return &loadResult{
		mode:       mode,
		reports:    cfg.users * cfg.reports,
		requests:   int(snap.Count),
		elapsed:    elapsed,
		p50:        secondsToDuration(snap.Quantile(0.50)),
		p95:        secondsToDuration(snap.Quantile(0.95)),
		p99:        secondsToDuration(snap.Quantile(0.99)),
		verified:   verified,
		registries: []*obs.Registry{clientReg, srv.Registry(), obs.Default()},
	}, nil
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// postWireTimed encodes a batch with the worker's encoder and posts it
// to the binary ingest endpoint, requiring full acceptance.
func postWireTimed(client *http.Client, url string, enc *wire.Encoder, reps []tube.UsageReport) (time.Duration, error) {
	body, err := enc.Encode(reps)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := client.Post(url, cluster.WireContentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var ack cluster.WireAck
	decErr := json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	d := time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	if decErr != nil {
		return 0, fmt.Errorf("POST %s: decode ack: %w", url, decErr)
	}
	if ack.Accepted != len(reps) || len(ack.Rejected) > 0 {
		return 0, fmt.Errorf("POST %s: accepted %d of %d (%d rejected)",
			url, ack.Accepted, len(reps), len(ack.Rejected))
	}
	return d, nil
}

func postTimed(client *http.Client, url string, payload any, wantStatus int) (time.Duration, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if resp.StatusCode != wantStatus {
		return 0, fmt.Errorf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	return d, nil
}
