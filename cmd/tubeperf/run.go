package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/ingest"
	"tdp/internal/obs"
	"tdp/internal/scfg"
)

const (
	probeEvery  = 2 * time.Millisecond  // one price pull, round-robin over the nodes
	sampleEvery = 10 * time.Millisecond // queue-depth sampling in the traced pass
	probeGrace  = 4 * period
	syncTimeout = 10 * time.Second
)

// options configure one run of one workload.
type options struct {
	w        spec
	seed     uint64
	window   time.Duration
	scenario string // scenario config path
	setups   int    // set-ups timed; setup_s is their median
	trace    bool   // also run a traced pass for the per-layer metrics
	spans    string // traced pass: span JSONL path ("" = none)
	// wrap, when set, wraps the router's sender (tests inject faults).
	wrap func(cluster.Sender) cluster.Sender
}

// outcome is one run's verdict and metrics.
type outcome struct {
	endToEnd  map[string]value
	perLayer  map[string]value // traced runs only
	attempted int64
	failed    int64
	problems  []string // correctness violations
	errors    []string // first few operation errors
}

func (o *outcome) add(ps *pass) {
	o.attempted += ps.attempted.Load()
	o.failed += ps.failed.Load()
	o.problems = append(o.problems, ps.problems...)
	ps.errMu.Lock()
	o.errors = append(o.errors, ps.errs...)
	ps.errMu.Unlock()
}

// run executes one workload: set-ups, warm-up, the measured window and
// the correctness gate; with o.trace a second, traced pass follows and
// supplies the per-layer metrics.
func run(o options) (outcome, error) {
	var out outcome
	setups := max(o.setups, 1)
	if o.trace {
		setups = 1
	}
	ps, setupS, err := setUp(o, setups, nil)
	if err != nil {
		return out, err
	}
	plain, err := ps.execute()
	if err != nil {
		return out, err
	}
	out.add(ps)
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	plain["setup_s"] = value{setupS, setups}
	plain["rss_peak_mb"] = value{rss, 1}
	out.endToEnd = plain
	if !o.trace {
		return out, nil
	}

	runtime.GC()
	tr := newTracer(time.Now())
	ps, _, err = setUp(o, 1, tr)
	if err != nil {
		return out, err
	}
	traced, err := ps.execute()
	if err != nil {
		return out, err
	}
	out.perLayer = ps.layers()
	out.add(ps)
	for _, k := range []string{"tail.ack_p99_ms", "tail.close_p95_ms"} {
		out.perLayer[k] = plain[k]
	}
	// Overhead on the metric the workload is built around: capacity for
	// the closed loop, median ack latency for the open loops.
	var pct float64
	if o.w.closedLoop {
		pct = 100 * (plain["reports_per_s"].v - traced["reports_per_s"].v) / plain["reports_per_s"].v
	} else {
		pct = 100 * (traced["ack_p50_ms"].v - plain["ack_p50_ms"].v) / plain["ack_p50_ms"].v
	}
	out.perLayer["trace.overhead_pct"] = value{pct, 1}
	if o.spans != "" {
		if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
			return out, err
		}
		if err := writeJSONL(o.spans, tr.snapshot()); err != nil {
			return out, err
		}
	}
	return out, nil
}

// setUp builds the plane and generator n times, keeping the last and
// shutting the others down, and returns the median set-up time in
// seconds. Set-up covers everything before the first report: scenario
// compile, optimizers with their initial solve, servers, ring, router
// and generator tables.
func setUp(o options, n int, tr *tracer) (*pass, float64, error) {
	var (
		ps    *pass
		times []float64
	)
	for i := 0; i < n; i++ {
		if ps != nil {
			if err := ps.p.shutdown(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		var err error
		if ps, err = newPass(o, tr); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	return ps, percentile(times, 0.5), nil
}

type sendRec struct {
	due, start, end  int64
	acked            int32
	rounds, rerouted int32
	span             int64 // route span ID (traced)
	failed           bool
}

type closeRec struct {
	node        int // index into plane.all()
	due         int64
	start, end  int64
	dayBoundary bool
	after       int     // the node's period after the close
	users       float64 // distinct users in the closed period (traced, leader)
	failed      bool
}

type pullRec struct {
	node       int
	start, end int64
	period     int
	failed     bool
}

// reading is the counters a traced pass takes at each edge of the
// measured window.
type reading struct {
	cpu                                time.Duration
	allocBytes                         uint64
	gc                                 uint32
	refWarm, refCold, refReused        float64
	solvesWarm, solvesCold, evalsSaved float64
	pullFailures, applied              float64
}

// pass is one execution of a workload over one plane. Each goroutine
// owns the records it appends; they are read only after all have ended.
type pass struct {
	o       options
	p       *plane
	gen     *generator
	periods int // periods per day
	tr      *tracer
	fs      *frameStats

	t0       time.Time
	tm0, tm1 int64 // measured window, ns since t0

	sched     atomic.Pointer[[]float64] // schedule the probe last pulled
	clockDone chan struct{}
	attempted atomic.Int64
	failed    atomic.Int64

	errMu sync.Mutex
	errs  []string // guarded by errMu

	sends     []sendRec // drive
	generated float64   // drive: MB sent
	closes    []closeRec
	closedMB  map[*node]float64 // clock: Σ volumes ClosePeriod returned
	pulls     []pullRec         // probe
	joins     []float64         // probe: ms per join
	queue     []float64         // sampler: queued reports, all nodes
	at0, at1  reading           // sampler
	drainMS   float64
	problems  []string
}

func newPass(o options, tr *tracer) (*pass, error) {
	cfg, err := scfg.ParseFile(o.scenario)
	if err != nil {
		return nil, err
	}
	scn, err := cfg.Compile()
	if err != nil {
		return nil, err
	}
	classes := cfg.ClassNames()
	ps := &pass{o: o, periods: scn.Periods, tr: tr, closedMB: make(map[*node]float64)}
	wrap := o.wrap
	if tr != nil {
		ps.fs = &frameStats{}
		wrap = func(s cluster.Sender) cluster.Sender {
			if o.wrap != nil {
				s = o.wrap(s)
			}
			return &tracingSender{inner: s, tr: tr, st: ps.fs}
		}
	}
	if ps.p, err = newPlane(scn, classes, o.w, wrap); err != nil {
		return nil, err
	}
	if ps.gen, err = newGenerator(o.w, o.seed, scn, classes, ps.p.leader().opt.Schedule()); err != nil {
		return nil, errors.Join(err, ps.p.shutdown())
	}
	return ps, nil
}

func (ps *pass) now() int64              { return int64(time.Since(ps.t0)) }
func (ps *pass) since(t time.Time) int64 { return int64(t.Sub(ps.t0)) }
func (ps *pass) inWindow(t int64) bool   { return t >= ps.tm0 && t < ps.tm1 }
func (ps *pass) windowSeconds() float64  { return float64(ps.tm1-ps.tm0) / 1e9 }
func ms(ns int64) float64                { return float64(ns) / 1e6 }
func (ps *pass) sleepUntil(at int64) {
	if d := time.Duration(at - ps.now()); d > 0 {
		time.Sleep(d)
	}
}

// fail counts a failed operation and keeps its error for the log.
func (ps *pass) fail(err error) {
	ps.failed.Add(1)
	ps.errMu.Lock()
	if len(ps.errs) < 8 {
		ps.errs = append(ps.errs, err.Error())
	}
	ps.errMu.Unlock()
}

// execute runs warm-up and the measured window, checks correctness and
// returns the end-to-end metrics (setup_s and rss_peak_mb aside). The
// plane is shut down on return.
func (ps *pass) execute() (m map[string]value, err error) {
	defer func() {
		if serr := ps.p.shutdown(); err == nil && serr != nil {
			err = serr
		}
	}()
	ps.t0 = time.Now()
	if ps.tr != nil {
		ps.tr.t0 = ps.t0
	}
	ps.tm0 = int64(ps.o.w.warmup)
	ps.tm1 = ps.tm0 + int64(ps.o.window)
	ps.clockDone = make(chan struct{})

	var wg sync.WaitGroup
	goroutines := []func(){ps.drive, ps.clock, ps.probe}
	if ps.tr != nil {
		goroutines = append(goroutines, ps.sample)
	}
	for _, fn := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
	ps.check()
	return ps.endToEnd(), nil
}

// drive is the load generator: the only goroutine issuing Sends. Each
// batch is generated before it falls due, so generation is not counted
// as the system's latency.
func (ps *pass) drive() {
	w := ps.o.w
	var buf []ingest.Report
	switch {
	case w.closedLoop:
		for b := 0; ; b++ {
			buf = ps.gen.uniform(b, buf)
			due := ps.now()
			if due >= ps.tm1 {
				return
			}
			ps.send(b, due, buf)
		}
	case w.shaped:
		tick := int64(period)
		b := 0
		for k := 0; ; k++ {
			start := int64(k) * tick
			if start >= ps.tm1 {
				return
			}
			var sched []float64
			if s := ps.sched.Load(); s != nil {
				sched = *s
			}
			reps := ps.gen.shapedPeriod(k, sched)
			nb := (len(reps) + batchReports - 1) / batchReports
			for j := 0; j < nb; j++ {
				due := start + int64(j)*tick/int64(nb)
				if due >= ps.tm1 {
					return
				}
				ps.sleepUntil(due)
				ps.send(b, due, reps[j*batchReports:min((j+1)*batchReports, len(reps))])
				b++
			}
		}
	default:
		interval := float64(time.Second) * batchReports / w.rate
		for b := 0; ; b++ {
			due := int64(float64(b) * interval)
			if due >= ps.tm1 {
				return
			}
			buf = ps.gen.uniform(b, buf)
			ps.sleepUntil(due)
			ps.send(b, due, buf)
		}
	}
}

func (ps *pass) send(b int, due int64, reps []ingest.Report) {
	ctx := context.Background()
	id := ps.tr.newID()
	if ps.tr != nil {
		ctx = withParent(ctx, int64(b), id)
	}
	start := time.Now()
	st, err := ps.p.router.Send(ctx, reps)
	end := time.Now()
	rec := sendRec{due: due, start: ps.since(start), end: ps.since(end), span: id,
		acked: int32(st.Reports), rounds: int32(st.Rounds), rerouted: int32(st.Rerouted)}
	for i := range reps {
		ps.generated += reps[i].VolumeMB
	}
	ps.attempted.Add(1)
	if err != nil {
		rec.failed = true
		ps.fail(fmt.Errorf("send batch %d: %w", b, err))
	}
	ps.sends = append(ps.sends, rec)
	ps.tr.add(span{Trace: int64(b), ID: id, Name: spanRoute, Start: rec.start, End: rec.end})
}

// clock stands in for the operator's period timer: at each period's due
// time it closes the leader, then every other node. Like a ticker, it
// drops the ticks that fell due while a close round overran, rather
// than closing a burst of empty periods to catch up. It sends no
// network traffic.
func (ps *pass) clock() {
	defer close(ps.clockDone)
	tick := int64(period)
	var sc scraper
	for k := 0; ; k++ {
		due := int64(k+1) * tick
		if late := ps.now() - due; late >= tick {
			k += int(late / tick)
			due = int64(k+1) * tick
		}
		if due >= ps.tm1 {
			return
		}
		ps.sleepUntil(due)
		for i, nd := range ps.p.all() {
			rec := closeRec{node: i, due: due}
			if ps.tr != nil && i == 0 {
				rec.users = sc.sum(nd.srv.Registry(), "ingest_shard_users", "")
			}
			rec.dayBoundary = nd.opt.Period()%ps.periods == ps.periods-1
			start := time.Now()
			vols, err := nd.opt.ClosePeriod()
			end := time.Now()
			rec.start, rec.end, rec.after = ps.since(start), ps.since(end), nd.opt.Period()
			ps.attempted.Add(1)
			if err != nil {
				rec.failed = true
				ps.fail(fmt.Errorf("close period on %s: %w", nd.id, err))
			}
			for _, v := range vols {
				ps.closedMB[nd] += v
			}
			ps.closes = append(ps.closes, rec)
			ps.tr.add(span{Trace: int64(k), Name: spanClose, Node: nd.id, Start: rec.start, End: rec.end})
		}
	}
}

// probe pulls GET /price round-robin from every node, one pull per
// probeEvery (dropping the slots a blocked pull overran), and publishes
// the newest schedule to the generator. On ring-change workloads it also
// performs the joins and removals. It runs until probeGrace after the
// clock's last close, so the last periods' visibility is observed.
func (ps *pass) probe() {
	ctx := context.Background()
	w := ps.o.w
	stopAt := int64(math.MaxInt64)
	newest := -1
	step := 0
	every := int64(probeEvery)
	for i := 0; ; i++ {
		due := int64(i) * every
		if late := ps.now() - due; late >= every {
			i += int(late / every)
			due = int64(i) * every
		}
		if stopAt == math.MaxInt64 {
			select {
			case <-ps.clockDone:
				stopAt = max(ps.now(), ps.tm1) + int64(probeGrace)
			default:
			}
		}
		if due >= stopAt {
			return
		}
		ps.sleepUntil(due)
		if w.ringChanges && step < 4 && ps.now() >= ps.tm0+int64(step+1)*int64(ps.o.window)/5 {
			ps.ringChange(step)
			step++
		}
		nodes := ps.p.all()
		ni := i % len(nodes)
		start := time.Now()
		info, err := nodes[ni].gui.PullPrice(ctx)
		end := time.Now()
		rec := pullRec{node: ni, start: ps.since(start), end: ps.since(end), period: info.Period}
		ps.attempted.Add(1)
		if err != nil {
			rec.failed = true
			ps.fail(fmt.Errorf("pull price from %s: %w", nodes[ni].id, err))
		} else if info.Period > newest {
			newest = info.Period
			rewards := info.Rewards
			ps.sched.Store(&rewards)
		}
		ps.pulls = append(ps.pulls, rec)
		ps.tr.add(span{Trace: int64(info.Period), Name: spanPull, Node: nodes[ni].id, Start: rec.start, End: rec.end})
	}
}

// ringChange performs step s of the rebalance: join n4, remove n1,
// join n5, remove n2.
func (ps *pass) ringChange(s int) {
	put := func(nd *node, cfg cluster.Config) error {
		start := time.Now()
		err := ps.p.putRing(nd, cfg)
		end := time.Now()
		ps.attempted.Add(1)
		if err != nil {
			ps.fail(err)
		}
		ps.tr.add(span{Trace: int64(cfg.Version), Name: spanRingPut, Node: nd.id, Start: ps.since(start), End: ps.since(end)})
		return err
	}
	start := time.Now()
	var err error
	switch s {
	case 0, 2:
		err = ps.p.join(put)
	case 1:
		err = ps.p.remove("n1", put)
	case 3:
		err = ps.p.remove("n2", put)
	}
	if s%2 == 0 {
		ps.attempted.Add(1)
		if err != nil {
			ps.fail(fmt.Errorf("join: %w", err))
		}
		ps.joins = append(ps.joins, ms(int64(time.Since(start))))
	}
}

// sample reads the counters at both window edges and, in between, one
// node's queued reports every sampleEvery, round-robin, recording the
// sum of every node's latest reading. Scraping one registry per sample
// keeps the traced pass's own load small.
func (ps *pass) sample() {
	var sc scraper
	ps.sleepUntil(ps.tm0)
	ps.at0 = ps.read(&sc)
	latest := make(map[*node]float64)
	for i := 0; ps.now() < ps.tm1; i++ {
		time.Sleep(sampleEvery)
		nodes := ps.p.all()
		nd := nodes[i%len(nodes)]
		latest[nd] = sc.sum(nd.srv.Registry(), "cluster_queue_reports", "")
		var q float64
		for _, v := range latest {
			q += v
		}
		ps.queue = append(ps.queue, q)
	}
	ps.sleepUntil(ps.tm1)
	ps.at1 = ps.read(&sc)
}

func (ps *pass) read(sc *scraper) reading {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r := reading{cpu: cpuTime(), allocBytes: mem.TotalAlloc, gc: mem.NumGC}
	for _, nd := range ps.p.all() {
		reg := nd.srv.Registry()
		r.refWarm += sc.sum(reg, "stream_refines_total", `mode="warm"`)
		r.refCold += sc.sum(reg, "stream_refines_total", `mode="cold"`)
		r.refReused += sc.sum(reg, "stream_refines_total", `mode="reused"`)
		r.pullFailures += sc.sum(reg, "cluster_replication_failures_total", "")
		r.applied += sc.sum(reg, "ingest_reports_total", "")
	}
	def := obs.Default()
	r.solvesWarm = sc.sum(def, "online_period_solves_total", `start="warm"`)
	r.solvesCold = sc.sum(def, "online_period_solves_total", `start="cold"`)
	r.evalsSaved = sc.sum(def, "online_period_evals_saved_total", "")
	return r
}

// check is the correctness gate, run after the load has stopped: replica
// convergence, exactly-once accounting, nothing shed, and billing
// conservation.
func (ps *pass) check() {
	nodes := ps.p.all()
	leader := nodes[0]
	period, sched := leader.opt.Period(), leader.opt.Schedule()
	for _, nd := range nodes[1:] {
		if err := converge(nd, period, sched); err != nil {
			ps.problems = append(ps.problems, err.Error())
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), syncTimeout)
	defer cancel()
	var accounted, rolled, billed float64
	for _, nd := range nodes {
		start := time.Now()
		err := nd.srv.DrainCluster(ctx)
		end := time.Now()
		ps.drainMS += ms(int64(end.Sub(start)))
		ps.tr.add(span{Name: spanDrain, Node: nd.id, Start: ps.since(start), End: ps.since(end)})
		if err != nil {
			ps.problems = append(ps.problems, fmt.Sprintf("drain %s: %v", nd.id, err))
		}
		accounted += ps.closedMB[nd]
		rolled += ps.closedMB[nd]
		for _, v := range nd.opt.Measurement().ClassTotals() {
			accounted += v
		}
		if shed := nd.srv.ShedReports(); shed != 0 {
			ps.problems = append(ps.problems, fmt.Sprintf("%s shed %d reports", nd.id, shed))
		}
		b := nd.opt.Billing()
		for _, st := range b.Statements() {
			billed += (st.Charge + st.RewardCredit) / b.BasePrice()
		}
	}
	// Every volume is a multiple of the workload's power-of-two report
	// size and the totals stay far below 2^53 of them, so the sums are
	// exact and any difference is a lost or doubled report.
	//lint:allow floateq dyadic sums are exact; equality is the exactly-once property
	if accounted != ps.generated {
		ps.problems = append(ps.problems, fmt.Sprintf(
			"exactly-once violated: %.6f MB accounted across %d nodes, %.6f MB generated", accounted, len(nodes), ps.generated))
	}
	if math.Abs(billed-rolled) > 1e-9*math.Max(rolled, 1) {
		ps.problems = append(ps.problems, fmt.Sprintf(
			"billing conservation violated: statements cover %.6f MB, %.6f MB rolled over", billed, rolled))
	}
}

// converge waits until a follower serves the leader's final price.
func converge(nd *node, period int, sched []float64) error {
	deadline := time.Now().Add(syncTimeout)
	for {
		info, err := nd.gui.PullPrice(context.Background())
		if err == nil && info.Period == period && slices.Equal(info.Rewards, sched) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s did not converge: period %d vs leader %d (err %v)", nd.id, info.Period, period, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// windowSends returns the Sends due inside the measured window.
func (ps *pass) windowSends() []sendRec {
	var out []sendRec
	for _, s := range ps.sends {
		if ps.inWindow(s.due) {
			out = append(out, s)
		}
	}
	return out
}

// leaderCloses returns the leader's closes due in the window: those
// that closed an ordinary period, and those that closed a day.
func (ps *pass) leaderCloses() (periods, days []closeRec) {
	for _, c := range ps.closes {
		if c.node != 0 || c.failed || !ps.inWindow(c.due) {
			continue
		}
		if c.dayBoundary {
			days = append(days, c)
		} else {
			periods = append(periods, c)
		}
	}
	return periods, days
}

func durationsMS(cs []closeRec) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = ms(c.end - c.start)
	}
	return out
}

// visibility returns, per ordinary leader close in the window, the time
// from the close's start to the first follower pull showing the new
// period, and the same per follower keyed by tree depth. Day-boundary
// closes have their own metric.
func (ps *pass) visibility() (first []float64, byDepth map[int][]float64) {
	nodes := ps.p.all()
	type seen struct {
		end    int64
		period int // running max over the node's pulls
	}
	per := make([][]seen, len(nodes))
	for _, pr := range ps.pulls {
		if pr.failed || pr.node == 0 {
			continue
		}
		l := per[pr.node]
		p := pr.period
		if n := len(l); n > 0 && l[n-1].period > p {
			p = l[n-1].period
		}
		per[pr.node] = append(l, seen{pr.end, p})
	}
	byDepth = make(map[int][]float64)
	closes, _ := ps.leaderCloses()
	for _, c := range closes {
		best := int64(-1)
		for f := 1; f < len(nodes); f++ {
			l := per[f]
			i := sort.Search(len(l), func(i int) bool { return l[i].period >= c.after })
			if i == len(l) {
				continue
			}
			byDepth[nodes[f].depth] = append(byDepth[nodes[f].depth], ms(l[i].end-c.start))
			if best < 0 || l[i].end < best {
				best = l[i].end
			}
		}
		if best >= 0 {
			first = append(first, ms(best-c.start))
		}
	}
	return first, byDepth
}

// endToEnd computes the user-visible metrics of the window, and the
// tail percentiles reported with the per-layer metrics.
func (ps *pass) endToEnd() map[string]value {
	m := make(map[string]value)
	// Throughput counts the reports of the batches due in the window, over
	// the time from the window's start until the last of them was acked:
	// a plane that falls behind its load acks the last batch late.
	var acked int
	var ack []float64
	last := ps.tm0
	for _, s := range ps.sends {
		if s.failed || !ps.inWindow(s.due) {
			continue
		}
		acked += int(s.acked)
		ack = append(ack, ms(s.end-s.due))
		last = max(last, s.end)
	}
	m["reports_per_s"] = value{float64(acked) / (float64(last-ps.tm0) / 1e9), acked}
	m["ack_p50_ms"] = value{percentile(ack, 0.50), len(ack)}
	m["tail.ack_p99_ms"] = value{percentile(ack, 0.99), len(ack)}
	periods, _ := ps.leaderCloses()
	closes := durationsMS(periods)
	m["tail.close_p95_ms"] = value{percentile(closes, 0.95), len(closes)}
	vis, _ := ps.visibility()
	m["price_visible_p50_ms"] = value{percentile(vis, 0.50), len(vis)}
	m["price_visible_p95_ms"] = value{percentile(vis, 0.95), len(vis)}
	return m
}

// layers computes the per-layer metrics of a traced pass.
func (ps *pass) layers() map[string]value {
	m := make(map[string]value)
	sends := ps.windowSends()
	spans := ps.tr.snapshot()
	children := make(map[int64][]interval)
	var fetch, puts []float64
	for _, s := range spans {
		switch s.Name {
		case spanHTTP:
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		case spanRingFetch:
			fetch = append(fetch, ms(s.End-s.Start))
		case spanRingPut:
			puts = append(puts, ms(s.End-s.Start))
		}
	}
	var lag, self, frameUS, rounds []float64
	var frames, rerouted float64
	// The route self time and the http union split a Send correctly only
	// when every frame is charged to the Send that made it.
	if p := misattributed(spans); p != "" {
		ps.problems = append(ps.problems, p)
	}
	for _, s := range sends {
		lag = append(lag, ms(s.start-s.due))
		kids := children[s.span]
		self = append(self, float64(selfTime(interval{s.start, s.end}, kids))/1e3)
		for _, k := range kids {
			frameUS = append(frameUS, float64(k.hi-k.lo)/1e3)
		}
		frames += float64(len(kids))
		rounds = append(rounds, float64(s.rounds))
		rerouted += float64(s.rerouted)
	}
	m["load.send_lag_p99_ms"] = value{percentile(lag, 0.99), len(lag)}
	m["cluster.route_self_us_p50"] = value{percentile(self, 0.50), len(self)}
	m["cluster.route_self_us_p99"] = value{percentile(self, 0.99), len(self)}
	m["cluster.frames_per_send"] = value{frames / float64(max(len(sends), 1)), len(sends)}
	m["cluster.rounds_mean"] = value{mean(rounds), len(rounds)}
	m["cluster.rerouted_reports"] = value{rerouted, len(sends)}
	m["cluster.ring_fetch_ms_p50"] = value{percentile(fetch, 0.50), len(fetch)}
	m["cluster.ring_put_ms_p50"] = value{percentile(puts, 0.50), len(puts)}
	m["cluster.join_ms"] = value{mean(ps.joins), len(ps.joins)}
	m["http.frame_us_p50"] = value{percentile(frameUS, 0.50), len(frameUS)}
	m["http.frame_us_p99"] = value{percentile(frameUS, 0.99), len(frameUS)}

	fs := ps.fs
	frameRecs, frameUsers := float64(fs.records.Load()), float64(fs.users.Load())
	m["wire.bytes_per_report"] = value{float64(fs.bytes.Load()) / math.Max(frameRecs, 1), int(fs.frames.Load())}
	m["wire.records_per_user"] = value{frameRecs / math.Max(frameUsers, 1), int(fs.frames.Load())}
	m["http.frame_errors"] = value{float64(fs.errors.Load()), int(fs.frames.Load())}
	var shed float64
	for _, nd := range ps.p.all() {
		shed += float64(nd.srv.ShedReports())
	}
	m["cluster.shed_reports"] = value{shed, 1}
	m["cluster.queue_reports_p99"] = value{percentile(ps.queue, 0.99), len(ps.queue)}
	m["cluster.drain_ms"] = value{ps.drainMS, len(ps.p.all())}
	a0, a1 := ps.at0, ps.at1
	secs := ps.windowSeconds()
	m["ingest.applied_per_s"] = value{(a1.applied - a0.applied) / secs, 1}

	var clockLag, leader, follower, dayLeader, dayFollower, users []float64
	for _, c := range ps.closes {
		if c.failed || !ps.inWindow(c.due) {
			continue
		}
		d := ms(c.end - c.start)
		if c.node == 0 {
			users = append(users, c.users)
		}
		switch {
		case c.node == 0 && c.dayBoundary:
			dayLeader = append(dayLeader, d)
		case c.node == 0:
			leader = append(leader, d)
		case c.dayBoundary:
			dayFollower = append(dayFollower, d)
		default:
			follower = append(follower, d)
		}
		if c.node == 0 {
			clockLag = append(clockLag, ms(c.start-c.due))
		}
	}
	m["load.clock_lag_p99_ms"] = value{percentile(clockLag, 0.99), len(clockLag)}
	m["tube.close_leader_ms_p50"] = value{percentile(leader, 0.50), len(leader)}
	m["tube.close_follower_ms_p50"] = value{percentile(follower, 0.50), len(follower)}
	m["tube.close_users_mean"] = value{mean(users), len(users)}
	m["tube.day_close_leader_ms_p50"] = value{percentile(dayLeader, 0.50), len(dayLeader)}
	m["tube.day_close_follower_ms_p50"] = value{percentile(dayFollower, 0.50), len(dayFollower)}
	m["estimate.refines_warm"] = value{a1.refWarm - a0.refWarm, 1}
	m["estimate.refines_cold"] = value{a1.refCold - a0.refCold, 1}
	m["estimate.refines_reused"] = value{a1.refReused - a0.refReused, 1}
	m["core.period_solves_warm"] = value{a1.solvesWarm - a0.solvesWarm, 1}
	m["core.period_solves_cold"] = value{a1.solvesCold - a0.solvesCold, 1}
	m["core.period_evals_saved"] = value{a1.evalsSaved - a0.evalsSaved, 1}
	_, byDepth := ps.visibility()
	m["replicate.visible_ms_p50.depth1"] = value{percentile(byDepth[1], 0.50), len(byDepth[1])}
	m["replicate.visible_ms_p50.depth2"] = value{percentile(byDepth[2], 0.50), len(byDepth[2])}
	m["replicate.pull_failures"] = value{a1.pullFailures - a0.pullFailures, 1}

	var pulls, leaderPulls []float64
	for _, p := range ps.pulls {
		if p.failed || !ps.inWindow(p.start) {
			continue
		}
		pulls = append(pulls, ms(p.end-p.start))
		if p.node == 0 {
			leaderPulls = append(leaderPulls, ms(p.end-p.start))
		}
	}
	m["tube.gui_pull_ms_p50"] = value{percentile(pulls, 0.50), len(pulls)}
	m["tube.leader_pull_ms_p99"] = value{percentile(leaderPulls, 0.99), len(leaderPulls)}

	reports := m["ingest.applied_per_s"].v * secs
	m["process.cpu_us_per_report"] = value{float64((a1.cpu - a0.cpu).Microseconds()) / math.Max(reports, 1), 1}
	m["process.alloc_mb_per_s"] = value{float64(a1.allocBytes-a0.allocBytes) / (1 << 20) / secs, 1}
	m["process.gc_cycles"] = value{float64(a1.gc - a0.gc), 1}
	return m
}
