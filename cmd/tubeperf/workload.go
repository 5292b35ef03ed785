package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"tdp/internal/core"
	"tdp/internal/ingest"
)

// batchReports is the report count of one Router.Send.
const batchReports = 1024

// spec is one workload: the load shape the generator, clock and probe run.
// Every workload runs the same four-node plane, period clock and price
// probe; they differ in population, load shape and what they stress.
type spec struct {
	name string

	users int
	// streaming: the leader re-estimates patience at every close over a
	// one-day window. One day keeps every refit the same size, so day
	// closes compare from the first day on.
	streaming bool
	warmup    time.Duration

	// reportMB is every report's volume: a power of two, so sums of
	// volumes are exact and the exactly-once check can demand equality.
	reportMB float64

	closedLoop bool    // the next Send starts when the previous returns
	rate       float64 // uniform open loop: reports/s
	// shaped: period i carries round(x_i^j(p)/reportMB) reports of class
	// j, x = core.StaticModel.UsageByType on the schedule the probe last
	// pulled, so users react to the published price and the plane sees
	// the scenario's demand in its own units. Otherwise the class mix is
	// uniform.
	shaped bool
	// runs: each user emits about ten reports spanning the classes back
	// to back, instead of one report per user.
	runs bool
	// ringChanges: join n4, remove n1, join n5, remove n2 at 20/40/60/80%
	// of the measured window, pushed to the nodes with the router stale.
	ringChanges bool
}

// period is every workload's clock: 25 ms, the followers' pull
// interval, so a static48 day lasts 1.2 s when no close overruns.
const period = 25 * time.Millisecond

// workloads are the benchmark's load shapes; README.md says why each
// exists and why only loop and price re-estimate patience.
var workloads = []spec{
	{
		// On the streaming workloads the warm-up covers one day and the
		// first refit.
		name: "loop", users: 100_000, streaming: true, warmup: 4 * time.Second,
		reportMB: 1.0 / 256, shaped: true, // ≈190k reports/s day mean
	},
	{
		name: "ingest", users: 1_000_000, warmup: 3 * time.Second,
		reportMB: 1.0 / 1024, closedLoop: true,
	},
	{
		name: "price", users: 2_000, streaming: true, warmup: 4 * time.Second,
		reportMB: 1.0 / 64, shaped: true, runs: true, // ≈47k reports/s day mean
	},
	{
		name: "rebalance", users: 100_000, warmup: 2 * time.Second,
		reportMB: 1.0 / 256, rate: 250_000, ringChanges: true,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// generator makes the report stream from the seed alone: a seeded PCG
// permutes the users and interleaves the classes, so the same seed
// gives the same reports for the same schedule.
type generator struct {
	w       spec
	seed    uint64
	names   []string // user names, one allocation per user
	perm    []int32  // seeded user order
	classes []string
	rng     *rand.Rand
	pcg     *rand.PCG

	// shaped workloads
	model  *core.StaticModel
	sched  []float64 // schedule x was last evaluated on
	usage  [][]float64
	cursor int // next position in perm
	buf    []ingest.Report
	order  []int
}

func newGenerator(w spec, seed uint64, scn *core.Scenario, classes []string, initial []float64) (*generator, error) {
	g := &generator{w: w, seed: seed, classes: classes, names: make([]string, w.users)}
	for u := range g.names {
		g.names[u] = fmt.Sprintf("u%07d", u)
	}
	g.pcg = rand.NewPCG(seed, 0x7475626570657266)
	g.rng = rand.New(g.pcg)
	g.perm = make([]int32, w.users)
	for i := range g.perm {
		g.perm[i] = int32(i)
	}
	g.rng.Shuffle(len(g.perm), func(i, j int) { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] })
	if !w.shaped {
		return g, nil
	}
	model, err := core.NewStaticModel(scn.Clone())
	if err != nil {
		return nil, err
	}
	g.model = model
	g.observe(initial)
	return g, nil
}

// observe re-evaluates the usage model when the schedule changed.
func (g *generator) observe(sched []float64) {
	if sched == nil || slices.Equal(sched, g.sched) {
		return
	}
	g.sched = sched
	g.usage = g.model.UsageByType(sched)
}

// uniform fills batch b of a uniform stream: report k of the stream goes
// to the k-th user of the permutation (mod users), its class drawn by a
// PCG seeded with (seed, b), so batch b is a pure function of b.
func (g *generator) uniform(b int, buf []ingest.Report) []ingest.Report {
	buf = buf[:0]
	g.pcg.Seed(g.seed, uint64(b))
	n := len(g.names)
	for k := b * batchReports; k < (b+1)*batchReports; k++ {
		buf = append(buf, ingest.Report{
			User:     g.names[g.perm[k%n]],
			Class:    g.classes[g.rng.IntN(len(g.classes))],
			VolumeMB: g.w.reportMB,
		})
	}
	return buf
}

// shapedPeriod returns period k's reports for a model-shaped workload:
// round(x_i^j/reportMB) reports of class j for period i = k mod n, on
// the schedule sched. The slice is reused by the next call.
func (g *generator) shapedPeriod(k int, sched []float64) []ingest.Report {
	g.observe(sched)
	row := g.usage[k%len(g.usage)]
	g.order = g.order[:0]
	for j, x := range row {
		for c := int(math.Round(max(x, 0) / g.w.reportMB)); c > 0; c-- {
			g.order = append(g.order, j)
		}
	}
	reps := g.buf[:0]
	n := len(g.names)
	if g.w.runs {
		// order is class-major; user u takes every users-th entry from u,
		// so each user's run of ~10 reports spans the classes.
		users := (len(g.order) + 9) / 10
		for u := 0; u < users; u++ {
			user := g.names[g.perm[g.cursor%n]]
			g.cursor++
			for p := u; p < len(g.order); p += users {
				reps = append(reps, ingest.Report{User: user, Class: g.classes[g.order[p]], VolumeMB: g.w.reportMB})
			}
		}
	} else {
		// One report per user, the classes interleaved by a seeded shuffle.
		g.pcg.Seed(g.seed, uint64(k))
		g.rng.Shuffle(len(g.order), func(a, b int) { g.order[a], g.order[b] = g.order[b], g.order[a] })
		for _, j := range g.order {
			reps = append(reps, ingest.Report{User: g.names[g.perm[g.cursor%n]], Class: g.classes[j], VolumeMB: g.w.reportMB})
			g.cursor++
		}
	}
	g.buf = reps
	return reps
}
