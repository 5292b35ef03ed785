package tube

import (
	"fmt"
	"runtime"
	"sync"

	"tdp/internal/core"
	"tdp/internal/ingest"
	"tdp/internal/mechanism"
	"tdp/internal/obs"
	"tdp/internal/rrd"
)

// historyRows bounds the optimizer's price and usage RRD archives.
const historyRows = 1024

// OptimizerConfig describes a TUBE Optimizer deployment.
type OptimizerConfig struct {
	// Scenario is the initial demand estimate and cost structure; its
	// Betas correspond one-to-one with Classes.
	Scenario *core.Scenario
	// Classes names the traffic classes (len == len(Scenario.Betas)).
	Classes []string
	// UseDynamic selects the carry-over dynamic model for price
	// determination (the paper's TUBE Optimizer uses the online algorithm
	// backed by the dynamic model).
	UseDynamic bool
	// BasePrice is the baseline usage price per volume unit for billing
	// ($0.10 units; default 1).
	BasePrice float64
	// Shards is the measurement engine's lock-stripe count (0 → the
	// ingest package default, sized from GOMAXPROCS).
	Shards int
	// Streaming enables the streaming profiling engine: per-class
	// patience is re-estimated with a warm-started refinement at every
	// period close, fed from the same atomic rollover cut that drives
	// billing and price determination.
	Streaming bool
	// StreamWindow is the streaming engine's day window (default 3).
	StreamWindow int
	// Pricer, when set, replaces the online per-period price engine with
	// a pricing mechanism from the zoo: the initial schedule comes from
	// the mechanism's day plan, the schedule is re-planned once per day
	// from the observed per-period usage totals, and the online engine
	// (per-period re-optimization, demand EMA) is not constructed.
	// Billing, measurement, history and streaming profiling are
	// unchanged — only price determination is swapped.
	Pricer mechanism.Pricer
}

// Optimizer is the TUBE server brain: it owns the measurement engine, the
// optional streaming profiling engine, the online price determination
// engine, and the price and usage history.
type Optimizer struct {
	mu        sync.Mutex
	cfg       OptimizerConfig
	meas      *ingest.Engine        // internally synchronized (sharded engine)
	stream    *StreamProfiler       // internally synchronized; nil unless cfg.Streaming
	online    *core.OnlineOptimizer // guarded by mu: the online engine has no lock of its own; nil when cfg.Pricer is set
	priceHist *rrd.DB
	usageHist *rrd.DB
	billing   *Billing
	dayUsage  []float64 // guarded by mu: per-period usage totals of the day in progress (mechanism mode only)

	// served is, on a cluster follower, the record of the prices this
	// node served from its replica, which its closes bill at; nil on a
	// leader or a standalone server, which serve their own schedule.
	served *servedPrices // guarded by mu

	// pub is the published (period, day schedule) record. Only
	// ClosePeriod replaces it, under mu; readers load it lock-free, so
	// they never see a torn pair and never wait on a close or a refit.
	pub *board

	// coldPeriodEvals is a one-shot cold-solve calibration measured at
	// construction: the 1-D evaluation count of a full-bracket per-period
	// solve on this scenario, the baseline for the evals-saved metric.
	coldPeriodEvals int

	// The close's handles in obs.Default(), each resolved on its first
	// use, so a close does no registry lookup and /metrics lists only
	// series that have counted something. Guarded by mu.
	solveMet   [2]solveMetrics // by start mode: cold, warm
	evalsSaved *obs.Counter
	plans      *obs.Counter
}

// solveMetrics is one start mode's per-period solve metrics.
type solveMetrics struct {
	solves *obs.Counter
	evals  *obs.Histogram
}

// NewOptimizer validates the configuration, computes the initial reward
// schedule with a full offline solve, and prepares the engines.
func NewOptimizer(cfg OptimizerConfig) (*Optimizer, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("nil scenario: %w", ErrBadInput)
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, badInput(err)
	}
	if len(cfg.Classes) != len(cfg.Scenario.Betas) {
		return nil, fmt.Errorf("%d classes for %d session types: %w",
			len(cfg.Classes), len(cfg.Scenario.Betas), ErrBadInput)
	}
	if cfg.BasePrice == 0 {
		cfg.BasePrice = 1
	}
	meas, err := ingest.NewEngine(cfg.Classes, cfg.Shards)
	if err != nil {
		return nil, badInput(err)
	}
	var stream *StreamProfiler
	if cfg.Streaming {
		stream, err = NewStreamProfiler(cfg.Scenario.Demand, cfg.Scenario.NormReward(),
			StreamConfig{Window: cfg.StreamWindow})
		if err != nil {
			return nil, err
		}
	}
	var (
		online  *core.OnlineOptimizer
		rewards []float64
		coldPS  core.PeriodSolve
	)
	if cfg.Pricer != nil {
		if rewards, err = mechanism.Plan(cfg.Pricer, cfg.Scenario, nil); err != nil {
			return nil, badInput(err)
		}
	} else {
		online, err = core.NewOnlineOptimizer(cfg.Scenario, core.OnlineConfig{
			UseDynamic: cfg.UseDynamic,
		})
		if err != nil {
			return nil, badInput(err)
		}
		rewards = online.Rewards()
		setCertificateGap(online.InitialPlan())
	}
	priceHist, err := rrd.New(1, rrd.ArchiveSpec{Func: rrd.Last, Steps: 1, Rows: historyRows})
	if err != nil {
		return nil, err
	}
	usageHist, err := rrd.New(1, rrd.ArchiveSpec{Func: rrd.Last, Steps: 1, Rows: historyRows})
	if err != nil {
		return nil, err
	}
	billing, err := NewBilling(meas, cfg.BasePrice)
	if err != nil {
		return nil, err
	}
	if online != nil {
		// One-shot calibration: measure what a cold full-bracket per-period
		// solve costs here, so warm solves can report evaluations saved.
		if coldPS, err = online.ColdPeriodSolve(0); err != nil {
			return nil, err
		}
	}
	o := &Optimizer{
		cfg:             cfg,
		meas:            meas,
		stream:          stream,
		online:          online,
		priceHist:       priceHist,
		usageHist:       usageHist,
		billing:         billing,
		dayUsage:        make([]float64, cfg.Scenario.Periods),
		pub:             newBoard(),
		coldPeriodEvals: coldPS.Evals,
	}
	o.publish(0, rewards)
	return o, nil
}

// followPrices makes the optimizer bill at the prices a cluster
// follower serves from its replica instead of at its own schedule.
func (o *Optimizer) followPrices(sp *servedPrices) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.served = sp
}

// Measurement exposes the measurement engine for traffic accounting:
// per-user, per-class volume for the current period, the role IPtables
// counters play in the paper's prototype. Its validation errors wrap
// ingest.ErrBadReport, which the HTTP handlers map to 400.
func (o *Optimizer) Measurement() *ingest.Engine { return o.meas }

// Stream exposes the streaming profiling engine (nil unless the
// optimizer was configured with Streaming).
func (o *Optimizer) Stream() *StreamProfiler { return o.stream }

// Billing exposes the billing engine.
func (o *Optimizer) Billing() *Billing { return o.billing }

// Period returns the index (0-based) of the period now in progress.
func (o *Optimizer) Period() int { return o.pub.load().period }

// CurrentReward returns the published reward for the period in progress.
func (o *Optimizer) CurrentReward() float64 { return o.pub.load().priceInfo().Reward }

// Schedule returns a copy of the full day reward schedule.
func (o *Optimizer) Schedule() []float64 {
	return append([]float64(nil), o.pub.load().rewards...)
}

// publish makes (period, rewards) the record every reader sees. The
// schedule is copied, so the record stays immutable whatever the
// caller does with its slice. Callers must hold o.mu (or own o
// exclusively, as NewOptimizer does).
func (o *Optimizer) publish(period int, rewards []float64) {
	o.pub.publish(newPublication(period, append([]float64(nil), rewards...), o.pub.stamp()))
}

// ClosePeriod ends the period in progress: it snapshots and resets the
// measurement counters, bills the period at the reward this node served
// for it, feeds the observation to the online price engine, logs price
// and usage history, and publishes the updated schedule as one new
// record. It returns the closed period's per-class measured volumes.
//
// Publishing wakes the price polls held for the new record (followers'
// GET /cluster/snapshot long polls). They are readied behind the
// caller, so ClosePeriod yields the processor once the record is out:
// the new price leaves the node before the caller's next work, such as
// closing the other nodes of a cluster in turn, rather than after it.
func (o *Optimizer) ClosePeriod() ([]float64, error) {
	observed, err := o.closePeriod()
	if err == nil {
		runtime.Gosched()
	}
	return observed, err
}

// closePeriod is ClosePeriod under o.mu.
func (o *Optimizer) closePeriod() ([]float64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	// One atomic rollover: per-class and per-user totals come from the
	// same consistent cut, so a report racing the period close cannot be
	// billed in one period but profiled in the other.
	cut := o.meas.Rollover()
	defer cut.Release()
	observed := cut.ClassTotals()
	cur := o.pub.load()
	period, rewards := cur.period, cur.rewards
	idx := period % o.cfg.Scenario.Periods
	reward := rewards[idx]

	billed := reward
	if o.served != nil {
		billed = o.served.billNext(reward)
	}
	if err := o.billing.AddPeriod(cut, billed); err != nil {
		return nil, fmt.Errorf("billing: %w", err)
	}

	// Streaming profiling rides the same critical section: the fold
	// consumes the (reward, totals) pair of THIS rollover cut before any
	// schedule update below can change the reward — billed, profiled and
	// re-priced usage all describe one atomic period close.
	if o.stream != nil {
		if _, err := o.stream.FoldPeriod(idx, reward, observed); err != nil {
			return nil, fmt.Errorf("stream profile: %w", err)
		}
		if o.stream.Days() > 0 {
			if _, err := o.stream.Refine(); err != nil {
				return nil, fmt.Errorf("stream refine: %w", err)
			}
		}
	}

	var total float64
	for _, v := range observed {
		total += v
	}

	if o.online != nil {
		ps, err := o.online.Advance(observed)
		if err != nil {
			return nil, fmt.Errorf("close period %d: %w", period, err)
		}
		rewards = o.online.Rewards()
		o.recordPeriodSolve(ps)
	} else {
		// Mechanism mode: bank the period's usage total; at the day
		// boundary hand the full day profile to the mechanism and publish
		// its next-day schedule (mechanisms plan whole days, not periods).
		o.dayUsage[idx] = total
		if idx == o.cfg.Scenario.Periods-1 {
			var err error
			if rewards, err = o.replanMechanism(); err != nil {
				return nil, err
			}
		}
	}

	t := int64(period + 1)
	if err := o.priceHist.Update(t, reward); err != nil {
		return nil, fmt.Errorf("price history: %w", err)
	}
	if err := o.usageHist.Update(t, total); err != nil {
		return nil, fmt.Errorf("usage history: %w", err)
	}
	o.publish(period+1, rewards)
	return observed, nil
}

// replanMechanism closes a day in mechanism mode: the day's observed
// usage totals go to the pricing mechanism as its observation, and it
// returns the schedule to publish for the next day. Callers must hold
// o.mu.
func (o *Optimizer) replanMechanism() ([]float64, error) {
	ob := &mechanism.Observation{Usage: append([]float64(nil), o.dayUsage...)}
	rewards, err := mechanism.Plan(o.cfg.Pricer, o.cfg.Scenario, ob)
	if err != nil {
		return nil, badInput(err)
	}
	if o.plans == nil {
		o.plans = obs.Default().Counter("optimizer_mechanism_plans_total",
			"mechanism day plans published, by mechanism",
			obs.Labels{"mechanism": o.cfg.Pricer.Name()})
	}
	o.plans.Inc()
	return rewards, nil
}

// recordPeriodSolve publishes one online re-optimization to the default
// registry, keyed by whether the warm bracket sufficed. Callers must
// hold o.mu.
func (o *Optimizer) recordPeriodSolve(ps core.PeriodSolve) {
	m, start := &o.solveMet[0], "cold"
	if ps.Warm {
		m, start = &o.solveMet[1], "warm"
	}
	if m.solves == nil {
		reg, lbl := obs.Default(), obs.Labels{"start": start}
		m.solves = reg.Counter("online_period_solves_total", "per-period re-optimizations, by start mode", lbl)
		m.evals = reg.Histogram("online_period_solve_evals", "1-D cost evaluations per period re-optimization",
			lbl, periodEvalBuckets)
	}
	m.solves.Inc()
	m.evals.Observe(float64(ps.Evals))
	if ps.Warm {
		if saved := o.coldPeriodEvals - ps.Evals; saved > 0 {
			if o.evalsSaved == nil {
				o.evalsSaved = obs.Default().Counter("online_period_evals_saved_total",
					"1-D cost evaluations avoided by warm-started period solves, vs the startup cold calibration", nil)
			}
			o.evalsSaved.Add(int64(saved))
		}
	}
}

// periodEvalBuckets spans 1…1024 one-dimensional evaluations per solve.
var periodEvalBuckets = obs.ExpBuckets(1, 2, 11)

// PriceHistory returns the archived per-period published rewards.
func (o *Optimizer) PriceHistory() ([]rrd.Point, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.priceHist.Fetch(0)
}

// UsageHistory returns the archived per-period aggregate usage.
func (o *Optimizer) UsageHistory() ([]rrd.Point, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.usageHist.Fetch(0)
}

// DemandEstimate returns the online engine's current demand estimate.
// In mechanism mode there is no online engine and no demand EMA, so the
// declared scenario demand is returned unchanged.
func (o *Optimizer) DemandEstimate() [][]float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.online == nil {
		out := make([][]float64, len(o.cfg.Scenario.Demand))
		for i, row := range o.cfg.Scenario.Demand {
			out[i] = append([]float64(nil), row...)
		}
		return out
	}
	return o.online.DemandEstimate()
}
