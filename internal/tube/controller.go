package tube

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"tdp/internal/core"
	"tdp/internal/obs"
)

// Controller closes the paper's Fig. 1 loop across days: publish a day of
// optimized rewards, observe the aggregate user reaction, feed the
// TIP-vs-TDP differences to the profiling engine, and re-estimate the
// patience indices that drive the next day's optimization — the "weekly"
// estimation workflow §IV describes, where the ISP never observes
// individual sessions. Its one estimator is the day-batch ClassProfiler;
// the per-period streaming loop lives in the serving plane
// (Optimizer.ClosePeriod with a StreamProfiler).
//
// All methods are safe for concurrent use: the day cut (usage fold →
// re-estimation → belief update) runs under one critical section, so a
// concurrent Betas or PlanDay can never observe a half-applied day.
type Controller struct {
	mu       sync.Mutex
	cfg      ControllerConfig
	betas    []float64 // guarded by mu
	profiler *ClassProfiler
	days     int // guarded by mu
}

// ControllerConfig describes the deployment.
type ControllerConfig struct {
	// Demand[i][j] is the TIP baseline demand of class j in period i+1
	// (from a pre-TDP control period).
	Demand [][]float64
	// Classes names the traffic classes.
	Classes []string
	// InitialBetas is the ISP's prior patience estimate per class.
	InitialBetas []float64
	// Capacity, Cost, MaxRewardNorm parameterize the pricing model.
	Capacity      []float64
	Cost          core.CostFunc
	MaxRewardNorm float64
	// MinObservations gates re-estimation: the profiler must hold at
	// least this many days of data before its estimates replace the
	// prior (default 2 — a single day is rarely identifying).
	MinObservations int
	// EstimationIter caps the LM iterations per re-estimation (default
	// 150; the day-batch fit starts from scratch each day).
	EstimationIter int
}

// DayReport summarizes one closed day of the control loop.
type DayReport struct {
	// Day is the 1-based day number.
	Day int
	// Rewards is the schedule that was published.
	Rewards []float64
	// UsageTotals is the realized per-period aggregate usage.
	UsageTotals []float64
	// CongestionCost is Σ_i f(usage_i − A_i) on the realized usage.
	CongestionCost float64
	// Betas is the patience estimate in force *after* this day's
	// re-profiling.
	Betas []float64
	// Reestimated reports whether profiling updated the betas.
	Reestimated bool
	// Trace is the day's timed span tree (plan → react → observe →
	// estimate). Only RunDay/RunDayCtx populate it; a bare ObserveDay
	// leaves it nil.
	Trace *obs.Span
}

// NewController validates the configuration.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if len(cfg.Demand) < 2 {
		return nil, fmt.Errorf("demand needs ≥ 2 periods: %w", ErrBadInput)
	}
	if len(cfg.Classes) == 0 || len(cfg.InitialBetas) != len(cfg.Classes) {
		return nil, fmt.Errorf("%d classes, %d betas: %w", len(cfg.Classes), len(cfg.InitialBetas), ErrBadInput)
	}
	if cfg.MinObservations <= 0 {
		cfg.MinObservations = 2
	}
	if cfg.EstimationIter <= 0 {
		cfg.EstimationIter = 150
	}
	scn := &core.Scenario{
		Periods:       len(cfg.Demand),
		Demand:        cfg.Demand,
		Betas:         cfg.InitialBetas,
		Capacity:      cfg.Capacity,
		Cost:          cfg.Cost,
		MaxRewardNorm: cfg.MaxRewardNorm,
	}
	if err := scn.Validate(); err != nil {
		return nil, badInput(err)
	}
	prof, err := NewClassProfiler(cfg.Demand, scn.NormReward(), cfg.EstimationIter)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:      cfg,
		betas:    append([]float64(nil), cfg.InitialBetas...),
		profiler: prof,
	}, nil
}

// Betas returns the current per-class patience estimates.
func (c *Controller) Betas() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.betasLocked()
}

// betasLocked copies the belief. Callers must hold c.mu.
func (c *Controller) betasLocked() []float64 {
	return append([]float64(nil), c.betas...)
}

// Days returns the number of closed days.
func (c *Controller) Days() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.days
}

// scenario builds the pricing scenario from the current belief.
// Callers must hold c.mu.
func (c *Controller) scenario() *core.Scenario {
	return &core.Scenario{
		Periods:       len(c.cfg.Demand),
		Demand:        c.cfg.Demand,
		Betas:         c.betas,
		Capacity:      c.cfg.Capacity,
		Cost:          c.cfg.Cost,
		MaxRewardNorm: c.cfg.MaxRewardNorm,
	}
}

// PlanDay solves the pricing model under the current patience belief and
// returns the reward schedule to publish. The solve is the static model's
// certified dual solve, which needs no warm start: it certifies a
// 48-period day in about a millisecond.
func (c *Controller) PlanDay() ([]float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planLocked()
}

// planLocked is PlanDay's body. Callers must hold c.mu.
func (c *Controller) planLocked() ([]float64, error) {
	m, err := core.NewStaticModel(c.scenario())
	if err != nil {
		return nil, badInput(err)
	}
	pr, err := m.Solve()
	if err != nil {
		return nil, badInput(err)
	}
	reg := obs.Default()
	reg.Counter("controller_plans_total", "day-plan solves", nil).Inc()
	reg.Histogram("controller_plan_iterations", "solver iterations per day plan", nil, planBuckets).
		Observe(float64(pr.Iterations))
	setCertificateGap(pr)
	return pr.Rewards, nil
}

// setCertificateGap publishes a full price solve's certified relative
// optimality gap (+Inf for a solve without a certificate).
func setCertificateGap(pr *core.Pricing) {
	obs.Default().Gauge("solver_certificate_gap",
		"certified relative optimality gap of the latest full price solve", nil).Set(pr.RelGap())
}

// planBuckets spans 1…~5e5 iterations/evaluations per plan.
var planBuckets = obs.ExpBuckets(1, 2, 20)

// ObserveDay closes a day: the realized per-period, per-class usage (what
// the measurement engine accounted) is folded into the per-class
// profiler, and once enough days are banked the patience estimates are
// refreshed for the next PlanDay.
func (c *Controller) ObserveDay(rewards []float64, usage [][]float64) (*DayReport, error) {
	return c.observeDay(context.Background(), rewards, usage)
}

// observeDay is ObserveDay with span threading: under a traced context
// it times the profiler fold (profile.observe) and the re-estimation
// (profile.estimate) separately, since the LM fit dominates.
//
// The whole day cut runs under c.mu: fold, re-estimation and belief
// update are one critical section, so concurrent Betas/PlanDay callers
// see either the pre-day or the post-day belief, never a torn one.
func (c *Controller) observeDay(ctx context.Context, rewards []float64, usage [][]float64) (*DayReport, error) {
	n := len(c.cfg.Demand)
	if len(rewards) != n || len(usage) != n {
		return nil, fmt.Errorf("day has %d rewards, %d usage rows, want %d: %w",
			len(rewards), len(usage), n, ErrBadInput)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, obsSpan := obs.StartSpan(ctx, "profile.observe")
	if err := c.profiler.AddObservation(rewards, usage); err != nil {
		obsSpan.End()
		return nil, err
	}
	c.days++

	report := &DayReport{
		Day:         c.days,
		Rewards:     append([]float64(nil), rewards...),
		UsageTotals: make([]float64, n),
	}
	for i, row := range usage {
		for _, v := range row {
			report.UsageTotals[i] += v
		}
		report.CongestionCost += c.cfg.Cost.Value(report.UsageTotals[i] - c.cfg.Capacity[i])
	}
	obsSpan.End()
	if c.profiler.ObservationCount() >= c.cfg.MinObservations {
		_, estSpan := obs.StartSpan(ctx, "profile.estimate")
		betas, err := c.profiler.EstimateBetas()
		estSpan.End()
		if err != nil {
			return nil, fmt.Errorf("re-profiling: %w", err)
		}
		c.betas = betas
		report.Reestimated = true
	}
	report.Betas = c.betasLocked()
	c.publishDayMetrics(report)
	return report, nil
}

// publishDayMetrics exports the closed day to the default registry.
func (c *Controller) publishDayMetrics(report *DayReport) {
	reg := obs.Default()
	reg.Counter("controller_days_total", "control-loop days closed", nil).Inc()
	if report.Reestimated {
		reg.Counter("controller_reestimates_total", "patience re-estimations performed", nil).Inc()
	}
	reg.Gauge("controller_congestion_cost", "congestion cost of the last closed day", nil).
		Set(report.CongestionCost)
	for j, b := range report.Betas {
		reg.Gauge("controller_beta", "patience estimate in force, by class index", obs.Labels{"class": strconv.Itoa(j)}).
			Set(b)
	}
}

// UserModel maps a published reward schedule to the realized per-period,
// per-class usage — the population's reaction as the measurement engine
// would account it. Emulations and tests plug in ground-truth behavior.
type UserModel func(rewards []float64) ([][]float64, error)

// RunDay plans, lets users react, and observes — one full loop turn.
func (c *Controller) RunDay(react UserModel) (*DayReport, error) {
	return c.RunDayCtx(context.Background(), react)
}

// RunDayCtx is RunDay under a context: the day runs inside a span tree
// rooted at controller.run_day (attached as a child if ctx already
// carries a span), and the finished tree is returned on the report's
// Trace field — one timed trace of optimize → publish/react →
// ingest/observe → estimate per loop turn.
func (c *Controller) RunDayCtx(ctx context.Context, react UserModel) (*DayReport, error) {
	ctx, day := obs.StartSpan(ctx, "controller.run_day")
	defer func() {
		obs.Default().Histogram("controller_day_seconds",
			"wall-clock duration of one control-loop day", nil, dayBuckets).
			Observe(day.End().Seconds())
	}()

	_, plan := obs.StartSpan(ctx, "optimize.plan")
	rewards, err := c.PlanDay()
	plan.End()
	if err != nil {
		return nil, err
	}
	_, reactSpan := obs.StartSpan(ctx, "usage.react")
	usage, err := react(rewards)
	reactSpan.End()
	if err != nil {
		return nil, fmt.Errorf("user reaction: %w", err)
	}
	report, err := c.observeDay(ctx, rewards, usage)
	if err != nil {
		return nil, err
	}
	report.Trace = day
	return report, nil
}

// dayBuckets spans 100µs…~1.5h: planning on a laptop scenario sits at
// the low end, a million-user estimation day at the high end.
var dayBuckets = obs.ExpBuckets(1e-4, 2, 24)
