// Command tubesim runs the end-to-end TUBE system against the emulated
// testbed: it starts the TUBE Optimizer's HTTP price server, drives the
// §VI-C experiment against it (GUI clients pull prices once per period
// and report usage as wire frames to POST /usage/wire), and prints
// the resulting traffic and price history. The -users and -periods
// flags scale the testbed beyond the paper's fixed two-user, one-hour
// configuration.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"tdp/internal/core"
	"tdp/internal/emul"
	"tdp/internal/mechanism"
	"tdp/internal/obs"
	"tdp/internal/scfg"
	"tdp/internal/tube"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tubesim:", err)
		os.Exit(1)
	}
}

// synthUsers scales the testbed population: patience profiles alternate
// between the paper's impatient group-1 and patient group-2 specs.
func synthUsers(n int, defaults []emul.UserSpec) []emul.UserSpec {
	users := make([]emul.UserSpec, n)
	for i := range users {
		proto := defaults[i%len(defaults)]
		beta := make(map[string]float64, len(proto.Beta))
		for k, v := range proto.Beta {
			beta[k] = v
		}
		users[i] = emul.UserSpec{Name: fmt.Sprintf("user%d", i+1), Beta: beta}
	}
	return users
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tubesim", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address for the price server")
	seed := fs.Int64("seed", 1, "experiment random seed")
	users := fs.Int("users", 2, "emulated users (patience alternates impatient/patient)")
	periods := fs.Int("periods", 12, "periods in the emulated day (≥ 2)")
	days := fs.Int("days", 1, "emulated days to run back-to-back (each under its freshly pulled schedule)")
	stream := fs.Bool("stream", false, "enable streaming profiling: per-period warm β re-estimation from the live ingest stream")
	streamWindow := fs.Int("stream-window", 0, "streaming profiler day window (0 = engine default)")
	pprofFlag := fs.Bool("pprof", false, "mount /debug/pprof on the price server")
	metricsOut := fs.String("metrics-out", "", "write the final Prometheus metrics snapshot to this file (- for stdout)")
	cfgPath := fs.String("config", "", "scenario config file (JSON, see examples/scenarios/); replaces the synthetic default testbed")
	check := fs.Bool("check", false, "parse + validate + compile the -config file and any positional config paths, then exit")
	mech := fs.String("mechanism", "", "pricing mechanism from the zoo ('list' to enumerate; default: the config's choice, else the online TDP engine)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mech == "list" {
		fmt.Fprintln(out, strings.Join(mechanism.Names(), "\n"))
		return nil
	}
	if *check {
		return checkConfigs(out, *cfgPath, fs.Args())
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var (
		cfg     emul.Config
		scn     *core.Scenario
		classes []string
		sc      *scfg.Config
		err     error
	)
	if *cfgPath != "" {
		// Config-driven testbed: the scenario, the population's patience,
		// the demand shape, the mechanism — all from the declared workload.
		if explicit["periods"] {
			return fmt.Errorf("-periods conflicts with -config: the scenario declares the day structure")
		}
		if sc, err = scfg.ParseFile(*cfgPath); err != nil {
			return err
		}
		if scn, err = sc.Compile(); err != nil {
			return err
		}
		if s := sc.Sim; s != nil {
			if !explicit["days"] && s.Days > 0 {
				*days = s.Days
			}
			if !explicit["users"] && s.Users > 0 {
				*users = s.Users
			}
			if !explicit["seed"] && s.Seed != 0 {
				*seed = s.Seed
			}
		}
		if *users < 1 {
			return fmt.Errorf("need at least 1 user, got %d", *users)
		}
		if *days < 1 {
			return fmt.Errorf("need at least 1 day, got %d", *days)
		}
		classes = sc.ClassNames()
		cfg = emulFromScenario(scn, classes, *users, *seed)
		scn.PeriodSeconds = cfg.PeriodSeconds
	} else {
		if *users < 1 {
			return fmt.Errorf("need at least 1 user, got %d", *users)
		}
		if *periods < 2 {
			return fmt.Errorf("need at least 2 periods, got %d", *periods)
		}
		if *days < 1 {
			return fmt.Errorf("need at least 1 day, got %d", *days)
		}
		// The optimizer's demand estimate: the emulation's expected demand
		// in MB per period, with per-class average patience.
		cfg = emul.DefaultConfig()
		cfg.Seed = *seed
		cfg.Periods = *periods
		if *users != len(cfg.Users) {
			cfg.Users = synthUsers(*users, cfg.Users)
		}
		classes = make([]string, len(cfg.Classes))
		betas := make([]float64, len(cfg.Classes))
		for j, cl := range cfg.Classes {
			classes[j] = cl.Name
			var s float64
			for _, u := range cfg.Users {
				s += u.Beta[cl.Name]
			}
			betas[j] = s / float64(len(cfg.Users))
		}
		capacity := make([]float64, cfg.Periods)
		for i := range capacity {
			capacity[i] = 0.8 * cfg.LinkMBps * cfg.PeriodSeconds
		}
		scn = &core.Scenario{
			Periods:       cfg.Periods,
			Demand:        cfg.ExpectedDemand(),
			Betas:         betas,
			Capacity:      capacity,
			Cost:          core.LinearCost(cfg.CostSlope),
			PeriodSeconds: cfg.PeriodSeconds,
		}
	}

	// Resolve the pricing mechanism: "tdp" runs the optimizer's online
	// per-period engine (the mechanism's live form); anything else from
	// the zoo plans whole days through the Pricer hook.
	mechName := *mech
	if mechName == "" {
		mechName = "tdp"
		if sc != nil {
			mechName = sc.MechanismName()
		}
	}
	var (
		pricer     mechanism.Pricer
		useDynamic bool
	)
	switch {
	case mechName == "tdp":
		if sc != nil {
			if sc.Mechanism != nil && sc.Mechanism.Dynamic {
				useDynamic = true
			}
			if sc.Sim != nil && sc.Sim.Model == "dynamic" {
				useDynamic = true
			}
		}
	case sc != nil:
		if pricer, err = sc.PricerNamed(mechName); err != nil {
			return err
		}
	default:
		if pricer, err = mechanism.New(mechName, mechanism.Params{}); err != nil {
			return err
		}
	}

	opt, err := tube.NewOptimizer(tube.OptimizerConfig{
		Scenario:     scn,
		Classes:      classes,
		UseDynamic:   useDynamic,
		Streaming:    *stream,
		StreamWindow: *streamWindow,
		Pricer:       pricer,
	})
	if err != nil {
		return err
	}
	srv, err := tube.NewServer(opt)
	if err != nil {
		return err
	}
	if *pprofFlag {
		srv.EnablePprof()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveErr
	}()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(out, "TUBE Optimizer serving prices at %s\n", base)
	fmt.Fprintf(out, "testbed: %d users, %d periods\n\n", len(cfg.Users), cfg.Periods)

	// GUI clients pull the published schedule once per period; the
	// emulation then runs under that schedule.
	gui, err := tube.NewGUI(base)
	if err != nil {
		return err
	}
	if err := gui.EnableWire(classes); err != nil {
		return err
	}
	ctx := context.Background()
	info, err := gui.PullPrice(ctx)
	if err != nil {
		return err
	}

	// The closed loop, one iteration per emulated day: pull the published
	// schedule, run the testbed day under it, then feed the TDP run's
	// measured per-class usage back through the wire — one frame per
	// period, applied before the server acks it, then the period closes
	// at the optimizer. With -stream the optimizer re-estimates β at
	// every period close from that same rollover cut, so later days run
	// under prices informed by earlier days' live traffic.
	var tip, tdp *emul.Result
	for day := 0; day < *days; day++ {
		cfg.Rewards = info.Rewards
		cfg.Seed = *seed + int64(day)
		tip, tdp, err = emul.RunComparison(cfg)
		if err != nil {
			return err
		}
		for i := 0; i < cfg.Periods; i++ {
			var batch []tube.UsageReport
			for _, u := range cfg.Users {
				for _, cl := range cfg.Classes {
					vol := tdp.OfferedByUserClassPeriod[u.Name][cl.Name][i]
					if vol <= 0 {
						continue
					}
					batch = append(batch, tube.UsageReport{
						User: u.Name, Class: cl.Name, VolumeMB: vol,
					})
				}
			}
			if err := gui.ReportUsageWire(ctx, batch); err != nil {
				return err
			}
			if _, err := opt.ClosePeriod(); err != nil {
				return err
			}
			if info, err = gui.PullPrice(ctx); err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(out, "published rewards ($0.10): %.3f\n\n", info.Rewards)
	if len(cfg.Users) <= 4 {
		for _, u := range cfg.Users {
			fmt.Fprintf(out, "%s TIP traffic (MB/period): %.0f\n", u.Name, tip.ServedByUserPeriod[u.Name])
			fmt.Fprintf(out, "%s TDP traffic (MB/period): %.0f\n", u.Name, tdp.ServedByUserPeriod[u.Name])
			if sc != nil { // config classes carry arbitrary names
				fmt.Fprintf(out, "%s moved by TDP: %.1f MB\n\n", u.Name, tdp.TotalMoved(u.Name))
			} else {
				mc := tdp.MovedByUserClass[u.Name]
				fmt.Fprintf(out, "%s moved by TDP: web %.1f MB, ftp %.1f MB, video %.1f MB\n\n",
					u.Name, mc["web"], mc["ftp"], mc["video"])
			}
		}
	} else {
		var tipTotal, tdpTotal, moved float64
		for _, u := range cfg.Users {
			for _, v := range tip.ServedByUserPeriod[u.Name] {
				tipTotal += v
			}
			for _, v := range tdp.ServedByUserPeriod[u.Name] {
				tdpTotal += v
			}
			moved += tdp.TotalMoved(u.Name)
		}
		fmt.Fprintf(out, "aggregate TIP traffic: %.0f MB, TDP traffic: %.0f MB, moved by TDP: %.1f MB\n\n",
			tipTotal, tdpTotal, moved)
	}
	hist, err := opt.PriceHistory()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "optimizer price history (%d periods closed), GUI pulls: %d\n",
		len(hist), gui.Pulls())
	if sc != nil || pricer != nil {
		// Score the final published schedule under the declared scenario's
		// reaction model, so config runs across -mechanism values are
		// directly comparable.
		outcome, oerr := mechanism.Evaluate(mechName, scn, info.Rewards)
		if oerr != nil {
			fmt.Fprintf(out, "\nmechanism %s outcome unavailable: %v\n", mechName, oerr)
		} else {
			fmt.Fprintf(out, "\nmechanism %s outcome (model units): ISP cost %.2f (TIP %.2f, savings %.1f%%), outlay %.2f, user welfare %.2f, overflow %.2f across %d periods\n",
				outcome.Mechanism, outcome.ISPCost, outcome.TIPCost, 100*outcome.Savings(),
				outcome.RewardOutlay, outcome.UserWelfare, outcome.Overflow, outcome.OverflowPeriods)
		}
	}
	if sp := opt.Stream(); sp != nil {
		betas, ok := sp.Betas()
		div, derr := sp.Divergence()
		fmt.Fprintf(out, "\nstreaming profiler: %d days folded (window %d, full=%v), stale periods: %d\n",
			sp.Days(), sp.WindowLen(), sp.WindowFull(), sp.StalePeriods())
		if ok {
			fmt.Fprintf(out, "streaming β estimate: %.4f\n", betas)
		}
		if derr == nil {
			fmt.Fprintf(out, "streaming vs cold-batch divergence: %.2e\n", div)
		}
	}
	if *metricsOut != "" {
		if err := dumpMetrics(*metricsOut, out, srv.Registry(), obs.Default()); err != nil {
			return err
		}
	}
	return nil
}

// checkConfigs validates config documents without running anything:
// strict parse, validation, and compilation — the `-check` gate CI runs
// over every checked-in scenario. The first failure is returned (it
// wraps scfg.ErrBadConfig), so the exit status is the verdict.
func checkConfigs(out io.Writer, cfgPath string, extra []string) error {
	paths := extra
	if cfgPath != "" {
		paths = append([]string{cfgPath}, extra...)
	}
	if len(paths) == 0 {
		return fmt.Errorf("-check: no configs given (use -config or positional paths)")
	}
	for _, p := range paths {
		c, err := scfg.ParseFile(p)
		if err != nil {
			return err
		}
		scn, err := c.Compile()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		fmt.Fprintf(out, "ok %s: %q, %d periods, %d classes, mechanism %s\n",
			p, c.Name, scn.Periods, len(scn.Betas), c.MechanismName())
	}
	return nil
}

// emulFromScenario maps a compiled scenario onto the emulated testbed.
// The emulation's session model is separable (per-class mean × a common
// per-period shape), so the declared demand matrix is approximated at
// rank 1: the shape follows the per-period totals and each class keeps
// its day-average volume. Expected per-period *totals* match the
// scenario exactly; per-class cells match exactly when the matrix is
// itself separable (every generator-form config is). Demand values are
// read as MB per period, capacity as MB per period reachable at every
// period (link sized to the capacity peak), and the population shares
// the scenario's per-class patience under the §II normalized behavior,
// so the ISP-side profiling model is well-specified.
func emulFromScenario(scn *core.Scenario, classes []string, users int, seed int64) emul.Config {
	n := scn.Periods
	ps := scn.PeriodSeconds
	if ps <= 0 {
		ps = 300
	}
	totals := scn.TotalDemand()
	var avgTotal float64
	for _, x := range totals {
		avgTotal += x
	}
	avgTotal /= float64(n)
	shape := make([]float64, n)
	for i := range shape {
		shape[i] = 1
		if avgTotal > 0 {
			shape[i] = totals[i] / avgTotal
		}
	}
	const sessions = 8 // arrivals per user·period: enough for the Poisson mean to concentrate
	specs := make([]emul.ClassSpec, len(classes))
	for j, name := range classes {
		var dj float64
		for i := 0; i < n; i++ {
			dj += scn.Demand[i][j]
		}
		dj /= float64(n)
		spec := emul.ClassSpec{
			Name:                  name,
			MeanSessionsPerPeriod: sessions,
			MeanSizeMB:            dj / (sessions * float64(users)),
		}
		if spec.MeanSizeMB <= 0 { // a class with no demand anywhere
			spec.MeanSessionsPerPeriod = 0
			spec.MeanSizeMB = 1
		}
		specs[j] = spec
	}
	var peakCap float64
	for _, a := range scn.Capacity {
		if a > peakCap {
			peakCap = a
		}
	}
	link := peakCap / ps
	if link <= 0 {
		link = 1
	}
	us := make([]emul.UserSpec, users)
	for u := range us {
		beta := make(map[string]float64, len(classes))
		for j, name := range classes {
			beta[name] = scn.Betas[j]
		}
		us[u] = emul.UserSpec{Name: fmt.Sprintf("user%d", u+1), Beta: beta}
	}
	return emul.Config{
		Periods:       n,
		PeriodSeconds: ps,
		LinkMBps:      link,
		Classes:       specs,
		Users:         us,
		DemandShape:   shape,
		CostSlope:     scn.Cost.MaxSlope(),
		Behavior:      emul.Normalized,
		Seed:          seed,
	}
}

// dumpMetrics writes the merged Prometheus exposition to path ("-" =
// the command's own output writer).
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
