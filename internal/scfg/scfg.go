// Package scfg is the declarative scenario/workload config format: a
// strict, stdlib-only JSON grammar covering everything core.Scenario
// expresses — periods, per-class demand (explicit rows or wanctl-style
// peak-window × multiplier generator shapes), patience indices,
// capacity profiles, piecewise-linear cost, normalization and wrap
// options — plus simulation knobs (days, users, demand model) and a
// pricing-mechanism selection, so tubesim/tubeopt and the
// experiment runners can run arbitrary workloads without recompiling.
//
// Parsing is strict: unknown keys, ragged matrices, dimension
// mismatches, and out-of-domain values are all rejected with errors
// wrapping ErrBadConfig, so a typo'd config fails fast instead of
// silently running a different workload. Compile materializes the
// validated config into a *core.Scenario bit-identical to what the
// equivalent Go constructor would build.
package scfg

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"tdp/internal/mechanism"
)

// ErrBadConfig is returned for configs that fail to parse or validate.
var ErrBadConfig = errors.New("scfg: invalid config")

// Config is the root of the scenario config grammar.
type Config struct {
	// Name identifies the workload (used in reports and file names).
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Scenario declares the pricing problem instance.
	Scenario ScenarioConfig `json:"scenario"`
	// Sim carries optional simulation knobs for the driving tool.
	Sim *SimConfig `json:"sim,omitempty"`
	// Mechanism selects and parameterizes the pricing mechanism
	// (default: the paper's "tdp" optimizer).
	Mechanism *MechanismConfig `json:"mechanism,omitempty"`
}

// ScenarioConfig declares a core.Scenario.
type ScenarioConfig struct {
	// Periods is the number of periods n in the day.
	Periods int `json:"periods"`
	// Classes optionally names the session types (len == len(Betas));
	// tools that need class names synthesize "class1…" when absent.
	Classes []string `json:"classes,omitempty"`
	// Betas[j] is the patience index of session type j.
	Betas []float64 `json:"betas"`
	// Demand declares the per-period, per-type TIP demand.
	Demand DemandConfig `json:"demand"`
	// Capacity declares the per-period capacity profile.
	Capacity CapacityConfig `json:"capacity"`
	// Cost declares the capacity-exceedance cost f.
	Cost CostConfig `json:"cost"`
	// PeriodSeconds is the real-time period length (0 → the model's
	// half-hour default).
	PeriodSeconds float64 `json:"periodSeconds,omitempty"`
	// MaxRewardNorm overrides the waiting-function normalization reward
	// (0 → the cost function's maximum slope, the paper's default).
	MaxRewardNorm float64 `json:"maxRewardNorm,omitempty"`
	// NoWrap disables deferrals across the day boundary.
	NoWrap bool `json:"noWrap,omitempty"`
}

// DemandConfig declares demand either as explicit rows or as a
// generator shape; exactly one of the two must be set.
type DemandConfig struct {
	// Rows[i][j] is the TIP demand of type j in period i+1.
	Rows [][]float64 `json:"rows,omitempty"`
	// Generator synthesizes rows from a per-class base row and
	// time-of-day windows.
	Generator *DemandGenerator `json:"generator,omitempty"`
}

// DemandGenerator is the wanctl idiom for demand: a base per-class row
// scaled per period by window multipliers.
type DemandGenerator struct {
	// Base[j] is the per-period demand of type j before shaping.
	Base []float64 `json:"base"`
	// Windows assign multipliers to 1-based period sets; windows must
	// not overlap (the declared trace should have one reading).
	Windows []Window `json:"windows,omitempty"`
	// DefaultMultiplier applies outside every window (absent → 1).
	DefaultMultiplier *float64 `json:"defaultMultiplier,omitempty"`
}

// Window names a set of 1-based periods sharing one multiplier.
type Window struct {
	Name       string  `json:"name,omitempty"`
	Periods    []int   `json:"periods"`
	Multiplier float64 `json:"multiplier"`
}

// CapacityConfig declares capacity as a constant or an explicit
// profile (exactly one), optionally scaled by time-of-day windows.
type CapacityConfig struct {
	// Constant sets every period's capacity to one value.
	Constant *float64 `json:"constant,omitempty"`
	// Profile[i] is period i+1's capacity.
	Profile []float64 `json:"profile,omitempty"`
	// Windows scale the base capacity per period (e.g. a maintenance
	// window at multiplier 0.5); non-overlapping, default multiplier 1.
	Windows []Window `json:"windows,omitempty"`
}

// CostConfig declares the cost f either as a single linear slope
// (f(x) = slope·max(x, 0)) or as a full piecewise-linear form with
// *incremental* slopes, f(x) = Σ_k slopes[k]·max(x − breaks[k], 0);
// exactly one of the two readings must be used.
type CostConfig struct {
	Slope  float64   `json:"slope,omitempty"`
	Breaks []float64 `json:"breaks,omitempty"`
	Slopes []float64 `json:"slopes,omitempty"`
}

// SimConfig carries simulation knobs for the driving tool; every field
// is optional and tool defaults apply when 0.
type SimConfig struct {
	// Days is how many emulated days to run back-to-back.
	Days int `json:"days,omitempty"`
	// Users sizes the emulated population.
	Users int `json:"users,omitempty"`
	// Model selects the demand model: "static" (default) or "dynamic".
	Model string `json:"model,omitempty"`
	// Seed drives the simulation's randomness.
	Seed int64 `json:"seed,omitempty"`
}

// MechanismConfig selects a pricing mechanism by registry name and
// carries its parameters (each backend documents which it reads).
type MechanismConfig struct {
	Name string `json:"name"`
	// Budget and BudgetFraction parameterize "rebate".
	Budget         float64 `json:"budget,omitempty"`
	BudgetFraction float64 `json:"budgetFraction,omitempty"`
	// Gamma and Rounds parameterize "reverse".
	Gamma  float64 `json:"gamma,omitempty"`
	Rounds int     `json:"rounds,omitempty"`
	// Windows and DefaultMultiplier parameterize "static-tod".
	Windows           []Window `json:"windows,omitempty"`
	DefaultMultiplier float64  `json:"defaultMultiplier,omitempty"`
	// Dynamic makes "tdp" plan with the carry-over dynamic model.
	Dynamic bool `json:"dynamic,omitempty"`
}

// Parse decodes and validates a config. Decoding is strict: unknown
// keys anywhere in the document and trailing garbage after it are
// errors wrapping ErrBadConfig.
func Parse(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("decode: %v: %w", err, ErrBadConfig)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after the config document: %w", ErrBadConfig)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// ParseFile is Parse over a file.
func ParseFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %v: %w", err, ErrBadConfig)
	}
	defer f.Close()
	c, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Validate checks the whole document: structural consistency, value
// domains, window sanity, and that the selected mechanism exists and
// constructs. Every failure wraps ErrBadConfig.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("missing name: %w", ErrBadConfig)
	}
	if err := c.Scenario.validate(); err != nil {
		return err
	}
	if c.Sim != nil {
		if err := c.Sim.validate(); err != nil {
			return err
		}
	}
	if c.Mechanism != nil {
		if _, err := c.Pricer(); err != nil {
			return err
		}
	}
	return nil
}

func (s *ScenarioConfig) validate() error {
	if s.Periods < 2 {
		return fmt.Errorf("scenario: %d periods (need ≥ 2): %w", s.Periods, ErrBadConfig)
	}
	if len(s.Betas) == 0 {
		return fmt.Errorf("scenario: no betas: %w", ErrBadConfig)
	}
	for j, b := range s.Betas {
		if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("scenario: beta[%d] = %v: %w", j, b, ErrBadConfig)
		}
	}
	if s.Classes != nil && len(s.Classes) != len(s.Betas) {
		return fmt.Errorf("scenario: %d classes for %d betas: %w", len(s.Classes), len(s.Betas), ErrBadConfig)
	}
	seen := map[string]bool{}
	for i, name := range s.Classes {
		if name == "" || seen[name] {
			return fmt.Errorf("scenario: class %d empty or duplicate: %w", i, ErrBadConfig)
		}
		seen[name] = true
	}
	if err := s.Demand.validate(s.Periods, len(s.Betas)); err != nil {
		return err
	}
	if err := s.Capacity.validate(s.Periods); err != nil {
		return err
	}
	if err := s.Cost.validate(); err != nil {
		return err
	}
	if s.PeriodSeconds < 0 || math.IsNaN(s.PeriodSeconds) {
		return fmt.Errorf("scenario: periodSeconds %v: %w", s.PeriodSeconds, ErrBadConfig)
	}
	if s.MaxRewardNorm < 0 || math.IsNaN(s.MaxRewardNorm) {
		return fmt.Errorf("scenario: maxRewardNorm %v: %w", s.MaxRewardNorm, ErrBadConfig)
	}
	return nil
}

func (d *DemandConfig) validate(periods, classes int) error {
	switch {
	case d.Rows != nil && d.Generator != nil:
		return fmt.Errorf("demand: both rows and generator set (want exactly one): %w", ErrBadConfig)
	case d.Rows == nil && d.Generator == nil:
		return fmt.Errorf("demand: neither rows nor generator set: %w", ErrBadConfig)
	case d.Rows != nil:
		if len(d.Rows) != periods {
			return fmt.Errorf("demand: %d rows for %d periods: %w", len(d.Rows), periods, ErrBadConfig)
		}
		for i, row := range d.Rows {
			if len(row) != classes {
				return fmt.Errorf("demand: row %d has %d types, want %d (ragged matrix): %w",
					i+1, len(row), classes, ErrBadConfig)
			}
			for j, v := range row {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("demand: rows[%d][%d] = %v: %w", i, j, v, ErrBadConfig)
				}
			}
		}
	default:
		g := d.Generator
		if len(g.Base) != classes {
			return fmt.Errorf("demand generator: base has %d types, want %d: %w", len(g.Base), classes, ErrBadConfig)
		}
		for j, v := range g.Base {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("demand generator: base[%d] = %v: %w", j, v, ErrBadConfig)
			}
		}
		if g.DefaultMultiplier != nil && (*g.DefaultMultiplier < 0 || math.IsNaN(*g.DefaultMultiplier)) {
			return fmt.Errorf("demand generator: defaultMultiplier %v: %w", *g.DefaultMultiplier, ErrBadConfig)
		}
		if err := validateWindows("demand generator", g.Windows, periods); err != nil {
			return err
		}
	}
	return nil
}

func (cc *CapacityConfig) validate(periods int) error {
	switch {
	case cc.Constant != nil && cc.Profile != nil:
		return fmt.Errorf("capacity: both constant and profile set (want exactly one): %w", ErrBadConfig)
	case cc.Constant == nil && cc.Profile == nil:
		return fmt.Errorf("capacity: neither constant nor profile set: %w", ErrBadConfig)
	case cc.Constant != nil:
		if *cc.Constant < 0 || math.IsNaN(*cc.Constant) || math.IsInf(*cc.Constant, 0) {
			return fmt.Errorf("capacity: negative or non-finite constant %v: %w", *cc.Constant, ErrBadConfig)
		}
	default:
		if len(cc.Profile) != periods {
			return fmt.Errorf("capacity: profile has %d periods, want %d: %w", len(cc.Profile), periods, ErrBadConfig)
		}
		for i, v := range cc.Profile {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("capacity: negative or non-finite profile[%d] = %v: %w", i, v, ErrBadConfig)
			}
		}
	}
	return validateWindows("capacity", cc.Windows, periods)
}

func (cf *CostConfig) validate() error {
	pw := cf.Breaks != nil || cf.Slopes != nil
	switch {
	case cf.Slope != 0 && pw:
		return fmt.Errorf("cost: both slope and breaks/slopes set (want exactly one form): %w", ErrBadConfig)
	case cf.Slope == 0 && !pw:
		return fmt.Errorf("cost: neither slope nor breaks/slopes set: %w", ErrBadConfig)
	case cf.Slope != 0:
		if cf.Slope < 0 || math.IsNaN(cf.Slope) || math.IsInf(cf.Slope, 0) {
			return fmt.Errorf("cost: slope %v: %w", cf.Slope, ErrBadConfig)
		}
	default:
		if len(cf.Breaks) == 0 || len(cf.Breaks) != len(cf.Slopes) {
			return fmt.Errorf("cost: %d breaks for %d slopes: %w", len(cf.Breaks), len(cf.Slopes), ErrBadConfig)
		}
		for i := range cf.Breaks {
			if math.IsNaN(cf.Breaks[i]) || math.IsInf(cf.Breaks[i], 0) {
				return fmt.Errorf("cost: break[%d] = %v: %w", i, cf.Breaks[i], ErrBadConfig)
			}
			if cf.Slopes[i] < 0 || math.IsNaN(cf.Slopes[i]) || math.IsInf(cf.Slopes[i], 0) {
				return fmt.Errorf("cost: slope[%d] = %v (convexity needs ≥ 0): %w", i, cf.Slopes[i], ErrBadConfig)
			}
			if i > 0 && cf.Breaks[i] < cf.Breaks[i-1] {
				return fmt.Errorf("cost: breaks not ascending at %d: %w", i, ErrBadConfig)
			}
		}
	}
	return nil
}

func (s *SimConfig) validate() error {
	if s.Days < 0 || s.Users < 0 {
		return fmt.Errorf("sim: days %d, users %d (need ≥ 0): %w", s.Days, s.Users, ErrBadConfig)
	}
	switch s.Model {
	case "", "static", "dynamic":
	default:
		return fmt.Errorf("sim: unknown model %q (want static or dynamic): %w", s.Model, ErrBadConfig)
	}
	return nil
}

// validateWindows checks a window list: 1-based periods within the day,
// finite non-negative multipliers, and no period claimed twice.
func validateWindows(where string, ws []Window, periods int) error {
	claimed := make(map[int]string)
	for wi, w := range ws {
		if len(w.Periods) == 0 {
			return fmt.Errorf("%s: window %d (%q) has no periods: %w", where, wi, w.Name, ErrBadConfig)
		}
		if w.Multiplier < 0 || math.IsNaN(w.Multiplier) || math.IsInf(w.Multiplier, 0) {
			return fmt.Errorf("%s: window %d (%q) multiplier %v: %w", where, wi, w.Name, w.Multiplier, ErrBadConfig)
		}
		for _, q := range w.Periods {
			if q < 1 || q > periods {
				return fmt.Errorf("%s: window %d (%q) period %d outside 1..%d: %w",
					where, wi, w.Name, q, periods, ErrBadConfig)
			}
			if prev, ok := claimed[q]; ok {
				return fmt.Errorf("%s: period %d claimed by windows %q and %q: %w",
					where, q, prev, w.Name, ErrBadConfig)
			}
			claimed[q] = w.Name
		}
	}
	return nil
}

// ClassNames returns the declared class names, or synthesized
// "class1…classM" when the config names none.
func (c *Config) ClassNames() []string {
	if c.Scenario.Classes != nil {
		return append([]string(nil), c.Scenario.Classes...)
	}
	out := make([]string, len(c.Scenario.Betas))
	for j := range out {
		out[j] = fmt.Sprintf("class%d", j+1)
	}
	return out
}

// MechanismName returns the selected mechanism's registry name
// ("tdp" when the config declares none).
func (c *Config) MechanismName() string {
	if c.Mechanism == nil || c.Mechanism.Name == "" {
		return "tdp"
	}
	return c.Mechanism.Name
}

// Pricer constructs the config's mechanism (the paper's "tdp" when the
// config declares none).
func (c *Config) Pricer() (mechanism.Pricer, error) {
	return c.PricerNamed(c.MechanismName())
}

// PricerNamed constructs the named mechanism with the config's
// parameters — the `-mechanism` command-line override: same workload,
// different pricing.
func (c *Config) PricerNamed(name string) (mechanism.Pricer, error) {
	params := mechanism.Params{}
	if m := c.Mechanism; m != nil {
		params = mechanism.Params{
			Dynamic:           m.Dynamic,
			Budget:            m.Budget,
			BudgetFraction:    m.BudgetFraction,
			Gamma:             m.Gamma,
			Rounds:            m.Rounds,
			DefaultMultiplier: m.DefaultMultiplier,
		}
		for _, w := range m.Windows {
			params.Windows = append(params.Windows, mechanism.Window{
				Name:       w.Name,
				Periods:    append([]int(nil), w.Periods...),
				Multiplier: w.Multiplier,
			})
		}
	}
	if c.Sim != nil && c.Sim.Model == "dynamic" {
		params.Dynamic = true
	}
	p, err := mechanism.New(name, params)
	if err != nil {
		return nil, fmt.Errorf("mechanism %q: %w: %w", name, err, ErrBadConfig)
	}
	return p, nil
}
