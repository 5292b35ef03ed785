// Package mechanism is the pricing-mechanism zoo: pluggable Pricer
// backends that each plan a day's reward surface for a pricing scenario,
// so competing mechanisms from the literature can be benchmarked
// head-to-head under identical declarative traces.
//
// The paper's own TDP reward optimizer ("tdp") is one backend among
// peers: static time-of-day multiplier pricing ("static-tod", the wanctl
// windows-×-multipliers idiom), the fixed-budget rebate of Loiseau et
// al. ("rebate"), reverse pricing after Jung & Kim ("reverse"), and the
// do-nothing TIP baseline ("none"). All backends emit a per-period
// reward schedule in the scenario's money units, and Evaluate scores any
// schedule under the same §II static reaction model, so ISP cost, user
// welfare, and congestion overflow are directly comparable across
// mechanisms.
package mechanism

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"tdp/internal/core"
)

// ErrBadMechanism is returned for unknown mechanism names and invalid
// mechanism parameters.
var ErrBadMechanism = errors.New("mechanism: invalid mechanism")

// Observation carries what the ISP has measured under the schedule most
// recently in force. Backends that plan purely from the declared
// scenario ignore it; a nil Observation is always legal (first day).
type Observation struct {
	// Usage[i] is the realized per-period aggregate usage, in the
	// scenario's demand units.
	Usage []float64
}

// Pricer plans one day's price/reward surface from a scenario and an
// optional observed profile. Implementations may keep state across days
// (e.g. warm starts); a Pricer is not safe for concurrent use unless
// documented otherwise.
type Pricer interface {
	// Name returns the registry name of the mechanism.
	Name() string
	// PlanDay returns the per-period reward schedule (len ==
	// scn.Periods, each entry in [0, min(MaxSlope, NormReward)]).
	PlanDay(scn *core.Scenario, obs *Observation) ([]float64, error)
}

// Window names a set of periods sharing one multiplier — the wanctl
// time-of-day config idiom (windows × multipliers, link-agnostic).
// Periods are 1-based, matching the paper's period numbering.
type Window struct {
	Name       string
	Periods    []int
	Multiplier float64
}

// Params parameterizes mechanism construction; each backend documents
// which fields it reads. The zero value selects every default.
type Params struct {
	// Dynamic makes "tdp" plan with the carry-over dynamic model.
	Dynamic bool
	// Budget is the fixed daily rebate budget for "rebate" in money
	// units; 0 derives it as BudgetFraction of the TIP cost.
	Budget float64
	// BudgetFraction is the TIP-cost fraction used when Budget is 0
	// (default 0.5).
	BudgetFraction float64
	// Gamma is the "reverse" aggressiveness: the slack-to-reward gain
	// (default 1).
	Gamma float64
	// Rounds caps the "reverse" fixed-point iterations (default 16).
	Rounds int
	// Windows is the "static-tod" time-of-day surface.
	Windows []Window
	// DefaultMultiplier is the "static-tod" multiplier outside every
	// window (default 0: no reward off-window).
	DefaultMultiplier float64
}

// Factory builds a Pricer from parameters.
type Factory func(p Params) (Pricer, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{} // guarded by registryMu
)

// Register makes a mechanism constructible by name; it overwrites any
// previous factory under the same name. The built-in zoo registers
// itself at init.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = f
}

// Names returns the registered mechanism names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New constructs the named mechanism.
func New(name string, p Params) (Pricer, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown pricer %q (have %s): %w",
			name, strings.Join(Names(), ", "), ErrBadMechanism)
	}
	return f(p)
}

// Plan runs p's day plan for scn under the optional observation and
// checks that the schedule covers exactly scn.Periods periods, so a
// caller can publish it as a day schedule. A wrong-length plan wraps
// ErrBadMechanism; a PlanDay failure is wrapped as returned.
func Plan(p Pricer, scn *core.Scenario, obs *Observation) ([]float64, error) {
	rewards, err := p.PlanDay(scn, obs)
	if err != nil {
		return nil, fmt.Errorf("mechanism %q day plan: %w", p.Name(), err)
	}
	if len(rewards) != scn.Periods {
		return nil, fmt.Errorf("mechanism %q planned %d periods, want %d: %w",
			p.Name(), len(rewards), scn.Periods, ErrBadMechanism)
	}
	return rewards, nil
}

// maxReward is the common reward cap every backend plans under: the
// smaller of the maximum marginal over-capacity cost (the ISP never
// rationally pays more than its marginal benefit, Appendix C) and the
// normalization reward (beyond which every deferrable session already
// defers).
func maxReward(scn *core.Scenario) float64 {
	if m := scn.Cost.MaxSlope(); m < scn.NormReward() {
		return m
	}
	return scn.NormReward()
}

// checkScenario validates the scenario once on behalf of a backend.
func checkScenario(scn *core.Scenario) error {
	if scn == nil {
		return fmt.Errorf("nil scenario: %w", ErrBadMechanism)
	}
	if err := scn.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}
