// Package tube implements the TUBE prototype of §VI: the server-side
// Optimizer (measurement engine → profiling engine → price determination
// engine) and the user-side GUI client that pulls prices once per period
// over HTTP, with RRD-backed history on both ends.
//
// The paper's deployment used IPtables byte counters, an Ntop GUI plugin
// and an SSL channel; here measurement is an in-process counter API the
// emulated testbed feeds, the GUI is a polling client library, and the
// channel is plain HTTP on localhost (see DESIGN.md §2 for the
// substitution rationale).
package tube

import (
	"errors"
	"fmt"

	"tdp/internal/core"
	"tdp/internal/estimate"
	"tdp/internal/ingest"
	"tdp/internal/mechanism"
)

// ErrBadInput is returned for invalid engine inputs.
var ErrBadInput = errors.New("tube: invalid input")

// ErrRemote classifies server-side failures seen by the GUI client: a
// non-success HTTP status or an ack that contradicts what was sent.
// Callers distinguish transport errors (returned unwrapped from
// net/http) from protocol failures with errors.Is(err, ErrRemote).
var ErrRemote = errors.New("tube: remote request failed")

// ErrNotReady classifies transient not-yet-available states: a price
// follower asked for a price before its first snapshot replicated.
// Callers retry after a pull interval instead of failing the request.
var ErrNotReady = errors.New("tube: not ready")

// Measurement is the measurement engine: per-user, per-class byte
// accounting for the current period, the role IPtables counters play in
// the paper's prototype. It is a thin adapter over the sharded
// ingest.Engine (DESIGN.md §7), which replaced the original
// single-global-mutex map: class membership checks are O(1) against a
// precomputed index, reads merge across shards on demand, and period
// close is one atomic read-totals-and-swap — the original Reset read
// the totals and cleared the map under two separate lock acquisitions,
// silently dropping any Record that landed in between.
type Measurement struct {
	eng *ingest.Engine
}

// NewMeasurement creates an engine accounting the given traffic classes
// with the default shard count.
func NewMeasurement(classes []string) (*Measurement, error) {
	return NewMeasurementShards(classes, 0)
}

// NewMeasurementShards creates an engine over an explicit number of
// lock stripes (0 → ingest.DefaultShards; 1 reproduces the original
// serial layout).
func NewMeasurementShards(classes []string, shards int) (*Measurement, error) {
	eng, err := ingest.NewEngine(classes, shards)
	if err != nil {
		return nil, badInput(err)
	}
	return &Measurement{eng: eng}, nil
}

// badInput rebrands a lower-layer validation error under this package's
// sentinel. The tube package fronts four layers with their own
// sentinels — ingest.ErrBadReport, estimate.ErrBadInput,
// core.ErrBadScenario, mechanism.ErrBadMechanism — and callers of the
// tube API should not need to know which layer rejected their input:
// every public entry point funnels its error through here, so
// errors.Is(err, tube.ErrBadInput) works uniformly while the original
// sentinel stays wrapped underneath (errors.Is against the lower-layer
// sentinel also still matches).
func badInput(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBadInput) {
		return err // already branded; don't double-wrap
	}
	if errors.Is(err, ingest.ErrBadReport) ||
		errors.Is(err, estimate.ErrBadInput) ||
		errors.Is(err, core.ErrBadScenario) ||
		errors.Is(err, mechanism.ErrBadMechanism) {
		return fmt.Errorf("%w: %w", err, ErrBadInput)
	}
	return err
}

// Engine exposes the underlying sharded accounting engine.
func (m *Measurement) Engine() *ingest.Engine { return m.eng }

// Record accumulates volumeMB of traffic for (user, class).
func (m *Measurement) Record(user, class string, volumeMB float64) error {
	return badInput(m.eng.Record(user, class, volumeMB))
}

// RecordBatch accounts a whole batch of reports with one lock
// acquisition per touched shard. Validation is all-or-nothing: an
// invalid report rejects the entire batch with nothing applied.
func (m *Measurement) RecordBatch(reports []UsageReport) error {
	return badInput(m.eng.RecordBatch(reports))
}

// Classes returns the accounted traffic classes.
func (m *Measurement) Classes() []string { return m.eng.Classes() }

// ClassTotals returns this period's aggregate volume per class, ordered
// as Classes().
func (m *Measurement) ClassTotals() []float64 { return m.eng.ClassTotals() }

// UserTotals returns this period's total volume per user.
func (m *Measurement) UserTotals() map[string]float64 { return m.eng.UserTotals() }

// Users returns the users seen this period, sorted.
func (m *Measurement) Users() []string { return m.eng.Users() }

// Rollover atomically closes the period, returning its per-class and
// per-user totals from one consistent cut: no concurrent Record can
// land between the snapshot and the clear.
func (m *Measurement) Rollover() (classTotals []float64, userTotals map[string]float64) {
	return m.eng.Rollover()
}

// Reset clears the counters for a new period and returns the closed
// period's per-class totals (one atomic critical section, see Rollover).
func (m *Measurement) Reset() []float64 {
	totals, _ := m.eng.Rollover()
	return totals
}
