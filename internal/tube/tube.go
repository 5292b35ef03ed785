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
