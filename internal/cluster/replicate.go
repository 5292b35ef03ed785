package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/obs"
)

// Replicator pulls price snapshots from a leader node and applies them
// locally: pull-based chain replication with exactly one pull in flight,
// the simplest protocol that keeps every follower current without a
// consensus dependency. Each pull is a long poll: the source holds it
// until it publishes a snapshot newer than the one the follower has, so
// a new price reaches a follower one round trip after it is published.
// Followers can themselves serve GET /cluster/snapshot from their
// applied copy, so a large cluster can fan the pulls out in a tree
// instead of thundering the leader.
type Replicator struct {
	leader   string // base URL of the node to pull from
	client   *http.Client
	apply    func(PriceSnapshot) error
	interval time.Duration

	lastTaken     atomic.Int64 // TakenUnixNano of the newest applied snapshot
	lastConfirmed atomic.Int64 // UnixNano of the last 200 or 304 from a source
	failStreak    atomic.Int32 // consecutive failed pulls (tree fallback trigger)

	mu       sync.Mutex
	source   func() (string, bool) // guarded by mu: optional tree-parent resolver
	cancel   context.CancelFunc    // guarded by mu: non-nil while running
	wg       sync.WaitGroup
	pulls    *obs.Counter // optional, set by Instrument before Start
	failures *obs.Counter
}

// MaxPollWait caps how long a source holds one snapshot long poll,
// whatever wait the follower asks for.
const MaxPollWait = 30 * time.Second

// pullTimeout bounds a pull beyond the time the source may hold it.
const pullTimeout = 10 * time.Second

// NewReplicator builds a replicator pulling from leaderURL and applying
// each newer snapshot via apply. interval (default 1s) bounds the time
// between confirmations: it is the longest the source holds a pull, and
// the wait before retrying a failed one.
func NewReplicator(leaderURL string, interval time.Duration, apply func(PriceSnapshot) error) (*Replicator, error) {
	if leaderURL == "" || apply == nil {
		return nil, fmt.Errorf("%w: replicator needs a leader URL and an apply func", ErrBadConfig)
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &Replicator{
		leader:   leaderURL,
		client:   &http.Client{},
		apply:    apply,
		interval: interval,
	}, nil
}

// SetSource installs a resolver for the URL to pull from — the
// replication tree hands each follower its current tree parent here,
// re-resolved before every pull so the topology self-heals on
// membership change. A nil return (ok == false) or two consecutive
// failed pulls fall back to the leader until a pull succeeds again.
func (r *Replicator) SetSource(fn func() (string, bool)) {
	r.mu.Lock()
	r.source = fn
	r.mu.Unlock()
}

// treeFallbackAfter is the failure streak at which a follower abandons
// its tree parent for the leader (the parent may itself be partitioned
// or stale; the leader is the replication root of truth).
const treeFallbackAfter = 2

// pullURL resolves where the next pull goes.
func (r *Replicator) pullURL() string {
	r.mu.Lock()
	src := r.source
	r.mu.Unlock()
	if src == nil {
		return r.leader
	}
	if r.failStreak.Load() >= treeFallbackAfter {
		return r.leader
	}
	if u, ok := src(); ok && u != "" {
		return u
	}
	return r.leader
}

// Instrument registers pull counters and the staleness gauge on reg.
func (r *Replicator) Instrument(reg *obs.Registry) {
	r.mu.Lock()
	r.pulls = reg.Counter("cluster_replication_pulls_total", "snapshot pulls attempted", nil)
	r.failures = reg.Counter("cluster_replication_failures_total", "snapshot pulls failed", nil)
	r.mu.Unlock()
	reg.GaugeFunc("cluster_replication_staleness_seconds",
		"time since a source last confirmed the applied price snapshot (-1 before the first)", nil,
		func() float64 { return r.StalenessSeconds() })
}

// StalenessSeconds returns the time since a source last confirmed the
// applied snapshot — answered a pull with it or a newer one (200), or
// with "not modified" (304) — or -1 if none has been applied yet. A
// healthy follower stays within one interval plus a round trip.
func (r *Replicator) StalenessSeconds() float64 {
	if r.lastTaken.Load() == 0 {
		return -1
	}
	return time.Since(time.Unix(0, r.lastConfirmed.Load())).Seconds()
}

// PullOnce fetches a snapshot from the source and applies it if newer
// than the last applied one (replays and reorderings are no-ops). The
// source may hold the pull for up to one interval waiting for a newer
// snapshot.
func (r *Replicator) PullOnce(ctx context.Context) error {
	_, err := r.pull(ctx)
	return err
}

// pull is PullOnce that also reports whether the pull should be
// followed at once by the next: true after a newer snapshot or a 304,
// false after an error or a snapshot that is not newer (a source that
// ignores the long-poll query answers those at once).
func (r *Replicator) pull(ctx context.Context) (again bool, err error) {
	r.mu.Lock()
	pulls, failures := r.pulls, r.failures
	r.mu.Unlock()
	if pulls != nil {
		pulls.Inc()
	}
	again, err = r.pullFrom(ctx, r.pullURL())
	if err != nil && ctx.Err() != nil {
		return false, err // cancelled by the caller (Stop): not a source failure
	}
	if err != nil {
		r.failStreak.Add(1)
		if failures != nil {
			failures.Inc()
		}
		return false, err
	}
	r.failStreak.Store(0)
	r.lastConfirmed.Store(time.Now().UnixNano())
	return again, nil
}

func (r *Replicator) pullFrom(ctx context.Context, base string) (bool, error) {
	wait := min(r.interval, MaxPollWait)
	ctx, cancel := context.WithTimeout(ctx, wait+pullTimeout)
	defer cancel()
	after := r.lastTaken.Load()
	url := base + "/cluster/snapshot?after=" + strconv.FormatInt(after, 10) + "&wait=" + wait.String()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("pull snapshot: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return true, nil
	case http.StatusOK:
	default:
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return false, fmt.Errorf("pull snapshot: status %d", resp.StatusCode)
	}
	snap, err := DecodeSnapshot(resp.Body)
	if err != nil {
		return false, err
	}
	if snap.TakenUnixNano <= after {
		return false, nil // already have this one (or newer)
	}
	if err := r.apply(snap); err != nil {
		return false, fmt.Errorf("apply snapshot: %w", err)
	}
	r.lastTaken.Store(snap.TakenUnixNano)
	return true, nil
}

// Start launches the pull loop, which keeps one pull in flight: it
// pulls again at once after a newer snapshot or a 304, and one interval
// later after an error or a snapshot that is not newer, so a source
// that does not hold pulls is never polled in a hot loop. Errors are
// counted, not fatal: replication is best-effort between period closes
// and the staleness gauge is the alarm.
func (r *Replicator) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancel != nil {
		return // already running
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for ctx.Err() == nil {
			if again, _ := r.pull(ctx); again {
				continue
			}
			select {
			case <-ctx.Done():
			case <-time.After(r.interval):
			}
		}
	}()
}

// Stop halts the pull loop, cancelling a held pull, and waits for it to
// exit.
func (r *Replicator) Stop() {
	r.mu.Lock()
	cancel := r.cancel
	r.cancel = nil
	r.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	r.wg.Wait()
}
