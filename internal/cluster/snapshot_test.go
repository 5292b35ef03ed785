package cluster

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/obs"
)

func sampleSnapshot() PriceSnapshot {
	return PriceSnapshot{
		Format:        snapshotVersion,
		Period:        5,
		Rewards:       []float64{0, 0.1, 0.25, 0.4},
		RingVersion:   3,
		TakenUnixNano: 1_700_000_000_000_000_000,
	}
}

func TestSnapshotValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*PriceSnapshot)
	}{
		{"bad format", func(s *PriceSnapshot) { s.Format = 99 }},
		{"negative period", func(s *PriceSnapshot) { s.Period = -1 }},
		{"empty rewards", func(s *PriceSnapshot) { s.Rewards = nil }},
		{"NaN reward", func(s *PriceSnapshot) { s.Rewards[1] = math.NaN() }},
		{"Inf reward", func(s *PriceSnapshot) { s.Rewards[0] = math.Inf(1) }},
	}
	for _, tc := range cases {
		s := sampleSnapshot()
		tc.mut(&s)
		if err := s.Validate(); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: %v, want ErrBadSnapshot", tc.name, err)
		}
		var buf bytes.Buffer
		if err := s.Encode(&buf); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: Encode accepted an invalid snapshot", tc.name)
		}
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prices.snap")
	want := sampleSnapshot()
	if err := SaveSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Period != want.Period || got.RingVersion != want.RingVersion ||
		got.TakenUnixNano != want.TakenUnixNano || len(got.Rewards) != len(want.Rewards) {
		t.Fatalf("round trip: %+v, want %+v", got, want)
	}
	for i := range got.Rewards {
		//lint:allow floateq JSON round-trips float64 exactly via shortest-form encoding
		if got.Rewards[i] != want.Rewards[i] {
			t.Fatalf("reward %d: %v, want %v", i, got.Rewards[i], want.Rewards[i])
		}
	}
}

func TestSnapshotFileCorruptRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prices.snap")
	if err := SaveSnapshotFile(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated file.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated: %v, want ErrBadSnapshot", err)
	}
	// Valid JSON, invalid contents.
	if err := os.WriteFile(path, []byte(`{"format":1,"period":-3,"rewards":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("invalid contents: %v, want ErrBadSnapshot", err)
	}
	// Missing file surfaces the underlying error, not a zero snapshot.
	if _, err := LoadSnapshotFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("missing file loaded successfully")
	}
}

func TestReplicatorPullApplyAndReplay(t *testing.T) {
	var served atomic.Int64
	snap := sampleSnapshot()
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/cluster/snapshot" {
			http.NotFound(w, req)
			return
		}
		served.Add(1)
		_ = snap.Encode(w)
	}))
	defer leader.Close()

	var applies atomic.Int64
	var got atomic.Pointer[PriceSnapshot]
	rep, err := NewReplicator(leader.URL, time.Hour, func(s PriceSnapshot) error {
		applies.Add(1)
		got.Store(&s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep.Instrument(reg)

	if rep.StalenessSeconds() >= 0 {
		t.Fatalf("staleness %v before first pull, want -1", rep.StalenessSeconds())
	}
	ctx := context.Background()
	if err := rep.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if applies.Load() != 1 || got.Load().Period != snap.Period {
		t.Fatalf("first pull: applies=%d snap=%+v", applies.Load(), got.Load())
	}
	// Replaying the same snapshot is a no-op.
	if err := rep.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if applies.Load() != 1 {
		t.Fatalf("replay re-applied: applies=%d", applies.Load())
	}
	// A newer snapshot is applied; staleness counts from this pull.
	snap.Period++
	snap.TakenUnixNano = time.Now().UnixNano()
	if err := rep.PullOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if applies.Load() != 2 || got.Load().Period != snap.Period {
		t.Fatalf("newer snapshot: applies=%d snap=%+v", applies.Load(), got.Load())
	}
	if s := rep.StalenessSeconds(); s < 0 || s > 60 {
		t.Fatalf("staleness %v after fresh snapshot", s)
	}
	if pulls := reg.Counter("cluster_replication_pulls_total", "", nil).Value(); pulls != 3 {
		t.Fatalf("pull counter %d, want 3", pulls)
	}
	if fails := reg.Counter("cluster_replication_failures_total", "", nil).Value(); fails != 0 {
		t.Fatalf("failure counter %d, want 0", fails)
	}
}

func TestReplicatorFailuresCounted(t *testing.T) {
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer leader.Close()
	rep, err := NewReplicator(leader.URL, time.Hour, func(PriceSnapshot) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep.Instrument(reg)
	if err := rep.PullOnce(context.Background()); err == nil {
		t.Fatal("pull from a 503 leader succeeded")
	}
	if fails := reg.Counter("cluster_replication_failures_total", "", nil).Value(); fails != 1 {
		t.Fatalf("failure counter %d, want 1", fails)
	}
}

func TestReplicatorStartStop(t *testing.T) {
	snap := sampleSnapshot()
	snap.TakenUnixNano = time.Now().UnixNano()
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_ = snap.Encode(w)
	}))
	defer leader.Close()
	applied := make(chan struct{}, 1)
	rep, err := NewReplicator(leader.URL, 10*time.Millisecond, func(PriceSnapshot) error {
		select {
		case applied <- struct{}{}:
		default:
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	rep.Start() // idempotent
	select {
	case <-applied:
	case <-time.After(5 * time.Second):
		t.Fatal("replicator never applied a snapshot")
	}
	rep.Stop()
	rep.Stop() // idempotent
}

func TestNewReplicatorValidation(t *testing.T) {
	if _, err := NewReplicator("", time.Second, func(PriceSnapshot) error { return nil }); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty leader: %v, want ErrBadConfig", err)
	}
	if _, err := NewReplicator("http://x", time.Second, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil apply: %v, want ErrBadConfig", err)
	}
}

// TestReplicatorNoHotSpin: a source that ignores the long-poll query and
// answers every pull at once with the snapshot the follower already has
// is pulled once per interval, not in a loop.
func TestReplicatorNoHotSpin(t *testing.T) {
	snap := sampleSnapshot()
	var served atomic.Int64
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		served.Add(1)
		_ = snap.Encode(w)
	}))
	defer leader.Close()
	const interval = 40 * time.Millisecond
	rep, err := NewReplicator(leader.URL, interval, func(PriceSnapshot) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.PullOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := served.Load()
	rep.Start()
	time.Sleep(interval * 5 / 2)
	rep.Stop()
	if n := served.Load() - before; n < 1 || n > 3 {
		t.Fatalf("%d pulls in 2.5 intervals of a 200-same source, want 1..3", n)
	}
}

// TestReplicatorStalenessFromConfirmation: staleness counts from the
// last time the source confirmed the follower's snapshot, not from when
// the snapshot was published, so a follower whose source answers only
// 304 (nothing new was published) stays fresh.
func TestReplicatorStalenessFromConfirmation(t *testing.T) {
	snap := sampleSnapshot() // published long ago
	const interval = 100 * time.Millisecond
	var bad atomic.Value
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		wait, err := time.ParseDuration(q.Get("wait"))
		if err != nil || wait != interval {
			bad.Store("wait=" + q.Get("wait"))
		}
		if q.Get("after") == "0" {
			_ = snap.Encode(w)
			return
		}
		time.Sleep(wait / 5) // hold briefly, then "nothing new"
		w.WriteHeader(http.StatusNotModified)
	}))
	defer leader.Close()
	rep, err := NewReplicator(leader.URL, interval, func(PriceSnapshot) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	defer rep.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for rep.StalenessSeconds() < 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never applied the snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 40; i++ {
		if s := rep.StalenessSeconds(); s >= interval.Seconds() {
			t.Fatalf("staleness %.3fs on a source confirming every %v, want < %v", s, interval/5, interval)
		}
		time.Sleep(interval / 10)
	}
	if v := bad.Load(); v != nil {
		t.Fatalf("pull carried %v, want the replicator's interval", v)
	}
}

// pollSource is a minimal long-poll source: it holds a pull until it
// publishes a snapshot newer than the pull's after, or wait elapses.
type pollSource struct {
	mu   sync.Mutex
	snap PriceSnapshot
	next chan struct{} // closed on the next publish
}

func newPollSource(snap PriceSnapshot) *pollSource {
	return &pollSource{snap: snap, next: make(chan struct{})}
}

func (p *pollSource) publish(snap PriceSnapshot) {
	p.mu.Lock()
	p.snap = snap
	close(p.next)
	p.next = make(chan struct{})
	p.mu.Unlock()
}

func (p *pollSource) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	after, _ := strconv.ParseInt(req.URL.Query().Get("after"), 10, 64)
	wait, _ := time.ParseDuration(req.URL.Query().Get("wait"))
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		p.mu.Lock()
		snap, next := p.snap, p.next
		p.mu.Unlock()
		if snap.TakenUnixNano > after {
			_ = snap.Encode(w)
			return
		}
		select {
		case <-next:
		case <-timer.C:
			w.WriteHeader(http.StatusNotModified)
			return
		case <-req.Context().Done():
			return
		}
	}
}

// TestReplicatorLongPollDelivery: with an hour between confirmations, a
// newly published snapshot still reaches the follower within a round
// trip, because the follower's pull is already waiting at the source;
// and Stop cancels that held pull at once.
func TestReplicatorLongPollDelivery(t *testing.T) {
	src := newPollSource(sampleSnapshot())
	leader := httptest.NewServer(src)
	defer leader.Close()
	applied := make(chan PriceSnapshot, 4)
	rep, err := NewReplicator(leader.URL, time.Hour, func(s PriceSnapshot) error {
		applied <- s
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	for i := 0; i < 3; i++ {
		select {
		case s := <-applied:
			if want := sampleSnapshot().Period + i; s.Period != want {
				t.Fatalf("applied period %d, want %d", s.Period, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("snapshot %d not delivered within 5s of its publish", i)
		}
		next := sampleSnapshot()
		next.Period += i + 1
		next.TakenUnixNano += int64(i + 1)
		src.publish(next)
	}
	<-applied                         // the last publish
	time.Sleep(20 * time.Millisecond) // let the next pull reach the source and be held
	start := time.Now()
	rep.Stop()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Stop took %v with a pull held", d)
	}
}
