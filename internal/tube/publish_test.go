package tube

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/core"
	"tdp/internal/mechanism"
)

func fetchPrice(c *http.Client, url string) (PriceInfo, error) {
	resp, err := c.Get(url + "/price")
	if err != nil {
		return PriceInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return PriceInfo{}, fmt.Errorf("GET /price: status %d", resp.StatusCode)
	}
	var info PriceInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	return info, err
}

func mustFetchPrice(t *testing.T, c *http.Client, url string) PriceInfo {
	t.Helper()
	info, err := fetchPrice(c, url)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestPriceNeverTorn: GET /price answers from one published record, so
// the reward it reports is always the schedule's entry for the period it
// reports, even while periods close underneath it.
func TestPriceNeverTorn(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const closes = 400
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				info, err := fetchPrice(ts.Client(), ts.URL)
				if err != nil {
					t.Error(err)
					return
				}
				// Both sides come from one record and JSON round-trips
				// float64 exactly, so the bits must match.
				if want := info.Rewards[info.Period%len(info.Rewards)]; math.Float64bits(info.Reward) != math.Float64bits(want) {
					t.Errorf("period %d: reward %v, schedule says %v", info.Period, info.Reward, want)
					return
				}
			}
		}()
	}
	for i := 0; i < closes; i++ {
		if err := meter(opt.Measurement(), UsageReport{User: "u1", Class: "video", VolumeMB: float64(1 + i%5)}); err != nil {
			t.Fatal(err)
		}
		if _, err := opt.ClosePeriod(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := mustFetchPrice(t, ts.Client(), ts.URL).Period; got != closes {
		t.Fatalf("period %d after %d closes", got, closes)
	}
}

// blockingPricer plans its first day at once and blocks every later
// plan until release is closed, signalling entered first.
type blockingPricer struct {
	mechanism.Pricer
	calls   int
	entered chan struct{}
	release chan struct{}
}

func (b *blockingPricer) PlanDay(scn *core.Scenario, ob *mechanism.Observation) ([]float64, error) {
	b.calls++
	if b.calls > 1 {
		close(b.entered)
		<-b.release
	}
	return b.Pricer.PlanDay(scn, ob)
}

// TestLeaderReadsDuringRefit: while a day-boundary close holds the
// optimizer in its mechanism's re-plan, GET /price, GET /cluster/snapshot
// and the tube_current_* gauges still answer, with the period the close
// has not yet ended.
func TestLeaderReadsDuringRefit(t *testing.T) {
	scn := testScenario()
	pricer := &blockingPricer{
		Pricer:  mustPricer(t, "rebate", mechanism.Params{Budget: 6}),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	opt, err := NewOptimizer(OptimizerConfig{Scenario: scn, Classes: testClasses(), Pricer: pricer})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	ring := cluster.Config{Version: 1, Members: []cluster.Member{{ID: "n0", Addr: "http://n0"}}}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: ring}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	// Released before the server closes, even when the test fails while
	// the close is blocked, so a reader stuck behind it cannot hang ts.Close.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(pricer.release) }) }
	defer release()

	for p := 0; p < scn.Periods-1; p++ {
		if _, err := opt.ClosePeriod(); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() {
		_, err := opt.ClosePeriod() // the day boundary: blocks in PlanDay
		closed <- err
	}()
	select {
	case <-pricer.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("day-boundary close never reached the mechanism")
	}

	client := &http.Client{Timeout: 2 * time.Second}
	want := scn.Periods - 1
	if info := mustFetchPrice(t, client, ts.URL); info.Period != want {
		t.Fatalf("GET /price during the refit: period %d, want %d", info.Period, want)
	}
	resp, err := client.Get(ts.URL + "/cluster/snapshot")
	if err != nil {
		t.Fatalf("GET /cluster/snapshot during the refit: %v", err)
	}
	snap, err := cluster.DecodeSnapshot(resp.Body)
	resp.Body.Close()
	if err != nil || snap.Period != want {
		t.Fatalf("snapshot during the refit: %+v, %v; want period %d", snap, err, want)
	}
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics during the refit: %v", err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	gauge := fmt.Sprintf("tube_current_period %d\n", want)
	if !strings.Contains(string(text), gauge) || !strings.Contains(string(text), "tube_current_reward ") {
		t.Fatalf("gauges during the refit lack %q:\n%s", gauge, text)
	}

	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if info := mustFetchPrice(t, client, ts.URL); info.Period != scn.Periods {
		t.Fatalf("after the refit: period %d, want %d", info.Period, scn.Periods)
	}
}

// TestSnapshotLongPoll pins the GET /cluster/snapshot protocol on a
// leader: no after answers at once; an after older than the record
// answers at once; an after equal to it is held until the next close
// publishes, or answers 304 once wait elapses; a bad query is a 400.
func TestSnapshotLongPoll(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	ring := cluster.Config{Version: 7, Members: []cluster.Member{{ID: "n0", Addr: "http://n0"}}}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: ring}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	get := func(query string) (int, []byte, error) {
		resp, err := http.Get(ts.URL + "/cluster/snapshot" + query)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	status, body, err := get("")
	if err != nil || status != http.StatusOK {
		t.Fatalf("plain pull: status %d, %v", status, err)
	}
	snap, err := cluster.DecodeSnapshot(strings.NewReader(string(body)))
	if err != nil || snap.Period != 0 || snap.RingVersion != 7 {
		t.Fatalf("plain pull: %+v, %v", snap, err)
	}
	// The snapshot is cut once per record: a second pull is byte-identical.
	if _, again, _ := get(""); string(again) != string(body) {
		t.Fatalf("re-cut snapshot:\n%s\n%s", body, again)
	}
	if status, _, _ := get(fmt.Sprintf("?after=%d&wait=1h", snap.TakenUnixNano-1)); status != http.StatusOK {
		t.Fatalf("older after: status %d, want 200", status)
	}
	start := time.Now()
	if status, _, _ := get(fmt.Sprintf("?after=%d&wait=30ms", snap.TakenUnixNano)); status != http.StatusNotModified {
		t.Fatalf("current after: status %d, want 304", status)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("304 after %v, before the 30ms wait elapsed", d)
	}
	for _, q := range []string{"?after=x&wait=1s", "?after=1&wait=soon", "?after=1&wait=-1s"} {
		if status, _, _ := get(q); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, status)
		}
	}

	// A held poll is answered by the next close.
	type result struct {
		status int
		body   []byte
		err    error
	}
	got := make(chan result, 1)
	go func() {
		status, body, err := get(fmt.Sprintf("?after=%d&wait=1h", snap.TakenUnixNano))
		got <- result{status, body, err}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := opt.ClosePeriod(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("held poll after a close: status %d, %v", r.status, r.err)
		}
		next, err := cluster.DecodeSnapshot(strings.NewReader(string(r.body)))
		if err != nil || next.Period != 1 || next.TakenUnixNano <= snap.TakenUnixNano {
			t.Fatalf("held poll after a close: %+v, %v", next, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held poll not answered by the close")
	}
}

// TestShutdownReleasesHeldPoll: a follower's long poll held at the
// leader does not hold up the leader's graceful shutdown, nor does it
// hold up the follower's own.
func TestShutdownReleasesHeldPoll(t *testing.T) {
	servers := make([]*Server, 2)
	lns := make([]net.Listener, 2)
	cfg := cluster.Config{Version: 1}
	for i := range servers {
		opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
		if err != nil {
			t.Fatal(err)
		}
		if servers[i], err = NewServer(opt); err != nil {
			t.Fatal(err)
		}
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		cfg.Members = append(cfg.Members, cluster.Member{ID: fmt.Sprintf("n%d", i), Addr: "http://" + lns[i].Addr().String()})
	}
	served := make([]chan error, 2)
	for i, srv := range servers {
		opts := ClusterOptions{SelfID: cfg.Members[i].ID, Ring: cfg}
		if i > 0 {
			opts.LeaderURL = cfg.Members[0].Addr
			opts.ReplicateEvery = time.Hour
		}
		if err := srv.EnableCluster(opts); err != nil {
			t.Fatal(err)
		}
		served[i] = make(chan error, 1)
		go func() { served[i] <- srv.Serve(lns[i]) }()
	}
	leader, follower := servers[0], servers[1]

	// The follower's first pull syncs it; its second is held at the leader.
	deadline := time.Now().Add(5 * time.Second)
	for leader.RequestCounts()["cluster_snapshot"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("follower never held a poll at the leader")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := follower.currentPrice(); err != nil {
		t.Fatalf("follower not synced: %v", err)
	}
	for i, srv := range servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("shutdown %s: %v", cfg.Members[i].ID, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("shutdown %s took %v with a poll held", cfg.Members[i].ID, d)
		}
		if err := <-served[i]; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClosePeriodYieldsToHeldPolls: a close lets the polls its
// publication woke run before it returns, so an operator closing
// several nodes in turn does not hold the new price back until its
// round ends. On one processor a caller that never blocks would run on
// past them every time; the yield lets them go first in nearly every
// close (the scheduler takes the yielded caller back first in about one
// pick of 61), so the test asks for a majority, not for all.
func TestClosePeriodYieldsToHeldPolls(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const closes = 20
	first := 0
	for i := 0; i < closes; i++ {
		after := opt.pub.load().taken
		var answered atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			opt.pub.await(context.Background(), after, time.Minute, nil)
			answered.Store(true)
		}()
		time.Sleep(time.Millisecond) // the poll parks in await
		if _, err := opt.ClosePeriod(); err != nil {
			t.Fatal(err)
		}
		if answered.Load() {
			first++
		}
		<-done
	}
	if first < closes/2 {
		t.Fatalf("held poll answered before ClosePeriod returned in %d of %d closes, want a majority", first, closes)
	}
}
