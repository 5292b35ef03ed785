package ingest

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

func classes3() []string { return []string{"web", "ftp", "video"} }

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, 4); !errors.Is(err, ErrBadReport) {
		t.Errorf("no classes: err = %v, want ErrBadReport", err)
	}
	if _, err := NewEngine([]string{"a", "a"}, 4); !errors.Is(err, ErrBadReport) {
		t.Errorf("dup class: err = %v, want ErrBadReport", err)
	}
	if _, err := NewEngine([]string{""}, 4); !errors.Is(err, ErrBadReport) {
		t.Errorf("empty class: err = %v, want ErrBadReport", err)
	}
}

func TestShardCountNormalization(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32}, {4096, 1024},
	} {
		e, err := NewEngine(classes3(), tc.in)
		if err != nil {
			t.Fatalf("NewEngine(%d): %v", tc.in, err)
		}
		if e.NumShards() != tc.want {
			t.Errorf("NumShards(%d) = %d, want %d", tc.in, e.NumShards(), tc.want)
		}
	}
	e, _ := NewEngine(classes3(), 0)
	if n := e.NumShards(); n < 1 || n&(n-1) != 0 {
		t.Errorf("default shards %d not a positive power of two", n)
	}
}

// TestRecordValidation: a frame with an empty user, an unknown class,
// or a negative or NaN volume is rejected and leaves nothing behind.
func TestRecordValidation(t *testing.T) {
	e, _ := NewEngine(classes3(), 4)
	for name, r := range map[string]Report{
		"empty user":      {User: "", Class: "web", VolumeMB: 1},
		"unknown class":   {User: "u", Class: "smtp", VolumeMB: 1},
		"negative volume": {User: "u", Class: "web", VolumeMB: -1},
		"NaN volume":      {User: "u", Class: "web", VolumeMB: math.NaN()},
	} {
		if err := applyReports(e, r); !errors.Is(err, ErrBadReport) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	if n := cutReports(e.Rollover()); n != 0 {
		t.Errorf("%d invalid reports accounted", n)
	}
}

// TestInfiniteVolumeRejected: one volume rule (finite, non-negative)
// holds on the one ingest path. An accepted +Inf would reach the period
// totals, the online price engine's demand row and the bill.
func TestInfiniteVolumeRejected(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		e, _ := NewEngine(classes3(), 4)
		users, hashes, recs := wireFormOf([]Report{{User: "a", Class: "web", VolumeMB: 1}, {User: "b", Class: "ftp", VolumeMB: v}}, classes3())
		if err := e.CheckWire(users, recs); !errors.Is(err, ErrBadReport) {
			t.Errorf("CheckWire(%v): err = %v, want ErrBadReport", v, err)
		}
		if err := e.ApplyWire(users, hashes, recs); !errors.Is(err, ErrBadReport) {
			t.Errorf("ApplyWire(%v): err = %v, want ErrBadReport", v, err)
		}
		if n := cutReports(e.Rollover()); n != 0 {
			t.Errorf("volume %v: %d reports accounted, want 0", v, n)
		}
	}
}

// TestFiniteReportsCannotOverflow: the ingest path caps one report at
// MaxReportMB, so finite reports can no longer sum to +Inf. Two 1e308
// reports used to be accepted and close as [+Inf 0 0].
func TestFiniteReportsCannotOverflow(t *testing.T) {
	e, _ := NewEngine(classes3(), 4)
	for i := 0; i < 2; i++ {
		if err := applyReports(e, Report{User: "alice", Class: "web", VolumeMB: 1e308}); !errors.Is(err, ErrBadReport) {
			t.Fatalf("1e308 #%d: err = %v, want ErrBadReport", i+1, err)
		}
	}
	over := math.Nextafter(MaxReportMB, math.Inf(1))
	users, hashes, recs := wireFormOf([]Report{{User: "a", Class: "web", VolumeMB: 1}, {User: "b", Class: "ftp", VolumeMB: over}}, classes3())
	if err := e.CheckWire(users, recs); !errors.Is(err, ErrBadReport) {
		t.Errorf("CheckWire over the cap: err = %v, want ErrBadReport", err)
	}
	if err := e.ApplyWire(users, hashes, recs); !errors.Is(err, ErrBadReport) {
		t.Errorf("ApplyWire over the cap: err = %v, want ErrBadReport", err)
	}
	if n := cutReports(e.Rollover()); n != 0 {
		t.Fatalf("%d over-cap reports accounted, want 0", n)
	}
	// Reports at the cap are accepted, and their sums neither wrap nor
	// lose precision: 1000 reports of 2^60 units each overflow 64 bits
	// (an int64 counter wraps after 8), not the 128-bit counters.
	const n = 1000
	for i := 0; i < n; i++ {
		if err := applyReports(e, Report{User: "alice", Class: "web", VolumeMB: MaxReportMB}); err != nil {
			t.Fatalf("report at the cap: %v", err)
		}
	}
	if err := applyReports(e, Report{User: "bob", Class: "web", VolumeMB: MaxReportMB}, Report{User: "bob", Class: "web", VolumeMB: MaxReportMB}); err != nil {
		t.Fatal(err)
	}
	cut := e.Rollover()
	classTotals, userTotals := cut.ClassTotals(), cutUserTotals(cut)
	//lint:allow floateq (n+2)·2^40 is exact in float64
	if classTotals[0] != (n+2)*MaxReportMB || userTotals["alice"] != n*MaxReportMB || userTotals["bob"] != 2*MaxReportMB {
		t.Fatalf("totals %v / %v, want %v", classTotals, userTotals, float64((n+2)*MaxReportMB))
	}
}

func TestAccounting(t *testing.T) {
	e, err := NewEngine(classes3(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyReports(e, Report{User: "user1", Class: "web", VolumeMB: 10}, Report{User: "user2", Class: "video", VolumeMB: 100}); err != nil {
		t.Fatal(err)
	}
	if err := applyReports(e, Report{User: "user1", Class: "web", VolumeMB: 5}); err != nil {
		t.Fatal(err)
	}
	if err := applyReports(e, Report{User: "user2", Class: "ftp", VolumeMB: 20}); err != nil {
		t.Fatal(err)
	}

	want := []float64{15, 20, 100}
	got := e.ClassTotals()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ClassTotals[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	cut := e.Rollover()
	ct, pu := cut.ClassTotals(), cutUserTotals(cut)
	for i := range want {
		if ct[i] != want[i] {
			t.Errorf("Rollover class totals %v, want %v", ct, want)
		}
	}
	if len(pu) != 2 || pu["user1"] != 15 || pu["user2"] != 120 {
		t.Errorf("Rollover user totals = %v", pu)
	}
	if n := cutReports(cut); n != 4 {
		t.Errorf("Rollover accepted %d reports, want 4", n)
	}
	for _, v := range e.ClassTotals() {
		if v != 0 {
			t.Error("counters not cleared by Rollover")
		}
	}
	if n := cutReports(e.Rollover()); n != 0 {
		t.Errorf("period after rollover accepted %d reports, want 0", n)
	}
}

// TestConcurrentRecordRollover hammers ApplyWire, with one- and
// two-record frames, against Rollover under -race and asserts no report
// is lost or double-counted: the sum of every closed period's totals
// plus the final totals must equal exactly what the writers sent
// (integral volumes, so float addition is exact regardless of
// interleaving).
func TestConcurrentRecordRollover(t *testing.T) {
	e, _ := NewEngine(classes3(), 8)
	const writers = 8
	const perWriter = 500

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user%02d", w)
			for i := 0; i < perWriter; i++ {
				if i%10 == 0 {
					batch := []Report{
						{User: user, Class: "web", VolumeMB: 1},
						{User: "shared", Class: "ftp", VolumeMB: 1},
					}
					if err := applyReports(e, batch...); err != nil {
						t.Error(err)
						return
					}
					i++ // the batch carried this user's report for slot i too
					continue
				}
				if err := applyReports(e, Report{User: user, Class: "web", VolumeMB: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	var closedSum float64
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			cut := e.Rollover()
			for _, v := range cut.ClassTotals() {
				closedSum += v
			}
			cut.Release()
		}
	}()
	wg.Wait()
	<-done
	for _, v := range e.ClassTotals() {
		closedSum += v
	}

	// Each writer issues perWriter "slots": 1 report per slot, plus one
	// extra "shared" report on every 10th slot (which consumes 2 slots).
	var want float64
	for w := 0; w < writers; w++ {
		slots := 0
		reports := 0
		for slots < perWriter {
			if slots%10 == 0 {
				reports += 2
				slots += 2
			} else {
				reports++
				slots++
			}
		}
		want += float64(reports)
	}
	if closedSum != want {
		t.Fatalf("accounted %v MB across rollovers, want %v (lost or duplicated reports)", closedSum, want)
	}
}

// TestRolloverAllocsFlat: the close's critical section is a buffer
// swap, and a released cut's buffers carry the next period, so a warm
// rollover and its totals allocate the same few objects whether the
// period touched ten users or ten thousand.
func TestRolloverAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates during AllocsPerRun; the pin runs in the non-race pass")
	}
	allocs := func(users int) float64 {
		e, _ := NewEngine(classes3(), 16)
		batch := make([]Report, users)
		for i := range batch {
			batch[i] = Report{User: fmt.Sprintf("user%05d", i), Class: classes3()[i%3], VolumeMB: 1.5}
		}
		names, hashes, recs := wireFormOf(batch, classes3())
		var sink float64
		period := func() {
			if err := e.ApplyWire(names, hashes, recs); err != nil {
				t.Fatal(err)
			}
			cut := e.Rollover()
			sink += cut.ClassTotals()[0]
			cut.EachUser(func(_ int, _ int32, mb float64) { sink += mb })
			cut.Release()
		}
		period()
		period()
		recordOnly := testing.AllocsPerRun(5, func() {
			if err := e.ApplyWire(names, hashes, recs); err != nil {
				t.Fatal(err)
			}
		})
		e.Rollover().Release()
		return testing.AllocsPerRun(5, period) - recordOnly
	}
	small, large := allocs(10), allocs(10000)
	if large != small || small > 4 {
		t.Fatalf("rollover allocates %.0f objects at 10 touched users, %.0f at 10000; want the same few", small, large)
	}
}

// TestUserIDSurvivesRollovers: a user keeps one id for the engine's
// lifetime, however many periods close, and each period's usage is
// reported under it.
func TestUserIDSurvivesRollovers(t *testing.T) {
	e, _ := NewEngine(classes3(), 4)
	if err := applyReports(e, Report{User: "alice", Class: "web", VolumeMB: 1}); err != nil {
		t.Fatal(err)
	}
	shard, id, ok := e.Lookup("alice")
	if !ok {
		t.Fatal("alice not in the user table")
	}
	for p := 0; p < 1000; p++ {
		if err := applyReports(e, Report{User: fmt.Sprintf("other%d", p), Class: "ftp", VolumeMB: 1}); err != nil {
			t.Fatal(err)
		}
		if err := applyReports(e, Report{User: "alice", Class: "video", VolumeMB: 0.5}); err != nil {
			t.Fatal(err)
		}
		cut := e.Rollover()
		var seen int
		cut.EachUser(func(s int, i int32, mb float64) {
			if s == shard && i == id {
				seen++
				//lint:allow floateq p=0 adds the warm-up 1 MB; dyadic sums are exact
				if want := 0.5 + float64(1-min(p, 1)); mb != want {
					t.Fatalf("period %d: alice %v MB, want %v", p, mb, want)
				}
			}
		})
		if seen != 1 {
			t.Fatalf("period %d: alice reported %d times under id %d", p, seen, id)
		}
		cut.Release()
		if s, i, _ := e.Lookup("alice"); s != shard || i != id {
			t.Fatalf("period %d: alice moved from (%d,%d) to (%d,%d)", p, shard, id, s, i)
		}
	}
	if got := e.Names(shard)[id]; got != "alice" {
		t.Fatalf("id %d names %q", id, got)
	}
}
