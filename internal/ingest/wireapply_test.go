package ingest

import (
	"errors"
	"fmt"
	"testing"
)

func wireEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := NewEngine([]string{"web", "ftp"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestApplyWireAllOrNothing(t *testing.T) {
	users := [][]byte{[]byte("alice"), []byte("bob")}
	cases := map[string][]WireRecord{
		"user index out of range":  {{User: 0, Class: 0, VolumeMB: 1}, {User: 2, Class: 0, VolumeMB: 1}},
		"negative user index":      {{User: -1, Class: 0, VolumeMB: 1}},
		"class index out of range": {{User: 0, Class: 0, VolumeMB: 1}, {User: 1, Class: 2, VolumeMB: 1}},
		"negative volume":          {{User: 0, Class: 0, VolumeMB: 5}, {User: 0, Class: 1, VolumeMB: -1}},
	}
	for name, recs := range cases {
		t.Run(name, func(t *testing.T) {
			e := wireEngine(t, 4)
			if err := e.ApplyWire(users, hashesOf(users), recs); !errors.Is(err, ErrBadReport) {
				t.Fatalf("ApplyWire: %v, want ErrBadReport", err)
			}
			// All-or-nothing: the valid prefix must not have been applied.
			for _, v := range e.ClassTotals() {
				//lint:allow floateq untouched counters are exactly zero
				if v != 0 {
					t.Fatalf("invalid frame left totals %v", e.ClassTotals())
				}
			}
			if got := cutReports(e.Rollover()); got != 0 {
				t.Fatalf("invalid frame applied %d records", got)
			}
		})
	}
}

// hashesOf is the UserHash of each user, as the wire decoder returns
// them beside a frame's user table.
func hashesOf(users [][]byte) []uint32 {
	hashes := make([]uint32, len(users))
	for i, u := range users {
		hashes[i] = UserHash(u)
	}
	return hashes
}

func TestApplyWireEmptyUserRejected(t *testing.T) {
	e := wireEngine(t, 4)
	err := e.ApplyWire([][]byte{{}}, []uint32{UserHash("")}, []WireRecord{{User: 0, Class: 0, VolumeMB: 1}})
	if !errors.Is(err, ErrBadReport) {
		t.Fatalf("empty user: %v, want ErrBadReport", err)
	}
}

// TestApplyWireHashLengthMismatch: a frame must come with one hash per
// user; a short or missing hash table is rejected, not recomputed.
func TestApplyWireHashLengthMismatch(t *testing.T) {
	e := wireEngine(t, 4)
	users := [][]byte{[]byte("alice"), []byte("bob")}
	recs := []WireRecord{{User: 0, Class: 0, VolumeMB: 1}}
	if err := e.ApplyWire(users, []uint32{UserHash("alice")}, recs); !errors.Is(err, ErrBadReport) {
		t.Fatalf("short hash table: %v, want ErrBadReport", err)
	}
	if err := e.ApplyWire(users, nil, recs); !errors.Is(err, ErrBadReport) {
		t.Fatalf("no hash table: %v, want ErrBadReport", err)
	}
	if got := cutReports(e.Rollover()); got != 0 {
		t.Fatalf("rejected frames applied %d records", got)
	}
}

// TestApplyWireEmptyFrame: a record-less frame is a no-op, not an error
// (v1 encoders can emit empty keep-alive frames).
func TestApplyWireEmptyFrame(t *testing.T) {
	e := wireEngine(t, 4)
	if err := e.ApplyWire(nil, nil, nil); err != nil {
		t.Fatalf("empty frame: %v", err)
	}
	if n := cutReports(e.Rollover()); n != 0 {
		t.Fatalf("empty frame accounted %d records", n)
	}
}

// TestApplyWireWarmAllocs pins the node's ingest hot path: once a
// frame's users are in the table and the period buffers are sized, an
// ApplyWire allocates nothing, in the period it warmed up in and in the
// next one.
func TestApplyWireWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool entries; the 0-alloc pin runs in the non-race pass")
	}
	e := wireEngine(t, 8)
	batch := make([]Report, 256)
	for i := range batch {
		batch[i] = Report{User: fmt.Sprintf("u%03d", i%64), Class: []string{"web", "ftp"}[i%2], VolumeMB: 0.3}
	}
	users, hashes, recs := wireFormOf(batch, []string{"web", "ftp"})
	apply := func() {
		if err := e.ApplyWire(users, hashes, recs); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	if allocs := testing.AllocsPerRun(100, apply); allocs != 0 {
		t.Fatalf("warm ApplyWire allocates %.1f times per frame, want 0", allocs)
	}
	e.Rollover().Release()
	apply()
	if allocs := testing.AllocsPerRun(100, apply); allocs != 0 {
		t.Fatalf("warm ApplyWire after a rollover allocates %.1f times per frame, want 0", allocs)
	}
}
