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
			if err := e.ApplyWire(users, nil, recs); !errors.Is(err, ErrBadReport) {
				t.Fatalf("ApplyWire: %v, want ErrBadReport", err)
			}
			// All-or-nothing: the valid prefix must not have been applied.
			if got := e.Accepted(); got != 0 {
				t.Fatalf("invalid frame applied %d records", got)
			}
			for _, v := range e.ClassTotals() {
				//lint:allow floateq untouched counters are exactly zero
				if v != 0 {
					t.Fatalf("invalid frame left totals %v", e.ClassTotals())
				}
			}
		})
	}
}

func TestApplyWireEmptyUserRejected(t *testing.T) {
	e := wireEngine(t, 4)
	err := e.ApplyWire([][]byte{{}}, nil, []WireRecord{{User: 0, Class: 0, VolumeMB: 1}})
	if !errors.Is(err, ErrBadReport) {
		t.Fatalf("empty user: %v, want ErrBadReport", err)
	}
}

func TestApplyWireHashLengthMismatch(t *testing.T) {
	e := wireEngine(t, 4)
	err := e.ApplyWire([][]byte{[]byte("alice"), []byte("bob")}, []uint32{UserHash("alice")},
		[]WireRecord{{User: 0, Class: 0, VolumeMB: 1}})
	if !errors.Is(err, ErrBadReport) {
		t.Fatalf("short hash table: %v, want ErrBadReport", err)
	}
}

// TestApplyWireHashedAndUnhashedAgree: passing the cached hashes must
// be a pure optimization — identical placement and totals.
func TestApplyWireHashedAndUnhashedAgree(t *testing.T) {
	users := [][]byte{[]byte("alice"), []byte("bob"), []byte("carol"), []byte("dave")}
	hashes := make([]uint32, len(users))
	for i, u := range users {
		hashes[i] = UserHash(u)
	}
	recs := []WireRecord{
		{User: 0, Class: 0, VolumeMB: 1.25}, {User: 1, Class: 1, VolumeMB: 2},
		{User: 2, Class: 0, VolumeMB: 0.5}, {User: 0, Class: 1, VolumeMB: 3},
		{User: 3, Class: 0, VolumeMB: 7}, {User: 2, Class: 1, VolumeMB: 0.125},
	}
	withH, withoutH := wireEngine(t, 8), wireEngine(t, 8)
	if err := withH.ApplyWire(users, hashes, recs); err != nil {
		t.Fatal(err)
	}
	if err := withoutH.ApplyWire(users, nil, recs); err != nil {
		t.Fatal(err)
	}
	a, b := withH.UserTotals(), withoutH.UserTotals()
	if len(a) != len(b) {
		t.Fatalf("hashed path accounted %d users, unhashed %d", len(a), len(b))
	}
	for u, want := range b {
		//lint:allow floateq identical operations must produce identical bits
		if a[u] != want {
			t.Fatalf("user %s: hashed %v, unhashed %v", u, a[u], want)
		}
	}
}

// TestApplyWireEmptyFrame: a record-less frame is a no-op, not an error
// (v1 encoders can emit empty keep-alive frames).
func TestApplyWireEmptyFrame(t *testing.T) {
	e := wireEngine(t, 4)
	if err := e.ApplyWire(nil, nil, nil); err != nil {
		t.Fatalf("empty frame: %v", err)
	}
	if e.Accepted() != 0 {
		t.Fatalf("empty frame accounted %d records", e.Accepted())
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
	users, recs := wireFormOf(batch, []string{"web", "ftp"})
	apply := func() {
		if err := e.ApplyWire(users, nil, recs); err != nil {
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
