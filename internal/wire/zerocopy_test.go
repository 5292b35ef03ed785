package wire

// The zero-copy apply path (DecodeRecords → Engine.ApplyWire) and the
// classic path (Decode → RecordBatch) are twins: these property tests
// pin them to the same class and per-user totals across shard counts,
// and pin the fast path's zero-allocation steady state.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"tdp/internal/ingest"
)

var zcClasses = []string{"web", "ftp", "video", "p2p"}

// zcReports builds a deterministic stream with repeated users, multiple
// records per (user, class), and full-precision random volumes, which
// both paths must round to the same metering units.
func zcReports(users, n int, seed uint64) []ingest.Report {
	rng := rand.New(rand.NewPCG(seed, 11))
	reps := make([]ingest.Report, n)
	for i := range reps {
		reps[i] = ingest.Report{
			User:     fmt.Sprintf("u%04d", rng.IntN(users)),
			Class:    zcClasses[rng.IntN(len(zcClasses))],
			VolumeMB: rng.Float64() * 1000,
		}
	}
	return reps
}

// applyFrames feeds every frame in body to eng via the requested path.
func applyFrames(t *testing.T, eng *ingest.Engine, dec *Decoder, body []byte, zerocopy bool) {
	t.Helper()
	for len(body) > 0 {
		var consumed int
		if zerocopy {
			users, hashes, recs, n, err := dec.DecodeRecords(body)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.ApplyWire(users, hashes, recs); err != nil {
				t.Fatal(err)
			}
			consumed = n
		} else {
			reps, n, err := dec.Decode(body, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.RecordBatch(reps); err != nil {
				t.Fatal(err)
			}
			consumed = n
		}
		body = body[consumed:]
	}
}

func TestApplyWireBitIdenticalTwin(t *testing.T) {
	tab, err := NewClassTable(zcClasses)
	if err != nil {
		t.Fatal(err)
	}
	reps := zcReports(200, 3000, 42)
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("v%d/shards=%d", VersionCurrent, shards), func(t *testing.T) {
			enc := NewEncoder(tab)
			// Several frames per body, so the engine's user table
			// resolves users across frames like it does on a live
			// connection.
			var body []byte
			for lo := 0; lo < len(reps); lo += 512 {
				hi := min(lo+512, len(reps))
				body, err = enc.AppendFrame(body, reps[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
			}
			ref, err := ingest.NewEngine(zcClasses, shards)
			if err != nil {
				t.Fatal(err)
			}
			zc, err := ingest.NewEngine(zcClasses, shards)
			if err != nil {
				t.Fatal(err)
			}

			applyFrames(t, ref, NewDecoder(tab), body, false)
			applyFrames(t, zc, NewDecoder(tab), body, true)

			if got, want := zc.Accepted(), ref.Accepted(); got != want {
				t.Fatalf("accepted %d via ApplyWire, %d via RecordBatch", got, want)
			}
			refClass, zcClass := ref.ClassTotals(), zc.ClassTotals()
			for j := range refClass {
				//lint:allow floateq bit-identity is the property under test
				if zcClass[j] != refClass[j] {
					t.Fatalf("class %d: zero-copy total %v, reference %v", j, zcClass[j], refClass[j])
				}
			}
			refUser, zcUser := ref.UserTotals(), zc.UserTotals()
			if len(refUser) != len(zcUser) {
				t.Fatalf("zero-copy accounted %d users, reference %d", len(zcUser), len(refUser))
			}
			for u, want := range refUser {
				//lint:allow floateq bit-identity is the property under test
				if zcUser[u] != want {
					t.Fatalf("user %s: zero-copy total %v, reference %v", u, zcUser[u], want)
				}
			}
		})
	}
}

// TestDecodeRecordsHashesMatchUserHash pins the DecodeRecords hash
// contract ApplyWire relies on: hashes[i] == ingest.UserHash(users[i]).
func TestDecodeRecordsHashesMatchUserHash(t *testing.T) {
	tab, err := NewClassTable(zcClasses)
	if err != nil {
		t.Fatal(err)
	}
	body, err := NewEncoder(tab).Encode(zcReports(50, 400, 7))
	if err != nil {
		t.Fatal(err)
	}
	users, hashes, recs, consumed, err := NewDecoder(tab).DecodeRecords(body)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(body) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(body))
	}
	if len(users) != len(hashes) {
		t.Fatalf("%d users, %d hashes", len(users), len(hashes))
	}
	if len(recs) != 400 {
		t.Fatalf("%d records, want 400", len(recs))
	}
	for i, u := range users {
		if hashes[i] != ingest.UserHash(u) {
			t.Fatalf("user %q hash %#x, UserHash says %#x", u, hashes[i], ingest.UserHash(u))
		}
	}
}

// TestDecodeRecordsRejectsCorruption: the zero-copy entry point keeps
// the classic path's whole-frame rejection behavior.
func TestDecodeRecordsRejectsCorruption(t *testing.T) {
	tab, err := NewClassTable(zcClasses)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(tab)
	body, err := enc.Encode(zcReports(10, 64, 3))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 0x40
	if _, _, _, _, err := NewDecoder(tab).DecodeRecords(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip decoded: %v, want ErrCorrupt", err)
	}
	if _, _, _, _, err := NewDecoder(tab).DecodeRecords(body[:len(body)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated frame decoded: %v, want ErrTruncated", err)
	}
}

// TestZeroCopyApplySteadyStateAllocs pins the headline contract: a warm
// DecodeRecords + ApplyWire round trip allocates nothing.
func TestZeroCopyApplySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates during AllocsPerRun; the 0-alloc pin runs in the non-race pass")
	}
	tab, err := NewClassTable(zcClasses)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(tab)
	body, err := enc.Encode(zcReports(64, 256, 9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ingest.NewEngine(zcClasses, 8)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(tab)
	apply := func() {
		users, hashes, recs, _, err := dec.DecodeRecords(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.ApplyWire(users, hashes, recs); err != nil {
			t.Fatal(err)
		}
	}
	apply() // warm-up: add the users to the table, size the workspace and the period buffers
	if allocs := testing.AllocsPerRun(50, apply); allocs != 0 {
		t.Fatalf("warm zero-copy apply allocates %.1f times per frame, want 0", allocs)
	}
}
