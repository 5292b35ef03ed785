package wire

// The zero-copy apply path (DecodeRecords → Engine.ApplyWire) is the
// node's one ingest path. These tests pin it to a plain per-user sum of
// the reference decoder's reports in metering units, across shard
// counts, and pin its zero-allocation steady state.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"tdp/internal/ingest"
)

var zcClasses = []string{"web", "ftp", "video", "p2p"}

// zcReports builds a deterministic stream with repeated users, multiple
// records per (user, class), and full-precision random volumes, which
// the engine must round to the same metering units as the reference.
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

// unitsPerMB is the engine's metering resolution: 2^-20 MB.
const unitsPerMB = 1 << 20

// cutUserTotals is a closed period's per-user volumes by name.
func cutUserTotals(c *ingest.Cut) map[string]float64 {
	out := make(map[string]float64)
	names := make(map[int][]string)
	c.EachUser(func(shard int, id int32, mb float64) {
		if names[shard] == nil {
			names[shard] = c.Engine().Names(shard)
		}
		out[names[shard][id]] = mb
	})
	return out
}

// TestApplyWireBitIdenticalTwin: a body of several frames applied
// through DecodeRecords → ApplyWire closes with class and per-user
// totals bit-identical to a plain map that sums the reference decoder's
// reports, each rounded to metering units, in uint64.
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
			zc, err := ingest.NewEngine(zcClasses, shards)
			if err != nil {
				t.Fatal(err)
			}
			dec := NewDecoder(tab)
			ref := newRefDecoder(tab)
			refClass := make([]uint64, len(zcClasses))
			refUser := make(map[string]uint64)
			for buf := body; len(buf) > 0; {
				users, hashes, recs, n, err := dec.DecodeRecords(buf)
				if err != nil {
					t.Fatal(err)
				}
				if err := zc.ApplyWire(users, hashes, recs); err != nil {
					t.Fatal(err)
				}
				got, refN, err := ref.Decode(buf, nil)
				if err != nil || refN != n {
					t.Fatalf("reference decode: %d bytes, %v; DecodeRecords %d bytes", refN, err, n)
				}
				for _, r := range got {
					u := uint64(math.RoundToEven(r.VolumeMB * unitsPerMB))
					c, _ := tab.Index(r.Class)
					refClass[c] += u
					refUser[r.User] += u
				}
				buf = buf[n:]
			}

			cut := zc.Rollover()
			for j, v := range cut.ClassTotals() {
				//lint:allow floateq bit-identity is the property under test
				if want := float64(refClass[j]) / unitsPerMB; v != want {
					t.Fatalf("class %d: zero-copy total %v, reference %v", j, v, want)
				}
			}
			zcUser := cutUserTotals(cut)
			if len(refUser) != len(zcUser) {
				t.Fatalf("zero-copy accounted %d users, reference %d", len(zcUser), len(refUser))
			}
			for u, units := range refUser {
				//lint:allow floateq bit-identity is the property under test
				if want := float64(units) / unitsPerMB; zcUser[u] != want {
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
