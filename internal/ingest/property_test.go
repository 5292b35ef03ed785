package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// serialRef is the straightforward single-map accounting the sharded
// engine must match exactly: each report rounded to metering units and
// summed per (user, class) in uint64.
type serialRef struct {
	classes []string
	byUser  map[string][]uint64
}

func newSerialRef(classes []string) *serialRef {
	return &serialRef{classes: classes, byUser: make(map[string][]uint64)}
}

func (r *serialRef) record(user, class string, v float64) {
	u := r.byUser[user]
	if u == nil {
		u = make([]uint64, len(r.classes))
		r.byUser[user] = u
	}
	for j, c := range r.classes {
		if c == class {
			u[j] += uint64(math.RoundToEven(v * (1 << 20)))
			return
		}
	}
	panic("unknown class " + class)
}

func (r *serialRef) classTotals() []float64 {
	sums := make([]uint64, len(r.classes))
	for _, vec := range r.byUser {
		for j, v := range vec {
			sums[j] += v
		}
	}
	out := make([]float64, len(sums))
	for j, v := range sums {
		out[j] = float64(v) / (1 << 20)
	}
	return out
}

func (r *serialRef) userTotals() map[string]float64 {
	out := make(map[string]float64, len(r.byUser))
	for u, vec := range r.byUser {
		var s uint64
		for _, v := range vec {
			s += v
		}
		out[u] = float64(s) / (1 << 20)
	}
	return out
}

func (r *serialRef) rollover() ([]float64, map[string]float64) {
	ct, ut := r.classTotals(), r.userTotals()
	r.byUser = make(map[string][]uint64)
	return ct, ut
}

// cutUserTotals is the closed period's per-user volumes by name.
func cutUserTotals(c *Cut) map[string]float64 {
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

// place is a user's place in the engine: its shard and its id there.
type place struct {
	shard int
	id    int32
}

// checkIDs asserts the user table against the reference's record of
// every user ever seen: each user keeps the place it got first, and
// each shard's ids are dense and name their users.
func checkIDs(t *testing.T, eng *Engine, places map[string]place, where string) {
	t.Helper()
	perShard := make([]int, eng.NumShards())
	for user, want := range places {
		shard, id, ok := eng.Lookup(user)
		if got := (place{shard, id}); !ok || got != want {
			t.Fatalf("%s: %s at %+v (found %v), first seen at %+v", where, user, got, ok, want)
		}
		perShard[shard]++
	}
	for shard, n := range perShard {
		names := eng.Names(shard)
		if len(names) != n {
			t.Fatalf("%s: shard %d holds %d names, reference %d users", where, shard, len(names), n)
		}
		for id, user := range names {
			if places[user] != (place{shard, int32(id)}) {
				t.Fatalf("%s: shard %d id %d names %q, placed at %+v", where, shard, id, user, places[user])
			}
		}
	}
}

// cutReports is the number of reports the closed period accepted.
func cutReports(c *Cut) int64 {
	var n int64
	for i := range c.closed {
		n += c.closed[i].n
	}
	return n
}

// TestShardedMatchesSerialProperty drives random report streams
// (non-dyadic volumes, interleaved rollovers) through ApplyWire at 1, 4,
// and 16 shards, in frames of every size the engine treats differently:
// single records, frames no larger than the shard count, and frames
// larger than it. It asserts ClassTotals and Rollover results equal the
// quantized serial reference exactly. The running class totals, which
// each shard keeps as it applies reports, are checked against the
// reference after every operation. The user pool grows with the
// stream, so every shard's user table grows through several sizes
// across rollovers; the reference's plain map of first-seen places
// checks that no user ever changes id and that ids stay dense.
func TestShardedMatchesSerialProperty(t *testing.T) {
	classes := classes3()
	for _, shards := range []int{1, 4, 16} {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*shards + trial)))
			eng, err := NewEngine(classes, shards)
			if err != nil {
				t.Fatal(err)
			}
			ref := newSerialRef(classes)
			places := make(map[string]place)

			nOps := 50 + rng.Intn(400)
			for op := 0; op < nOps; op++ {
				pool := 48 + 8*op
				var n int
				switch p := rng.Float64(); {
				case p < 0.03:
					cut := eng.Rollover()
					wantCT, wantUT := ref.rollover()
					checkTotals(t, shards, trial, "Rollover", cut.ClassTotals(), cutUserTotals(cut), wantCT, wantUT)
					checkIDs(t, eng, places, fmt.Sprintf("shards=%d trial=%d op=%d", shards, trial, op))
					if rng.Intn(2) == 0 {
						cut.Release()
					}
					continue
				case p < 0.3:
					n = shards + 1 + rng.Intn(32) // larger than the shard count
				case p < 0.5:
					n = 1 + rng.Intn(shards) // at most the shard count
				default:
					n = 1
				}
				batch := randBatch(rng, pool, n)
				if err := applyReports(eng, batch...); err != nil {
					t.Fatal(err)
				}
				for _, r := range batch {
					if _, ok := places[r.User]; !ok {
						s, id, _ := eng.Lookup(r.User)
						places[r.User] = place{s, id}
					}
					ref.record(r.User, r.Class, r.VolumeMB)
				}
				got, want := eng.ClassTotals(), ref.classTotals()
				for j := range want {
					//lint:allow floateq integer sums converted once: equality is the property under test
					if got[j] != want[j] {
						t.Fatalf("shards=%d trial=%d op=%d: running ClassTotals %v != serial %v",
							shards, trial, op, got, want)
					}
				}
			}
			wantCT, wantUT := ref.rollover()
			cut := eng.Rollover()
			checkTotals(t, shards, trial, "final", cut.ClassTotals(), cutUserTotals(cut), wantCT, wantUT)
			checkIDs(t, eng, places, fmt.Sprintf("shards=%d trial=%d final", shards, trial))
		}
	}
}

// randReport draws a report for one of pool users.
func randReport(rng *rand.Rand, pool int) Report {
	return Report{
		User:     fmt.Sprintf("user%03d", rng.Intn(pool)),
		Class:    classes3()[rng.Intn(3)],
		VolumeMB: rng.ExpFloat64() * 7.3, // not a multiple of the unit: exercises the rounding
	}
}

// randBatch draws n reports for pool users.
func randBatch(rng *rand.Rand, pool, n int) []Report {
	batch := make([]Report, n)
	for i := range batch {
		batch[i] = randReport(rng, pool)
	}
	return batch
}

// wireFormOf is a batch in frame-index form, as a wire decoder yields
// it: the frame's user table in order of first appearance, each user's
// UserHash, and the records indexing the table and classes. A class
// not in classes gets index -1, which CheckWire rejects.
func wireFormOf(batch []Report, classes []string) ([][]byte, []uint32, []WireRecord) {
	var (
		users  [][]byte
		hashes []uint32
	)
	idx := make(map[string]int32)
	recs := make([]WireRecord, len(batch))
	for i, r := range batch {
		u, ok := idx[r.User]
		if !ok {
			u = int32(len(users))
			idx[r.User] = u
			users = append(users, []byte(r.User))
			hashes = append(hashes, UserHash(r.User))
		}
		c := slices.Index(classes, r.Class)
		recs[i] = WireRecord{User: u, Class: int32(c), VolumeMB: r.VolumeMB}
	}
	return users, hashes, recs
}

// applyReports feeds the reports to e through ApplyWire, as one frame.
func applyReports(e *Engine, batch ...Report) error {
	users, hashes, recs := wireFormOf(batch, e.classes)
	return e.ApplyWire(users, hashes, recs)
}

func checkTotals(t *testing.T, shards, trial int, where string,
	gotCT []float64, gotUT map[string]float64, wantCT []float64, wantUT map[string]float64) {
	t.Helper()
	for j := range wantCT {
		//lint:allow floateq integer sums converted once: equality is the property under test
		if gotCT[j] != wantCT[j] {
			t.Fatalf("shards=%d trial=%d %s: ClassTotals %v != serial %v",
				shards, trial, where, gotCT, wantCT)
		}
	}
	if len(gotUT) != len(wantUT) {
		t.Fatalf("shards=%d trial=%d %s: %d users, want %d", shards, trial, where, len(gotUT), len(wantUT))
	}
	for u, v := range wantUT {
		got, ok := gotUT[u]
		//lint:allow floateq integer sums converted once: equality is the property under test
		if !ok || got != v {
			t.Fatalf("shards=%d trial=%d %s: user %s total %v, want %v",
				shards, trial, where, u, got, v)
		}
	}
}
