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
	c.EachUser(func(shard int, id int32, mb float64) {
		out[c.Engine().Names(shard)[id]] = mb
	})
	return out
}

// TestShardedMatchesSerialProperty drives random report streams
// (non-dyadic volumes, mixed Record/RecordBatch/ApplyWire, interleaved
// rollovers) through the sharded engine at 1, 4, and 16 shards and
// asserts ClassTotals, UserTotals, and Rollover results equal the
// quantized serial reference exactly.
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

			nOps := 50 + rng.Intn(400)
			for op := 0; op < nOps; op++ {
				switch p := rng.Float64(); {
				case p < 0.03:
					cut := eng.Rollover()
					wantCT, wantUT := ref.rollover()
					checkTotals(t, shards, trial, "Rollover", cut.ClassTotals(), cutUserTotals(cut), wantCT, wantUT)
					if rng.Intn(2) == 0 {
						cut.Release()
					}
				case p < 0.3:
					batch := randBatch(rng)
					if err := eng.RecordBatch(batch); err != nil {
						t.Fatal(err)
					}
					for _, r := range batch {
						ref.record(r.User, r.Class, r.VolumeMB)
					}
				case p < 0.5:
					batch := randBatch(rng)
					users, recs := wireForm(batch)
					if err := eng.ApplyWire(users, nil, recs); err != nil {
						t.Fatal(err)
					}
					for _, r := range batch {
						ref.record(r.User, r.Class, r.VolumeMB)
					}
				default:
					r := randReport(rng)
					if err := eng.Record(r.User, r.Class, r.VolumeMB); err != nil {
						t.Fatal(err)
					}
					ref.record(r.User, r.Class, r.VolumeMB)
				}
			}
			checkTotals(t, shards, trial, "final",
				eng.ClassTotals(), eng.UserTotals(), ref.classTotals(), ref.userTotals())
		}
	}
}

func randReport(rng *rand.Rand) Report {
	return Report{
		User:     fmt.Sprintf("user%03d", rng.Intn(48)),
		Class:    classes3()[rng.Intn(3)],
		VolumeMB: rng.ExpFloat64() * 7.3, // not a multiple of the unit: exercises the rounding
	}
}

func randBatch(rng *rand.Rand) []Report {
	batch := make([]Report, 1+rng.Intn(32))
	for i := range batch {
		batch[i] = randReport(rng)
	}
	return batch
}

// wireForm is a batch in frame-index form, as a wire decoder yields it.
func wireForm(batch []Report) ([][]byte, []WireRecord) { return wireFormOf(batch, classes3()) }

func wireFormOf(batch []Report, classes []string) ([][]byte, []WireRecord) {
	var users [][]byte
	idx := make(map[string]int32)
	recs := make([]WireRecord, len(batch))
	for i, r := range batch {
		u, ok := idx[r.User]
		if !ok {
			u = int32(len(users))
			idx[r.User] = u
			users = append(users, []byte(r.User))
		}
		c := slices.Index(classes, r.Class)
		recs[i] = WireRecord{User: u, Class: int32(c), VolumeMB: r.VolumeMB}
	}
	return users, recs
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
			t.Fatalf("shards=%d trial=%d %s: UserTotals[%s] = %v, want %v",
				shards, trial, where, u, got, v)
		}
	}
}
