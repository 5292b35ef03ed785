package ingest

import (
	"fmt"
	"testing"
)

// fnvStep continues an FNV-1a hash from state h over b.
func fnvStep(h uint32, b []byte) uint32 {
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// fnvBasis is the FNV-1a offset basis: UserHash(s) == fnvStep(fnvBasis, s).
const fnvBasis = 2166136261

// block writes the k-th four-letter alphanumeric string into b.
func block(b *[4]byte, k int) []byte {
	const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for i := range b {
		b[i] = alnum[k%len(alnum)]
		k /= len(alnum)
	}
	return b[:]
}

// fnvCollision finds, by a birthday search, two distinct blocks that
// take FNV-1a state h to one state, and returns them with that state.
// seen is scratch space, cleared first.
func fnvCollision(t *testing.T, h uint32, seen map[uint32]int) (x, y string, next uint32) {
	t.Helper()
	clear(seen)
	var b [4]byte
	for k := 0; k < 1<<22; k++ {
		s := fnvStep(h, block(&b, k))
		if j, ok := seen[s]; ok {
			y = string(b[:])
			return string(block(&b, j)), y, s
		}
		seen[s] = k
	}
	t.Fatal("no FNV-1a collision in 2^22 blocks")
	return "", "", 0
}

// fnvFlood returns 2^bits distinct equal-length names that share one
// UserHash: a chain of collision pairs, one per bit, and every way of
// picking one block from each pair.
func fnvFlood(t *testing.T, bits int) []string {
	t.Helper()
	pairs := make([][2]string, bits)
	h, seen := uint32(fnvBasis), make(map[uint32]int, 1<<18)
	for i := range pairs {
		pairs[i][0], pairs[i][1], h = fnvCollision(t, h, seen)
	}
	names := make([]string, 1<<bits)
	for m := range names {
		var name []byte
		for i, p := range pairs {
			name = append(name, p[m>>i&1]...)
		}
		names[m] = string(name)
	}
	return names
}

// longestProbe is the number of slots the worst lookup of a stored
// user reads.
func (t *userTable) longestProbe() int {
	mask := len(t.slots) - 1
	longest := 0
	for i, s := range t.slots {
		if s.n != 0 {
			longest = max(longest, (i-int(s.hash))&mask+1)
		}
	}
	return longest
}

// TestUserHashCollisionKeepsUsersApart: two distinct users with equal
// FNV-1a UserHash share a shard but get distinct ids and distinct
// counters, on every ingest path.
func TestUserHashCollisionKeepsUsersApart(t *testing.T) {
	a, b, _ := fnvCollision(t, fnvBasis, make(map[uint32]int))
	if a == b || UserHash(a) != UserHash(b) {
		t.Fatalf("%q and %q: not a distinct colliding pair", a, b)
	}
	e, _ := NewEngine(classes3(), 4)
	if err := e.Record(a, "web", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordBatch([]Report{{User: b, Class: "ftp", VolumeMB: 2}, {User: a, Class: "video", VolumeMB: 4}}); err != nil {
		t.Fatal(err)
	}
	users, recs := wireForm([]Report{{User: b, Class: "web", VolumeMB: 8}, {User: a, Class: "web", VolumeMB: 16}})
	if err := e.ApplyWire(users, nil, recs); err != nil {
		t.Fatal(err)
	}
	sa, ia, okA := e.Lookup(a)
	sb, ib, okB := e.Lookup(b)
	if !okA || !okB || sa != sb || ia == ib {
		t.Fatalf("Lookup: %q → (%d,%d,%v), %q → (%d,%d,%v); want one shard, two ids", a, sa, ia, okA, b, sb, ib, okB)
	}
	if names := e.Names(sa); names[ia] != a || names[ib] != b {
		t.Fatalf("Names: id %d → %q, id %d → %q", ia, names[ia], ib, names[ib])
	}
	//lint:allow floateq dyadic sums are exact
	if got := e.UserTotals(); len(got) != 2 || got[a] != 21 || got[b] != 10 {
		t.Fatalf("UserTotals %v, want %s: 21, %s: 10", got, a, b)
	}
}

// TestTableKeyCollisionComparesNames: two users whose seeded table
// keys are equal (found by brute force against this engine's seed)
// still get distinct ids, because a hit compares the whole name, not
// only the key.
func TestTableKeyCollisionComparesNames(t *testing.T) {
	e, _ := NewEngine(classes3(), 1)
	byKey := make(map[uint32]string, 1<<18)
	var a, b string
	for k := 0; a == "" && k < 1<<22; k++ {
		name := fmt.Sprintf("k%d", k)
		h := e.key(name)
		if other, ok := byKey[h]; ok {
			a, b = other, name
		}
		byKey[h] = name
	}
	if a == "" {
		t.Fatal("no table-key collision in 2^22 names")
	}
	if err := e.Record(a, "web", 1); err != nil {
		t.Fatal(err)
	}
	users, recs := wireForm([]Report{{User: b, Class: "ftp", VolumeMB: 2}})
	if err := e.ApplyWire(users, nil, recs); err != nil {
		t.Fatal(err)
	}
	_, ia, _ := e.Lookup(a)
	_, ib, okB := e.Lookup(b)
	//lint:allow floateq small integer sums are exact
	if !okB || ia == ib || e.UserTotals()[a] != 1 || e.UserTotals()[b] != 2 {
		t.Fatalf("%q and %q share key %#x: ids %d, %d (ok %v), totals %v", a, b, e.key(a), ia, ib, okB, e.UserTotals())
	}
}

// TestUserHashFloodBoundedProbes: thousands of users crafted to share
// one UserHash all land on one shard, and all apply correctly; the
// seeded table key still spreads them, so the worst lookup reads a
// handful of slots, not one chain through all of them.
func TestUserHashFloodBoundedProbes(t *testing.T) {
	names := fnvFlood(t, 12)
	e, _ := NewEngine(classes3(), 8)
	var batch []Report
	for i, name := range names {
		if UserHash(name) != UserHash(names[0]) {
			t.Fatalf("%q does not share the flood's UserHash", name)
		}
		batch = append(batch, Report{User: name, Class: classes3()[i%3], VolumeMB: float64(i%5 + 1)})
	}
	users, recs := wireForm(batch[:len(batch)/2])
	if err := e.ApplyWire(users, nil, recs); err != nil {
		t.Fatal(err)
	}
	if err := e.RecordBatch(batch[len(batch)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := e.Record(names[0], "web", 1); err != nil {
		t.Fatal(err)
	}
	shard := e.shardIdxFor(names[0])
	seen := make(map[int32]bool)
	for i, name := range names {
		s, id, ok := e.Lookup(name)
		if !ok || s != shard || seen[id] || id < 0 || int(id) >= len(names) {
			t.Fatalf("user %d: Lookup (%d,%d,%v)", i, s, id, ok)
		}
		seen[id] = true
	}
	totals := e.UserTotals()
	for i, name := range names {
		want := float64(i%5 + 1)
		if i == 0 {
			want++
		}
		//lint:allow floateq small integer sums are exact
		if totals[name] != want {
			t.Fatalf("user %d: %v MB, want %v", i, totals[name], want)
		}
	}
	s := &e.shards[shard]
	s.mu.Lock()
	longest := s.users.longestProbe()
	s.mu.Unlock()
	if longest > 64 {
		t.Fatalf("longest probe %d slots over %d users sharing one UserHash", longest, len(names))
	}
}

// TestLookupAllocs: a hit and a miss in the user table allocate
// nothing.
func TestLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates during AllocsPerRun; the pin runs in the non-race pass")
	}
	e, _ := NewEngine(classes3(), 4)
	if err := e.Record("alice", "web", 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := e.Lookup("alice"); !ok {
			t.Fatal("alice missing")
		}
		if _, _, ok := e.Lookup("bob"); ok {
			t.Fatal("bob present")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.1f times, want 0", allocs)
	}
}

// TestUserTableGrowth: ids stay dense, stable and findable while one
// shard's table grows from its first slots to many thousands.
func TestUserTableGrowth(t *testing.T) {
	e, _ := NewEngine(classes3(), 1)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := e.Record(fmt.Sprintf("grow%d", i), "web", 1); err != nil {
			t.Fatal(err)
		}
	}
	names := e.Names(0)
	if len(names) != n {
		t.Fatalf("%d names, want %d", len(names), n)
	}
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("grow%d", i)
		if _, id, ok := e.Lookup(user); !ok || id != int32(i) || names[id] != user {
			t.Fatalf("%s: Lookup id %d ok %v, name %q", user, id, ok, names[id])
		}
	}
	s := &e.shards[0]
	s.mu.Lock()
	users, slots := len(s.users.ends), len(s.users.slots)
	s.mu.Unlock()
	if 4*users > 3*slots {
		t.Fatalf("%d users in %d slots: over 3/4 full", users, slots)
	}
}
