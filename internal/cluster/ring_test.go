package cluster

import (
	"errors"
	"fmt"
	"testing"

	"tdp/internal/ingest"
)

func testMembers(n int) []Member {
	m := make([]Member, n)
	for i := range m {
		m[i] = Member{ID: fmt.Sprintf("n%d", i), Addr: fmt.Sprintf("http://127.0.0.1:%d", 9000+i)}
	}
	return m
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("u%06d", i)
	}
	return keys
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{Version: 1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty members: %v, want ErrBadConfig", err)
	}
	if _, err := Build(Config{Version: 1, Members: []Member{{ID: ""}}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty ID: %v, want ErrBadConfig", err)
	}
	if _, err := Build(Config{Version: 1, Members: []Member{{ID: "a"}, {ID: "a"}}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("duplicate ID: %v, want ErrBadConfig", err)
	}
	if _, err := Build(Config{Version: 1, VNodes: 1 << 20, Members: testMembers(2)}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("huge vnodes: %v, want ErrBadConfig", err)
	}
}

func TestOwnerDeterministic(t *testing.T) {
	cfg := Config{Version: 3, Members: testMembers(5)}
	r1, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(2000) {
		if r1.OwnerID(k) != r2.OwnerID(k) {
			t.Fatalf("key %q owned by %s and %s from identical configs", k, r1.OwnerID(k), r2.OwnerID(k))
		}
	}
}

func TestPlacementMatchesIngestHash(t *testing.T) {
	// The ring and the ingest shard mapping must hash a user the same
	// way: one user → one shard of one node under every topology.
	r, err := Build(Config{Version: 1, Members: testMembers(3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(100) {
		if got := r.members[r.ownerIdx(ingest.UserHash(k))].ID; got != r.OwnerID(k) {
			t.Fatalf("key %q: Owner path disagrees with UserHash path (%s vs %s)", k, r.OwnerID(k), got)
		}
	}
}

func TestBalance(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		r, err := Build(Config{Version: 1, Members: testMembers(n)})
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[string]int)
		keys := testKeys(30000)
		for _, k := range keys {
			counts[r.OwnerID(k)]++
		}
		var fracSum float64
		for _, m := range r.Members() {
			f := r.OwnedFraction(m.ID)
			fracSum += f
			share := float64(counts[m.ID]) / float64(len(keys))
			// 64 vnodes balances to a few percent; allow a wide margin —
			// the test guards against broken placement, not variance.
			if share < 0.4/float64(n) || share > 2.5/float64(n) {
				t.Fatalf("n=%d: member %s owns %.1f%% of keys", n, m.ID, 100*share)
			}
			if f < 0.4/float64(n) || f > 2.5/float64(n) {
				t.Fatalf("n=%d: member %s owns %.1f%% of the circle", n, m.ID, 100*f)
			}
		}
		if fracSum < 0.999 || fracSum > 1.001 {
			t.Fatalf("n=%d: owned fractions sum to %f", n, fracSum)
		}
	}
}

func TestMinimalMovementOnJoin(t *testing.T) {
	// Consistent hashing's defining property: adding a member only moves
	// keys TO the new member, never between old ones.
	old, err := Build(Config{Version: 1, Members: testMembers(3)})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := Build(Config{Version: 2, Members: testMembers(4)})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	keys := testKeys(20000)
	for _, k := range keys {
		a, b := old.OwnerID(k), grown.OwnerID(k)
		if a != b {
			moved++
			if b != "n3" {
				t.Fatalf("key %q moved %s → %s, not to the joining member", k, a, b)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the joining member")
	}
	if frac := float64(moved) / float64(len(keys)); frac > 0.5 {
		t.Fatalf("join moved %.0f%% of keys, expected ≈ 1/4", 100*frac)
	}
}

func TestOwnedRangesCoverCircle(t *testing.T) {
	r, err := Build(Config{Version: 1, Members: testMembers(4)})
	if err != nil {
		t.Fatal(err)
	}
	// Every probe hash must fall in exactly one member's owned ranges,
	// and that member must be the Owner lookup's answer.
	inRange := func(h uint32, rg Range) bool {
		if rg.Start == 0 && rg.End == ^uint32(0) {
			return true
		}
		if rg.End >= rg.Start {
			return h > rg.Start && h <= rg.End
		}
		return h > rg.Start || h <= rg.End // wrapping arc
	}
	for _, k := range testKeys(5000) {
		h := ingest.UserHash(k)
		owner := r.OwnerID(k)
		holders := 0
		for _, m := range r.Members() {
			for _, rg := range r.OwnedRanges(m.ID) {
				if inRange(h, rg) {
					holders++
					if m.ID != owner {
						t.Fatalf("key %q (h=%#x) in %s's range but owned by %s", k, h, m.ID, owner)
					}
				}
			}
		}
		if holders != 1 {
			t.Fatalf("key %q (h=%#x) falls in %d ranges, want 1", k, h, holders)
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := Config{Version: 7, VNodes: 32, Members: testMembers(3)}
	r, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Config()
	if got.Version != cfg.Version || got.VNodes != cfg.VNodes || len(got.Members) != len(cfg.Members) {
		t.Fatalf("config round trip: %+v", got)
	}
	if _, ok := r.Member("n1"); !ok {
		t.Fatal("Member lookup failed")
	}
	if !r.Owns(r.OwnerID("alice"), "alice") {
		t.Fatal("Owns disagrees with OwnerID")
	}
	if r.Owns("n-missing", "alice") {
		t.Fatal("unknown member owns a key")
	}
}

// TestOwnsHashesMatchesOwns: the per-frame ownership check agrees with
// Owns on every user for every member, and an unknown member owns none.
func TestOwnsHashesMatchesOwns(t *testing.T) {
	r, err := Build(Config{Version: 1, VNodes: 32, Members: testMembers(3)})
	if err != nil {
		t.Fatal(err)
	}
	users := make([]string, 200)
	hashes := make([]uint32, len(users))
	for u := range users {
		users[u] = fmt.Sprintf("user%03d", u)
		hashes[u] = ingest.UserHash(users[u])
	}
	owned := make([]bool, len(users))
	for _, id := range []string{"n0", "n1", "n2", "n-missing"} {
		all := r.OwnsHashes(id, hashes, owned)
		for u, user := range users {
			if owned[u] != r.Owns(id, user) {
				t.Fatalf("%s, %s: OwnsHashes %v, Owns %v", id, user, owned[u], !owned[u])
			}
		}
		if all {
			t.Fatalf("%s owns all of %d users on a 3-member ring", id, len(users))
		}
	}
	if !r.OwnsHashes("n0", nil, nil) {
		t.Fatal("an empty frame is not wholly owned")
	}
}
