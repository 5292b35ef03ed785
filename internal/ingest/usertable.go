package ingest

import (
	"hash/maphash"
	"math"
)

// userSlot is one slot of a user table's index: the user's seeded
// hash, its id, and where its name sits in the arena. n == 0 marks an
// empty slot, since every stored name is non-empty. Sixteen bytes and
// no pointers: four slots share a cache line and the GC never scans
// the array.
type userSlot struct {
	hash uint32
	id   int32
	off  uint32
	n    uint32
}

// userTable is one shard's user table: user name → dense id, ids
// handed out 0, 1, 2, ... in order of first sighting and kept for the
// engine's lifetime. It has three parts:
//
//   - slots, a power-of-two open-addressing array probed linearly from
//     the name's seeded hash and kept at most 3/4 full;
//   - arena, every name back to back in id order, append-only;
//   - ends, id → the end offset of its name in arena.
//
// A hit costs one slot probe and one arena compare. The slot index is
// a maphash under a per-engine random seed, not the unseeded FNV-1a
// UserHash that places users on shards and nodes: names crafted to
// collide under FNV land on one shard, but not in one probe chain.
type userTable struct {
	slots []userSlot
	arena []byte
	ends  []uint32
}

const minUserSlots = 8

func newUserTable() userTable { return userTable{slots: make([]userSlot, minUserSlots)} }

// key is the user-table key of a name given as a string: its maphash
// under the engine's seed, folded to 32 bits.
func (e *Engine) key(user string) uint32 { return fold(maphash.String(e.seed, user)) }

// keyBytes is key for a name given as bytes, with the same result.
func (e *Engine) keyBytes(user []byte) uint32 { return fold(maphash.Bytes(e.seed, user)) }

func fold(h uint64) uint32 { return uint32(h ^ h>>32) }

// find returns the id of user, whose key is h, or -1 and the empty
// slot where user would go.
func find[T string | []byte](t *userTable, h uint32, user T) (id int32, slot int) {
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.n == 0 {
			return -1, i
		}
		if s.hash == h && int(s.n) == len(user) && string(t.arena[s.off:s.off+s.n]) == string(user) {
			return s.id, i
		}
	}
}

// add stores user, whose key is h, in the empty slot find returned for
// it, and returns its new id.
func add(t *userTable, h uint32, user []byte, slot int) int32 {
	off := len(t.arena)
	if uint64(off)+uint64(len(user)) > math.MaxUint32 {
		// 4 GiB of names on one shard: the process ran out of memory
		// long before a real user base gets here.
		panic("ingest: user table name arena over 4 GiB on one shard")
	}
	id := int32(len(t.ends))
	t.arena = append(t.arena, user...)
	t.ends = append(t.ends, uint32(len(t.arena)))
	t.slots[slot] = userSlot{hash: h, id: id, off: uint32(off), n: uint32(len(user))}
	if 4*len(t.ends) > 3*len(t.slots) {
		t.grow()
	}
	return id
}

// grow doubles the slot array. Slots carry their full hash, so no name
// is rehashed.
func (t *userTable) grow() {
	old := t.slots
	t.slots = make([]userSlot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.n == 0 {
			continue
		}
		i := int(s.hash) & mask
		for t.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// touch reads the slot where a lookup of key h starts and, when it
// holds a user with that key, the first byte of the name it points at
// and that user's period slot. It resolves nothing: it only starts
// those cache lines loading, so a caller that touches every user of a
// frame before resolving any has their misses in flight together.
func (s *shard) touch(h uint32) uint32 {
	t := &s.users
	sl := &t.slots[int(h)&(len(t.slots)-1)]
	if sl.hash != h || sl.n == 0 {
		return 0
	}
	return uint32(t.arena[sl.off]) + uint32(s.slot[sl.id])
}

// namesOf builds the id-indexed names of a table snapshot: one copy of
// the arena, sliced per id. The arena and ends are append-only, so a
// snapshot taken under the shard lock can be read after it.
func namesOf(arena []byte, ends []uint32) []string {
	all := string(arena)
	out := make([]string, len(ends))
	var start uint32
	for id, end := range ends {
		out[id] = all[start:end]
		start = end
	}
	return out
}
