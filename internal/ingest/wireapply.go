// Zero-copy wire apply: the decode-direct-to-shard half of the server's
// one ingest path, POST /usage/wire.
//
// ApplyWire takes a decoded frame in its own terms — the frame's user
// table as byte views into the request body, integer class indexes and
// volumes — and folds volumes into the shard counters directly:
//
//   - class validation is a bounds check, not a map lookup;
//   - the placement hash (taken from the hashes argument or computed)
//     and the seeded user-table key are computed once per DISTINCT user
//     in the frame, not once per record, before any lock is taken;
//   - under each shard's lock, a first pass touches every user's table
//     slot so their cache misses overlap, and a second resolves each
//     distinct user once per frame, storing a name only the first time
//     the node sees the user;
//   - records are grouped per shard with an index chain in a pooled
//     workspace, so each touched shard is locked exactly once per frame
//     and a warm apply allocates nothing.
//
// Counters are integers, so the fold order does not matter: the result
// equals RecordBatch fed the decoded equivalent, pinned by the property
// tests in internal/wire.
package ingest

import (
	"fmt"
	"sync"
)

// WireRecord is one usage record in frame-index form: User indexes a
// frame's user table, Class the engine's class list (the wire class
// table is built from Engine.Classes, so the indexes agree).
type WireRecord struct {
	User     int32
	Class    int32
	VolumeMB float64
}

// wireWS is the pooled per-frame grouping workspace. head is sized to
// the shard count and kept all -1 between borrows (ApplyWire resets only
// the entries it touched); everything else is re-initialized per call.
type wireWS struct {
	shard   []int32  // per frame user: its shard
	key     []uint32 // per frame user: its user-table key
	at      []int32  // per frame user: where its counters start in its shard's period buffer, -1 = not yet resolved
	next    []int32  // per record: next record on the same shard
	head    []int32  // per shard: first record index, -1 = none (invariant between uses)
	touched []int32  // shards with at least one record this frame
	sink    uint32   // what the touch pass read, stored so it is not optimized away
}

// wireWSHolder pools workspaces per engine, since a workspace is sized
// by the engine's shard count.
type wireWSHolder struct {
	pool sync.Pool
}

// wireWS borrows a workspace sized for this engine's shard count.
//
//tubelint:pooled
func (e *Engine) wireWS() *wireWS {
	if v := e.wirePool.pool.Get(); v != nil {
		return v.(*wireWS)
	}
	ws := &wireWS{head: make([]int32, len(e.shards))}
	for i := range ws.head {
		ws.head[i] = -1
	}
	return ws
}

// growI32 returns s resized to n entries, reallocating only on growth.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// ApplyWire folds one decoded wire frame straight into the shard
// counters without materializing a []Report: users is the frame's user
// table (views into the frame), recs its records in frame-index form.
// Validation (CheckWire) is all-or-nothing: on any invalid record
// NOTHING is applied. ApplyWire keeps no reference to users.
//
// hashes, when non-nil, must be the UserHash of each table entry
// (hashes[i] == UserHash(users[i])), as the wire decoder returns them.
// Passing a wrong hash would land a user on the wrong shard, where the
// user would get a second id — only pass values obtained from UserHash.
// nil recomputes them.
func (e *Engine) ApplyWire(users [][]byte, hashes []uint32, recs []WireRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if hashes != nil && len(hashes) != len(users) {
		return fmt.Errorf("user table %d entries, %d hashes: %w", len(users), len(hashes), ErrBadReport)
	}
	// All-or-nothing validation before any shard is touched: a retried
	// frame cannot double-count its valid prefix.
	if err := e.CheckWire(users, recs); err != nil {
		return err
	}
	ws := e.wireWS()
	// Two hashes per distinct user, outside any lock: the placement
	// hash picks the shard, the seeded key the user-table slot. A frame's
	// user table lists each of its users once.
	shardOf, at := growI32(ws.shard, len(users)), growI32(ws.at, len(users))
	key := ws.key[:0]
	for u := range users {
		var h uint32
		if hashes != nil {
			h = hashes[u]
		} else {
			h = UserHash(users[u])
		}
		shardOf[u], at[u] = int32(h&e.mask), -1
		key = append(key, e.keyBytes(users[u]))
	}
	// Per-shard record chains.
	next := growI32(ws.next, len(recs))
	head, touched := ws.head, ws.touched[:0]
	for i := range recs {
		si := shardOf[recs[i].User]
		if head[si] < 0 {
			touched = append(touched, si)
		}
		next[i] = head[si]
		head[si] = int32(i)
	}
	// Apply: each touched shard is locked exactly once per frame. The
	// first pass over the shard's records only touches each user's slot,
	// name and period slot, so the user table's cache misses for the
	// whole chain are in flight together; the second resolves each user
	// against the warm lines and folds the volumes.
	sink := ws.sink
	for _, si := range touched {
		s := &e.shards[si]
		var n int64
		s.mu.Lock()
		for i := head[si]; i >= 0; i = next[i] {
			if u := recs[i].User; at[u] == -1 {
				at[u] = -2 // touched once: a user's later records skip it
				sink += s.touch(key[u])
			}
		}
		for i := head[si]; i >= 0; i = next[i] {
			r := &recs[i]
			if at[r.User] < 0 {
				at[r.User] = int32(s.counters(id(s, key[r.User], users[r.User]), e.zeros))
			}
			s.cur.ctr[at[r.User]+r.Class].add(units(r.VolumeMB))
			n++
		}
		s.cur.n += n
		s.cur.b++
		s.mu.Unlock()
		head[si] = -1 // restore the workspace invariant
	}
	ws.shard, ws.key, ws.at, ws.next, ws.touched, ws.sink = shardOf, key, at, next, touched[:0], sink
	e.wirePool.pool.Put(ws)
	if m := e.metrics(); m != nil {
		m.records.Add(int64(len(recs)))
		m.batches.Inc()
	}
	return nil
}

// CheckWire validates a frame's records against its user table and this
// engine's classes, with the same volume rule as Record: every user
// index in range and naming a non-empty user, every class index in
// range, every volume in [0, MaxReportMB]. A frame that fails counts
// all its records as rejected. The serving layer calls it on every
// frame of a request body before it applies any of them.
func (e *Engine) CheckWire(users [][]byte, recs []WireRecord) error {
	err := e.checkWire(users, recs)
	if err != nil {
		if m := e.metrics(); m != nil {
			m.rejected.Add(int64(len(recs)))
		}
	}
	return err
}

func (e *Engine) checkWire(users [][]byte, recs []WireRecord) error {
	nU, nC := len(users), len(e.classes)
	for i := range recs {
		r := &recs[i]
		if r.User < 0 || int(r.User) >= nU {
			return fmt.Errorf("record %d user index %d of %d: %w", i, r.User, nU, ErrBadReport)
		}
		if len(users[r.User]) == 0 {
			return fmt.Errorf("record %d empty user: %w", i, ErrBadReport)
		}
		if r.Class < 0 || int(r.Class) >= nC {
			return fmt.Errorf("record %d class index %d of %d: %w", i, r.Class, nC, ErrBadReport)
		}
		if !validVolume(r.VolumeMB) {
			return fmt.Errorf("record %d bad volume %v: %w", i, r.VolumeMB, ErrBadReport)
		}
	}
	return nil
}
