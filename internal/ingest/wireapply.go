// Zero-copy wire apply: the decode-direct-to-shard half of the cluster
// ingest fast path.
//
// The classic path materializes a []Report from each wire frame and
// feeds it to RecordBatch, which re-does per-record work the frame
// already paid for once: every record hashes its user string, resolves
// its class through a string-keyed map, and copies two string headers —
// even though a v1 frame already carries a deduplicated user table and
// integer class indexes. ApplyWire instead takes the frame's own terms
// (user-table indexes, class indexes, volumes) and folds volumes into
// the shard counters directly:
//
//   - class validation is a bounds check, not a map lookup;
//   - the user hash is computed (or, via the hashes argument, reused
//     from the decoder's intern table) once per DISTINCT user in the
//     frame, not once per record;
//   - records are grouped per user and users per shard with intrusive
//     index chains in a pooled workspace, so each touched shard is
//     locked exactly once per frame and the whole apply is
//     zero-allocation at steady state.
//
// The fold preserves the per-(user, class) accumulation order of the
// record stream, so the resulting counters are bit-identical to
// RecordBatch fed the decoded equivalent on an engine with no ownership
// filter — pinned by the property tests in internal/wire.
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

// wireWS is the pooled per-frame grouping workspace. headUser is sized
// to the shard count and kept all -1 between borrows (ApplyWire resets
// only the entries it touched); everything else is re-initialized per
// call.
type wireWS struct {
	headRec  []int32 // per user: first record index, -1 = none
	nextRec  []int32 // per record: next record of the same user
	nextUser []int32 // per user: next user on the same shard
	headUser []int32 // per shard: first user index, -1 = none (invariant between uses)
	touched  []int32 // shards with at least one user this frame
}

// wireWSPool pools workspaces per engine (field on Engine would widen
// the struct for non-cluster users; a package pool keyed by shard count
// would leak across engines — per-engine pool via lazy holder).
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
	ws := &wireWS{headUser: make([]int32, len(e.shards))}
	for i := range ws.headUser {
		ws.headUser[i] = -1
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
// counters without materializing a []Report: users is the frame's
// (interned) user table, recs its records in frame-index form. The
// ownership filter is bypassed — callers have already admitted the
// frame — and validation (CheckWire) is all-or-nothing: on any invalid
// record NOTHING is applied.
//
// hashes, when non-nil, must be the UserHash of each table entry
// (hashes[i] == UserHash(users[i])); the wire decoder caches these in
// its intern table, so a warm frame applies without hashing a single
// user string. Passing a wrong hash would land a user on the wrong
// shard and corrupt the merge order — only pass values obtained from
// UserHash. nil recomputes them.
func (e *Engine) ApplyWire(users []string, hashes []uint32, recs []WireRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if hashes != nil && len(hashes) != len(users) {
		return fmt.Errorf("user table %d entries, %d hashes: %w", len(users), len(hashes), ErrBadReport)
	}
	// All-or-nothing validation before any shard is touched: a retried
	// frame cannot double-count its valid prefix.
	if err := e.CheckWire(users, recs); err != nil {
		if m := e.metrics(); m != nil {
			m.rejected.Add(int64(len(recs)))
		}
		return err
	}
	nU, nC := len(users), len(e.classes)

	ws := e.wireWS()
	// Per-user record chains, built in reverse so iteration yields each
	// user's records in stream order (bit-identical accumulation).
	headRec := growI32(ws.headRec, nU)
	for u := range headRec {
		headRec[u] = -1
	}
	nextRec := growI32(ws.nextRec, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		u := recs[i].User
		nextRec[i] = headRec[u]
		headRec[u] = int32(i)
	}
	// Per-shard user chains: one hash per distinct user (or none at all
	// when the decoder's cached hashes are passed in).
	nextUser := growI32(ws.nextUser, nU)
	headUser := ws.headUser
	touched := ws.touched[:0]
	for u := nU - 1; u >= 0; u-- {
		if headRec[u] < 0 {
			continue // table entry with no records this frame
		}
		var si int
		if hashes != nil {
			si = int(hashes[u] & e.mask)
		} else {
			si = e.shardIdxFor(users[u])
		}
		if headUser[si] < 0 {
			touched = append(touched, int32(si))
		}
		nextUser[u] = headUser[si]
		headUser[si] = int32(u)
	}
	// Apply: each touched shard is locked exactly once per frame.
	for _, si := range touched {
		s := &e.shards[si]
		s.mu.Lock()
		s.b++
		for u := headUser[si]; u >= 0; u = nextUser[u] {
			vec := s.byUser[users[u]]
			if vec == nil {
				vec = make([]float64, nC)
				s.byUser[users[u]] = vec
			}
			for i := headRec[u]; i >= 0; i = nextRec[i] {
				vec[recs[i].Class] += recs[i].VolumeMB
				s.n++
			}
		}
		s.mu.Unlock()
		headUser[si] = -1 // restore the workspace invariant
	}
	ws.headRec, ws.nextRec, ws.nextUser, ws.touched = headRec, nextRec, nextUser, touched[:0]
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
// range, every volume finite and non-negative. Serving layers call it
// before acknowledging a frame they will apply later.
func (e *Engine) CheckWire(users []string, recs []WireRecord) error {
	nU, nC := len(users), len(e.classes)
	for i := range recs {
		r := &recs[i]
		if r.User < 0 || int(r.User) >= nU {
			return fmt.Errorf("record %d user index %d of %d: %w", i, r.User, nU, ErrBadReport)
		}
		if users[r.User] == "" {
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
