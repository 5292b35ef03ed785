// Replication fan-out tree: who pulls price snapshots from whom.
//
// With N followers all pulling from the leader, the leader holds N
// snapshot polls and answers all N at every period close — fine at 3
// nodes, a thundering herd at 3000. Followers already re-serve
// GET /cluster/snapshot from their applied copy (see Replicator), so
// the pulls can fan out as a tree: the leader feeds `fanout` followers,
// each of those feeds `fanout` more, and the leader's load drops from
// O(N) to O(fanout) while depth — and therefore the time a new price
// takes to reach the last follower — grows only as log_fanout(N) round
// trips.
//
// The tree is DERIVED, not coordinated: every node computes its own
// parent from the current ring membership with TreeParent, so there is
// no tree state to replicate and no repair protocol. A membership
// change reshapes the tree on every node at its next pull (Replicator
// re-resolves its source each time), and a dead parent is routed
// around by the Replicator's leader fallback after two failed pulls —
// self-healing by recomputation rather than by repair messages.
package cluster

import "sort"

// TreeParent returns the member that selfID should pull snapshots from
// in a fan-out tree rooted at leaderID, derived from the ring's current
// membership. The followers are ordered by ID (deterministic on every
// node regardless of config order) and laid out as a complete
// fanout-ary heap with the leader at the root:
//
//	position 0          leader
//	positions 1..fanout leader's children (pull from the leader)
//	position p > 0      pulls from position (p-1)/fanout
//
// ok is false when selfID is the leader, selfID or leaderID is not in
// the ring, or fanout < 1 — callers fall back to pulling from the
// leader directly.
func TreeParent(ring *Ring, leaderID, selfID string, fanout int) (Member, bool) {
	if ring == nil || fanout < 1 || selfID == leaderID {
		return Member{}, false
	}
	leader, ok := ring.Member(leaderID)
	if !ok {
		return Member{}, false
	}
	if _, ok := ring.Member(selfID); !ok {
		return Member{}, false
	}
	// Followers sorted by ID: position p = sorted index + 1 (leader is 0).
	ids := make([]string, 0, len(ring.members))
	for i := range ring.members {
		if ring.members[i].ID != leaderID {
			ids = append(ids, ring.members[i].ID)
		}
	}
	sort.Strings(ids)
	p := 0
	for i, id := range ids {
		if id == selfID {
			p = i + 1
			break
		}
	}
	parent := (p - 1) / fanout
	if parent == 0 {
		return leader, true
	}
	m, ok := ring.Member(ids[parent-1])
	return m, ok
}
