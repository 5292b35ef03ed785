// Package cluster is the horizontal-scale serving plane for TUBE: a
// consistent-hash ring assigning user keys to nodes, a Router client
// that batches usage reports per owner and fans them out in the binary
// wire format, and snapshot-based replication of the price plane.
//
// The paper's prototype is one server fronting a testbed (§VI); the
// ROADMAP's next factor of 100 needs several tube.Server nodes owning
// disjoint user ranges. The design mirrors the in-process sharding one
// level up: ingest hashes a user to a lock stripe with FNV-1a, the ring
// hashes the same user with the same FNV-1a to a node, so a user's
// reports always land on one shard of one node and per-user
// accumulation order survives the distribution.
//
// Membership is static-with-versions rather than gossiped: a ring
// Config carries a monotonically increasing version, the operator (or
// the benchmark harness) pushes it to every node, and nodes enforce
// ownership per their current view — a misrouted report is rejected by
// index in the ack, which carries the node's ring version, never
// silently accepted, so a rebalance can only delay a report, not
// double- or zero-count it.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"tdp/internal/ingest"
)

// ErrBadConfig is returned for invalid ring configurations.
var ErrBadConfig = errors.New("cluster: bad config")

// DefaultVNodes is the virtual-node count per member when a Config
// leaves it zero: enough points that a 3–5 node ring balances within a
// few percent, few enough that Build stays trivially cheap.
const DefaultVNodes = 64

// Member is one serving node: a stable ID (the hash identity — moving a
// node to a new address must not move its users) and its base URL.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Config is the serialized ring: what PUT /cluster/ring carries between
// nodes and what Build consumes.
type Config struct {
	Version uint64   `json:"version"`
	VNodes  int      `json:"vnodes,omitempty"`
	Members []Member `json:"members"`
}

// mix32 is a finalizing bit mixer (lowbias32). FNV-1a's high bits
// avalanche poorly on short inputs like "n1#17", leaving whole arcs of
// the circle empty of virtual points; mixing the VNODE hashes (never
// the user-key hashes, which must keep matching ingest's shard mapping)
// restores uniform point placement.
func mix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

// point is one virtual node on the 32-bit circle.
type point struct {
	h      uint32
	member int32
}

// Ring is an immutable consistent-hash ring; rebuild (Build) and swap
// to change membership. Lookups are lock-free.
//
// A lookup is O(1): the circle is cut into 2^k equal buckets, at least
// as many as there are points, and bucket[b] holds the index of the
// first point at or after the bucket's start. A hash's owner is found
// by a forward scan from its bucket's entry past the points below it,
// which under mix32's uniform placement is about one point.
type Ring struct {
	version uint64
	vnodes  int
	members []Member
	byID    map[string]int
	points  []point
	bucket  []int32 // bucket b → first point with h >= b<<shift, len(points) if none
	shift   uint    // 32 − log2(len(bucket)); a hash's bucket is h >> shift
}

// Build constructs a ring from a config. Each member contributes
// cfg.VNodes virtual points at FNV-1a("id#i"); a user key is owned by
// the member of the first point clockwise of ingest.UserHash(user).
func Build(cfg Config) (*Ring, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("%w: no members", ErrBadConfig)
	}
	vn := cfg.VNodes
	if vn == 0 {
		vn = DefaultVNodes
	}
	if vn < 1 || vn > 4096 {
		return nil, fmt.Errorf("%w: vnodes %d out of range [1, 4096]", ErrBadConfig, vn)
	}
	r := &Ring{
		version: cfg.Version,
		vnodes:  vn,
		members: append([]Member(nil), cfg.Members...),
		byID:    make(map[string]int, len(cfg.Members)),
		points:  make([]point, 0, vn*len(cfg.Members)),
	}
	for i, m := range r.members {
		if m.ID == "" {
			return nil, fmt.Errorf("%w: member %d has empty ID", ErrBadConfig, i)
		}
		if _, dup := r.byID[m.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate member ID %q", ErrBadConfig, m.ID)
		}
		r.byID[m.ID] = i
		for v := 0; v < vn; v++ {
			h := mix32(ingest.UserHash(m.ID + "#" + strconv.Itoa(v)))
			r.points = append(r.points, point{h: h, member: int32(i)})
		}
	}
	// Sort by hash; ties broken by member ID so a hash collision between
	// two members' virtual points resolves identically on every node.
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.h != pb.h {
			return pa.h < pb.h
		}
		return r.members[pa.member].ID < r.members[pb.member].ID
	})
	r.index()
	return r, nil
}

// index builds the bucket index over the sorted points.
func (r *Ring) index() {
	n := len(r.points)
	r.shift = 32
	for 1<<(32-r.shift) < n {
		r.shift--
	}
	r.bucket = make([]int32, 1<<(32-r.shift))
	p := 0
	for b := range r.bucket {
		start := uint64(b) << r.shift
		for p < n && uint64(r.points[p].h) < start {
			p++
		}
		r.bucket[b] = int32(p)
	}
}

// Version returns the config version the ring was built from.
func (r *Ring) Version() uint64 { return r.version }

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Members returns the ring membership in config order.
func (r *Ring) Members() []Member { return append([]Member(nil), r.members...) }

// Member resolves a member by ID.
func (r *Ring) Member(id string) (Member, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Member{}, false
	}
	return r.members[i], true
}

// Config serializes the ring back to its wire form.
func (r *Ring) Config() Config {
	return Config{Version: r.version, VNodes: r.vnodes, Members: r.Members()}
}

// ownerIdx finds the member index owning hash h: the first point at or
// clockwise of h, wrapping past the top of the circle. The scan starts
// at the first point of h's bucket, so it passes only the points that
// share h's bucket and lie below h.
func (r *Ring) ownerIdx(h uint32) int32 {
	pts := r.points
	i := int(r.bucket[h>>r.shift])
	for i < len(pts) && pts[i].h < h {
		i++
	}
	if i == len(pts) {
		i = 0 // wrap
	}
	return pts[i].member
}

// Owner returns the member owning a user key. Placement uses the exact
// FNV-1a hash ingest uses for its shard mapping.
func (r *Ring) Owner(user string) Member {
	return r.members[r.ownerIdx(ingest.UserHash(user))]
}

// OwnerID returns the owning member's ID.
func (r *Ring) OwnerID(user string) string {
	return r.members[r.ownerIdx(ingest.UserHash(user))].ID
}

// Owns reports whether member id owns the user key.
func (r *Ring) Owns(id, user string) bool {
	i, ok := r.byID[id]
	return ok && int32(i) == r.ownerIdx(ingest.UserHash(user))
}

// OwnsHashes sets owned[u] to whether member id owns the user key
// whose precomputed ingest.UserHash is hashes[u], and reports whether
// it owns them all. The zero-copy admission path checks a frame's user
// table with the decoder's cached hashes: the member is resolved once
// per frame, and no user string is re-hashed. owned must be as long as
// hashes.
func (r *Ring) OwnsHashes(id string, hashes []uint32, owned []bool) (all bool) {
	i, ok := r.byID[id]
	all = true
	for u, h := range hashes {
		owned[u] = ok && int32(i) == r.ownerIdx(h)
		all = all && owned[u]
	}
	return all
}

// OwnerIndex returns the member index (into Members() order) owning a
// user key. The Router uses it to partition a batch with per-owner
// index chains instead of a map of slices.
func (r *Ring) OwnerIndex(user string) int {
	return int(r.ownerIdx(ingest.UserHash(user)))
}

// Range is one owned arc of the hash circle: keys hashing into
// (Start, End] belong to the range's owner. A wrapping arc is reported
// as End < Start.
type Range struct {
	Start uint32 `json:"start"` // exclusive
	End   uint32 `json:"end"`   // inclusive
}

// OwnedRanges returns the arcs of the circle owned by member id,
// merged where consecutive points share the owner. Used by the healthz
// probe so an operator (or a test) can see exactly which key space a
// node answers for.
func (r *Ring) OwnedRanges(id string) []Range {
	i, ok := r.byID[id]
	if !ok {
		return nil
	}
	want := int32(i)
	var out []Range
	n := len(r.points)
	for j := 0; j < n; j++ {
		if r.points[j].member != want {
			continue
		}
		// The arc owned by point j starts after the previous point.
		prev := r.points[(j-1+n)%n].h
		// Extend through consecutive points with the same owner.
		k := j
		for k+1 < n && r.points[k+1].member == want {
			k++
		}
		out = append(out, Range{Start: prev, End: r.points[k].h})
		j = k
	}
	// A single-member ring owns everything; normalize to one full arc.
	if len(out) == 1 && out[0].Start == out[0].End {
		return []Range{{Start: 0, End: ^uint32(0)}}
	}
	return out
}

// OwnedFraction returns the fraction of the hash circle member id owns
// (≈ its share of users under a uniform key distribution).
func (r *Ring) OwnedFraction(id string) float64 {
	var owned uint64
	for _, rg := range r.OwnedRanges(id) {
		if rg.End >= rg.Start {
			owned += uint64(rg.End - rg.Start)
		} else { // wrapping arc
			owned += uint64(rg.End) + (1<<32 - uint64(rg.Start))
		}
	}
	return float64(owned) / float64(uint64(1)<<32)
}
