// Package ingest is the high-throughput usage accounting engine behind
// the TUBE measurement path. The paper's prototype metered per-user
// traffic with IPtables byte counters read once per period (§VI); this
// package keeps that shape — integer counters on a user table — and
// stripes it for concurrency:
//
//   - N shards (power of two), each owning one persistent user table
//     (user → dense id, appended once in a user's lifetime) guarded by
//     its own mutex. A report's shard is the FNV-1a hash of its user, so
//     one user's counters always live on one shard. The table
//     (usertable.go) is a flat slot array over a name arena, indexed by
//     a per-engine seeded hash: one probe per lookup, no per-user heap
//     pointer.
//   - Exact integer counters: a volume is rounded at validation to
//     units of 2^-20 MB and added to a 128-bit counter, so sums commute:
//     totals do not depend on shard count, arrival order or batching,
//     and need no sort.
//   - A per-period sparse set: a persistent slot[id] indexes the ids
//     touched this period and their compact counters, so a period costs
//     memory and close time in the users it touched, not in every user
//     ever seen.
//   - One apply path: ApplyWire (wireapply.go) folds a decoded wire
//     frame into the counters without materializing reports, with ONE
//     lock acquisition per touched shard. The TUBE server's one usage
//     endpoint, POST /usage/wire, calls it once per request body, on the
//     body's owned records as one frame, before it acknowledges the
//     request. Validation (CheckWire) is all-or-nothing per call: a known
//     class, a non-empty user, and a volume in [0, MaxReportMB].
//   - Atomic period rollover: Rollover swaps every shard's period buffer
//     for an empty one inside a single all-shards critical section that
//     is O(shards), so each report lands entirely in the closed period
//     or entirely in the new one — never split, never dropped — and the
//     close then walks only the closed period's touched ids.
package ingest

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrBadReport is returned for invalid reports or configurations.
var ErrBadReport = errors.New("ingest: bad report")

// Report is one usage accounting record: volumeMB of class traffic
// attributed to user. It is the record form clients hand to the wire
// encoder; the TUBE server's one usage endpoint, POST /usage/wire,
// carries frames of them.
type Report struct {
	User     string  `json:"user"`
	Class    string  `json:"class"`
	VolumeMB float64 `json:"volumeMB"`
}

// counter is one 128-bit unsigned sum of volume units.
type counter struct{ hi, lo uint64 }

func (c *counter) add(u uint64) {
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, u, 0)
	c.hi += carry
}

func (c *counter) addCounter(d counter) {
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, d.lo, 0)
	c.hi += d.hi + carry
}

// mb converts a unit sum to MB: exact below 2^53 units (2^33 MB), and
// within a rounding or two of exact above.
func (c counter) mb() float64 {
	return (float64(c.hi)*0x1p64 + float64(c.lo)) / unitsPerMB
}

// period is one accounting period's sparse set over a shard's user ids:
// ids lists the ids touched so far in first-touch order, and ctr holds
// their counters, nClasses per touched id in the same order. tot keeps
// the shard's running per-class totals, so the period's class totals
// cost one add per class per shard instead of a sweep over its users.
type period struct {
	ids []int32
	ctr []counter
	tot []counter // nClasses
	n   int64     // reports accepted
	b   int64     // lock acquisitions: one per applied frame per touched shard
}

// add meters u units of class j into the counters starting at ctr[at],
// and into the class total.
func (p *period) add(at, j int, u uint64) {
	p.ctr[at+j].add(u)
	p.tot[j].add(u)
}

// reset empties the buffer, keeping its capacity.
func (p *period) reset() {
	p.ids, p.ctr, p.n, p.b = p.ids[:0], p.ctr[:0], 0, 0
	clear(p.tot)
}

// shard is one lock stripe. The padding keeps adjacent shard mutexes on
// separate cache lines so uncontended shards do not false-share.
type shard struct {
	mu    sync.Mutex
	users userTable // guarded by mu: user → id (usertable.go)
	slot  []int32   // guarded by mu: id → index into cur.ids, valid only when cur.ids[slot[id]] == id
	cur   period    // guarded by mu: the period in progress
	_     [64]byte
}

// Engine is the sharded accounting engine: per shard, a user table that
// lives as long as the engine and the accounting period in progress.
type Engine struct {
	classes  []string
	zeros    []counter // nClasses zero counters, appended on a user's first touch in a period
	shards   []shard
	mask     uint32
	seed     maphash.Seed                  // user-table key seed (usertable.go)
	spare    atomic.Pointer[Cut]           // a released cut, reused by the next Rollover
	met      atomic.Pointer[engineMetrics] // nil until Instrument
	wirePool wireWSHolder                  // ApplyWire grouping workspaces (see wireapply.go)
}

// DefaultShards is the shard count used when NewEngine is given 0: the
// next power of two ≥ 8×GOMAXPROCS, capped to [1, 256]. Oversharding
// relative to the core count keeps the collision probability of two
// running goroutines on one stripe low.
func DefaultShards() int {
	n := nextPow2(8 * runtime.GOMAXPROCS(0))
	if n > 256 {
		n = 256
	}
	return n
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewEngine creates an engine accounting the given traffic classes over
// `shards` lock stripes (0 → DefaultShards; other values are rounded up
// to a power of two and capped at 1024).
func NewEngine(classes []string, shards int) (*Engine, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("no classes: %w", ErrBadReport)
	}
	for i, c := range classes {
		if c == "" {
			return nil, fmt.Errorf("class %d empty: %w", i, ErrBadReport)
		}
		if slices.Contains(classes[:i], c) {
			return nil, fmt.Errorf("class %q duplicate: %w", c, ErrBadReport)
		}
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = nextPow2(shards)
	if shards > 1024 {
		shards = 1024
	}
	e := &Engine{
		classes: append([]string(nil), classes...),
		zeros:   make([]counter, len(classes)),
		shards:  make([]shard, shards),
		mask:    uint32(shards - 1),
		seed:    maphash.MakeSeed(),
	}
	for i := range e.shards {
		e.shards[i].users = newUserTable()
		e.shards[i].cur.tot = make([]counter, len(classes))
	}
	return e, nil
}

// Classes returns the accounted traffic classes in index order.
func (e *Engine) Classes() []string { return append([]string(nil), e.classes...) }

// NumShards returns the number of lock stripes.
func (e *Engine) NumShards() int { return len(e.shards) }

// UserHash is the FNV-1a hash placing a user key, shared by the
// in-process shard mapping below and the cluster ring's consistent-hash
// placement (internal/cluster), so one user's reports land on one shard
// of one node under every topology. It takes the user as a string or as
// bytes (a wire frame's view), with the same result.
func UserHash[T string | []byte](user T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= 16777619
	}
	return h
}

// shardIdxFor maps a user to its stripe via FNV-1a.
func (e *Engine) shardIdxFor(user string) int {
	return int(UserHash(user) & e.mask)
}

// MaxReportMB caps one report's volume at 2^40 MB (about 1.1 EB), which
// is 2^60 units. Counters are 128-bit, so a counter or a class total
// wraps only after 2^68 reports at the cap — far beyond any period.
const MaxReportMB = 1 << 40

// unitsPerMB is the metering resolution: volumes are counted in units
// of 2^-20 MB (one byte in a binary megabyte), so every volume that is
// a multiple of 2^-20 MB is metered exactly.
const unitsPerMB = 1 << 20

// validVolume is the one volume rule of every ingest path: non-negative
// and at most MaxReportMB (NaN fails both comparisons, ±Inf the one).
func validVolume(v float64) bool { return v >= 0 && v <= MaxReportMB }

// units rounds a valid volume to the nearest metering unit, ties to
// even. A valid volume is at most 2^60 units, so the int64 conversion
// (one instruction, unlike a float-to-uint64 one) cannot overflow.
func units(v float64) uint64 { return uint64(int64(math.RoundToEven(v * unitsPerMB))) }

// id returns the dense id on this shard of user, whose user-table key
// is h, adding the user to the table the first time it is seen. Under
// s.mu.
func id(s *shard, h uint32, user []byte) int32 {
	id, slot := find(&s.users, h, user)
	if id < 0 {
		id = add(&s.users, h, user, slot)
		s.slot = append(s.slot, 0)
	}
	return id
}

// counters returns where id's counters for the period in progress
// start in cur.ctr, adding id to the period's sparse set with zeroed
// counters on its first report of the period. Under s.mu.
func (s *shard) counters(id int32, zeros []counter) int {
	k := s.slot[id]
	if int(k) >= len(s.cur.ids) || s.cur.ids[k] != id {
		k = int32(len(s.cur.ids))
		s.slot[id] = k
		s.cur.ids = append(s.cur.ids, id)
		s.cur.ctr = append(s.cur.ctr, zeros...)
	}
	return int(k) * len(zeros)
}

// lockAll acquires every stripe in index order (the one global ordering,
// so totals/rollover cannot deadlock against each other).
func (e *Engine) lockAll() {
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
}

func (e *Engine) unlockAll() {
	for i := range e.shards {
		e.shards[i].mu.Unlock()
	}
}

// classTotals adds one period buffer's class totals into out.
func classTotals(out []counter, p *period) {
	for j, c := range p.tot {
		out[j].addCounter(c)
	}
}

// toMB converts class counters to MB, each once, after summing.
func toMB(sums []counter) []float64 {
	out := make([]float64, len(sums))
	for j, c := range sums {
		out[j] = c.mb()
	}
	return out
}

// userMB returns the MB total over classes of the k-th touched user.
func (p *period) userMB(k, nC int) float64 {
	var sum counter
	for _, c := range p.ctr[k*nC : (k+1)*nC] {
		sum.addCounter(c)
	}
	return sum.mb()
}

// ClassTotals returns the period-so-far aggregate volume per class,
// ordered as Classes().
func (e *Engine) ClassTotals() []float64 {
	sums := make([]counter, len(e.classes))
	e.lockAll()
	for i := range e.shards {
		classTotals(sums, &e.shards[i].cur)
	}
	e.unlockAll()
	return toMB(sums)
}

// Lookup returns the shard and dense id of a user the engine has ever
// seen; ids are stable for the engine's lifetime. It costs one probe
// of the shard's user table, and allocates nothing.
func (e *Engine) Lookup(user string) (shard int, id int32, ok bool) {
	shard = e.shardIdxFor(user)
	s := &e.shards[shard]
	h := e.key(user)
	s.mu.Lock()
	id, _ = find(&s.users, h, user)
	s.mu.Unlock()
	if id < 0 {
		return shard, 0, false
	}
	return shard, id, true
}

// Names returns one shard's user names, indexed by id: a snapshot, so
// users added later do not appear in it. The table keeps names back to
// back in one byte arena, so Names builds the strings: one copy of the
// arena, made after the shard lock is released, sliced per id. Callers
// that need many names (billing statements) call it once per shard.
func (e *Engine) Names(shard int) []string {
	s := &e.shards[shard]
	s.mu.Lock()
	arena, ends := s.users.arena, s.users.ends
	s.mu.Unlock()
	return namesOf(arena, ends)
}

// Cut is one closed period, owned by the caller of Rollover until
// Release: per shard, the ids the period touched with their counters.
type Cut struct {
	e      *Engine
	closed []period
}

// Engine returns the engine the cut was taken from: the ids it reports
// index that engine's user tables.
func (c *Cut) Engine() *Engine { return c.e }

// ClassTotals returns the closed period's per-class volumes, ordered
// as Classes().
func (c *Cut) ClassTotals() []float64 {
	sums := make([]counter, len(c.e.classes))
	for i := range c.closed {
		classTotals(sums, &c.closed[i])
	}
	return toMB(sums)
}

// EachUser calls fn once per user with usage in the closed period: its
// shard, its id in that shard's table, and its volume over all classes.
// Users come in no particular order.
func (c *Cut) EachUser(fn func(shard int, id int32, volumeMB float64)) {
	nC := len(c.e.classes)
	for si := range c.closed {
		p := &c.closed[si]
		for k, id := range p.ids {
			fn(si, id, p.userMB(k, nC))
		}
	}
}

// Release hands the cut's buffers back to the engine, which reuses them
// for a later period; the cut must not be used afterwards. A cut that
// is never released is simply garbage collected.
func (c *Cut) Release() {
	for i := range c.closed {
		c.closed[i].reset()
	}
	c.e.spare.Store(c)
}

// Rollover atomically closes the period: every shard's period buffer is
// swapped for an empty one inside a single all-shards critical section,
// so a concurrent ApplyWire lands entirely in the closed period or
// entirely in the new one. The swap is O(shards); the returned cut holds
// the closed period for the caller to read outside the lock.
func (e *Engine) Rollover() *Cut {
	c := e.spare.Swap(nil)
	if c == nil {
		c = &Cut{e: e, closed: make([]period, len(e.shards))}
		for i := range c.closed {
			c.closed[i].tot = make([]counter, len(e.classes))
		}
	}
	e.lockAll()
	for i := range e.shards {
		s := &e.shards[i]
		s.cur, c.closed[i] = c.closed[i], s.cur
	}
	e.unlockAll()
	return c
}
