// Package ingest is the high-throughput usage accounting engine behind
// the TUBE measurement path. The paper's prototype metered per-user
// traffic with IPtables counters and a handful of testbed users (§VI);
// scaling the same accounting to "heavy traffic from millions of users"
// (ROADMAP north star) makes the ingestion path — not the optimizer —
// the throughput bottleneck, so this package trades the single global
// mutex of the original measurement engine for a sharded, lock-striped
// design:
//
//   - N shards (power of two), each owning a per-user → per-class-index
//     counter map guarded by its own mutex. A report's shard is the
//     FNV-1a hash of its user, so one user's counters always live on one
//     shard and per-user accumulation order is preserved.
//   - Batched ingestion: RecordBatch validates a whole []Report up
//     front (all-or-nothing) and then applies it with ONE lock
//     acquisition per touched shard, amortizing synchronization across
//     the batch. ApplyWire (wireapply.go) does the same for a decoded
//     wire frame without materializing reports; it is what the TUBE
//     server's one usage endpoint, POST /usage/wire, calls on every
//     frame before it acknowledges the request. Record and RecordBatch
//     serve in-process callers.
//   - One validation rule on every path: a known class, a non-empty
//     user, and a volume in [0, MaxReportMB], so no sequence of
//     accepted reports can overflow a counter.
//   - Merge-on-read totals: ClassTotals/UserTotals walk the shards only
//     when asked (period close, monitoring), keeping the write path
//     free of aggregation work.
//   - Atomic period rollover: Rollover swaps every shard's map inside a
//     single all-shards critical section, so each report lands entirely
//     in the closed period or entirely in the new one — never split,
//     never dropped.
//
// Determinism contract: totals are accumulated in sorted-user order
// (and, per user, in class-index order), so for the same serially
// issued report stream the results are bit-identical for every shard
// count. The property tests assert this at 1, 4, and 16 shards.
package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
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

// shard is one lock stripe. The padding keeps adjacent shard mutexes on
// separate cache lines so uncontended shards do not false-share.
type shard struct {
	mu     sync.Mutex
	byUser map[string][]float64 // guarded by mu: user → per-class-index MB
	n      int64                // guarded by mu: reports accepted
	b      int64                // guarded by mu: batch lock acquisitions (grouped path)
	_      [88]byte
}

// Engine is the sharded accounting engine for one accounting period.
type Engine struct {
	classes  []string
	classIdx map[string]int // precomputed set: O(1) class check on the hot path
	shards   []shard
	mask     uint32
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
	classIdx := make(map[string]int, len(classes))
	for i, c := range classes {
		if c == "" {
			return nil, fmt.Errorf("class %d empty: %w", i, ErrBadReport)
		}
		if _, dup := classIdx[c]; dup {
			return nil, fmt.Errorf("class %q duplicate: %w", c, ErrBadReport)
		}
		classIdx[c] = i
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = nextPow2(shards)
	if shards > 1024 {
		shards = 1024
	}
	e := &Engine{
		classes:  append([]string(nil), classes...),
		classIdx: classIdx,
		shards:   make([]shard, shards),
		mask:     uint32(shards - 1),
	}
	for i := range e.shards {
		e.shards[i].byUser = make(map[string][]float64)
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
// of one node under every topology.
func UserHash(user string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= 16777619
	}
	return h
}

// shardIdxFor maps a user to its stripe via FNV-1a (inlined to keep the
// hot path allocation-free).
func (e *Engine) shardIdxFor(user string) int {
	return int(UserHash(user) & e.mask)
}

// MaxReportMB caps one report's volume at 2^40 MB (about 1.1 EB). The
// counters are float64 sums, and n reports of at most 2^40 MB sum to at
// most n·2^40, which stays below math.MaxFloat64 (about 2^1024) for
// every n below 2^984, about 10^296 reports: no sequence of accepted
// reports can drive a period total to +Inf.
const MaxReportMB = 1 << 40

// validVolume is the one volume rule of every ingest path: non-negative
// and at most MaxReportMB (NaN fails both comparisons, ±Inf the one).
func validVolume(v float64) bool { return v >= 0 && v <= MaxReportMB }

// validate checks one report and resolves its class index.
func (e *Engine) validate(r *Report) (int, error) {
	if r.User == "" {
		return 0, fmt.Errorf("empty user: %w", ErrBadReport)
	}
	idx, ok := e.classIdx[r.Class]
	if !ok {
		return 0, fmt.Errorf("unknown class %q: %w", r.Class, ErrBadReport)
	}
	if !validVolume(r.VolumeMB) {
		return 0, fmt.Errorf("bad volume %v: %w", r.VolumeMB, ErrBadReport)
	}
	return idx, nil
}

// Record accounts volumeMB of class traffic for user.
func (e *Engine) Record(user, class string, volumeMB float64) error {
	r := Report{User: user, Class: class, VolumeMB: volumeMB}
	idx, err := e.validate(&r)
	if err != nil {
		if m := e.metrics(); m != nil {
			m.rejected.Inc()
		}
		return err
	}
	s := &e.shards[e.shardIdxFor(user)]
	s.mu.Lock()
	s.apply(user, idx, volumeMB, len(e.classes))
	s.mu.Unlock()
	if m := e.metrics(); m != nil {
		m.records.Inc()
	}
	return nil
}

// apply accumulates under s.mu.
func (s *shard) apply(user string, classIdx int, volumeMB float64, nClasses int) {
	u := s.byUser[user]
	if u == nil {
		u = make([]float64, nClasses)
		s.byUser[user] = u
	}
	u[classIdx] += volumeMB
	s.n++
}

// RecordBatch accounts a whole batch with one lock acquisition per
// touched shard. Validation is all-or-nothing: if any report is invalid
// the batch is rejected and NOTHING is applied, so a client retrying a
// failed batch cannot double-count its valid prefix.
func (e *Engine) RecordBatch(reports []Report) error {
	if len(reports) == 0 {
		return nil
	}
	idxs := make([]int32, len(reports))
	for i := range reports {
		idx, err := e.validate(&reports[i])
		if err != nil {
			// All-or-nothing: the whole batch is rejected, so the whole
			// batch counts as rejected.
			if m := e.metrics(); m != nil {
				m.rejected.Add(int64(len(reports)))
			}
			return fmt.Errorf("report %d: %w", i, err)
		}
		idxs[i] = int32(idx)
	}
	nClasses := len(e.classes)
	// Batches smaller than the stripe count rarely land two reports on
	// one shard, so grouping cannot amortize anything: per-report
	// locking beats building the per-shard buckets (which are sized by
	// the shard count).
	if len(reports) < len(e.shards) {
		for i := range reports {
			r := &reports[i]
			s := &e.shards[e.shardIdxFor(r.User)]
			s.mu.Lock()
			s.apply(r.User, int(idxs[i]), r.VolumeMB, nClasses)
			s.mu.Unlock()
		}
		if m := e.metrics(); m != nil {
			m.records.Add(int64(len(reports)))
			m.batches.Inc()
		}
		return nil
	}
	// Group report indices by shard, preserving submission order within
	// each shard (a user's reports keep their relative order because one
	// user always hashes to one shard).
	perShard := make([][]int32, len(e.shards))
	touched := make([]int, 0, 8)
	for i := range reports {
		si := e.shardIdxFor(reports[i].User)
		if perShard[si] == nil {
			touched = append(touched, si)
		}
		perShard[si] = append(perShard[si], int32(i))
	}
	for _, si := range touched {
		s := &e.shards[si]
		s.mu.Lock()
		s.b++
		for _, i := range perShard[si] {
			r := &reports[i]
			s.apply(r.User, int(idxs[i]), r.VolumeMB, nClasses)
		}
		s.mu.Unlock()
	}
	if m := e.metrics(); m != nil {
		m.records.Add(int64(len(reports)))
		m.batches.Inc()
	}
	return nil
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

// ClassTotals returns the period-so-far aggregate volume per class,
// ordered as Classes(). The merge walks users in sorted order so the
// float accumulation order — and hence the result, bit for bit — is
// independent of the shard count.
func (e *Engine) ClassTotals() []float64 {
	e.lockAll()
	defer e.unlockAll()
	return e.mergeClassTotals(e.sortedUsersLocked())
}

func (e *Engine) sortedUsersLocked() []string {
	var n int
	for i := range e.shards {
		n += len(e.shards[i].byUser)
	}
	names := make([]string, 0, n)
	for i := range e.shards {
		for u := range e.shards[i].byUser {
			names = append(names, u)
		}
	}
	sort.Strings(names)
	return names
}

// mergeClassTotals must run with the shards locked (or on an owned
// snapshot after Rollover's swap).
func (e *Engine) mergeClassTotals(sortedUsers []string) []float64 {
	out := make([]float64, len(e.classes))
	for _, u := range sortedUsers {
		vec := e.shards[e.shardIdxFor(u)].byUser[u]
		for j, v := range vec {
			out[j] += v
		}
	}
	return out
}

// UserTotals returns the period-so-far total volume per user.
func (e *Engine) UserTotals() map[string]float64 {
	e.lockAll()
	defer e.unlockAll()
	out := make(map[string]float64)
	for i := range e.shards {
		for u, vec := range e.shards[i].byUser {
			var s float64
			for _, v := range vec {
				s += v
			}
			out[u] = s
		}
	}
	return out
}

// Users returns the users seen this period, sorted.
func (e *Engine) Users() []string {
	e.lockAll()
	defer e.unlockAll()
	return e.sortedUsersLocked()
}

// Accepted returns the number of reports accounted since the last
// rollover.
func (e *Engine) Accepted() int64 {
	e.lockAll()
	defer e.unlockAll()
	var n int64
	for i := range e.shards {
		n += e.shards[i].n
	}
	return n
}

// Rollover atomically closes the period: every shard's map is swapped
// for a fresh one inside a single all-shards critical section, so a
// concurrent Record/RecordBatch lands entirely in the closed period or
// entirely in the new one. It returns the closed period's per-class
// totals (ordered as Classes()) and per-user totals, computed from the
// owned snapshot outside the critical section.
func (e *Engine) Rollover() (classTotals []float64, userTotals map[string]float64) {
	old := make([]map[string][]float64, len(e.shards))
	e.lockAll()
	for i := range e.shards {
		old[i] = e.shards[i].byUser
		e.shards[i].byUser = make(map[string][]float64, len(old[i]))
		e.shards[i].n = 0
		e.shards[i].b = 0
	}
	e.unlockAll()

	var n int
	for _, m := range old {
		n += len(m)
	}
	names := make([]string, 0, n)
	userTotals = make(map[string]float64, n)
	for _, m := range old {
		for u, vec := range m {
			names = append(names, u)
			var s float64
			for _, v := range vec {
				s += v
			}
			userTotals[u] = s
		}
	}
	sort.Strings(names)
	classTotals = make([]float64, len(e.classes))
	for _, u := range names {
		vec := old[e.shardIdxFor(u)][u]
		for j, v := range vec {
			classTotals[j] += v
		}
	}
	return classTotals, userTotals
}

// Reset closes the period and returns only its per-class totals,
// mirroring the original serial measurement API.
func (e *Engine) Reset() []float64 {
	ct, _ := e.Rollover()
	return ct
}
