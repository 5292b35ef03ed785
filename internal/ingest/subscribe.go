// Delta subscriptions: the push side of the ingestion engine.
//
// The accounting maps answer "how much, per user, this period" on
// demand; the streaming profiling engine instead needs to see usage
// *as it arrives*, per class, to keep its estimate fresh between period
// closes. Subscribe registers a callback that receives the per-class
// volume vector of every accepted report or batch — O(1) amortized work
// per report and zero allocations on the hot path (the vector comes
// from a pool and is only valid during the call).
//
// Delivery semantics: callbacks run synchronously on the recording
// goroutine AFTER the shard locks are released, so they must be fast
// and must not call back into the engine's locked paths. Because
// delivery is outside the shard critical sections, the subscription
// stream is NOT ordered against Rollover: a delta delivered just after
// a rollover may describe usage accounted just before it (or, for a
// multi-shard batch racing the rollover, split across the cut). The
// authoritative period totals remain Rollover's; subscribers are a live
// view — the tube streaming profiler accumulates them into an advisory
// sketch and reconciles against the rollover cut at each period close
// (the skew is exported as a metric).
package ingest

import (
	"sync"
	"sync/atomic"
)

// DeltaFunc receives the per-class volume sums (ordered as Classes())
// of one accepted report or batch. The slice is pooled scratch: it is
// only valid for the duration of the call and must not be retained or
// mutated.
type DeltaFunc func(byClass []float64)

// subscriber pairs a callback with its registration id.
type subscriber struct {
	id int64
	fn DeltaFunc
}

// subscriptions is the copy-on-write registry hanging off the engine:
// the notify path loads one atomic pointer (nil ⇒ no subscribers ⇒ no
// delta accumulation at all), Subscribe/Unsubscribe swap in a fresh
// copy under subMu.
type subscriptions struct {
	subMu  sync.Mutex                   // serializes Subscribe/Unsubscribe
	subs   atomic.Pointer[[]subscriber] // read lock-free by notify
	nextID atomic.Int64
	pool   sync.Pool // *[]float64 delta buffers, len == len(classes)
}

// Subscribe registers fn to receive the per-class delta of every
// subsequently accepted report and batch, returning a token for
// Unsubscribe. Callbacks run synchronously on recording goroutines:
// several may run concurrently (one per in-flight Record/RecordBatch),
// so fn must be safe for concurrent use.
func (e *Engine) Subscribe(fn DeltaFunc) int64 {
	if fn == nil {
		return 0
	}
	e.sub.subMu.Lock()
	defer e.sub.subMu.Unlock()
	id := e.sub.nextID.Add(1)
	var cur []subscriber
	if p := e.sub.subs.Load(); p != nil {
		cur = *p
	}
	next := make([]subscriber, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = subscriber{id: id, fn: fn}
	e.sub.subs.Store(&next)
	return id
}

// Unsubscribe removes a subscription by its token. It returns false for
// unknown (or already removed) tokens. Deliveries already in flight on
// other goroutines may still complete after Unsubscribe returns.
func (e *Engine) Unsubscribe(id int64) bool {
	e.sub.subMu.Lock()
	defer e.sub.subMu.Unlock()
	p := e.sub.subs.Load()
	if p == nil {
		return false
	}
	cur := *p
	for i := range cur {
		if cur[i].id == id {
			next := make([]subscriber, 0, len(cur)-1)
			next = append(next, cur[:i]...)
			next = append(next, cur[i+1:]...)
			e.sub.subs.Store(&next)
			return true
		}
	}
	return false
}

// Subscribers returns the number of registered delta subscribers.
func (e *Engine) Subscribers() int {
	if p := e.sub.subs.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// deltaBuf borrows a zeroed per-class buffer from the pool.
//
//tubelint:pooled
func (e *Engine) deltaBuf() *[]float64 {
	if v := e.sub.pool.Get(); v != nil {
		buf := v.(*[]float64)
		clear(*buf)
		return buf
	}
	buf := make([]float64, len(e.classes))
	return &buf
}

// notifyReport publishes a single accepted report to the subscribers.
func (e *Engine) notifyReport(classIdx int, volumeMB float64) {
	p := e.sub.subs.Load()
	if p == nil || len(*p) == 0 {
		return
	}
	buf := e.deltaBuf()
	(*buf)[classIdx] = volumeMB
	for i := range *p {
		(*p)[i].fn(*buf)
	}
	e.sub.pool.Put(buf)
	if m := e.metrics(); m != nil {
		m.deltas.Inc()
	}
}

// notifyWire sums an accepted wire frame per class and publishes one
// delta. The accumulation visits records in stream order, so the delta
// is bit-identical to notifyBatch fed the decoded equivalent.
func (e *Engine) notifyWire(recs []WireRecord) {
	p := e.sub.subs.Load()
	if p == nil || len(*p) == 0 {
		return
	}
	buf := e.deltaBuf()
	for i := range recs {
		(*buf)[recs[i].Class] += recs[i].VolumeMB
	}
	for i := range *p {
		(*p)[i].fn(*buf)
	}
	e.sub.pool.Put(buf)
	if m := e.metrics(); m != nil {
		m.deltas.Inc()
	}
}

// notifyBatch sums an accepted batch per class and publishes one delta.
func (e *Engine) notifyBatch(reports []Report, idxs []int32) {
	p := e.sub.subs.Load()
	if p == nil || len(*p) == 0 {
		return
	}
	buf := e.deltaBuf()
	for i := range reports {
		(*buf)[idxs[i]] += reports[i].VolumeMB
	}
	for i := range *p {
		(*p)[i].fn(*buf)
	}
	e.sub.pool.Put(buf)
	if m := e.metrics(); m != nil {
		m.deltas.Inc()
	}
}
