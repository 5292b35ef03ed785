package cluster

import (
	"context"
	"fmt"
	"sync"

	"tdp/internal/ingest"
	"tdp/internal/obs"
)

// ShedQueue is the node-side overload valve between frame admission and
// the accounting engine: a bounded FIFO of admitted batches drained by
// one worker. When a batch arrives on a full queue the OLDEST queued
// batch is shed — under sustained overload the node keeps serving the
// freshest traffic and degrades by forgetting the most stale usage, the
// same bias TARDIS-style traffic shifting wants (recent behavior prices
// the next period; ancient unaccounted usage is the least valuable
// thing in the building). Every shed report is counted per class, so
// the drop rate is a first-class metric, not an invisible lie in the
// totals.
//
// Shedding is deliberate data loss and only happens past the configured
// depth; a deployment that must never shed sizes the queue (or applies
// synchronously with QueueDepth 0 at the serving layer) and watches the
// counters stay zero.
type ShedQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	q        []Batch // guarded by mu: FIFO, q[0] oldest
	depth    int     // guarded by mu: max queued batches
	queued   int64   // guarded by mu: reports across q
	applying bool    // guarded by mu: worker mid-apply
	closed   bool    // guarded by mu
	shed     []int64 // guarded by mu: per-class shed reports
	shedTot  int64   // guarded by mu

	shedCounters []*obs.Counter // set by Instrument, written under mu
	wg           sync.WaitGroup
}

// Batch is one queued unit of admitted work: a wire frame in
// zero-copy form, fed to Engine.ApplyWire.
type Batch struct {
	Users  []string
	Hashes []uint32
	Recs   []ingest.WireRecord
}

// NewShedQueue builds a queue bounded to depth batches over the given
// class set (the per-class drop accounting is ordered as classes).
func NewShedQueue(classes []string, depth int) (*ShedQueue, error) {
	if depth < 1 {
		return nil, fmt.Errorf("%w: queue depth %d < 1", ErrBadConfig, depth)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadConfig)
	}
	q := &ShedQueue{
		depth: depth,
		shed:  make([]int64, len(classes)),
	}
	q.cond = sync.NewCond(&q.mu)
	return q, nil
}

// Start launches the drain worker: apply is called once per queued
// batch, in FIFO order, on a single goroutine.
func (q *ShedQueue) Start(apply func(Batch)) {
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		for {
			q.mu.Lock()
			for len(q.q) == 0 && !q.closed {
				q.cond.Wait()
			}
			if len(q.q) == 0 && q.closed {
				q.mu.Unlock()
				return
			}
			b := q.q[0]
			q.q = q.q[1:]
			q.queued -= int64(len(b.Recs))
			q.applying = true
			q.mu.Unlock()

			apply(b)

			q.mu.Lock()
			q.applying = false
			q.cond.Broadcast()
			q.mu.Unlock()
		}
	}()
}

// PushWire enqueues an admitted frame in zero-copy wire form, shedding
// the oldest queued batch if the queue is full. It returns the number
// of reports shed to make room (0 in the common case). Pushing to a
// closed queue sheds the whole incoming batch. The slices are retained
// until the batch is applied or shed, so callers handing over decoder
// scratch must pass copies.
func (q *ShedQueue) PushWire(users []string, hashes []uint32, recs []ingest.WireRecord) (shed int) {
	n := len(recs)
	if n == 0 {
		return 0
	}
	batch := Batch{Users: users, Hashes: hashes, Recs: recs}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		q.countShedLocked(&batch)
		return n
	}
	if len(q.q) >= q.depth {
		old := q.q[0]
		q.q = q.q[1:]
		q.queued -= int64(len(old.Recs))
		q.countShedLocked(&old)
		shed = len(old.Recs)
	}
	q.q = append(q.q, batch)
	q.queued += int64(n)
	q.cond.Broadcast()
	return shed
}

// countShedLocked tallies a dropped batch per class. Guarded by mu.
func (q *ShedQueue) countShedLocked(batch *Batch) {
	for i := range batch.Recs {
		ci := int(batch.Recs[i].Class) // wire class indexes match the constructor's class order
		if ci < 0 || ci >= len(q.shed) {
			continue
		}
		q.shed[ci]++
		if q.shedCounters != nil {
			q.shedCounters[ci].Inc()
		}
	}
	q.shedTot += int64(len(batch.Recs))
}

// Drain blocks until the queue is empty and no apply is in flight (or
// ctx expires). The harness calls it before exactly-once verification.
func (q *ShedQueue) Drain(ctx context.Context) error {
	done := make(chan struct{})
	cancelled := false // guarded by mu
	go func() {
		q.mu.Lock()
		for (len(q.q) > 0 || q.applying) && !q.closed && !cancelled {
			q.cond.Wait()
		}
		q.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		cancelled = true
		q.cond.Broadcast()
		q.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close drains nothing: it marks the queue closed, lets the worker
// finish the batches already queued, and waits for it to exit.
func (q *ShedQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	q.wg.Wait()
}

// Depth returns the number of queued batches.
func (q *ShedQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q)
}

// QueuedReports returns the number of reports sitting in the queue.
func (q *ShedQueue) QueuedReports() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// ShedTotals returns the total reports shed and the per-class split
// (ordered as the constructor's class slice).
func (q *ShedQueue) ShedTotals() (total int64, byClass []int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shedTot, append([]int64(nil), q.shed...)
}

// Instrument registers the queue's drop counters and depth gauges on
// reg: cluster_shed_reports_total{class=...}, cluster_queue_batches,
// cluster_queue_reports.
func (q *ShedQueue) Instrument(reg *obs.Registry, classes []string) {
	counters := make([]*obs.Counter, len(classes))
	for i, c := range classes {
		counters[i] = reg.Counter("cluster_shed_reports_total",
			"usage reports dropped by shed-oldest overload protection, by class",
			obs.Labels{"class": c})
	}
	q.mu.Lock()
	q.shedCounters = counters
	// Back-fill sheds that happened before instrumentation.
	for i, n := range q.shed {
		if n > 0 {
			counters[i].Add(n)
		}
	}
	q.mu.Unlock()
	reg.GaugeFunc("cluster_queue_batches", "admitted batches waiting for the accounting engine", nil,
		func() float64 { return float64(q.Depth()) })
	reg.GaugeFunc("cluster_queue_reports", "usage reports waiting for the accounting engine", nil,
		func() float64 { return float64(q.QueuedReports()) })
}
