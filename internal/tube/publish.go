package tube

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/cluster"
)

// publication is one immutable published price record: the period in
// progress, its day reward schedule, and the publish timestamp. Readers
// load the newest one with a single atomic load, so a GET /price, a
// snapshot pull or a metrics scrape sees one consistent (period,
// rewards) pair and never waits on the optimizer's lock.
type publication struct {
	period  int
	rewards []float64 // nil on the unready sentinel; never written after publish
	taken   int64     // UnixNano; strictly increasing along a board

	// superseded is closed when a newer publication replaces this one:
	// the wake-up long-poll handlers wait on.
	superseded chan struct{}

	// The encoded snapshot is cut once per publication, on the first
	// request that needs it (or at apply time on a follower).
	cut  sync.Once
	body []byte
	err  error
}

func newPublication(period int, rewards []float64, taken int64) *publication {
	return &publication{period: period, rewards: rewards, taken: taken, superseded: make(chan struct{})}
}

// ready reports whether the record carries a schedule (false only for
// a board's initial sentinel).
func (p *publication) ready() bool { return p.rewards != nil }

// priceInfo is the GET /price payload of this record.
func (p *publication) priceInfo() PriceInfo {
	return PriceInfo{Period: p.period, Reward: p.rewards[p.period%len(p.rewards)], Rewards: p.rewards}
}

// snapshot returns the encoded GET /cluster/snapshot body, stamped with
// ringVersion the first time it is called on this record.
func (p *publication) snapshot(ringVersion uint64) ([]byte, error) {
	p.cut.Do(func() {
		snap := cluster.NewPriceSnapshot(p.period, p.rewards, ringVersion, p.taken)
		var buf bytes.Buffer
		p.err = snap.Encode(&buf)
		p.body = buf.Bytes()
	})
	return p.body, p.err
}

// board holds the newest publication. Publishers serialize on mu;
// readers only ever load.
type board struct {
	mu  sync.Mutex
	cur atomic.Pointer[publication]
}

func newBoard() *board {
	b := &board{}
	b.cur.Store(newPublication(0, nil, 0))
	return b
}

func (b *board) load() *publication { return b.cur.Load() }

// publish installs p if it is newer than the current record and wakes
// everything waiting on the record it replaces. A stale or replayed
// record is dropped.
func (b *board) publish(p *publication) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.cur.Load()
	if p.taken <= old.taken {
		return
	}
	b.cur.Store(p)
	close(old.superseded)
}

// stamp returns a publish timestamp for a new record: the wall clock,
// bumped past the current record's so "newer than" stays strict even
// if the clock steps back or two publishes share a nanosecond.
func (b *board) stamp() int64 {
	t := time.Now().UnixNano()
	if cur := b.load().taken; t <= cur {
		t = cur + 1
	}
	return t
}

// await returns the newest publication once it is newer than after, or
// the current one when wait elapses, ctx ends or quit closes first.
func (b *board) await(ctx context.Context, after int64, wait time.Duration, quit <-chan struct{}) *publication {
	p := b.load()
	if p.taken > after {
		return p
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for p.taken <= after {
		select {
		case <-p.superseded:
			p = b.load()
		case <-timer.C:
			return p
		case <-ctx.Done():
			return p
		case <-quit:
			return p
		}
	}
	return p
}
