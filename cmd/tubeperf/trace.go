package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/cluster"
)

// Span names: the stage vocabulary ROADMAP item 1 fixes, so a slow
// stage here maps onto the same name in production telemetry.
const (
	spanRoute     = "route"      // one Router.Send
	spanHTTP      = "http"       // one SendWire frame: HTTP + server decode, ownership, queue push
	spanRingFetch = "ring-fetch" // one FetchRing inside a Send
	spanRingPut   = "ring-put"   // one PUT /cluster/ring
	spanClose     = "period-close"
	spanPull      = "gui-pull"
	spanDrain     = "drain"
)

// span is one timed call into a layer. Trace groups the spans one unit
// of work caused (batch index for route/http/ring-fetch, period index
// for period-close and gui-pull, ring version for ring-put); Parent is
// the ID of the span that caused this one (0 for roots). Times are
// nanoseconds since the pass began.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written only when the run
// ends, so file I/O never lands inside the measured window. A nil
// *tracer records nothing.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// newID returns a fresh span ID (0 on a nil tracer).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add records a finished span, assigning an ID when it has none.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// misattributed checks the span tree the traced sender built: every
// http and ring-fetch span must name a route span as its parent and lie
// within that span's interval, since Router.Send returns only after its
// frames and fetches have. It returns "" when all do, else a summary
// naming the first offender.
func misattributed(spans []span) string {
	routes := make(map[int64]interval)
	for _, s := range spans {
		if s.Name == spanRoute {
			routes[s.ID] = interval{s.Start, s.End}
		}
	}
	var bad, children int
	var first string
	for _, s := range spans {
		if s.Name != spanHTTP && s.Name != spanRingFetch {
			continue
		}
		children++
		p, ok := routes[s.Parent]
		if ok && s.Start >= p.lo && s.End <= p.hi {
			continue
		}
		if bad++; first == "" {
			first = fmt.Sprintf("%s span %d [%d, %d] ns", s.Name, s.ID, s.Start, s.End)
			if ok {
				first += fmt.Sprintf(" outside its route span [%d, %d] ns", p.lo, p.hi)
			} else {
				first += fmt.Sprintf(" has no route span as parent (parent %d)", s.Parent)
			}
		}
	}
	if bad == 0 {
		return ""
	}
	return fmt.Sprintf("%d of %d child spans misattributed; first: %s", bad, children, first)
}

// writeJSONL writes spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}

// spanParent travels in a Send's context so the frames and ring fetches
// the router makes for it can name their parent.
type spanParent struct{ trace, id int64 }

type spanParentKey struct{}

func withParent(ctx context.Context, trace, id int64) context.Context {
	return context.WithValue(ctx, spanParentKey{}, spanParent{trace, id})
}

func parentOf(ctx context.Context) spanParent {
	p, _ := ctx.Value(spanParentKey{}).(spanParent)
	return p
}

// frameStats accumulates what the traced sender sees on the wire.
type frameStats struct {
	frames, errors atomic.Int64
	bytes, records atomic.Int64
	users          atomic.Int64
}

// tracingSender wraps the router's Sender from outside the cluster
// package: each SendWire becomes an "http" span and each FetchRing a
// "ring-fetch" span, both children of the Send that caused them.
type tracingSender struct {
	inner cluster.Sender
	tr    *tracer
	st    *frameStats
}

var (
	_ cluster.Sender      = (*tracingSender)(nil)
	_ cluster.RingFetcher = (*tracingSender)(nil)
)

func (s *tracingSender) SendWire(ctx context.Context, node cluster.Member, body []byte) (cluster.WireAck, error) {
	start := time.Now()
	ack, err := s.inner.SendWire(ctx, node, body)
	end := time.Now()
	p := parentOf(ctx)
	s.tr.add(span{Trace: p.trace, Parent: p.id, Name: spanHTTP, Node: node.ID,
		Start: s.tr.since(start), End: s.tr.since(end)})
	s.st.frames.Add(1)
	if err != nil {
		s.st.errors.Add(1)
		return ack, err
	}
	s.st.bytes.Add(int64(len(body)))
	if recs, users, ok := frameShape(body); ok {
		s.st.records.Add(int64(recs))
		s.st.users.Add(int64(users))
	}
	return ack, nil
}

// errNoRingFetch is returned when the wrapped sender cannot fetch rings.
var errNoRingFetch = errors.New("tubeperf: sender cannot fetch rings")

func (s *tracingSender) FetchRing(ctx context.Context, node cluster.Member) (cluster.Config, error) {
	rf, ok := s.inner.(cluster.RingFetcher)
	if !ok {
		return cluster.Config{}, errNoRingFetch
	}
	start := time.Now()
	cfg, err := rf.FetchRing(ctx, node)
	end := time.Now()
	p := parentOf(ctx)
	s.tr.add(span{Trace: p.trace, Parent: p.id, Name: spanRingFetch, Node: node.ID,
		Start: s.tr.since(start), End: s.tr.since(end)})
	return cfg, err
}

// frameShape reads a v1 wire frame's header summary: the record count
// (the sum of the per-class counts) and the user-table size. It reads
// only the first frame of body, which is all the router sends per
// request; ok is false for anything it does not recognize.
func frameShape(body []byte) (records, users int, ok bool) {
	const headerLen, classHashLen = 8, 4
	if len(body) < headerLen+classHashLen || body[0] != 'T' || body[1] != 'W' || body[2] != 1 {
		return 0, 0, false
	}
	p := body[headerLen+classHashLen:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	classes, ok := next()
	if !ok {
		return 0, 0, false
	}
	for c := uint64(0); c < classes; c++ {
		v, ok := next()
		if !ok {
			return 0, 0, false
		}
		records += int(v)
	}
	u, ok := next()
	if !ok {
		return 0, 0, false
	}
	return records, int(u), true
}
