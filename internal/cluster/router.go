package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/ingest"
	"tdp/internal/wire"
)

// ErrRouting is returned when reports remain undeliverable after the
// router's retry rounds (every candidate owner keeps disowning them).
var ErrRouting = errors.New("cluster: reports undeliverable")

// ErrUnavailable classifies remote-node failures: a peer answered with a
// non-success status (or not at all) on a cluster RPC. Callers decide
// between retry and reroute with errors.Is(err, ErrUnavailable).
var ErrUnavailable = errors.New("cluster: node unavailable")

// WireAck is the response of POST /usage/wire: how many reports the
// node accounted and which it disowned. A node sends it only after it
// has applied every accepted report. Rejected indices are in the
// request's report order, spanning all frames in the body. RingVersion
// is the node's current ring view (0 on a server that is not part of a
// cluster), so a router holding a stale ring learns it is behind and
// can refetch.
type WireAck struct {
	Accepted    int    `json:"accepted"`
	Rejected    []int  `json:"rejected,omitempty"`
	RingVersion uint64 `json:"ringVersion"`
}

// Sender delivers one encoded wire body to a node. Implementations:
// HTTPSender for real deployments, in-process fakes for the property
// tests. After a successful SendWire the sender must be done with
// body: the router encodes its next frames into the same buffer. After
// an error the router does not reuse it.
type Sender interface {
	SendWire(ctx context.Context, node Member, body []byte) (WireAck, error)
}

// RingFetcher is an optional Sender capability: fetch a node's current
// ring config, used to self-heal a router whose ring is older than the
// cluster's (the acks carry the node's version).
type RingFetcher interface {
	FetchRing(ctx context.Context, node Member) (Config, error)
}

// WireContentType is the media type of wire-framed request bodies.
const WireContentType = "application/x-tube-wire"

// HTTPSender posts wire bodies to node.Addr + /usage/wire.
type HTTPSender struct {
	Client *http.Client
}

// TunedTransport returns an http.Transport sized for the router's
// fan-in shape: a handful of nodes each receiving many concurrent
// frames on reused keep-alive connections. The defaults cap idle
// connections per host at 2, which makes a pipelined sender reopen a
// TCP connection (and pay slow-start) for nearly every in-flight frame.
// The write buffer holds a whole frame of DefaultFrameReports reports:
// a body larger than the default 4 KiB buffer is copied to the socket
// through a fresh 32 KiB buffer per request.
func TunedTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		WriteBufferSize:     64 << 10,
		ForceAttemptHTTP2:   false, // one node : many streams is served fine by N tcp conns
	}
}

// NewHTTPSender builds an HTTPSender over TunedTransport with the given
// per-request timeout (0 means no timeout).
func NewHTTPSender(timeout time.Duration) *HTTPSender {
	return &HTTPSender{Client: &http.Client{Transport: TunedTransport(), Timeout: timeout}}
}

func (s *HTTPSender) client() *http.Client {
	if s.Client != nil {
		return s.Client
	}
	return http.DefaultClient
}

// SendWire implements Sender over HTTP. Any 2xx with a parseable ack is
// a protocol-level success (the ack may still reject reports). A node
// answers only after reading the whole body, and reading the ack to its
// end waits for the transport to report the body written, so after a
// success the transport is done with body.
func (s *HTTPSender) SendWire(ctx context.Context, node Member, body []byte) (WireAck, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.Addr+"/usage/wire",
		bytes.NewReader(body))
	if err != nil {
		return WireAck{}, fmt.Errorf("build request for %s: %w", node.ID, err)
	}
	req.Header.Set("Content-Type", WireContentType)
	resp, err := s.client().Do(req)
	if err != nil {
		return WireAck{}, fmt.Errorf("send wire to %s: %w", node.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return WireAck{}, fmt.Errorf("%w: send wire to %s: status %d: %s", ErrUnavailable, node.ID, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var ack WireAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return WireAck{}, fmt.Errorf("decode ack from %s: %w", node.ID, err)
	}
	// To the end (see the doc comment); a node answers one small JSON
	// value, so a few KiB is the whole rest of any ack.
	_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
	return ack, nil
}

// FetchRing implements RingFetcher over GET /cluster/ring.
func (s *HTTPSender) FetchRing(ctx context.Context, node Member) (Config, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node.Addr+"/cluster/ring", nil)
	if err != nil {
		return Config{}, err
	}
	resp, err := s.client().Do(req)
	if err != nil {
		return Config{}, fmt.Errorf("fetch ring from %s: %w", node.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Config{}, fmt.Errorf("%w: fetch ring from %s: status %d", ErrUnavailable, node.ID, resp.StatusCode)
	}
	var cfg Config
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("decode ring from %s: %w", node.ID, err)
	}
	return cfg, nil
}

// RouteStats summarizes one Send: how many reports were delivered and
// how much ownership churn the rounds absorbed.
type RouteStats struct {
	Reports  int // reports delivered
	Rerouted int // reports resent after an ownership rejection
	Rounds   int // partition→fan-out rounds taken
}

// Router is the cluster-aware ingest client: it partitions a batch by
// ring owner, chunks each owner's share into wire frames, encodes them
// all, and fans the frames out with bounded in-flight pipelining — up
// to SetInflight frames outstanding at once over the sender — then
// resends anything a node disowns (rebalance in flight) to the new
// owner. Safe for concurrent Send calls.
//
// Pipelining trades cross-frame ordering for throughput: two frames of
// the same Send may be applied by a node in either order. Order never
// changes a total: nodes meter volumes in integer units
// (internal/ingest), so every interleaving of a Send's frames leaves
// the same counters.
type Router struct {
	tab        *wire.ClassTable
	sender     Sender
	ring       atomic.Pointer[Ring]
	maxRounds  int
	inflight   int                         // max frames in flight per Send
	frameLimit int                         // max reports per frame
	spare      atomic.Pointer[sendScratch] // a finished Send's scratch, taken by the next
}

// DefaultInflight is the frames-in-flight bound per Send and
// DefaultFrameReports the chunk size the router slices an owner's
// partition into.
const (
	DefaultInflight     = 4
	DefaultFrameReports = 1024
)

// NewRouter builds a router over a class table, an initial ring, and a
// sender.
func NewRouter(tab *wire.ClassTable, ring *Ring, sender Sender) (*Router, error) {
	if tab == nil || ring == nil || sender == nil {
		return nil, fmt.Errorf("%w: router needs table, ring and sender", ErrBadConfig)
	}
	rt := &Router{tab: tab, sender: sender, maxRounds: 8,
		inflight: DefaultInflight, frameLimit: DefaultFrameReports}
	rt.ring.Store(ring)
	return rt, nil
}

// SetInflight bounds the frames in flight per Send call (1 sends a
// round's frames one at a time, in order, from the calling goroutine).
// Not safe concurrently with Send.
func (rt *Router) SetInflight(n int) error {
	if n < 1 || n > 1024 {
		return fmt.Errorf("%w: inflight %d out of range [1, 1024]", ErrBadConfig, n)
	}
	rt.inflight = n
	return nil
}

// SetMaxFrameReports bounds the reports per wire frame. Not safe
// concurrently with Send.
func (rt *Router) SetMaxFrameReports(n int) error {
	if n < 1 {
		return fmt.Errorf("%w: frame reports %d < 1", ErrBadConfig, n)
	}
	rt.frameLimit = n
	return nil
}

// Ring returns the router's current ring view.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// UpdateRing swaps the ring view if cfg is strictly newer; it returns
// whether the swap happened.
func (rt *Router) UpdateRing(ring *Ring) bool {
	for {
		cur := rt.ring.Load()
		if ring.Version() <= cur.Version() {
			return false
		}
		if rt.ring.CompareAndSwap(cur, ring) {
			return true
		}
	}
}

// sendScratch is one Send's working memory, reused by the router's
// later Sends, so a steady stream of Sends allocates nothing per frame.
// A Send owns its scratch from takeScratch until it returns, after the
// last of its workers has finished, and only then gives it back. It is
// deliberately not a sync.Pool value: the round's frames and indexes
// are read by the worker goroutines, and a pooled value must not cross
// into a goroutine.
type sendScratch struct {
	enc    *wire.Encoder
	owners []int32         // per pending report: its owner's member index
	fill   []int32         // per member: where its next report goes in reps
	reps   []ingest.Report // the round's reports grouped by owner, in submission order within each
	idxs   []int32         // per reps entry: its index in the round's pending reports
	bodies []byte          // every frame of the round, back to back
	jobs   []sendJob
	retry  []ingest.Report // the next round's pending reports
	next   atomic.Int32    // the next job a worker takes
	agg    roundAgg
}

// takeScratch returns the router's spare scratch, or a new one while
// another Send holds it.
func (rt *Router) takeScratch() *sendScratch {
	if sc := rt.spare.Swap(nil); sc != nil {
		return sc
	}
	return &sendScratch{enc: wire.NewEncoder(rt.tab)}
}

// sendJob is one frame of a round: reports reps[from:to] of the round
// scratch, a contiguous (in submission order) chunk of one owner's
// share, whose frame is bodies[start:end]. idxs[from:to] map a
// rejection back to the pending report. Jobs are views into the Send's
// scratch, which outlives every worker of the round.
type sendJob struct {
	node       Member
	from, to   int
	start, end int
}

// roundAgg collects one fan-out round's results across the worker
// goroutines under a single mutex.
type roundAgg struct {
	mu         sync.Mutex
	rejected   []int32 // pending indices, guarded by mu
	newestSeen uint64  // guarded by mu
	newestNode Member  // guarded by mu
	firstErr   error   // guarded by mu
	failed     atomic.Bool
}

// Send routes every report to its ring owner, retrying disowned
// reports against refreshed ownership for up to maxRounds rounds. On
// success every report was accepted by exactly one node: a node only
// acks reports it owns under its current view and applies them exactly
// once, and the router resends only explicitly rejected indices. Each
// round hashes every report once, groups and encodes all of its frames,
// then pipelines them: up to SetInflight frames are in flight
// concurrently across owners.
func (rt *Router) Send(ctx context.Context, reports []ingest.Report) (RouteStats, error) {
	if len(reports) == 0 {
		return RouteStats{}, nil
	}
	sc := rt.takeScratch()
	stats, err := rt.send(ctx, sc, reports)
	// After a failed delivery a transport may still be reading one of
	// the round's bodies (an HTTP client may write a request body after
	// an early response), so that scratch is dropped, not reused.
	if !sc.agg.failed.Load() {
		rt.spare.Store(sc)
	}
	return stats, err
}

// send is Send's rounds over the Send's scratch.
func (rt *Router) send(ctx context.Context, sc *sendScratch, reports []ingest.Report) (RouteStats, error) {
	var stats RouteStats
	pending := reports
	for round := 0; len(pending) > 0; round++ {
		if round >= rt.maxRounds {
			return stats, fmt.Errorf("%w: %d reports still disowned after %d rounds",
				ErrRouting, len(pending), round)
		}
		stats.Rounds = round + 1
		ring := rt.ring.Load()
		if err := sc.partition(ring, pending, rt.frameLimit); err != nil {
			return stats, err
		}
		// The first error flips agg.failed and the workers stop taking
		// jobs (the unsent reports stay unaccounted, which the caller
		// sees in the returned error).
		rt.fanOut(ctx, sc, &stats)
		ag := &sc.agg
		if ag.firstErr != nil {
			return stats, ag.firstErr
		}
		if len(ag.rejected) == 0 {
			break
		}
		stats.Rerouted += len(ag.rejected)
		// If a node is on a newer ring than ours, refetch before the
		// next round — otherwise we would resend to the same owner.
		if ag.newestSeen > ring.Version() {
			if rf, ok := rt.sender.(RingFetcher); ok {
				if cfg, err := rf.FetchRing(ctx, ag.newestNode); err == nil {
					if fresh, err := Build(cfg); err == nil {
						rt.UpdateRing(fresh)
					}
				}
			}
		}
		// Sort the rejected pending indices so the retry keeps submission
		// order (worker completion order scrambled them). They are
		// distinct and ascending, so when pending is already the retry
		// buffer each report moves down or stays, and is read before
		// anything is written over it.
		slices.Sort(ag.rejected)
		next := sc.retry[:0]
		for _, pi := range ag.rejected {
			next = append(next, pending[pi])
		}
		sc.retry, pending = next, next
	}
	return stats, nil
}

// grow returns s resized to n entries, reallocating only on growth.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// partition groups pending by ring owner and encodes the round's
// frames. Each report is hashed once; a counting sort over the owners
// (stable, so each owner's reports keep submission order) fills reps
// and idxs; each owner's run is cut into frames of at most frameLimit
// reports, and every frame is encoded into bodies right away, while
// the reports' names are still in cache, so the workers only send.
func (sc *sendScratch) partition(ring *Ring, pending []ingest.Report, frameLimit int) error {
	owners := grow(sc.owners, len(pending))
	fill := grow(sc.fill, len(ring.members))
	clear(fill)
	for i := range pending {
		o := ring.ownerIdx(ingest.UserHash(pending[i].User))
		owners[i] = o
		fill[o]++
	}
	at := int32(0)
	for o, n := range fill {
		fill[o] = at
		at += n
	}
	reps, idxs := grow(sc.reps, len(pending)), grow(sc.idxs, len(pending))
	for i, o := range owners {
		k := fill[o]
		fill[o]++
		reps[k], idxs[k] = pending[i], int32(i)
	}
	// fill[o] is now the end of owner o's run.
	jobs, bodies := sc.jobs[:0], sc.bodies[:0]
	from := 0
	for o, end := range fill {
		for from < int(end) {
			to := min(from+frameLimit, int(end))
			start := len(bodies)
			var err error
			if bodies, err = sc.enc.AppendFrame(bodies, reps[from:to]); err != nil {
				return err
			}
			jobs = append(jobs, sendJob{node: ring.members[o], from: from, to: to, start: start, end: len(bodies)})
			from = to
		}
	}
	sc.owners, sc.fill, sc.reps, sc.idxs, sc.jobs, sc.bodies = owners, fill, reps, idxs, jobs, bodies
	return nil
}

// fanOut sends the round's frames with at most SetInflight of them in
// flight. Workers take jobs in order from a shared counter, and the
// calling goroutine is one of them, so a window of one sends every
// frame in order without starting a goroutine. It returns once every
// worker has finished.
func (rt *Router) fanOut(ctx context.Context, sc *sendScratch, stats *RouteStats) {
	ag := &sc.agg
	ag.rejected, ag.newestSeen, ag.newestNode, ag.firstErr = ag.rejected[:0], 0, Member{}, nil
	ag.failed.Store(false)
	sc.next.Store(0)
	var wg sync.WaitGroup
	for w := 1; w < min(rt.inflight, len(sc.jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.sendWorker(ctx, sc, stats)
		}()
	}
	rt.sendWorker(ctx, sc, stats)
	wg.Wait()
}

// sendWorker sends jobs until none is left, folding every ack into the
// round's aggregate (stats shares its mutex). After the first hard
// error it takes no more jobs.
func (rt *Router) sendWorker(ctx context.Context, sc *sendScratch, stats *RouteStats) {
	ag := &sc.agg
	for !ag.failed.Load() {
		j := int(sc.next.Add(1)) - 1
		if j >= len(sc.jobs) {
			return
		}
		job := &sc.jobs[j]
		ack, err := rt.sendFrame(ctx, job, sc.bodies[job.start:job.end])
		ag.mu.Lock()
		if err != nil {
			if ag.firstErr == nil {
				ag.firstErr = err
				ag.failed.Store(true)
			}
			ag.mu.Unlock()
			return
		}
		stats.Reports += job.to - job.from - len(ack.Rejected)
		for _, ri := range ack.Rejected {
			ag.rejected = append(ag.rejected, sc.idxs[job.from+ri])
		}
		if ack.RingVersion > ag.newestSeen {
			ag.newestSeen, ag.newestNode = ack.RingVersion, job.node
		}
		ag.mu.Unlock()
	}
}

// sendFrame delivers one job's frame, validating the ack's shape
// (accounting and rejection indices must be consistent before they are
// folded into the shared stats). Rejected indices must ascend, as a
// node lists them in report order, so no report is resent twice.
func (rt *Router) sendFrame(ctx context.Context, job *sendJob, body []byte) (WireAck, error) {
	ack, err := rt.sender.SendWire(ctx, job.node, body)
	if err != nil {
		return WireAck{}, err
	}
	n := job.to - job.from
	if ack.Accepted != n-len(ack.Rejected) {
		return WireAck{}, fmt.Errorf("%w: node %s acked %d of %d with %d rejections",
			ErrRouting, job.node.ID, ack.Accepted, n, len(ack.Rejected))
	}
	prev := -1
	for _, ri := range ack.Rejected {
		if ri <= prev || ri >= n {
			return WireAck{}, fmt.Errorf("%w: node %s rejected index %d of %d (after %d)",
				ErrRouting, job.node.ID, ri, n, prev)
		}
		prev = ri
	}
	return ack, nil
}
