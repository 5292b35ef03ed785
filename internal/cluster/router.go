package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
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
// tests.
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
func TunedTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
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
// a protocol-level success (the ack may still reject reports).
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
// ring owner, chunks each owner's share into wire frames, and fans the
// frames out with bounded in-flight pipelining — up to SetInflight
// frames outstanding at once over the sender — then resends anything a
// node disowns (rebalance in flight) to the new owner.
// Safe for concurrent Send calls.
//
// Pipelining trades cross-frame ordering for throughput: two frames of
// the same Send may be applied by a node in either order. Reports of
// one user WITHIN a frame keep their order (one user → one shard of one
// node), so per-user accumulation stays deterministic up to the
// commutativity of float addition across frame boundaries — exact for
// the integral-MB volumes the conservation checks use. Callers needing
// strict cross-frame order set inflight to 1.
type Router struct {
	tab        *wire.ClassTable
	sender     Sender
	ring       atomic.Pointer[Ring]
	maxRounds  int
	inflight   int       // max frames in flight per Send
	frameLimit int       // max reports per frame
	encPool    sync.Pool // *wire.Encoder
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

// SetInflight bounds the frames in flight per Send call (1 serializes,
// restoring strict cross-frame order). Not safe concurrently with Send.
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

//tubelint:pooled
func (rt *Router) encoder() *wire.Encoder {
	if v := rt.encPool.Get(); v != nil {
		return v.(*wire.Encoder)
	}
	return wire.NewEncoder(rt.tab)
}

// sendJob is one frame's worth of a round: a contiguous (in submission
// order) chunk of one owner's partition plus the pending indices it was
// drawn from, so a rejection maps back to the original report. Job
// buffers are freshly allocated per round — they cross into worker
// goroutines, so they must not come from a pool.
type sendJob struct {
	node Member
	reps []ingest.Report
	idxs []int32
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

// sendWorker drains one pipelining slot: it borrows a frame encoder for
// the slot's lifetime and folds every ack into ag (stats shares ag.mu).
// The first hard error flips ag.failed, so the slots finish the queue
// without sending.
func (rt *Router) sendWorker(ctx context.Context, jobCh <-chan sendJob, stats *RouteStats, ag *roundAgg, wg *sync.WaitGroup) {
	defer wg.Done()
	enc := rt.encoder()
	defer rt.encPool.Put(enc)
	for job := range jobCh {
		if ag.failed.Load() {
			continue
		}
		ack, err := rt.sendFrame(ctx, enc, job)
		ag.mu.Lock()
		if err != nil {
			if ag.firstErr == nil {
				ag.firstErr = err
				ag.failed.Store(true)
			}
			ag.mu.Unlock()
			continue
		}
		stats.Reports += len(job.reps) - len(ack.Rejected)
		for _, ri := range ack.Rejected {
			ag.rejected = append(ag.rejected, job.idxs[ri])
		}
		if ack.RingVersion > ag.newestSeen {
			ag.newestSeen, ag.newestNode = ack.RingVersion, job.node
		}
		ag.mu.Unlock()
	}
}

// Send routes every report to its ring owner, retrying disowned
// reports against refreshed ownership for up to maxRounds rounds. On
// success every report was accepted by exactly one node: a node only
// acks reports it owns under its current view and applies them exactly
// once, and the router resends only explicitly rejected indices. Within
// a round, frames are pipelined: up to SetInflight frames are in flight
// concurrently across owners.
func (rt *Router) Send(ctx context.Context, reports []ingest.Report) (RouteStats, error) {
	var stats RouteStats
	if len(reports) == 0 {
		return stats, nil
	}
	pending := reports
	for round := 0; len(pending) > 0; round++ {
		if round >= rt.maxRounds {
			return stats, fmt.Errorf("%w: %d reports still disowned after %d rounds",
				ErrRouting, len(pending), round)
		}
		stats.Rounds = round + 1
		ring := rt.ring.Load()
		jobs := rt.partition(ring, pending)

		// Fan out with bounded pipelining. Aggregation is mutex-guarded;
		// the first error flips ag.failed and the remaining jobs are
		// drained unsent (their reports stay unaccounted, which the
		// caller sees in the returned error).
		ag := &roundAgg{}
		workers := rt.inflight
		if len(jobs) < workers {
			workers = len(jobs)
		}
		jobCh := make(chan sendJob)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go rt.sendWorker(ctx, jobCh, &stats, ag, &wg)
		}
		for _, job := range jobs {
			jobCh <- job
		}
		close(jobCh)
		wg.Wait()
		if ag.firstErr != nil {
			return stats, ag.firstErr
		}

		rejected := ag.rejected
		newestSeen, newestNode := ag.newestSeen, ag.newestNode
		if len(rejected) == 0 {
			break
		}
		stats.Rerouted += len(rejected)
		// If a node is on a newer ring than ours, refetch before the
		// next round — otherwise we would resend to the same owner.
		if newestSeen > ring.Version() {
			if rf, ok := rt.sender.(RingFetcher); ok {
				if cfg, err := rf.FetchRing(ctx, newestNode); err == nil {
					if fresh, err := Build(cfg); err == nil {
						rt.UpdateRing(fresh)
					}
				}
			}
		}
		// Sort the rejected pending indices so the retry keeps submission
		// order (worker completion order scrambled them).
		sort.Slice(rejected, func(a, b int) bool { return rejected[a] < rejected[b] })
		next := make([]ingest.Report, len(rejected))
		for i, pi := range rejected {
			next[i] = pending[pi]
		}
		pending = next
	}
	return stats, nil
}

// partition splits pending into per-owner frame jobs of at most
// frameLimit reports, preserving submission order within each owner
// (per-owner index chains built in reverse, walked forward).
func (rt *Router) partition(ring *Ring, pending []ingest.Report) []sendJob {
	nm := len(ring.members)
	heads := make([]int32, nm)
	for o := range heads {
		heads[o] = -1
	}
	nexts := make([]int32, len(pending))
	for i := len(pending) - 1; i >= 0; i-- {
		o := ring.ownerIdx(ingest.UserHash(pending[i].User))
		nexts[i] = heads[o]
		heads[o] = int32(i)
	}
	var jobs []sendJob
	for o := 0; o < nm; o++ {
		if heads[o] < 0 {
			continue
		}
		node := ring.members[o]
		var reps []ingest.Report
		var idxs []int32
		for i := heads[o]; i >= 0; i = nexts[i] {
			if len(reps) == rt.frameLimit {
				jobs = append(jobs, sendJob{node: node, reps: reps, idxs: idxs})
				reps, idxs = nil, nil
			}
			reps = append(reps, pending[i])
			idxs = append(idxs, i)
		}
		jobs = append(jobs, sendJob{node: node, reps: reps, idxs: idxs})
	}
	return jobs
}

// sendFrame encodes and delivers one job, validating the ack's shape
// (accounting and rejection indices must be consistent before they are
// folded into the shared stats).
func (rt *Router) sendFrame(ctx context.Context, enc *wire.Encoder, job sendJob) (WireAck, error) {
	body, err := enc.Encode(job.reps)
	if err != nil {
		return WireAck{}, err
	}
	ack, err := rt.sender.SendWire(ctx, job.node, body)
	if err != nil {
		return WireAck{}, err
	}
	if ack.Accepted != len(job.reps)-len(ack.Rejected) {
		return WireAck{}, fmt.Errorf("%w: node %s acked %d of %d with %d rejections",
			ErrRouting, job.node.ID, ack.Accepted, len(job.reps), len(ack.Rejected))
	}
	for _, ri := range ack.Rejected {
		if ri < 0 || ri >= len(job.reps) {
			return WireAck{}, fmt.Errorf("%w: node %s rejected index %d of %d",
				ErrRouting, job.node.ID, ri, len(job.reps))
		}
	}
	return ack, nil
}
