package tube

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/obs"
)

// ClusterOptions configures a Server as one node of a consistent-hash
// serving plane (DESIGN.md §13): ring ownership on POST /usage/wire and
// price replication. A Server without them is a one-node ring.
type ClusterOptions struct {
	// SelfID is this node's member ID; it must appear in Ring.Members.
	SelfID string
	// Ring is the initial ring configuration. Later configs arrive via
	// PUT /cluster/ring and must carry a strictly higher Version.
	Ring cluster.Config
	// QueueDepth is ignored: a node applies every usage frame before it
	// acks it, so there is no apply queue to bound. The field remains
	// only so existing callers compile; ROADMAP item 8 removes it.
	QueueDepth int
	// LeaderURL, when non-empty, makes this node a price FOLLOWER: it
	// pulls snapshots from the leader at that base URL and serves
	// GET /price from the replicated schedule. Empty means this node is
	// the leader (it runs the optimizer control loop and cuts snapshots).
	LeaderURL string
	// ReplicateEvery bounds the time between a follower's confirmations
	// (default 1s): each pull is a long poll that the source holds for at
	// most this long before answering "not modified", and a failed pull
	// is retried after this long. A new price arrives as soon as it is
	// published, not on this cadence.
	ReplicateEvery time.Duration
	// ReplicateFanout, when > 0, arranges followers in a fan-out tree of
	// this arity: each follower pulls snapshots from its tree parent
	// (cluster.TreeParent over the current ring) instead of the leader,
	// falling back to the leader when the parent fails. 0 keeps every
	// follower pulling from the leader directly.
	ReplicateFanout int
}

// clusterState is the per-node cluster plane hanging off a Server.
type clusterState struct {
	selfID string
	leader bool

	ring      atomic.Pointer[cluster.Ring]
	rep       *cluster.Replicator // non-nil on followers
	replica   *board              // non-nil on followers: the applied snapshots
	ringSwaps *obs.Counter
}

// servedHistory is how many replicated publications a follower keeps
// to bill its closes at: its closes may trail the leader's by that many
// periods before it bills at a schedule newer than the one it served.
const servedHistory = 16

// servedPrices is a follower's record of the publications its replica
// board served. A follower's optimizer solves its own schedule but never
// serves it, so its closes bill at these instead: the first snapshot
// fixes which leader period the follower's next close ends, and each
// close after it ends the next one.
type servedPrices struct {
	mu          sync.Mutex
	recent      [servedHistory]*publication // guarded by mu: the newest applied publications, a ring
	n           int                         // guarded by mu: publications recorded
	next        int                         // guarded by mu: the leader period the next close ends, once n > 0
	ownSchedule *obs.Counter                // closes billed at the node's own schedule
}

// record notes a publication the replica board installed.
func (sp *servedPrices) record(p *publication) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.n == 0 {
		sp.next = p.period
	}
	sp.recent[sp.n%servedHistory] = p
	sp.n++
}

// billNext returns the reward to bill the closing period at: the one
// the newest publication at or before that leader period scheduled for
// it. Before the first snapshot it returns own, the node's own reward,
// and counts the period.
func (sp *servedPrices) billNext(own float64) float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.n == 0 {
		sp.ownSchedule.Inc()
		return own
	}
	period := sp.next
	sp.next++
	var best, oldest *publication
	for _, p := range sp.recent {
		if p == nil {
			continue
		}
		if p.period <= period && (best == nil || p.period > best.period) {
			best = p
		}
		if oldest == nil || p.period < oldest.period {
			oldest = p
		}
	}
	if best == nil {
		best = oldest // the close trails every retained publication
	}
	return best.rewards[period%len(best.rewards)]
}

// EnableCluster joins this server to a consistent-hash serving plane.
// From then on POST /usage/wire accepts only the users this node owns
// under its current ring and rejects the rest by index, and the server
// mounts GET/PUT /cluster/ring and GET /cluster/snapshot; a follower
// also starts replicating the leader's prices. Call before Serve —
// routes cannot be added once the server is handling requests.
func (s *Server) EnableCluster(opts ClusterOptions) error {
	if s.cl != nil {
		return fmt.Errorf("cluster already enabled: %w", ErrBadInput)
	}
	if opts.SelfID == "" {
		return fmt.Errorf("cluster needs a SelfID: %w", ErrBadInput)
	}
	ring, err := cluster.Build(opts.Ring)
	if err != nil {
		return err
	}
	if _, ok := ring.Member(opts.SelfID); !ok {
		return fmt.Errorf("self %q not in ring: %w", opts.SelfID, ErrBadInput)
	}
	cl := &clusterState{
		selfID: opts.SelfID,
		leader: opts.LeaderURL == "",
	}
	cl.ring.Store(ring)
	if opts.LeaderURL != "" {
		cl.replica = newBoard()
		served := &servedPrices{ownSchedule: s.reg.Counter("tube_billing_own_schedule_periods_total",
			"periods a follower billed at its own schedule, closed before its first price snapshot replicated", nil)}
		rep, err := cluster.NewReplicator(opts.LeaderURL, opts.ReplicateEvery, func(snap cluster.PriceSnapshot) error {
			// The follower re-serves the leader's snapshot as received,
			// ring version included, so it is cut before anyone can see it.
			p := newPublication(snap.Period, snap.Rewards, snap.TakenUnixNano)
			if _, err := p.snapshot(snap.RingVersion); err != nil {
				return err
			}
			if cl.replica.publish(p) {
				served.record(p)
			}
			return nil
		})
		if err != nil {
			return err
		}
		rep.Instrument(s.reg)
		if opts.ReplicateFanout > 0 {
			fanout := opts.ReplicateFanout
			leaderURL := opts.LeaderURL
			rep.SetSource(func() (string, bool) {
				// Re-derived per pull from the CURRENT ring: membership
				// changes reshape the tree with no coordination.
				ring := cl.ring.Load()
				leaderID := ""
				for _, m := range ring.Members() {
					if m.Addr == leaderURL {
						leaderID = m.ID
						break
					}
				}
				if leaderID == "" {
					return "", false
				}
				parent, ok := cluster.TreeParent(ring, leaderID, cl.selfID, fanout)
				if !ok {
					return "", false
				}
				return parent.Addr, true
			})
		}
		cl.rep = rep
		s.opt.followPrices(served)
		rep.Start()
	}
	cl.ringSwaps = s.reg.Counter("cluster_ring_swaps_total", "ring configurations applied", nil)
	s.reg.GaugeFunc("cluster_ring_version", "version of the ring configuration in effect", nil,
		func() float64 { return float64(cl.ring.Load().Version()) })
	s.reg.GaugeFunc("cluster_owned_fraction", "fraction of the hash circle this node owns", nil,
		func() float64 { r := cl.ring.Load(); return r.OwnedFraction(cl.selfID) })
	s.cl = cl
	s.handle("GET /cluster/ring", "ring_get", s.handleRingGet)
	s.handle("PUT /cluster/ring", "ring_put", s.handleRingPut)
	s.handle("GET /cluster/snapshot", "cluster_snapshot", s.handleSnapshot)
	return nil
}

// Ring returns the node's current ring view (nil when clustering is
// off).
func (s *Server) Ring() *cluster.Ring {
	if s.cl == nil {
		return nil
	}
	return s.cl.ring.Load()
}

// DrainCluster returns nil at once: every acked usage frame was
// applied before its ack, so there is nothing to drain. It remains only
// so existing callers compile; ROADMAP item 8 removes it.
func (s *Server) DrainCluster(context.Context) error { return nil }

// ShedReports always returns 0: a node no longer queues acked frames,
// so it cannot shed them. It remains only so existing callers compile;
// ROADMAP item 8 removes it.
func (s *Server) ShedReports() int64 { return 0 }

// closeCluster releases held snapshot polls and stops the replication
// loop.
func (s *Server) closeCluster() {
	s.wake()
	if cl := s.cl; cl != nil && cl.rep != nil {
		cl.rep.Stop()
	}
}

func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cl.ring.Load().Config())
}

// ringAck is the PUT /cluster/ring response: whether the config was
// applied and the version now in effect.
type ringAck struct {
	Applied bool   `json:"applied"`
	Version uint64 `json:"version"`
}

func (s *Server) handleRingPut(w http.ResponseWriter, r *http.Request) {
	var cfg cluster.Config
	if err := decodeJSONBody(w, r, maxRingBody, &cfg); err != nil {
		s.httpBodyError(w, err, "ring_put", "malformed ring config")
		return
	}
	next, err := cluster.Build(cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cl := s.cl
	// Versions are monotonic: an equal-or-older config is acknowledged
	// but not applied, so replayed or reordered pushes cannot roll the
	// ring back.
	for {
		cur := cl.ring.Load()
		if next.Version() <= cur.Version() {
			writeJSON(w, http.StatusOK, ringAck{Applied: false, Version: cur.Version()})
			return
		}
		if cl.ring.CompareAndSwap(cur, next) {
			cl.ringSwaps.Inc()
			writeJSON(w, http.StatusOK, ringAck{Applied: true, Version: next.Version()})
			return
		}
	}
}

// handleSnapshot serves GET /cluster/snapshot[?after=<ns>&wait=<dur>].
// Without after it answers at once with the newest snapshot. With after
// it is a long poll: it answers as soon as a snapshot newer than after
// is published, or 304 Not Modified once wait (capped at
// cluster.MaxPollWait) elapses, the client leaves, or the server shuts
// down with nothing newer. A leader serves its optimizer's record, a
// follower its applied copy, so pulls can fan out in a tree instead of
// thundering the leader; either way the body is cut once per record.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	prices := s.prices()
	p := prices.load()
	if a := r.URL.Query().Get("after"); a != "" {
		after, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			http.Error(w, "bad after: "+err.Error(), http.StatusBadRequest)
			return
		}
		wait, err := time.ParseDuration(r.URL.Query().Get("wait"))
		if err != nil || wait < 0 {
			http.Error(w, "bad wait", http.StatusBadRequest)
			return
		}
		p = prices.await(r.Context(), after, min(wait, cluster.MaxPollWait), s.done)
		if p.ready() && p.taken <= after {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if !p.ready() {
		http.Error(w, "no snapshot replicated yet", http.StatusServiceUnavailable)
		return
	}
	body, err := p.snapshot(s.cl.ring.Load().Version())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// prices returns the board this node serves prices from: the applied
// snapshots on a cluster follower, the optimizer's own publications on
// a leader or a standalone server.
func (s *Server) prices() *board {
	if s.cl != nil && s.cl.replica != nil {
		return s.cl.replica
	}
	return s.opt.pub
}

// currentPrice returns the price this node serves, or an error wrapping
// ErrNotReady on a follower that has not replicated a snapshot yet.
func (s *Server) currentPrice() (PriceInfo, error) {
	p := s.prices().load()
	if !p.ready() {
		return PriceInfo{}, fmt.Errorf("price replica not yet synchronized: %w", ErrNotReady)
	}
	return p.priceInfo(), nil
}

// ClusterHealth is the cluster section of the /healthz payload.
type ClusterHealth struct {
	Self          string          `json:"self"`
	Leader        bool            `json:"leader"`
	RingVersion   uint64          `json:"ringVersion"`
	Members       int             `json:"members"`
	OwnedFraction float64         `json:"ownedFraction"`
	OwnedRanges   []cluster.Range `json:"ownedRanges"`
	// ReplicationStalenessSeconds is the time since the follower last
	// confirmed its price snapshot with its source (-1 before the first
	// snapshot); absent on the leader.
	ReplicationStalenessSeconds *float64 `json:"replicationStalenessSeconds,omitempty"`
}

// Health is the GET /healthz payload.
type Health struct {
	Status  string         `json:"status"` // "ok", "starting", or "degraded"
	Period  int            `json:"period"`
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// replicaStalenessLimit is how long a follower may go without its source
// confirming its price snapshot before /healthz degrades the node.
const replicaStalenessLimit = 15 * time.Second

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", Period: s.opt.Period()}
	if cl := s.cl; cl != nil {
		ring := cl.ring.Load()
		ch := &ClusterHealth{
			Self:          cl.selfID,
			Leader:        cl.leader,
			RingVersion:   ring.Version(),
			Members:       len(ring.Members()),
			OwnedFraction: ring.OwnedFraction(cl.selfID),
			OwnedRanges:   ring.OwnedRanges(cl.selfID),
		}
		if cl.rep != nil {
			stale := cl.rep.StalenessSeconds()
			ch.ReplicationStalenessSeconds = &stale
			if stale < 0 {
				h.Status = "starting"
			} else if stale > replicaStalenessLimit.Seconds() {
				h.Status = "degraded"
			}
		}
		h.Cluster = ch
	}
	status := http.StatusOK
	if h.Status != "ok" {
		// Load balancers treat non-200 as not-ready; "starting" and
		// "degraded" both mean "don't route new traffic here yet".
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
