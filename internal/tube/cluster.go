package tube

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/ingest"
	"tdp/internal/obs"
	"tdp/internal/wire"
)

// ClusterOptions configures a Server as one node of a consistent-hash
// serving plane (DESIGN.md §13).
type ClusterOptions struct {
	// SelfID is this node's member ID; it must appear in Ring.Members.
	SelfID string
	// Ring is the initial ring configuration. Later configs arrive via
	// PUT /cluster/ring and must carry a strictly higher Version.
	Ring cluster.Config
	// QueueDepth bounds the wire-ingest apply queue in batches (default
	// 256). When full, the OLDEST queued batch is shed and counted in
	// cluster_shed_reports_total — overload degrades visibly, never as
	// silent latency collapse.
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

	ring    atomic.Pointer[cluster.Ring]
	tab     *wire.ClassTable
	decPool sync.Pool // *wire.Decoder
	queue   *cluster.ShedQueue
	rep     *cluster.Replicator // non-nil on followers
	replica *board              // non-nil on followers: the applied snapshots

	wireReports  *obs.Counter
	wireRejected *obs.Counter
	ringSwaps    *obs.Counter
}

// EnableCluster joins this server to a consistent-hash serving plane:
// it mounts POST /usage/wire (binary batch ingest with ownership
// enforcement and load shedding), GET/PUT /cluster/ring, and
// GET /cluster/snapshot, and installs an ownership filter on the ingest
// engine so the JSON paths reject misrouted users with 421. Call before
// Serve — routes cannot be added once the server is handling requests.
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
	eng := s.opt.Measurement()
	classes := eng.Classes()
	tab, err := wire.NewClassTable(classes)
	if err != nil {
		return err
	}
	depth := opts.QueueDepth
	if depth == 0 {
		depth = 256
	}
	q, err := cluster.NewShedQueue(classes, depth)
	if err != nil {
		return err
	}
	cl := &clusterState{
		selfID: opts.SelfID,
		leader: opts.LeaderURL == "",
		tab:    tab,
		queue:  q,
	}
	cl.decPool.New = func() any { return wire.NewDecoder(tab) }
	cl.ring.Store(ring)
	q.Instrument(s.reg, classes)
	q.Start(func(batch cluster.Batch) {
		// Admission (ownership, validity) happened before the ack; a ring
		// move while the batch sat queued must not un-account it.
		_ = eng.ApplyWire(batch.Users, batch.Hashes, batch.Recs)
	})
	// The JSON ingest paths enforce ownership per the CURRENT ring view;
	// the closure loads it atomically so ring swaps need no re-install.
	eng.SetFilter(func(user string) bool {
		return cl.ring.Load().Owns(cl.selfID, user)
	})
	if opts.LeaderURL != "" {
		cl.replica = newBoard()
		rep, err := cluster.NewReplicator(opts.LeaderURL, opts.ReplicateEvery, func(snap cluster.PriceSnapshot) error {
			// The follower re-serves the leader's snapshot as received,
			// ring version included, so it is cut before anyone can see it.
			p := newPublication(snap.Period, snap.Rewards, snap.TakenUnixNano)
			if _, err := p.snapshot(snap.RingVersion); err != nil {
				return err
			}
			cl.replica.publish(p)
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
		rep.Start()
	}
	cl.wireReports = s.reg.Counter("cluster_wire_reports_total", "reports admitted over the wire ingest path", nil)
	cl.wireRejected = s.reg.Counter("cluster_wire_rejected_total", "reports rejected as not-owned on the wire ingest path", nil)
	cl.ringSwaps = s.reg.Counter("cluster_ring_swaps_total", "ring configurations applied", nil)
	s.reg.GaugeFunc("cluster_ring_version", "version of the ring configuration in effect", nil,
		func() float64 { return float64(cl.ring.Load().Version()) })
	s.reg.GaugeFunc("cluster_owned_fraction", "fraction of the hash circle this node owns", nil,
		func() float64 { r := cl.ring.Load(); return r.OwnedFraction(cl.selfID) })
	s.cl = cl
	s.handle("POST /usage/wire", "usage_wire", s.handleUsageWire)
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

// DrainCluster blocks until every admitted wire batch has been applied
// to the ingest engine (no-op when clustering is off). Harnesses call
// it before comparing engine totals against what they sent.
func (s *Server) DrainCluster(ctx context.Context) error {
	if s.cl == nil {
		return nil
	}
	return s.cl.queue.Drain(ctx)
}

// ShedReports returns how many reports this node's apply queue has shed
// under overload (0 when clustering is off).
func (s *Server) ShedReports() int64 {
	if s.cl == nil {
		return 0
	}
	n, _ := s.cl.queue.ShedTotals()
	return n
}

// closeCluster releases held snapshot polls, stops the replication loop
// and drains the apply queue so every acked batch is accounted before
// shutdown returns.
func (s *Server) closeCluster(ctx context.Context) error {
	s.wake()
	cl := s.cl
	if cl == nil {
		return nil
	}
	if cl.rep != nil {
		cl.rep.Stop()
	}
	err := cl.queue.Drain(ctx)
	cl.queue.Close()
	return err
}

// maxWireBody bounds a POST /usage/wire request: two full-size frames.
const maxWireBody = 2 * wire.DefaultMaxFrameBytes

func (s *Server) handleUsageWire(w http.ResponseWriter, r *http.Request) {
	cl := s.cl
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWireBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.rejected["usage_wire"].Inc()
			http.Error(w, fmt.Sprintf("wire body over %d bytes", maxWireBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	dec := cl.decPool.Get().(*wire.Decoder)
	defer cl.decPool.Put(dec)
	// Zero-copy admission: each frame is walked in its own terms (user
	// table + index records) without materializing []ingest.Report.
	// Every frame is validated (CheckWire) before anything is queued, so
	// a body answered 400 leaves nothing behind, and an acked batch is
	// one the queue worker will apply. Ownership is enforced against
	// this node's CURRENT ring view — once per DISTINCT user via the
	// decoder's cached hashes, not once per record — and misrouted
	// reports are rejected by index (spanning all frames in the body),
	// never silently accepted; the ack's RingVersion tells a stale router
	// to refetch.
	ring := cl.ring.Load()
	eng := s.opt.Measurement()
	var admitted []cluster.Batch
	var rejected []int
	base := 0 // report index of the current frame's first record
	for buf := body; len(buf) > 0; {
		users, hashes, recs, n, err := dec.DecodeRecords(buf)
		if err == nil {
			err = eng.CheckWire(users, recs)
		}
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, wire.ErrTooLarge) {
				s.rejected["usage_wire"].Inc()
				status = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), status)
			return
		}
		buf = buf[n:]
		ownedUser := make([]bool, len(users))
		allOwned := true
		for u := range users {
			ownedUser[u] = ring.OwnsHash(cl.selfID, hashes[u])
			allOwned = allOwned && ownedUser[u]
		}
		// The queue keeps the batch alive past this request (and past the
		// decoder's next frame), so the scratch slices are copied here —
		// the user strings themselves stay interned, only headers copy.
		var owned []ingest.WireRecord
		if allOwned {
			owned = append(owned, recs...)
		} else {
			for i := range recs {
				if ownedUser[recs[i].User] {
					owned = append(owned, recs[i])
				} else {
					rejected = append(rejected, base+i)
				}
			}
		}
		if len(owned) > 0 {
			admitted = append(admitted, cluster.Batch{
				Users:  append([]string(nil), users...),
				Hashes: append([]uint32(nil), hashes...),
				Recs:   owned,
			})
		}
		base += len(recs)
	}
	accepted, shed := 0, 0
	for _, b := range admitted {
		shed += cl.queue.PushWire(b.Users, b.Hashes, b.Recs)
		accepted += len(b.Recs)
	}
	cl.wireReports.Add(int64(accepted))
	cl.wireRejected.Add(int64(len(rejected)))
	writeJSON(w, http.StatusOK, cluster.WireAck{
		Accepted:    accepted,
		Rejected:    rejected,
		RingVersion: ring.Version(),
		Queued:      true,
		Shed:        shed,
	})
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
	if err := decodeJSONBody(w, r, maxBatchBody, &cfg); err != nil {
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
	QueuedBatches               int      `json:"queuedBatches"`
	ShedReports                 int64    `json:"shedReports"`
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
		shed, _ := cl.queue.ShedTotals()
		ch := &ClusterHealth{
			Self:          cl.selfID,
			Leader:        cl.leader,
			RingVersion:   ring.Version(),
			Members:       len(ring.Members()),
			OwnedFraction: ring.OwnedFraction(cl.selfID),
			OwnedRanges:   ring.OwnedRanges(cl.selfID),
			QueuedBatches: cl.queue.Depth(),
			ShedReports:   shed,
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
