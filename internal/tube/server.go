package tube

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/ingest"
	"tdp/internal/obs"
	"tdp/internal/wire"
)

// PriceInfo is the payload the communication engine publishes: the reward
// for the period in progress and the full day schedule. Rewards are in
// $0.10 units, matching the optimization models.
type PriceInfo struct {
	Period  int       `json:"period"`
	Reward  float64   `json:"reward"`
	Rewards []float64 `json:"rewards"`
}

// UsageReport is one record the emulated access network (standing in
// for the IPtables counters) reports to account a user's traffic.
// Clients encode batches of them into wire frames (GUI.ReportUsageWire)
// for POST /usage/wire, the server's one usage endpoint.
type UsageReport = ingest.Report

// Server is the TUBE communication engine: it exposes the optimizer's
// prices to GUI clients and accepts usage accounting as wire frames,
// applied before they are acknowledged. The paper runs this channel
// over SSL/TLS; transport security is orthogonal here (DESIGN.md §2) —
// wrap the handler in your TLS listener of choice in production.
type Server struct {
	opt *Optimizer
	mux *http.ServeMux

	// wirePool holds POST /usage/wire request scratch; wireReports and
	// wireRejected count the reports each ack accepted and disowned.
	wirePool     sync.Pool // *wireScratch
	wireReports  *obs.Counter
	wireRejected *obs.Counter

	// reg is the server's metric namespace: per-handler request counters
	// and latency histograms (maintained by the counting middleware),
	// the ingest engine's counters, and gauges over the optimizer's
	// state. GET /metrics serves it merged with obs.Default().
	reg      *obs.Registry
	counters map[string]*obs.Counter
	rejected map[string]*obs.Counter

	// cl is the cluster plane, non-nil once EnableCluster has run.
	cl *clusterState

	// done is closed when shutdown begins, releasing held snapshot polls.
	done     chan struct{}
	doneOnce sync.Once

	mu      sync.Mutex
	httpSrv *http.Server // guarded by mu: non-nil once Serve has been called
}

// Request-body bounds: a wire body holds two full-size frames, a ring
// config is capped far above any real membership. Oversize bodies are
// rejected with 413 and counted in tube_http_rejected_total.
const (
	maxWireBody = 2 * wire.DefaultMaxFrameBytes
	maxRingBody = 16 << 20
)

// latencyBuckets spans 1µs…8s in powers of two — wide enough for an
// in-process handler call and a loaded listener alike.
var latencyBuckets = obs.ExpBuckets(1e-6, 2, 24)

// NewServer builds the HTTP surface for an optimizer.
func NewServer(opt *Optimizer) (*Server, error) {
	if opt == nil {
		return nil, fmt.Errorf("nil optimizer: %w", ErrBadInput)
	}
	tab, err := wire.NewClassTable(opt.Measurement().Classes())
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:      opt,
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		counters: make(map[string]*obs.Counter),
		rejected: make(map[string]*obs.Counter),
		done:     make(chan struct{}),
	}
	s.wirePool.New = func() any { return &wireScratch{dec: wire.NewDecoder(tab)} }
	s.wireReports = s.reg.Counter("cluster_wire_reports_total", "reports accepted over the wire ingest path", nil)
	s.wireRejected = s.reg.Counter("cluster_wire_rejected_total", "reports rejected as not-owned on the wire ingest path", nil)
	s.handle("GET /price", "price", s.handlePrice)
	s.handle("GET /history", "history", s.handleHistory)
	s.handle("GET /bill", "bill", s.handleBill)
	s.handle("POST /usage/wire", "usage_wire", s.handleUsageWire)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	opt.Measurement().Instrument(s.reg)
	if sp := opt.Stream(); sp != nil {
		sp.Instrument(s.reg)
	}
	s.registerStateGauges()
	return s, nil
}

// registerStateGauges exposes the optimizer's control-loop state as
// scrape-time gauges: the period clock, the published incentive, and
// the billing engine's progress.
func (s *Server) registerStateGauges() {
	opt := s.opt
	s.reg.GaugeFunc("tube_current_period", "period index in progress", nil,
		func() float64 { return float64(opt.Period()) })
	s.reg.GaugeFunc("tube_current_reward", "published reward for the period in progress ($0.10 units)", nil,
		func() float64 { return opt.CurrentReward() })
	s.reg.GaugeFunc("tube_billing_periods", "periods accrued in the open billing cycle", nil,
		func() float64 { return float64(opt.Billing().Periods()) })
	s.reg.GaugeFunc("tube_billing_users", "users carrying a charge in the open billing cycle", nil,
		func() float64 { return float64(opt.Billing().Users()) })
}

// handle registers a route wrapped in request counting and latency
// observation. Body-carrying handlers also get a rejection counter for
// oversize payloads.
func (s *Server) handle(pattern, name string, h http.HandlerFunc) {
	lbl := obs.Labels{"handler": name}
	c := s.reg.Counter("tube_http_requests_total", "HTTP requests served, by handler", lbl)
	hist := s.reg.Histogram("tube_http_request_seconds", "HTTP request latency in seconds, by handler", lbl, latencyBuckets)
	s.counters[name] = c
	if len(pattern) > 4 && (pattern[:4] == "POST" || pattern[:3] == "PUT") {
		s.rejected[name] = s.reg.Counter("tube_http_rejected_total",
			"requests rejected for oversized bodies, by handler", lbl)
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		c.Inc()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	})
}

// Registry returns the server's metric registry, for embedding tools
// (tubesim, tubeperf) that want to read, dump or extend its metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default: the profile endpoints expose stacks
// and heap contents, so production deployments opt in explicitly
// (tubesim does so behind its -pprof flag).
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// RequestCounts returns a snapshot of the per-handler request counters,
// including the "<handler>_rejected" oversize-body rejections.
func (s *Server) RequestCounts() map[string]int64 {
	out := make(map[string]int64, len(s.counters)+len(s.rejected))
	for name, c := range s.counters {
		out[name] = c.Value()
	}
	for name, c := range s.rejected {
		out[name+"_rejected"] = c.Value()
	}
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

var _ http.Handler = (*Server)(nil)

// Serve accepts connections on ln until Shutdown. It returns nil after
// a graceful Shutdown (unlike http.Server.Serve, which returns
// ErrServerClosed).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.httpSrv == nil {
		s.httpSrv = &http.Server{Handler: s}
		// http.Server.Shutdown waits for active requests, and a held
		// snapshot poll is one: release it the moment shutdown starts.
		s.httpSrv.RegisterOnShutdown(s.wake)
	}
	srv := s.httpSrv
	s.mu.Unlock()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown gracefully stops a Serve-d server: the listener closes
// immediately, and in-flight requests (usage frames mid-apply included)
// run to completion or until ctx expires. A cluster follower also stops
// its replication loop, whether or not the server was ever started.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.closeCluster()
	return err
}

// wake releases every held snapshot poll; later polls answer at once.
func (s *Server) wake() { s.doneOnce.Do(func() { close(s.done) }) }

func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	// One published record, one load: the period and its reward always
	// match, and a close or a refit in progress never blocks the reader.
	// A cluster follower serves the leader's replicated schedule, so the
	// whole plane publishes one price while only the leader solves.
	info, err := s.currentPrice()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

type historyPayload struct {
	Prices []pricePoint `json:"prices"`
	Usage  []pricePoint `json:"usage"`
}

type pricePoint struct {
	Period int64   `json:"period"`
	Value  float64 `json:"value"`
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	prices, err := s.opt.PriceHistory()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	usage, err := s.opt.UsageHistory()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var payload historyPayload
	for _, p := range prices {
		payload.Prices = append(payload.Prices, pricePoint{Period: p.Time, Value: p.Value})
	}
	for _, p := range usage {
		payload.Usage = append(payload.Usage, pricePoint{Period: p.Time, Value: p.Value})
	}
	writeJSON(w, http.StatusOK, payload)
}

func (s *Server) handleBill(w http.ResponseWriter, r *http.Request) {
	user := r.URL.Query().Get("user")
	billing := s.opt.Billing()
	if user != "" {
		writeJSON(w, http.StatusOK, Statement{
			User:         user,
			Charge:       billing.Bill(user),
			RewardCredit: billing.RewardCredit(user),
		})
		return
	}
	writeJSON(w, http.StatusOK, billing.Statements())
}

// wireScratch is one POST /usage/wire request's working memory, pooled
// across requests so that a steady stream of them allocates nothing per
// frame: the body, the decoder, and the admitted frames copied out of
// the decoder's scratch into arenas, so the next frame can be decoded
// before any of them is applied. The users stay views into the body;
// only the slice headers copy.
type wireScratch struct {
	body     []byte
	dec      *wire.Decoder
	users    [][]byte            // admitted frames' user tables, back to back
	hashes   []uint32            // users' ingest.UserHash, as the decoder returned them
	recs     []ingest.WireRecord // admitted frames' owned records, back to back
	frames   []wireFrame
	owned    []bool // per user of the frame at hand: owned by this node
	rejected []int
}

// wireFrame is where one admitted frame ends in the scratch arenas; it
// starts where the previous one ends.
type wireFrame struct{ users, recs int }

// maxPooledBody is the largest body buffer the wire scratch keeps: a
// rare huge body is not pinned in the pool for later small ones.
const maxPooledBody = 4 << 20

// putWireScratch returns a request's scratch to the pool, dropping an
// oversized body buffer and the views into it.
func (s *Server) putWireScratch(sc *wireScratch) {
	if cap(sc.body) > maxPooledBody {
		sc.body, sc.users = nil, nil
	}
	s.wirePool.Put(sc)
}

// readBody reads r to EOF, appending to buf. It sizes buf once from the
// request's Content-Length when the client sent one, with a spare byte
// for the read that finds EOF, and grows it by appending otherwise.
func readBody(r io.Reader, size int64, buf []byte) ([]byte, error) {
	if size > 0 && size < maxWireBody && int64(cap(buf)-len(buf)) <= size {
		buf = slices.Grow(buf, int(size)+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// handleUsageWire is the server's one usage door. It decodes every frame
// of the body in its own terms (user table plus index records, no
// []ingest.Report), validates it (CheckWire) and checks ownership before
// anything is applied, so a body answered 400 or 413 leaves nothing
// behind. It then applies every admitted frame (ApplyWire) and only then
// acks: an acked report is in the engine, and a period close that starts
// after the ack counts it. Overload shows as request latency, bounded by
// the sender's in-flight window, never as dropped reports.
//
// Ownership follows this node's CURRENT ring view, checked once per
// DISTINCT user through the hashes the decoder returns; misrouted reports
// are rejected by index (spanning all frames in the body) and the ack's
// RingVersion tells a stale router to refetch. A server outside a
// cluster is a one-node ring: it owns every user and acks RingVersion 0.
func (s *Server) handleUsageWire(w http.ResponseWriter, r *http.Request) {
	sc := s.wirePool.Get().(*wireScratch)
	defer s.putWireScratch(sc)
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxWireBody), r.ContentLength, sc.body[:0])
	sc.body = body
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
	var (
		ring   *cluster.Ring
		selfID string
	)
	if cl := s.cl; cl != nil {
		ring, selfID = cl.ring.Load(), cl.selfID
	}
	eng := s.opt.Measurement()
	sc.users, sc.hashes, sc.recs = sc.users[:0], sc.hashes[:0], sc.recs[:0]
	sc.frames, sc.rejected = sc.frames[:0], sc.rejected[:0]
	base := 0 // report index of the current frame's first record
	for buf := body; len(buf) > 0; {
		users, hashes, recs, n, err := sc.dec.DecodeRecords(buf)
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
		owned, all := ownership(ring, selfID, hashes, sc.owned)
		sc.owned = owned
		from := len(sc.recs)
		if all {
			sc.recs = append(sc.recs, recs...)
		} else {
			for i := range recs {
				if owned[recs[i].User] {
					sc.recs = append(sc.recs, recs[i])
				} else {
					sc.rejected = append(sc.rejected, base+i)
				}
			}
		}
		if len(sc.recs) > from {
			sc.users = append(sc.users, users...)
			sc.hashes = append(sc.hashes, hashes...)
			sc.frames = append(sc.frames, wireFrame{users: len(sc.users), recs: len(sc.recs)})
		}
		base += len(recs)
	}
	accepted, u0 := 0, 0
	for _, f := range sc.frames {
		if err := eng.ApplyWire(sc.users[u0:f.users], sc.hashes[u0:f.users], sc.recs[accepted:f.recs]); err != nil {
			// Unreachable: every frame passed CheckWire above.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		u0, accepted = f.users, f.recs
	}
	s.wireReports.Add(int64(accepted))
	s.wireRejected.Add(int64(len(sc.rejected)))
	var version uint64
	if ring != nil {
		version = ring.Version()
	}
	writeJSON(w, http.StatusOK, cluster.WireAck{
		Accepted:    accepted,
		Rejected:    sc.rejected,
		RingVersion: version,
	})
}

// ownership reports, in owned (scratch, grown to one entry per frame
// user), whether selfID owns each user under ring, and whether it owns
// them all (always so without a ring, when owned is left as given).
func ownership(ring *cluster.Ring, selfID string, hashes []uint32, scratch []bool) (owned []bool, all bool) {
	if ring == nil {
		return scratch, true
	}
	owned = slices.Grow(scratch[:0], len(hashes))[:len(hashes)]
	return owned, ring.OwnsHashes(selfID, hashes, owned)
}

// decodeJSONBody decodes a size-bounded JSON request body.
func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
}

// httpBodyError maps a body-decode failure to 413 (over the byte bound,
// counted per handler) or 400 (malformed).
func (s *Server) httpBodyError(w http.ResponseWriter, err error, handler, malformed string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		if c := s.rejected[handler]; c != nil {
			c.Inc()
		}
		http.Error(w, fmt.Sprintf("request body over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, malformed, http.StatusBadRequest)
}

// handleMetrics serves the Prometheus exposition: the server's own
// registry (handler counters/latencies, ingest, optimizer-state gauges)
// merged with the process-wide default registry (solver and controller
// metrics).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheusAll(w, s.reg, obs.Default())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header are unrecoverable mid-response;
	// the client will see a truncated body and retry next period.
	_ = json.NewEncoder(w).Encode(v)
}
