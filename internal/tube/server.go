package tube

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"tdp/internal/ingest"
	"tdp/internal/obs"
)

// PriceInfo is the payload the communication engine publishes: the reward
// for the period in progress and the full day schedule. Rewards are in
// $0.10 units, matching the optimization models.
type PriceInfo struct {
	Period  int       `json:"period"`
	Reward  float64   `json:"reward"`
	Rewards []float64 `json:"rewards"`
}

// UsageReport is the payload the emulated access network (standing in for
// the IPtables counters) posts to account a user's traffic. It is the
// ingestion engine's wire format: POST /usage takes one, POST
// /usage/batch takes a JSON array.
type UsageReport = ingest.Report

// BatchAck is the /usage/batch response: how many reports were
// accounted. A batch is all-or-nothing, so Accepted is always the full
// batch size on success.
type BatchAck struct {
	Accepted int `json:"accepted"`
}

// Server is the TUBE communication engine: it exposes the optimizer's
// prices to GUI clients and accepts usage accounting, single reports or
// batches. The paper runs this channel over SSL/TLS; transport security
// is orthogonal here (DESIGN.md §2) — wrap the handler in your TLS
// listener of choice in production.
type Server struct {
	opt *Optimizer
	mux *http.ServeMux

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

// Request-body bounds: a single report is tiny, a JSON batch is capped
// well above the largest batch the harnesses send. Oversize bodies are
// rejected with 413 and counted in tube_http_rejected_total.
const (
	maxUsageBody = 64 << 10
	maxBatchBody = 16 << 20
)

// latencyBuckets spans 1µs…8s in powers of two — wide enough for an
// in-process handler call and a loaded listener alike.
var latencyBuckets = obs.ExpBuckets(1e-6, 2, 24)

// NewServer builds the HTTP surface for an optimizer.
func NewServer(opt *Optimizer) (*Server, error) {
	if opt == nil {
		return nil, fmt.Errorf("nil optimizer: %w", ErrBadInput)
	}
	s := &Server{
		opt:      opt,
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		counters: make(map[string]*obs.Counter),
		rejected: make(map[string]*obs.Counter),
		done:     make(chan struct{}),
	}
	s.handle("GET /price", "price", s.handlePrice)
	s.handle("GET /history", "history", s.handleHistory)
	s.handle("GET /bill", "bill", s.handleBill)
	s.handle("POST /usage", "usage", s.handleUsage)
	s.handle("POST /usage/batch", "usage_batch", s.handleUsageBatch)
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
// (tubeload, tubesim) that want to dump or extend the server's metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default: the profile endpoints expose stacks
// and heap contents, so production deployments opt in explicitly
// (tubesim/tubeload do so behind their -pprof flag).
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
// immediately, in-flight requests (usage batches mid-ingest included)
// run to completion or until ctx expires, and a clustered node drains
// its acked wire batches into the engine before returning. A server
// never started still drains its cluster plane.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if cerr := s.closeCluster(ctx); err == nil {
		err = cerr
	}
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

func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	var rep UsageReport
	if err := decodeJSONBody(w, r, maxUsageBody, &rep); err != nil {
		s.httpBodyError(w, err, "usage", "malformed usage report")
		return
	}
	if err := s.opt.Measurement().Record(rep.User, rep.Class, rep.VolumeMB); err != nil {
		s.usageError(w, err, []UsageReport{rep})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUsageBatch(w http.ResponseWriter, r *http.Request) {
	var reps []UsageReport
	if err := decodeJSONBody(w, r, maxBatchBody, &reps); err != nil {
		s.httpBodyError(w, err, "usage_batch", "malformed usage batch")
		return
	}
	if err := s.opt.Measurement().RecordBatch(reps); err != nil {
		// All-or-nothing: on error nothing was accounted, so the client
		// can safely retry the whole batch after fixing it.
		s.usageError(w, err, reps)
		return
	}
	writeJSON(w, http.StatusOK, BatchAck{Accepted: len(reps)})
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

// usageError writes an ingest failure. A clustered node rejecting a
// misrouted user answers 421 with an X-Tube-Owner redirect hint naming
// the node that does own the user.
func (s *Server) usageError(w http.ResponseWriter, err error, reps []UsageReport) {
	if errors.Is(err, ingest.ErrNotOwned) && s.cl != nil {
		ring := s.cl.ring.Load()
		for i := range reps {
			if reps[i].User != "" && !ring.Owns(s.cl.selfID, reps[i].User) {
				w.Header().Set("X-Tube-Owner", ring.Owner(reps[i].User).Addr)
				break
			}
		}
	}
	http.Error(w, err.Error(), usageStatus(err))
}

func usageStatus(err error) int {
	if errors.Is(err, ingest.ErrNotOwned) {
		// The user hashes to another node's range: misdirected request.
		return http.StatusMisdirectedRequest
	}
	if errors.Is(err, ErrBadInput) || errors.Is(err, ingest.ErrBadReport) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
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
