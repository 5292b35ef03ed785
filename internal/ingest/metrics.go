package ingest

import (
	"strconv"

	"tdp/internal/obs"
)

// engineMetrics is the optional obs hookup. It hangs off the engine
// behind an atomic pointer so an uninstrumented engine pays one
// predictable nil check per record — no registry lookups, no map
// access — on the hot path.
type engineMetrics struct {
	records  *obs.Counter // reports accepted
	batches  *obs.Counter // frames accepted
	rejected *obs.Counter // reports rejected by validation
}

// Instrument registers the engine's counters and per-shard gauges on
// reg and starts recording. Safe to call at most once per engine;
// calling it on a second engine sharing the same registry re-binds the
// per-shard gauge callbacks to the newest engine (obs.GaugeFunc
// semantics), while counters accumulate across both.
func (e *Engine) Instrument(reg *obs.Registry) {
	m := &engineMetrics{
		records:  reg.Counter("ingest_reports_total", "usage reports accepted", nil),
		batches:  reg.Counter("ingest_batches_total", "usage batches accepted", nil),
		rejected: reg.Counter("ingest_reports_rejected_total", "usage reports rejected by validation", nil),
	}
	e.met.Store(m)
	for i := range e.shards {
		s := &e.shards[i]
		lbl := obs.Labels{"shard": strconv.Itoa(i)}
		reg.GaugeFunc("ingest_shard_reports", "reports accepted this period, per shard", lbl,
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(s.cur.n)
			})
		reg.GaugeFunc("ingest_shard_batches", "batch lock acquisitions this period, per shard", lbl,
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(s.cur.b)
			})
		reg.GaugeFunc("ingest_shard_users", "distinct users this period, per shard", lbl,
			func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(len(s.cur.ids))
			})
	}
}

// metrics returns the hookup, or nil when uninstrumented.
func (e *Engine) metrics() *engineMetrics { return e.met.Load() }
