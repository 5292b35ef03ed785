package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units, and README.md maps each per-layer metric to the
// end-to-end metric and workload it should move; the smoke test holds
// BENCHMARK.json and these lists in step.
type metricDef struct{ name, unit, better string }

// endToEnd are what a user of the serving plane sees, measured with
// tracing off on every workload and gated by BENCHMARK.json's bounds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "reports_per_s", unit: "reports/s", better: "higher"},
	{name: "ack_p50_ms", unit: "ms", better: "lower"},
	{name: "price_visible_p50_ms", unit: "ms", better: "lower"},
	{name: "price_visible_p95_ms", unit: "ms", better: "lower"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
}

// perLayer come from a -trace 1 run: the layer metrics from its traced
// pass, and the end-to-end tails too noisy here to gate (README.md) from
// its untraced pass.
var perLayer = []metricDef{
	{"tail.ack_p99_ms", "ms", "lower"},
	{"tail.close_p95_ms", "ms", "lower"},
	{"load.send_lag_p99_ms", "ms", "lower"},
	{"load.clock_lag_p99_ms", "ms", "lower"},
	{"cluster.route_self_us_p50", "us", "lower"},
	{"cluster.route_self_us_p99", "us", "lower"},
	{"cluster.frames_per_send", "count", "lower"},
	{"cluster.rounds_mean", "count", "lower"},
	{"cluster.rerouted_reports", "count", "lower"},
	{"cluster.ring_fetch_ms_p50", "ms", "lower"},
	{"cluster.ring_put_ms_p50", "ms", "lower"},
	{"cluster.join_ms", "ms", "lower"},
	{"http.frame_us_p50", "us", "lower"},
	{"http.frame_us_p99", "us", "lower"},
	{"wire.bytes_per_report", "bytes", "lower"},
	{"wire.records_per_user", "count", "higher"},
	{"http.frame_errors", "count", "lower"},
	{"cluster.shed_reports", "count", "lower"},
	{"cluster.queue_reports_p99", "count", "lower"},
	{"cluster.drain_ms", "ms", "lower"},
	{"ingest.applied_per_s", "reports/s", "higher"},
	{"tube.close_leader_ms_p50", "ms", "lower"},
	{"tube.close_follower_ms_p50", "ms", "lower"},
	{"tube.close_users_mean", "count", "lower"},
	{"tube.day_close_leader_ms_p50", "ms", "lower"},
	{"tube.day_close_follower_ms_p50", "ms", "lower"},
	{"estimate.refines_warm", "count", "higher"},
	{"estimate.refines_cold", "count", "lower"},
	{"estimate.refines_reused", "count", "higher"},
	{"core.period_solves_warm", "count", "higher"},
	{"core.period_solves_cold", "count", "lower"},
	{"core.period_evals_saved", "count", "higher"},
	{"replicate.visible_ms_p50.depth1", "ms", "lower"},
	{"replicate.visible_ms_p50.depth2", "ms", "lower"},
	{"replicate.pull_failures", "count", "lower"},
	{"tube.gui_pull_ms_p50", "ms", "lower"},
	{"tube.leader_pull_ms_p99", "ms", "lower"},
	{"process.cpu_us_per_report", "us", "lower"},
	{"process.alloc_mb_per_s", "MB/s", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// value is one measured metric with its sample count (1 for a count or
// a rate over the window).
type value struct {
	v float64
	n int
}
