package main

// The metric tables. BENCHMARK.json at the repository root repeats them
// for the driver; TestBenchmarkJSONMatchesTables keeps the two in step.

// metricDef names one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are measured on every workload with tracing off. The bounds
// are what this two-core sandbox can resolve: 0.15 where the widest
// interquartile spread seen over ten seeds on any workload stayed under
// 0.06, otherwise 0.20 or the largest bound allowed, 0.25 (README.md,
// "Measured spreads").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "visible_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ingest_upd_per_s", Unit: "upd/s", Better: "higher", Bound: 0.15},
	{Name: "cpu_s_per_kupd", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "read_goodput_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "scan_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// demoted are end-to-end figures measured like the ones above but too
// unsteady between runs to carry a bound; the traced run reports them as
// per-layer metrics under the e2e. prefix (see README.md for the spreads).
var demoted = []string{"visible_p99_ms", "read_p99_ms", "scan_p99_ms"}

// perLayer are printed by the traced run (-trace 1). The e2e., replica.,
// proc. and most warehouse. metrics come from the traced multi-process
// run; every other prefix names the probe binary under layers/ that
// measures it in process (trace. is layers/pipeline).
var perLayer = []metricDef{
	{Name: "e2e.visible_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.scan_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.fail_share", Unit: "ratio", Better: "lower"},

	{Name: "store.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "store.commit_allocs", Unit: "count", Better: "lower"},
	{Name: "store.commit_bytes", Unit: "B", Better: "lower"},
	{Name: "store.get_ns", Unit: "ns", Better: "lower"},
	{Name: "store.snapshot_get_ns", Unit: "ns", Better: "lower"},
	{Name: "store.retained_mb", Unit: "MB", Better: "lower"},

	{Name: "pathexpr.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "pathexpr.eval_const_us", Unit: "us", Better: "lower"},
	{Name: "pathexpr.eval_wild_us", Unit: "us", Better: "lower"},

	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "query.visited_per_result", Unit: "count", Better: "lower"},

	{Name: "core.apply_ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply_relevant_ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply_screened_ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply_allocs", Unit: "count", Better: "lower"},
	{Name: "core.helper_calls_per_upd", Unit: "count", Better: "lower"},
	{Name: "core.delta_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.recompute_ms", Unit: "ms", Better: "lower"},

	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_nosync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_upd", Unit: "B", Better: "lower"},
	{Name: "wal.replay_us_per_upd", Unit: "us", Better: "lower"},
	{Name: "wal.recover_us_per_upd", Unit: "us", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},

	{Name: "feed.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "feed.publish_sub1_ns", Unit: "ns", Better: "lower"},
	{Name: "feed.publish_sub4_ns", Unit: "ns", Better: "lower"},
	{Name: "feed.replay_us", Unit: "us", Better: "lower"},
	{Name: "feed.drops", Unit: "count", Better: "lower"},

	{Name: "warehouse.rt_object_us", Unit: "us", Better: "lower"},
	{Name: "warehouse.rt_members_us", Unit: "us", Better: "lower"},
	{Name: "warehouse.rt_query_ms", Unit: "ms", Better: "lower"},
	{Name: "warehouse.rt_stats_us", Unit: "us", Better: "lower"},
	{Name: "warehouse.members_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "warehouse.event_bytes", Unit: "B", Better: "lower"},
	{Name: "warehouse.feed_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "warehouse.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "warehouse.process_report_us", Unit: "us", Better: "lower"},

	{Name: "replica.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.hop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "replica.lag_seq_max", Unit: "count", Better: "lower"},

	{Name: "proc.primary_cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.replica_cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.primary_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.replica_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.driver_upd_per_s", Unit: "upd/s", Better: "higher"},

	{Name: "trace.total_us", Unit: "us", Better: "lower"},
	{Name: "trace.store_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.wal_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.warehouse_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.core_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.feed_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.codec_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.socket_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.pipeline_self_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// probeLayers lists the in-process probe binaries, in run order.
var probeLayers = []string{"store", "pathexpr", "query", "core", "wal", "feed", "warehouse", "pipeline"}
