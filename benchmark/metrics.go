package main

// metric is one declared metric: the shape BENCHMARK.json lists.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system sees, reported by the
// timed run of every workload. Bound is the share of the parent's
// median by which a later change may worsen the metric.
var endToEnd = []metric{
	{"mpps", "Mpkt/s", higher, 0.25},
	{"pkt_ns_p50", "ns", lower, 0.25},
	{"heap_mb", "MB", lower, 0.20},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the traced run's metrics, named after the module they
// time or count. They carry no bound. README.md says which end-to-end
// metric, on which workload, each is expected to move.
var perLayer = []metric{
	{Name: "bench.pkt_ns_p50", Unit: "ns", Better: lower},
	{Name: "bench.call_ns_p99", Unit: "ns", Better: lower},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: lower},

	{Name: "packet.parse_ns", Unit: "ns", Better: lower},
	{Name: "packet.setframe_ns", Unit: "ns", Better: lower},

	{Name: "flow.hash_ns", Unit: "ns", Better: lower},
	{Name: "flow.acquire_ns", Unit: "ns", Better: lower},
	{Name: "flow.insert_remove_ns", Unit: "ns", Better: lower},
	{Name: "flow.resident", Unit: "count", Better: lower},

	{Name: "classifier.classify_data_ns", Unit: "ns", Better: lower},
	{Name: "classifier.classify_handshake_ns", Unit: "ns", Better: lower},

	{Name: "mat.lookup_live_ns", Unit: "ns", Better: lower},
	{Name: "mat.exec_header_ns", Unit: "ns", Better: lower},
	{Name: "mat.apply_header_ns", Unit: "ns", Better: lower},
	{Name: "mat.install_ns", Unit: "ns", Better: lower},
	{Name: "mat.remove_ns", Unit: "ns", Better: lower},
	{Name: "mat.rules", Unit: "count", Better: lower},
	{Name: "mat.publishes_per_setup", Unit: "count", Better: lower},

	{Name: "event.probe_ns", Unit: "ns", Better: lower},
	{Name: "event.fired_per_kpkt", Unit: "count", Better: lower},

	{Name: "sfunc.execute_ns", Unit: "ns", Better: lower},
	{Name: "sfunc.sequential_ns", Unit: "ns", Better: lower},
	{Name: "sfunc.parallel_stages", Unit: "count", Better: lower},

	{Name: "core.engine_batch_ns", Unit: "ns", Better: lower},
	{Name: "core.engine_scalar_ns", Unit: "ns", Better: lower},
	{Name: "core.unattributed_ns", Unit: "ns", Better: lower},
	{Name: "core.fastpath_share", Unit: "ratio", Better: higher},
	{Name: "core.slowpath_fallbacks", Unit: "count", Better: lower},
	{Name: "core.consolidations_per_kpkt", Unit: "count", Better: lower},
	{Name: "core.flow_cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "core.flow_setup_us", Unit: "us", Better: lower},
	{Name: "core.baseline_pkt_ns", Unit: "ns", Better: lower},
	{Name: "core.speedup_vs_chain", Unit: "ratio", Better: higher},

	{Name: "cost.model_cycles_per_pkt", Unit: "cycles", Better: lower},

	{Name: "bess.process_batch_ns", Unit: "ns", Better: lower},
	{Name: "bess.overhead_ns", Unit: "ns", Better: lower},

	{Name: "platform.run_batch_ns", Unit: "ns", Better: lower},
	{Name: "platform.mq_run_ns_w1", Unit: "ns", Better: lower},
	{Name: "platform.mq_run_ns_w2", Unit: "ns", Better: lower},
	{Name: "platform.mq_scalar_run_ns", Unit: "ns", Better: lower},
	{Name: "platform.mq_speedup_w2", Unit: "ratio", Better: higher},
	{Name: "platform.queue_skew", Unit: "ratio", Better: lower},
	{Name: "platform.queue_skew_unparsed", Unit: "ratio", Better: lower},
	{Name: "platform.run_allocs_per_pkt", Unit: "count", Better: lower},
	{Name: "platform.run_bytes_per_pkt", Unit: "B", Better: lower},

	{Name: "cluster.process_ns", Unit: "ns", Better: lower},
	{Name: "cluster.run_batch_ns", Unit: "ns", Better: lower},
	{Name: "cluster.run_len_mean", Unit: "count", Better: higher},
	{Name: "cluster.steer_tax_ns", Unit: "ns", Better: lower},
	{Name: "cluster.instance_skew", Unit: "ratio", Better: lower},

	{Name: "topo.route_ns", Unit: "ns", Better: lower},
	{Name: "topo.run_batch_ns", Unit: "ns", Better: lower},
	{Name: "topo.tax_ns", Unit: "ns", Better: lower},

	{Name: "wal.append_ns", Unit: "ns", Better: lower},
	{Name: "wal.records_per_setup", Unit: "count", Better: lower},
	{Name: "wal.bytes_per_setup", Unit: "B", Better: lower},
	{Name: "wal.syncs_per_kpkt", Unit: "count", Better: lower},
	{Name: "wal.log_mb", Unit: "MB", Better: lower},

	{Name: "trace.clone_ns", Unit: "ns", Better: lower},

	{Name: "server.window_ms", Unit: "ms", Better: lower},
	{Name: "server.pump_overhead_ms", Unit: "ms", Better: lower},
	{Name: "server.fastpath_share", Unit: "ratio", Better: higher},
	{Name: "server.worker_skew", Unit: "ratio", Better: lower},
	{Name: "server.status_ms", Unit: "ms", Better: lower},
	{Name: "server.wal_mb_per_s", Unit: "MB/s", Better: lower},

	{Name: "telemetry.hub_overhead_ns", Unit: "ns", Better: lower},

	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "runtime.heap_growth_mb", Unit: "MB", Better: lower},
	{Name: "runtime.allocs_per_pkt", Unit: "count", Better: lower},
}
