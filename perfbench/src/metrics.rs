//! Every metric the benchmark reports with its unit, as `BENCHMARK.json`
//! lists them (a test checks that the two agree), and for each per-layer
//! metric the end-to-end metric and workload it should move, for which
//! `BENCHMARK.json` has no field.

/// Reported with `--trace 0`, per workload: `(name, unit)`. Failures
/// are the result line's `attempted` and `failed` (`failed_frac` is
/// their ratio, printed beside the metrics).
pub const END_TO_END: [(&str, &str); 5] = [
    ("bursts_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric and workload a change in it should move.
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

/// Reported with `--trace 1`, per workload.
pub const PER_LAYER: [LayerMetric; 28] = [
    layer(
        "core.dispatch.ns_per_burst",
        "ns",
        "bursts_per_s on bulk-x64 (main) and durable-mixed",
    ),
    layer(
        "core.dispatch.chains",
        "chains",
        "bursts_per_s on bulk-x64 and durable-mixed (geometry of the dispatch row)",
    ),
    layer("mem.pack.ns_per_burst", "ns", "bursts_per_s on bulk-x64"),
    layer("mem.gather.ns_per_burst", "ns", "bursts_per_s on bulk-x64"),
    layer(
        "mem.verify.ns_per_burst",
        "ns",
        "bursts_per_s and latency_p50_us on durable-mixed",
    ),
    layer(
        "engine.savings.ns_per_burst",
        "ns",
        "bursts_per_s on bulk-x64 and durable-mixed",
    ),
    layer(
        "persist.journal.ns_per_pass",
        "ns",
        "latency_p50_us on durable-mixed",
    ),
    layer(
        "persist.journal.bytes_per_pass",
        "B",
        "latency_p50_us on durable-mixed",
    ),
    layer(
        "wire.request_encode.ns_per_frame",
        "ns",
        "latency_p50_us on pipelined-small",
    ),
    layer(
        "wire.request_decode.ns_per_frame",
        "ns",
        "latency_p50_us on pipelined-small",
    ),
    layer(
        "wire.response_encode.ns_per_frame",
        "ns",
        "latency_p50_us on pipelined-small",
    ),
    layer(
        "wire.response_decode.ns_per_frame",
        "ns",
        "latency_p50_us on pipelined-small",
    ),
    layer(
        "client.submit.ns_per_request",
        "ns",
        "latency_p50_us on pipelined-small",
    ),
    layer(
        "engine.queue_wait.p50_us",
        "us",
        "latency_p50_us and latency_p99_us on pipelined-small",
    ),
    layer(
        "engine.queue_wait.mean_us",
        "us",
        "latency_p50_us and latency_p99_us on pipelined-small",
    ),
    layer(
        "engine.queue_depth_peak",
        "count",
        "latency_p50_us and latency_p99_us on pipelined-small",
    ),
    layer(
        "engine.encode_stage.mean_us",
        "us",
        "latency_p50_us on all workloads",
    ),
    layer(
        "engine.verify_stage.mean_us",
        "us",
        "latency_p50_us on all workloads (durable-mixed verifies)",
    ),
    layer(
        "engine.service_total.mean_us",
        "us",
        "latency_p50_us on all workloads",
    ),
    layer(
        "engine.jobs_per_pass",
        "count",
        "bursts_per_s on bulk-x64 and durable-mixed",
    ),
    layer(
        "engine.dispatch.lane_occupancy",
        "chains",
        "bursts_per_s on bulk-x64 and durable-mixed",
    ),
    layer(
        "engine.dispatch.full_fraction",
        "fraction",
        "bursts_per_s on bulk-x64 and durable-mixed",
    ),
    layer("engine.rejected", "count", "failed_frac and setup_s"),
    layer(
        "engine.plan_cache.misses",
        "count",
        "failed_frac and setup_s",
    ),
    layer(
        "conn.read_hwm_bytes",
        "B",
        "latency_p99_us and failed_frac on pipelined-small",
    ),
    layer(
        "conn.write_hwm_bytes",
        "B",
        "latency_p99_us and failed_frac on pipelined-small",
    ),
    layer(
        "conn.dropped_slow",
        "count",
        "latency_p99_us and failed_frac on pipelined-small",
    ),
    layer(
        "telemetry.unattributed_us",
        "us",
        "latency_p50_us on every workload (client mean latency no attributed layer explains)",
    ),
];

/// The unit of a reported metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|metric| (metric.name, metric.unit)))
        .find(|(metric, _)| *metric == name)
        .map_or_else(
            || panic!("metric {name} is not in the table"),
            |(_, unit)| unit,
        )
}
