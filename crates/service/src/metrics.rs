//! Service metrics: shard and connection counters, as JSON and Prometheus.
//!
//! Each plain counter is one `counter_table!` row giving its field and
//! rustdoc, kind, merge rule, JSON path, and Prometheus name and help. A
//! row becomes a relaxed `AtomicU64`, bumped by name in a `record_*`
//! method, and a public `u64` snapshot field; snapshot, merge,
//! [`MetricsSnapshot::to_json`] and [`MetricsSnapshot::to_prometheus`]
//! follow the rows in table order. The plan-cache and durability blocks
//! are rows over their own structs. The histograms, rates and derived
//! batch values are written by hand.

use crate::telemetry::{log2_percentile, LatencyHistogram, LatencyStats, RateWindow};
use crate::wire::SnapshotStatus;
use dbi_core::PlanCacheStats;
use std::fmt::{self, Display, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub use crate::telemetry::window::RATE_WINDOW_SECONDS;

/// Number of power-of-two histogram buckets tracking worker-pass sizes:
/// bucket *i* counts passes of `[2^i, 2^(i+1))` bursts, the last bucket
/// absorbing everything beyond.
pub const BATCH_BUCKETS: usize = 17;

/// One counter's Prometheus type, JSON path (`"key"` or `"block.key"`;
/// `None` for Prometheus only), and Prometheus family name and help.
struct Row {
    kind: &'static str,
    json: Option<&'static str>,
    name: &'static str,
    help: &'static str,
}

/// Declares a counter table: an atomic struct and its snapshot struct, one
/// field per row `field: counter|gauge sum|max "json.path"|- "name" "help";`
/// plus hand-written fields, or (second form) rows over an existing struct.
macro_rules! counter_table {
    (@kind counter) => { "counter" };
    (@kind gauge) => { "gauge" };
    (@json -) => { None };
    (@json $path:literal) => { Some($path) };
    (@merge sum, $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@merge max, $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@row $kind:ident $json:tt $name:literal $help:literal) => {
        Row {
            kind: counter_table!(@kind $kind),
            json: counter_table!(@json $json),
            name: $name,
            help: $help,
        }
    };
    (
        $(#[$metrics_meta:meta])*
        pub struct $Metrics:ident { $($metrics_extra:tt)* }
        $(#[$snapshot_meta:meta])*
        pub struct $Snapshot:ident { $($snapshot_extra:tt)* }
        const $ROWS:ident = [$(
            $(#[doc = $doc:literal])*
            $field:ident: $kind:ident $merge:ident $json:tt $name:literal $help:literal;
        )*];
    ) => {
        $(#[$metrics_meta])*
        pub struct $Metrics {
            $($field: AtomicU64,)*
            $($metrics_extra)*
        }

        $(#[$snapshot_meta])*
        pub struct $Snapshot {
            $($(#[doc = $doc])* pub $field: u64,)*
            $($snapshot_extra)*
        }

        const $ROWS: &[Row] = &[$(counter_table!(@row $kind $json $name $help)),*];

        impl $Metrics {
            fn load_rows(&self, into: &mut $Snapshot) {
                $(into.$field = self.$field.load(Relaxed);)*
            }
        }

        impl $Snapshot {
            fn rows(&self) -> [u64; $ROWS.len()] {
                [$(self.$field),*]
            }

            fn merge_rows(&mut self, other: &Self) {
                $(counter_table!(@merge $merge, self.$field, other.$field);)*
            }
        }
    };
    (
        fn $values:ident($Source:ty) -> $ROWS:ident = [$(
            $field:ident: $kind:ident $json:tt $name:literal $help:literal;
        )*];
    ) => {
        const $ROWS: &[Row] = &[$(counter_table!(@row $kind $json $name $help)),*];

        fn $values(source: &$Source) -> [u64; $ROWS.len()] {
            [$(source.$field as u64),*]
        }
    };
}

counter_table! {
    /// Lock-free counters of one shard. All increments use relaxed
    /// ordering: the counters are statistics, not synchronisation.
    #[derive(Debug, Default)]
    pub struct ShardMetrics {
        batch_hist: [AtomicU64; BATCH_BUCKETS],
        request_rate: RateWindow,
        reject_rate: RateWindow,
        queue_wait_hist: LatencyHistogram,
        encode_hist: LatencyHistogram,
        verify_hist: LatencyHistogram,
        total_hist: LatencyHistogram,
    }

    /// A point-in-time copy of one shard's counters.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct ShardSnapshot {
        /// Power-of-two histogram of pass sizes in bursts: bucket *i* counts
        /// passes of `[2^i, 2^(i+1))` bursts.
        pub batch_hist: [u64; BATCH_BUCKETS],
        /// Executed requests per second over the sliding
        /// [`RATE_WINDOW_SECONDS`]-second window, as of the snapshot.
        pub requests_per_s: f64,
        /// Rejected requests per second over the same window.
        pub rejects_per_s: f64,
        /// Per-stage latency histograms: queue-wait, encode, verify, total.
        pub latency: StageLatency,
    }

    const SHARD_ROWS = [
        /// Requests executed.
        requests: counter sum "requests" "dbi_requests_total" "Requests executed.";
        /// Requests rejected (bad geometry/payload, backpressure, shutdown).
        rejected: counter sum "rejected" "dbi_rejected_total" "Requests rejected.";
        /// Payload bytes encoded.
        bytes: counter sum "bytes" "dbi_bytes_total" "Payload bytes encoded.";
        /// Per-group bursts encoded.
        bursts: counter sum "bursts" "dbi_bursts_total" "Per-group bursts encoded.";
        /// Lane transitions avoided relative to sending the same stream raw.
        transitions_saved: counter sum "transitions_saved" "dbi_transitions_saved_total"
            "Lane transitions avoided versus sending the stream raw.";
        /// Requests currently sitting in the shard queue.
        queue_depth: gauge sum "queue_depth" "dbi_queue_depth" "Requests currently queued.";
        /// The shard queue's depth high-watermark, which a between-passes
        /// scrape would miss; summed across shards, it bounds the total's peak.
        queue_depth_peak: gauge sum "queue_depth_peak" "dbi_queue_depth_peak"
            "Queue-depth high-watermark since startup.";
        /// Worker passes executed, each serving one or more coalesced requests.
        passes: counter sum "batch.passes" "dbi_batch_passes_total" "Worker passes executed.";
        /// Requests coalesced into another request's pass, not opening their own.
        coalesced: counter sum "batch.coalesced" "dbi_batch_coalesced_total"
            "Requests coalesced into another request's pass.";
        /// Packed kernel dispatches: one `encode_lanes_into` sweep per round.
        dispatches: counter sum "batch.dispatches" "dbi_batch_dispatches_total"
            "Packed kernel dispatches executed.";
        /// Passes a blocking `LocalClient` ran on its own thread, having found
        /// the shard idle (caller-runs); `passes` counts these too.
        inline_passes: counter sum "batch.inline_passes" "dbi_batch_inline_passes_total"
            "Worker passes run on a submitting client's thread.";
        /// Lane-group chains across all dispatches (per dispatch: lane occupancy).
        dispatch_chains: counter sum - "dbi_batch_dispatch_chains_total"
            "Lane-group chains encoded across all packed dispatches.";
        /// Dispatches that filled the selected kernel's lane width.
        full_dispatches: counter sum - "dbi_batch_full_dispatches_total"
            "Dispatches that filled the selected kernel's lane width.";
        /// Verify-mode requests whose output was decoded and compared.
        verified: counter sum "verify.requests" "dbi_verify_requests_total"
            "Verify-mode requests round-tripped.";
        /// Verify round trips that exposed an encode/decode asymmetry (`VerifyMismatch`).
        verify_failures: counter sum "verify.failures" "dbi_verify_failures_total"
            "Verify round trips that exposed an encode/decode asymmetry.";
        /// Encode sessions created on the shard, restored ones included; as
        /// eviction does not decrement it, `sessions - sessions_evicted` remain.
        sessions: counter sum "sessions" "dbi_sessions_total" "Encode sessions created.";
        /// Idle sessions evicted for fresh session ids on a full shard.
        sessions_evicted: counter sum "sessions_evicted" "dbi_sessions_evicted_total"
            "Idle sessions evicted to admit fresh session ids on a full shard.";
        /// Evictions whose victim no journal record captured (state lost).
        sessions_evicted_uncaptured: counter sum "sessions_evicted_uncaptured"
            "dbi_sessions_evicted_uncaptured_total"
            "Evicted sessions whose carried state no journal record held.";
        /// Session records the shard's worker has appended to its journal.
        journal_records: counter sum "journal.records" "dbi_journal_records_total"
            "Session records appended to the shard's journal.";
        /// Bytes the shard's worker has flushed to its journal.
        journal_bytes: counter sum "journal.bytes" "dbi_journal_bytes_total"
            "Bytes flushed to the shard's journal.";
        /// Journal create, flush or compaction failures; each degrades only durability.
        journal_errors: counter sum "journal.errors" "dbi_journal_errors_total"
            "Journal create, flush or compaction failures (durability degraded).";
    ];
}

counter_table! {
    /// Lock-free counters of the connection plane, one set per server (the
    /// I/O threads own connections); relaxed atomics like [`ShardMetrics`].
    #[derive(Debug, Default)]
    pub struct ConnectionMetrics {}

    /// A point-in-time copy of the connection-plane counters. All zeros for
    /// an engine that is not fronted by a TCP server.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ConnectionsSnapshot {}

    const CONNECTION_ROWS = [
        /// Connections currently multiplexed by the I/O threads.
        active: gauge sum "active" "dbi_connections_active"
            "Connections currently multiplexed by the I/O threads.";
        /// Connections accepted since startup.
        accepted: counter sum "accepted" "dbi_connections_accepted_total" "Connections accepted.";
        /// Connections closed since startup, for any reason.
        closed: counter sum "closed" "dbi_connections_closed_total"
            "Connections closed, for any reason.";
        /// Connections dropped for crossing the slow-consumer write high-watermark.
        dropped_slow: counter sum "dropped_slow" "dbi_connections_dropped_slow_total"
            "Connections dropped for crossing the slow-consumer write high-watermark.";
        /// Largest read buffer any connection has grown, in bytes (merge: max).
        read_buf_high_watermark: gauge max "read_buf_high_watermark"
            "dbi_connection_read_buf_high_watermark_bytes"
            "Largest read buffer any connection has grown.";
        /// Largest write buffer any connection has grown, in bytes (merge: max).
        write_buf_high_watermark: gauge max "write_buf_high_watermark"
            "dbi_connection_write_buf_high_watermark_bytes"
            "Largest write buffer any connection has grown.";
        /// Socket read calls that moved bytes, across all connections.
        socket_reads: counter sum "socket_reads" "dbi_connection_socket_reads_total"
            "Socket read calls that moved bytes.";
        /// Socket write calls that moved bytes, across all connections.
        socket_writes: counter sum "socket_writes" "dbi_connection_socket_writes_total"
            "Socket write calls that moved bytes.";
    ];
}

counter_table! {
    fn plan_cache_rows(PlanCacheStats) -> PLAN_CACHE_ROWS = [
        hits: counter "hits" "dbi_plan_cache_hits_total" "Plan-cache hits.";
        misses: counter "misses" "dbi_plan_cache_misses_total" "Plan-cache misses.";
        evictions: counter "evictions" "dbi_plan_cache_evictions_total" "Plan-cache evictions.";
        entries: gauge "entries" "dbi_plan_cache_entries" "Plans resident in the cache.";
    ];
}

// `configured` is 0 or 1 here; the JSON writes it by hand, as a boolean.
counter_table! {
    fn durability_rows(SnapshotStatus) -> DURABILITY_ROWS = [
        configured: gauge - "dbi_durability_configured"
            "Whether a persist directory is configured (1) or not (0).";
        compactions: counter "compactions" "dbi_journal_compactions_total"
            "Journal compactions since startup (automatic, and one per shard per snapshot).";
        snapshots_taken: counter "snapshots_taken" "dbi_snapshots_taken_total"
            "Snapshots (every shard journal compacted and synced) taken since startup.";
        last_sessions: gauge "last_sessions" "dbi_snapshot_last_sessions"
            "Session records the journals held after the most recent snapshot.";
        last_bytes: gauge "last_bytes" "dbi_snapshot_last_bytes"
            "Bytes the journals held after the most recent snapshot.";
        restored_sessions: counter "restored_sessions" "dbi_sessions_restored_total"
            "Sessions restored from disk (at startup or via the restore admin frame).";
    ];
}

/// Writes `"key":value`, comma-separated, for each row whose JSON path lies
/// in `block` (`""` for the top level).
fn write_json_block(out: &mut String, rows: &[Row], values: &[u64], block: &str) -> fmt::Result {
    let mut comma = "";
    for (row, value) in rows.iter().zip(values) {
        let Some(path) = row.json else { continue };
        let (parent, key) = path.split_once('.').unwrap_or(("", path));
        if parent == block {
            write!(out, "{comma}\"{key}\":{value}")?;
            comma = ",";
        }
    }
    Ok(())
}

/// Writes a Prometheus family's `# HELP` and `# TYPE` lines.
fn write_family_header(out: &mut String, name: &str, kind: &str, help: &str) -> fmt::Result {
    writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}")
}

/// Writes each row as one unlabelled Prometheus family.
fn write_row_families(out: &mut String, rows: &[Row], values: &[u64]) -> fmt::Result {
    for (row, value) in rows.iter().zip(values) {
        write_family_header(out, row.name, row.kind, row.help)?;
        writeln!(out, "{} {value}", row.name)?;
    }
    Ok(())
}

/// `numerator / denominator`, or 0 when the denominator is 0.
fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The histogram bucket a pass of `bursts` bursts lands in.
fn batch_bucket(bursts: u64) -> usize {
    (bursts.max(1).ilog2() as usize).min(BATCH_BUCKETS - 1)
}

impl ShardMetrics {
    /// Records one successfully executed request.
    pub fn record_request(&self, payload_bytes: u64, bursts: u64, transitions_saved: u64) {
        self.requests.fetch_add(1, Relaxed);
        self.bytes.fetch_add(payload_bytes, Relaxed);
        self.bursts.fetch_add(bursts, Relaxed);
        self.transitions_saved.fetch_add(transitions_saved, Relaxed);
        self.request_rate.record();
    }

    /// Records one worker-handled request's stage latencies. A stage the
    /// request never reached (`None`: rejects never encode, only verify-mode
    /// requests verify) is not recorded, so zeros never dilute it.
    pub fn record_stage_sample(
        &self,
        queue_wait_ns: u64,
        encode_ns: Option<u64>,
        verify_ns: Option<u64>,
        total_ns: u64,
    ) {
        self.queue_wait_hist.record(queue_wait_ns);
        if let Some(nanos) = encode_ns {
            self.encode_hist.record(nanos);
        }
        if let Some(nanos) = verify_ns {
            self.verify_hist.record(nanos);
        }
        self.total_hist.record(total_ns);
    }

    /// Records one worker pass of `bursts` total bursts, `coalesced` of
    /// whose requests were drained from the queue behind the pass opener;
    /// `inline` marks a pass a submitting client ran on its own thread.
    pub fn record_pass(&self, bursts: u64, coalesced: u64, inline: bool) {
        self.passes.fetch_add(1, Relaxed);
        if inline {
            self.inline_passes.fetch_add(1, Relaxed);
        }
        self.coalesced.fetch_add(coalesced, Relaxed);
        self.batch_hist[batch_bucket(bursts)].fetch_add(1, Relaxed);
    }

    /// Records one packed kernel dispatch of `chains` lane-group chains;
    /// `full` marks one that filled the selected kernel's lane width.
    pub fn record_dispatch(&self, chains: u64, full: bool) {
        self.dispatches.fetch_add(1, Relaxed);
        self.dispatch_chains.fetch_add(chains, Relaxed);
        if full {
            self.full_dispatches.fetch_add(1, Relaxed);
        }
    }

    /// Records one rejected request (validation failure or backpressure).
    pub fn record_reject(&self) {
        self.rejected.fetch_add(1, Relaxed);
        self.reject_rate.record();
    }

    /// Records one verify-mode round trip; `ok` is `false` when decoding
    /// the output exposed an encode/decode asymmetry (`VerifyMismatch`).
    pub fn record_verify(&self, ok: bool) {
        self.verified.fetch_add(1, Relaxed);
        if !ok {
            self.verify_failures.fetch_add(1, Relaxed);
        }
    }

    /// Records a request entering the shard queue and raises the depth
    /// high-watermark, which a scrape between passes would otherwise miss.
    pub fn enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Relaxed);
    }

    /// Records a request leaving the shard queue.
    pub fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Relaxed);
    }

    /// Records a newly created or restored encode session.
    pub fn session_created(&self) {
        self.sessions.fetch_add(1, Relaxed);
    }

    /// Records an idle session evicted for a fresh id on a full shard;
    /// `captured` tells whether a journal record holds its state.
    pub fn session_evicted(&self, captured: bool) {
        self.sessions_evicted.fetch_add(1, Relaxed);
        if !captured {
            self.sessions_evicted_uncaptured.fetch_add(1, Relaxed);
        }
    }

    /// Records one journal flush of `records` records totalling `bytes` bytes.
    pub fn record_journal(&self, records: u64, bytes: u64) {
        self.journal_records.fetch_add(records, Relaxed);
        self.journal_bytes.fetch_add(bytes, Relaxed);
    }

    /// Records one journal I/O failure: a failed create (journaling stays
    /// off for the shard), flush or compaction.
    pub fn journal_error(&self) {
        self.journal_errors.fetch_add(1, Relaxed);
    }

    /// Reads the counters into an owned snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ShardSnapshot {
        let mut counters = ShardSnapshot::default();
        self.load_rows(&mut counters);
        ShardSnapshot {
            batch_hist: self.batch_hist.each_ref().map(|b| b.load(Relaxed)),
            requests_per_s: self.request_rate.rate_per_second(),
            rejects_per_s: self.reject_rate.rate_per_second(),
            latency: StageLatency {
                queue_wait: self.queue_wait_hist.snapshot(),
                encode: self.encode_hist.snapshot(),
                verify: self.verify_hist.snapshot(),
                total: self.total_hist.snapshot(),
            },
            ..counters
        }
    }
}

impl ConnectionMetrics {
    /// Records an accepted connection entering the event loop.
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Relaxed);
        self.active.fetch_add(1, Relaxed);
    }

    /// Records a connection leaving the event loop, however it ended
    /// (peer hang-up, protocol violation, slow-consumer drop, shutdown).
    pub fn on_close(&self) {
        self.closed.fetch_add(1, Relaxed);
        self.active.fetch_sub(1, Relaxed);
    }

    /// Records a connection dropped for crossing the write-buffer
    /// high-watermark; it also counts as a close ([`Self::on_close`]).
    pub fn on_dropped_slow(&self) {
        self.dropped_slow.fetch_add(1, Relaxed);
    }

    /// Folds one connection's read-buffer peak into the high-watermark.
    pub fn record_read_buf(&self, bytes: u64) {
        self.read_buf_high_watermark.fetch_max(bytes, Relaxed);
    }

    /// Folds one connection's write-buffer peak into the high-watermark.
    pub fn record_write_buf(&self, bytes: u64) {
        self.write_buf_high_watermark.fetch_max(bytes, Relaxed);
    }

    /// Records one socket read call that moved bytes.
    pub fn on_socket_read(&self) {
        self.socket_reads.fetch_add(1, Relaxed);
    }

    /// Records one socket write call that moved bytes.
    pub fn on_socket_write(&self) {
        self.socket_writes.fetch_add(1, Relaxed);
    }

    /// Reads the counters into an owned snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ConnectionsSnapshot {
        let mut snapshot = ConnectionsSnapshot::default();
        self.load_rows(&mut snapshot);
        snapshot
    }
}

/// Where one shard's requests spend their time: four stage latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageLatency {
    /// Time between enqueue and a worker picking the request up.
    pub queue_wait: LatencyStats,
    /// Time in the encode kernel (executed requests only).
    pub encode: LatencyStats,
    /// Time in the verify round trip (verify-mode requests only).
    pub verify: LatencyStats,
    /// Enqueue to completion signal, for every worker-handled request.
    pub total: LatencyStats,
}

impl StageLatency {
    fn add(&mut self, other: &StageLatency) {
        self.queue_wait.add(&other.queue_wait);
        self.encode.add(&other.encode);
        self.verify.add(&other.verify);
        self.total.add(&other.total);
    }

    /// The stages as `(name, stats)` pairs, in reporting order.
    #[must_use]
    pub fn stages(&self) -> [(&'static str, &LatencyStats); 4] {
        [
            ("queue_wait", &self.queue_wait),
            ("encode", &self.encode),
            ("verify", &self.verify),
            ("total", &self.total),
        ]
    }
}

impl ShardSnapshot {
    fn add(&mut self, other: &ShardSnapshot) {
        self.merge_rows(other);
        for (mine, theirs) in self.batch_hist.iter_mut().zip(&other.batch_hist) {
            *mine += theirs;
        }
        self.requests_per_s += other.requests_per_s;
        self.rejects_per_s += other.rejects_per_s;
        self.latency.add(&other.latency);
    }

    /// The interpolated pass-size percentile in bursts (see
    /// [`log2_percentile`]); 0 before the first pass.
    #[must_use]
    pub fn batch_size_percentile(&self, percentile: f64) -> u64 {
        log2_percentile(&self.batch_hist, percentile)
    }

    /// Mean bursts per executed request (0 when no request has run).
    #[must_use]
    pub fn bursts_per_request(&self) -> f64 {
        ratio(self.bursts, self.requests)
    }

    /// Mean lane-group chains per packed kernel dispatch (0 before the
    /// first): how full cross-session packing keeps the kernel sweeps.
    #[must_use]
    pub fn lane_occupancy(&self) -> f64 {
        ratio(self.dispatch_chains, self.dispatches)
    }

    /// Fraction of dispatches that filled the kernel's lane width (or 0).
    #[must_use]
    pub fn full_dispatch_fraction(&self) -> f64 {
        ratio(self.full_dispatches, self.dispatches)
    }

    /// Writes the top-level rows, then the `journal`, `rate`, `batch`,
    /// `verify` and `latency` blocks.
    fn write_json(&self, out: &mut String) -> fmt::Result {
        let values = self.rows();
        out.push('{');
        write_json_block(out, SHARD_ROWS, &values, "")?;
        out.push_str(",\"journal\":{");
        write_json_block(out, SHARD_ROWS, &values, "journal")?;
        write!(
            out,
            "}},\"rate\":{{\"requests_per_s\":{:.1},\"rejects_per_s\":{:.1},\
             \"window_s\":{RATE_WINDOW_SECONDS}}},\"batch\":{{",
            self.requests_per_s, self.rejects_per_s,
        )?;
        write_json_block(out, SHARD_ROWS, &values, "batch")?;
        write!(
            out,
            ",\"lane_occupancy\":{:.1},\"full_dispatch_fraction\":{:.2},\
             \"size_p50\":{},\"size_p99\":{},\"bursts_per_request\":{:.1}}},\"verify\":{{",
            self.lane_occupancy(),
            self.full_dispatch_fraction(),
            self.batch_size_percentile(0.50),
            self.batch_size_percentile(0.99),
            self.bursts_per_request(),
        )?;
        write_json_block(out, SHARD_ROWS, &values, "verify")?;
        out.push_str("},\"latency\":{");
        for (index, (name, stats)) in self.latency.stages().into_iter().enumerate() {
            let comma = if index > 0 { "," } else { "" };
            write!(
                out,
                "{comma}\"{name}\":{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\
                 \"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
                stats.count,
                stats.mean_ns(),
                stats.percentile_ns(0.50),
                stats.percentile_ns(0.90),
                stats.percentile_ns(0.99),
                stats.percentile_ns(0.999),
            )?;
        }
        out.push_str("}}");
        Ok(())
    }
}

/// The counters of every shard of one engine.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<ShardMetrics>,
}

impl MetricsRegistry {
    /// Creates a registry with `shards` zeroed counter sets.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        MetricsRegistry {
            shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
        }
    }

    /// The counters of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn shard(&self, shard: usize) -> &ShardMetrics {
        &self.shards[shard]
    }

    /// Number of shards in the registry.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Copies every shard's counters into an owned snapshot; the engine
    /// stamps in the live [`PlanCacheStats`] over the zeroed block.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            per_shard: self.shards.iter().map(ShardMetrics::snapshot).collect(),
            plan_cache: PlanCacheStats::default(),
            connections: ConnectionsSnapshot::default(),
            durability: SnapshotStatus::default(),
            kernel: dbi_core::simd::selected_kernel().name(),
            forced_scalar: dbi_core::simd::forced_scalar(),
            cpu_features: dbi_core::simd::cpu_features(),
        }
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<ShardSnapshot>,
    /// Counters of the engine's shared plan cache.
    pub plan_cache: PlanCacheStats,
    /// Counters of the connection plane fronting the engine, stamped in by
    /// the TCP server; all zeros when none is attached.
    pub connections: ConnectionsSnapshot,
    /// State of the durable session plane, mirroring the [`SnapshotStatus`]
    /// admin response and stamped in by the engine; all zeros with
    /// `configured: false` without a persist directory.
    pub durability: SnapshotStatus,
    /// The slab kernel tier the workers dispatch to
    /// ([`dbi_core::simd::selected_kernel`]); `"scalar"` when forced.
    pub kernel: &'static str,
    /// Whether `DBI_FORCE_SCALAR` pinned dispatch to the scalar tier.
    pub forced_scalar: bool,
    /// The CPU features detected at startup, comma-joined.
    pub cpu_features: &'static str,
}

impl MetricsSnapshot {
    /// The counters summed across all shards.
    #[must_use]
    pub fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for shard in &self.per_shard {
            total.add(shard);
        }
        total
    }

    /// Folds another snapshot into this one: shard *i* of `other` onto
    /// shard *i* of `self` (extra shards appended), the plan-cache and
    /// connection counters summed, each connection buffer high-watermark
    /// kept at the larger side. For aggregating scrapes of several engines
    /// or restarts; the kernel and durability blocks keep `self`'s values.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.per_shard.len() < other.per_shard.len() {
            self.per_shard
                .resize(other.per_shard.len(), ShardSnapshot::default());
        }
        for (mine, theirs) in self.per_shard.iter_mut().zip(&other.per_shard) {
            mine.add(theirs);
        }
        self.plan_cache.hits += other.plan_cache.hits;
        self.plan_cache.misses += other.plan_cache.misses;
        self.plan_cache.evictions += other.plan_cache.evictions;
        self.plan_cache.entries += other.plan_cache.entries;
        self.connections.merge_rows(&other.connections);
    }

    /// Serialises the snapshot as a single-line JSON object:
    /// `{"shards":[{...},...],"totals":{...},"plan_cache":{...},"connections":{...},"durability":{...},"kernel":{...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 * (self.per_shard.len() + 2));
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_json(&self, out: &mut String) -> fmt::Result {
        out.push_str("{\"shards\":[");
        for (index, shard) in self.per_shard.iter().enumerate() {
            out.push_str(if index > 0 { "," } else { "" });
            shard.write_json(out)?;
        }
        out.push_str("],\"totals\":");
        self.totals().write_json(out)?;
        let (plan_cache, durability) = (&self.plan_cache, &self.durability);
        out.push_str(",\"plan_cache\":{");
        write_json_block(out, PLAN_CACHE_ROWS, &plan_cache_rows(plan_cache), "")?;
        out.push_str("},\"connections\":{");
        write_json_block(out, CONNECTION_ROWS, &self.connections.rows(), "")?;
        let configured = durability.configured;
        write!(out, "}},\"durability\":{{\"configured\":{configured},")?;
        write_json_block(out, DURABILITY_ROWS, &durability_rows(durability), "")?;
        write!(
            out,
            "}},\"kernel\":{{\"selected\":\"{}\",\"forced_scalar\":{},\"cpu_features\":\"{}\"}}}}",
            self.kernel, self.forced_scalar, self.cpu_features
        )
    }

    /// Renders the snapshot in Prometheus text exposition format: a
    /// `{shard="i"}`-labelled family per shard counter (scrapers sum shards
    /// themselves), a `dbi_stage_latency_nanoseconds` summary, the
    /// plan-cache, connection and durability families, and a
    /// `dbi_kernel_info` gauge labelled with the dispatch tier and CPU
    /// features.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024 + 2048 * self.per_shard.len());
        self.write_prometheus(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_prometheus(&self, out: &mut String) -> fmt::Result {
        // Shard counters, then shard gauges, each in table order.
        for kind in ["counter", "gauge"] {
            for (index, row) in SHARD_ROWS.iter().enumerate() {
                if row.kind == kind {
                    self.write_shard_family(out, row.name, kind, row.help, |s| s.rows()[index])?;
                }
            }
        }
        type Derived = fn(&ShardSnapshot) -> f64;
        let derived: [(&str, &str, Derived); 4] = [
            (
                "dbi_requests_per_second",
                "Executed requests per second over the sliding window.",
                |s| s.requests_per_s,
            ),
            (
                "dbi_rejects_per_second",
                "Rejected requests per second over the sliding window.",
                |s| s.rejects_per_s,
            ),
            (
                "dbi_batch_lane_occupancy",
                "Mean lane-group chains per packed kernel dispatch.",
                ShardSnapshot::lane_occupancy,
            ),
            (
                "dbi_batch_full_dispatch_fraction",
                "Fraction of dispatches that filled the kernel's lane width.",
                ShardSnapshot::full_dispatch_fraction,
            ),
        ];
        for (name, help, value) in derived {
            self.write_shard_family(out, name, "gauge", help, value)?;
        }

        let name = "dbi_stage_latency_nanoseconds";
        write_family_header(out, name, "summary", "Per-stage request latency.")?;
        for (shard, snapshot) in self.per_shard.iter().enumerate() {
            for (stage, stats) in snapshot.latency.stages() {
                let labels = format!("shard=\"{shard}\",stage=\"{stage}\"");
                for quantile in [0.5, 0.9, 0.99, 0.999] {
                    let value = stats.percentile_ns(quantile);
                    writeln!(out, "{name}{{{labels},quantile=\"{quantile}\"}} {value}")?;
                }
                writeln!(out, "{name}_sum{{{labels}}} {}", stats.sum_ns)?;
                writeln!(out, "{name}_count{{{labels}}} {}", stats.count)?;
            }
        }

        write_row_families(out, PLAN_CACHE_ROWS, &plan_cache_rows(&self.plan_cache))?;
        write_row_families(out, CONNECTION_ROWS, &self.connections.rows())?;
        write_row_families(out, DURABILITY_ROWS, &durability_rows(&self.durability))?;
        let help = "Selected slab kernel tier and detected CPU features.";
        write_family_header(out, "dbi_kernel_info", "gauge", help)?;
        writeln!(
            out,
            "dbi_kernel_info{{selected=\"{}\",forced_scalar=\"{}\",cpu_features=\"{}\"}} 1",
            self.kernel, self.forced_scalar, self.cpu_features
        )
    }

    /// Writes one shard-labelled family; `{:.1}` leaves integers as they are.
    fn write_shard_family<V: Display>(
        &self,
        out: &mut String,
        name: &str,
        kind: &str,
        help: &str,
        value: impl Fn(&ShardSnapshot) -> V,
    ) -> fmt::Result {
        write_family_header(out, name, kind, help)?;
        for (shard, snapshot) in self.per_shard.iter().enumerate() {
            writeln!(out, "{name}{{shard=\"{shard}\"}} {:.1}", value(snapshot))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_total() {
        let registry = MetricsRegistry::new(2);
        registry.shard(0).record_request(32, 4, 10);
        registry.shard(0).record_request(32, 4, 6);
        registry.shard(1).record_reject();
        registry.shard(1).session_created();
        registry.shard(1).enqueue();

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.per_shard[0].requests, 2);
        assert_eq!(snapshot.per_shard[0].bytes, 64);
        assert_eq!(snapshot.per_shard[0].transitions_saved, 16);
        assert_eq!(snapshot.per_shard[1].rejected, 1);
        assert_eq!(snapshot.per_shard[1].queue_depth, 1);
        registry.shard(1).dequeue();
        assert_eq!(registry.snapshot().per_shard[1].queue_depth, 0);

        let totals = snapshot.totals();
        assert_eq!(totals.requests, 2);
        assert_eq!(totals.rejected, 1);
        assert_eq!(totals.sessions, 1);
    }

    #[test]
    fn batch_counters_histogram_and_percentiles() {
        let metrics = ShardMetrics::default();
        metrics.record_pass(0, 0, false); // all-error pass lands in bucket 0
        for _ in 0..98 {
            metrics.record_pass(64, 1, true); // bucket 6
        }
        metrics.record_pass(70_000, 3, false); // beyond the last bucket boundary
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.passes, 100);
        assert_eq!(snapshot.inline_passes, 98);
        assert_eq!(snapshot.coalesced, 101);
        assert_eq!(snapshot.batch_hist[0], 1);
        assert_eq!(snapshot.batch_hist[6], 98);
        assert_eq!(snapshot.batch_hist[BATCH_BUCKETS - 1], 1);
        // Interpolated within the [64, 128) bucket: p50's rank 50 sits
        // halfway through its 98 samples (after the 1 fast pass), p99's
        // rank 99 right at its end.
        assert_eq!(snapshot.batch_size_percentile(0.50), 96);
        assert_eq!(snapshot.batch_size_percentile(0.99), 128);
        assert_eq!(
            snapshot.batch_size_percentile(1.0),
            1 << (BATCH_BUCKETS - 1)
        );
        assert_eq!(ShardSnapshot::default().batch_size_percentile(0.5), 0);
        assert_eq!(ShardSnapshot::default().bursts_per_request(), 0.0);

        // Totals fold the histograms elementwise.
        let registry = MetricsRegistry::new(2);
        registry.shard(0).record_pass(8, 0, true);
        registry.shard(1).record_pass(8, 2, false);
        let totals = registry.snapshot().totals();
        assert_eq!(totals.passes, 2);
        assert_eq!(totals.inline_passes, 1);
        assert_eq!(totals.coalesced, 2);
        assert_eq!(totals.batch_hist[3], 2);
    }

    #[test]
    fn batch_percentiles_interpolate_at_bucket_boundaries() {
        // One pass of 255 bursts lands in [128, 256): its p50 is the
        // bucket midpoint 192, not the old lower-bound answer of 128.
        let metrics = ShardMetrics::default();
        metrics.record_pass(255, 0, false);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.batch_size_percentile(0.50), 192);
        // p0 reports the bucket floor, p100 its upper bound.
        assert_eq!(snapshot.batch_size_percentile(0.0), 128);
        assert_eq!(snapshot.batch_size_percentile(1.0), 256);

        // 256 crosses into the next bucket.
        let metrics = ShardMetrics::default();
        metrics.record_pass(256, 0, false);
        assert_eq!(metrics.snapshot().batch_size_percentile(0.50), 384);
    }

    #[test]
    fn verify_counters_accumulate_and_serialise() {
        let registry = MetricsRegistry::new(2);
        registry.shard(0).record_verify(true);
        registry.shard(0).record_verify(true);
        registry.shard(1).record_verify(false);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.per_shard[0].verified, 2);
        assert_eq!(snapshot.per_shard[0].verify_failures, 0);
        assert_eq!(snapshot.per_shard[1].verified, 1);
        assert_eq!(snapshot.per_shard[1].verify_failures, 1);
        let totals = snapshot.totals();
        assert_eq!((totals.verified, totals.verify_failures), (3, 1));
        assert!(snapshot
            .to_json()
            .contains("\"verify\":{\"requests\":1,\"failures\":1}"));
    }

    #[test]
    fn json_snapshot_has_the_documented_shape() {
        let registry = MetricsRegistry::new(1);
        registry.shard(0).record_request(8, 1, 2);
        let mut snapshot = registry.snapshot();
        snapshot.plan_cache = PlanCacheStats {
            hits: 5,
            misses: 2,
            evictions: 1,
            entries: 2,
        };
        let json = snapshot.to_json();
        assert!(json.starts_with("{\"shards\":[{"));
        assert!(json.contains("\"requests\":1"));
        assert!(json.contains("\"transitions_saved\":2"));
        assert!(json.contains("\"batch\":{\"passes\":0,\"coalesced\":0"));
        assert!(json.contains("\"bursts_per_request\":1.0"));
        assert!(json.contains("\"verify\":{\"requests\":0,\"failures\":0}"));
        assert!(json.contains("\"queue_depth_peak\":0"));
        assert!(json.contains("\"rate\":{\"requests_per_s\":"));
        assert!(json.contains("\"window_s\":8}"));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"totals\":{"));
        assert!(
            json.contains("\"plan_cache\":{\"hits\":5,\"misses\":2,\"evictions\":1,\"entries\":2}")
        );
        // A registry snapshot has no connection plane or persist plane
        // attached, so both blocks are present but zeroed, sitting between
        // plan_cache and kernel.
        assert!(json.contains(
            ",\"connections\":{\"active\":0,\"accepted\":0,\"closed\":0,\
             \"dropped_slow\":0,\"read_buf_high_watermark\":0,\
             \"write_buf_high_watermark\":0,\"socket_reads\":0,\
             \"socket_writes\":0},\
             \"durability\":{\"configured\":false,\"compactions\":0,\
             \"snapshots_taken\":0,\"last_sessions\":0,\"last_bytes\":0,\
             \"restored_sessions\":0},\"kernel\":{"
        ));
        assert!(json.contains("\"sessions_evicted\":0,\"sessions_evicted_uncaptured\":0"));
        assert!(json.contains("\"journal\":{\"records\":0,\"bytes\":0,\"errors\":0}"));
        // Exactly one shard object plus the totals object, each with a
        // top-level and a verify-block "requests" key.
        assert_eq!(json.matches("\"requests\":").count(), 4);
        // Per object: the verify counter block plus the verify latency
        // stage.
        assert_eq!(json.matches("\"verify\":").count(), 4);
        assert_eq!(json.matches("\"latency\":{\"queue_wait\":{").count(), 2);
    }

    /// Builds a fully hand-specified snapshot so the golden strings below
    /// are deterministic (live snapshots carry wall-clock rates).
    fn golden_snapshot() -> MetricsSnapshot {
        let mut total_buckets = [0u64; crate::telemetry::LATENCY_BUCKETS];
        total_buckets[9] = 1; // one 700 ns sample in [512, 1024)
        let total = LatencyStats {
            buckets: total_buckets,
            count: 1,
            sum_ns: 700,
        };
        let mut batch_hist = [0u64; BATCH_BUCKETS];
        batch_hist[1] = 2; // two passes in [2, 4) bursts
        let shard = ShardSnapshot {
            requests: 3,
            rejected: 1,
            bytes: 96,
            bursts: 6,
            transitions_saved: 12,
            queue_depth: 1,
            queue_depth_peak: 4,
            sessions: 2,
            sessions_evicted: 1,
            sessions_evicted_uncaptured: 1,
            journal_records: 5,
            journal_bytes: 240,
            journal_errors: 1,
            passes: 2,
            coalesced: 1,
            dispatches: 2,
            inline_passes: 1,
            dispatch_chains: 7,
            full_dispatches: 1,
            batch_hist,
            verified: 1,
            verify_failures: 0,
            requests_per_s: 2.5,
            rejects_per_s: 0.5,
            latency: StageLatency {
                total,
                ..StageLatency::default()
            },
        };
        MetricsSnapshot {
            per_shard: vec![shard],
            plan_cache: PlanCacheStats {
                hits: 4,
                misses: 2,
                evictions: 1,
                entries: 1,
            },
            connections: ConnectionsSnapshot {
                active: 1,
                accepted: 3,
                closed: 2,
                dropped_slow: 1,
                read_buf_high_watermark: 4096,
                write_buf_high_watermark: 65536,
                socket_reads: 5,
                socket_writes: 4,
            },
            durability: SnapshotStatus {
                configured: true,
                compactions: 3,
                snapshots_taken: 2,
                last_sessions: 2,
                last_bytes: 120,
                restored_sessions: 1,
            },
            kernel: "scalar",
            forced_scalar: false,
            cpu_features: "none",
        }
    }

    #[test]
    fn json_golden_string_pins_the_full_key_order() {
        let empty_stage = "{\"count\":0,\"mean_ns\":0,\"p50_ns\":0,\
                           \"p90_ns\":0,\"p99_ns\":0,\"p999_ns\":0}";
        let shard_json = format!(
            "{{\"requests\":3,\"rejected\":1,\"bytes\":96,\"bursts\":6,\
             \"transitions_saved\":12,\"queue_depth\":1,\
             \"queue_depth_peak\":4,\"sessions\":2,\
             \"sessions_evicted\":1,\"sessions_evicted_uncaptured\":1,\
             \"journal\":{{\"records\":5,\"bytes\":240,\"errors\":1}},\
             \"rate\":{{\"requests_per_s\":2.5,\"rejects_per_s\":0.5,\
             \"window_s\":8}},\
             \"batch\":{{\"passes\":2,\"coalesced\":1,\"dispatches\":2,\
             \"inline_passes\":1,\"lane_occupancy\":3.5,\"full_dispatch_fraction\":0.50,\
             \"size_p50\":3,\"size_p99\":4,\"bursts_per_request\":2.0}},\
             \"verify\":{{\"requests\":1,\"failures\":0}},\
             \"latency\":{{\"queue_wait\":{empty_stage},\
             \"encode\":{empty_stage},\"verify\":{empty_stage},\
             \"total\":{{\"count\":1,\"mean_ns\":700,\"p50_ns\":768,\
             \"p90_ns\":973,\"p99_ns\":1019,\"p999_ns\":1023}}}}}}"
        );
        // One shard, so the totals object equals the shard object.
        let expected = format!(
            "{{\"shards\":[{shard_json}],\"totals\":{shard_json},\
             \"plan_cache\":{{\"hits\":4,\"misses\":2,\"evictions\":1,\
             \"entries\":1}},\
             \"connections\":{{\"active\":1,\"accepted\":3,\"closed\":2,\
             \"dropped_slow\":1,\"read_buf_high_watermark\":4096,\
             \"write_buf_high_watermark\":65536,\"socket_reads\":5,\
             \"socket_writes\":4}},\
             \"durability\":{{\"configured\":true,\"compactions\":3,\
             \"snapshots_taken\":2,\"last_sessions\":2,\"last_bytes\":120,\
             \"restored_sessions\":1}},\
             \"kernel\":{{\"selected\":\"scalar\",\"forced_scalar\":false,\
             \"cpu_features\":\"none\"}}}}"
        );
        assert_eq!(golden_snapshot().to_json(), expected);
    }

    #[test]
    fn prometheus_exposition_reports_every_block() {
        let text = golden_snapshot().to_prometheus();
        assert!(text.contains("# TYPE dbi_requests_total counter\n"));
        assert!(text.contains("dbi_requests_total{shard=\"0\"} 3\n"));
        assert!(text.contains("dbi_rejected_total{shard=\"0\"} 1\n"));
        assert!(text.contains("# TYPE dbi_queue_depth_peak gauge\n"));
        assert!(text.contains("dbi_queue_depth_peak{shard=\"0\"} 4\n"));
        assert!(text.contains("dbi_requests_per_second{shard=\"0\"} 2.5\n"));
        assert!(text.contains("dbi_rejects_per_second{shard=\"0\"} 0.5\n"));
        assert!(text.contains("# TYPE dbi_stage_latency_nanoseconds summary\n"));
        assert!(text.contains(
            "dbi_stage_latency_nanoseconds{shard=\"0\",stage=\"total\",quantile=\"0.5\"} 768\n"
        ));
        assert!(text.contains(
            "dbi_stage_latency_nanoseconds{shard=\"0\",stage=\"total\",quantile=\"0.999\"} 1023\n"
        ));
        assert!(
            text.contains("dbi_stage_latency_nanoseconds_sum{shard=\"0\",stage=\"total\"} 700\n")
        );
        assert!(
            text.contains("dbi_stage_latency_nanoseconds_count{shard=\"0\",stage=\"total\"} 1\n")
        );
        assert!(text.contains(
            "dbi_stage_latency_nanoseconds{shard=\"0\",stage=\"queue_wait\",quantile=\"0.99\"} 0\n"
        ));
        assert!(text.contains("dbi_plan_cache_hits_total 4\n"));
        assert!(text.contains("dbi_plan_cache_entries 1\n"));
        assert!(text.contains("# TYPE dbi_connections_active gauge\n"));
        assert!(text.contains("dbi_connections_active 1\n"));
        assert!(text.contains("# TYPE dbi_connections_accepted_total counter\n"));
        assert!(text.contains("dbi_connections_accepted_total 3\n"));
        assert!(text.contains("dbi_connections_closed_total 2\n"));
        assert!(text.contains("dbi_connections_dropped_slow_total 1\n"));
        assert!(text.contains("dbi_connection_read_buf_high_watermark_bytes 4096\n"));
        assert!(text.contains("dbi_connection_write_buf_high_watermark_bytes 65536\n"));
        assert!(text.contains("# TYPE dbi_connection_socket_reads_total counter\n"));
        assert!(text.contains("dbi_connection_socket_reads_total 5\n"));
        assert!(text.contains("dbi_connection_socket_writes_total 4\n"));
        assert!(text.contains(
            "dbi_kernel_info{selected=\"scalar\",forced_scalar=\"false\",cpu_features=\"none\"} 1\n"
        ));
        assert!(text.contains("# TYPE dbi_batch_dispatches_total counter\n"));
        assert!(text.contains("dbi_batch_dispatches_total{shard=\"0\"} 2\n"));
        assert!(text.contains("dbi_batch_dispatch_chains_total{shard=\"0\"} 7\n"));
        assert!(text.contains("dbi_batch_full_dispatches_total{shard=\"0\"} 1\n"));
        assert!(text.contains("# TYPE dbi_batch_lane_occupancy gauge\n"));
        assert!(text.contains("dbi_batch_lane_occupancy{shard=\"0\"} 3.5\n"));
        assert!(text.contains("dbi_batch_full_dispatch_fraction{shard=\"0\"} 0.5\n"));
        assert!(text.contains("# TYPE dbi_sessions_evicted_total counter\n"));
        assert!(text.contains("dbi_sessions_evicted_total{shard=\"0\"} 1\n"));
        assert!(text.contains("# TYPE dbi_sessions_evicted_uncaptured_total counter\n"));
        assert!(text.contains("dbi_sessions_evicted_uncaptured_total{shard=\"0\"} 1\n"));
        assert!(text.contains("dbi_journal_records_total{shard=\"0\"} 5\n"));
        assert!(text.contains("dbi_journal_bytes_total{shard=\"0\"} 240\n"));
        assert!(text.contains("dbi_journal_errors_total{shard=\"0\"} 1\n"));
        assert!(text.contains("# TYPE dbi_durability_configured gauge\n"));
        assert!(text.contains("dbi_durability_configured 1\n"));
        assert!(text.contains("dbi_journal_compactions_total 3\n"));
        assert!(text.contains("# TYPE dbi_snapshots_taken_total counter\n"));
        assert!(text.contains("dbi_snapshots_taken_total 2\n"));
        assert!(text.contains("dbi_snapshot_last_sessions 2\n"));
        assert!(text.contains("dbi_snapshot_last_bytes 120\n"));
        assert!(text.contains("dbi_sessions_restored_total 1\n"));
        // Every series of a shard-labelled family appears once per shard.
        assert_eq!(text.matches("dbi_batch_passes_total{shard=").count(), 1);
    }

    /// Two shards in which every counter, histogram bucket, rate and
    /// latency stage, and every connection, plan-cache and durability
    /// field, holds a distinct non-zero value. The totals then differ from
    /// both shards, so a dropped, misplaced or wrongly merged field
    /// changes the output.
    fn two_shard_snapshot() -> MetricsSnapshot {
        let shard = |k: u64| {
            let base = 1000 * k;
            let stage = |s: u64| {
                let buckets: [u64; crate::telemetry::LATENCY_BUCKETS] =
                    std::array::from_fn(|i| base + 100 * (s + 1) + i as u64 + 1);
                LatencyStats {
                    buckets,
                    count: buckets.iter().sum(),
                    sum_ns: (k + 1) * 1_000_003 * (s + 1),
                }
            };
            ShardSnapshot {
                requests: base + 1,
                rejected: base + 2,
                bytes: base + 3,
                bursts: base + 4,
                transitions_saved: base + 5,
                queue_depth: base + 6,
                queue_depth_peak: base + 7,
                sessions: base + 8,
                sessions_evicted: base + 9,
                sessions_evicted_uncaptured: base + 10,
                journal_records: base + 11,
                journal_bytes: base + 12,
                journal_errors: base + 13,
                passes: base + 14,
                coalesced: base + 15,
                dispatches: base + 16,
                inline_passes: base + 21,
                dispatch_chains: base + 17,
                full_dispatches: base + 18,
                batch_hist: std::array::from_fn(|i| base + 30 + i as u64),
                verified: base + 19,
                verify_failures: base + 20,
                requests_per_s: 40.5 + 100.0 * k as f64,
                rejects_per_s: 1.5 + 100.0 * k as f64,
                latency: StageLatency {
                    queue_wait: stage(0),
                    encode: stage(1),
                    verify: stage(2),
                    total: stage(3),
                },
            }
        };
        MetricsSnapshot {
            per_shard: vec![shard(0), shard(1)],
            plan_cache: PlanCacheStats {
                hits: 5001,
                misses: 5002,
                evictions: 5003,
                entries: 5004,
            },
            connections: ConnectionsSnapshot {
                active: 6001,
                accepted: 6002,
                closed: 6003,
                dropped_slow: 6004,
                read_buf_high_watermark: 6005,
                write_buf_high_watermark: 6006,
                socket_reads: 6007,
                socket_writes: 6008,
            },
            durability: SnapshotStatus {
                configured: true,
                compactions: 7001,
                snapshots_taken: 7002,
                last_sessions: 7003,
                last_bytes: 7004,
                restored_sessions: 7005,
            },
            kernel: "avx2",
            forced_scalar: true,
            cpu_features: "sse2,avx2",
        }
    }

    #[test]
    fn two_shard_golden_pins_json_and_prometheus_byte_for_byte() {
        let snapshot = two_shard_snapshot();
        assert_eq!(
            snapshot.to_json(),
            include_str!("../vectors/metrics_two_shards.json")
        );
        assert_eq!(
            snapshot.to_prometheus(),
            include_str!("../vectors/metrics_two_shards.prom")
        );
        // Merged with a copy whose read watermark is lower and write
        // watermark higher: counters sum, each watermark keeps the larger.
        let mut other = snapshot.clone();
        other.connections.read_buf_high_watermark = 1;
        other.connections.write_buf_high_watermark = 9999;
        let mut merged = snapshot;
        merged.merge(&other);
        assert_eq!(
            merged.to_json(),
            include_str!("../vectors/metrics_two_shards_merged.json")
        );
    }

    #[test]
    fn merge_folds_snapshots_shard_by_shard() {
        let mut left = golden_snapshot();
        let mut right = golden_snapshot();
        // Give the right side a second shard so merge has to extend.
        right.per_shard.push(ShardSnapshot {
            requests: 7,
            queue_depth_peak: 9,
            ..ShardSnapshot::default()
        });

        left.merge(&right);
        assert_eq!(left.per_shard.len(), 2);
        assert_eq!(left.per_shard[0].requests, 6);
        assert_eq!(left.per_shard[0].bytes, 192);
        assert_eq!(left.per_shard[0].queue_depth_peak, 8);
        assert_eq!(left.per_shard[0].requests_per_s, 5.0);
        assert_eq!(left.per_shard[0].latency.total.count, 2);
        assert_eq!(left.per_shard[0].latency.total.sum_ns, 1400);
        assert_eq!(left.per_shard[1].requests, 7);
        assert_eq!(left.per_shard[1].queue_depth_peak, 9);
        assert_eq!(left.plan_cache.hits, 8);
        assert_eq!(left.plan_cache.entries, 2);
        // Connection counters sum; the buffer high-watermarks take the
        // maximum (both sides peaked at the same size here).
        assert_eq!(left.connections.active, 2);
        assert_eq!(left.connections.accepted, 6);
        assert_eq!(left.connections.closed, 4);
        assert_eq!(left.connections.dropped_slow, 2);
        assert_eq!(left.connections.read_buf_high_watermark, 4096);
        assert_eq!(left.connections.write_buf_high_watermark, 65536);
        assert_eq!(left.connections.socket_reads, 10);
        assert_eq!(left.connections.socket_writes, 8);
        // Per-shard durability counters fold like any other counter; the
        // engine-level durability block keeps the left side's values,
        // like the kernel block.
        assert_eq!(left.per_shard[0].sessions_evicted, 2);
        assert_eq!(left.per_shard[0].sessions_evicted_uncaptured, 2);
        assert_eq!(left.per_shard[0].journal_records, 10);
        assert_eq!(left.per_shard[0].journal_bytes, 480);
        assert_eq!(left.per_shard[0].journal_errors, 2);
        assert_eq!(left.durability.snapshots_taken, 2);
        // The kernel block keeps the left side's values.
        assert_eq!(left.kernel, "scalar");
        let totals = left.totals();
        assert_eq!(totals.requests, 13);
        assert_eq!(totals.latency.total.count, 2);
    }
}
