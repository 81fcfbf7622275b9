//! Per-shard service metrics.
//!
//! Each shard owns one [`ShardMetrics`] of plain atomic counters — workers
//! and clients bump them lock-free and allocation-free on the hot path —
//! and [`MetricsRegistry::snapshot`] turns the whole registry into an
//! owned, serialisable [`MetricsSnapshot`]. The batched data plane adds a
//! `batch` block per shard: worker-pass count, coalesced-request count
//! and a power-of-two pass-size histogram from which the JSON reports the
//! p50/p99 pass size plus the mean bursts per request. The engine stamps the shared
//! plan-cache counters ([`dbi_core::PlanCacheStats`]: hits, misses,
//! evictions, resident plans) into the snapshot as well, and a `kernel`
//! block records which slab kernel tier the workers dispatch to
//! ([`dbi_core::simd::selected_kernel`]) together with the detected CPU
//! features — so a scraped metrics line names the hardware path behind
//! its throughput numbers. The snapshot's
//! [`to_json`](MetricsSnapshot::to_json) form is what the service answers
//! metrics requests with; it is handwritten JSON (no serialisation crate
//! exists offline) with a fixed key order, so it is easy to assert on in
//! tests and to scrape. [`to_prometheus`](MetricsSnapshot::to_prometheus)
//! renders the same snapshot in Prometheus text exposition format.
//!
//! The connection plane adds one engine-global `connections` block
//! ([`ConnectionMetrics`]): accepted/active/closed counts, the
//! slow-consumer drop count, and the largest read and write buffer any
//! connection has grown. The block is owned by the TCP server's I/O
//! threads, not the registry; an engine with no server attached reports
//! it zeroed.
//!
//! The telemetry plane adds three per-shard blocks (see
//! [`crate::telemetry`]): a `rate` block (requests/s and rejects/s over a
//! sliding [`RATE_WINDOW_SECONDS`]-second window), a `queue_depth_peak`
//! high-watermark next to the instantaneous depth, and a `latency` block
//! with p50/p90/p99/p999 for the queue-wait, encode, verify and
//! total-service stages — log-bucketed lock-free histograms, same pattern
//! as `batch_hist`.
//!
//! The durable session plane (see [`crate::persist`]) adds per-shard
//! `sessions_evicted` and `sessions_evicted_uncaptured` counters (the
//! latter counting victims whose carried state no snapshot or journal
//! record holds, so it is lost) and a `journal` block (records and bytes the
//! shard's worker has appended, and journal I/O errors — a failed create,
//! flush or rotation, each of which silently degrades durability
//! otherwise), plus one engine-global `durability`
//! block mirroring the [`SnapshotStatus`] admin response: whether a
//! persist directory is configured, the journal generation, snapshots
//! taken, the last snapshot's session count and byte size, and sessions
//! restored from disk. An engine without persistence reports the block
//! with `configured: false` and zeros.

use crate::telemetry::{log2_percentile, LatencyHistogram, LatencyStats, RateWindow};
use crate::wire::SnapshotStatus;
use dbi_core::PlanCacheStats;
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::telemetry::window::RATE_WINDOW_SECONDS;

/// Number of power-of-two histogram buckets tracking worker-pass sizes:
/// bucket *i* counts passes of `[2^i, 2^(i+1))` bursts, the last bucket
/// absorbing everything beyond.
pub const BATCH_BUCKETS: usize = 17;

/// Lock-free counters of one shard. All increments use relaxed ordering:
/// the counters are statistics, not synchronisation.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    requests: AtomicU64,
    rejected: AtomicU64,
    bytes: AtomicU64,
    bursts: AtomicU64,
    transitions_saved: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    sessions: AtomicU64,
    sessions_evicted: AtomicU64,
    sessions_evicted_uncaptured: AtomicU64,
    journal_records: AtomicU64,
    journal_bytes: AtomicU64,
    journal_errors: AtomicU64,
    passes: AtomicU64,
    coalesced: AtomicU64,
    dispatches: AtomicU64,
    dispatch_chains: AtomicU64,
    full_dispatches: AtomicU64,
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    verified: AtomicU64,
    verify_failures: AtomicU64,
    request_rate: RateWindow,
    reject_rate: RateWindow,
    queue_wait_hist: LatencyHistogram,
    encode_hist: LatencyHistogram,
    verify_hist: LatencyHistogram,
    total_hist: LatencyHistogram,
}

/// The histogram bucket a pass of `bursts` bursts lands in.
fn batch_bucket(bursts: u64) -> usize {
    (bursts.max(1).ilog2() as usize).min(BATCH_BUCKETS - 1)
}

impl ShardMetrics {
    /// Records one successfully executed request.
    pub fn record_request(&self, payload_bytes: u64, bursts: u64, transitions_saved: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload_bytes, Ordering::Relaxed);
        self.bursts.fetch_add(bursts, Ordering::Relaxed);
        self.transitions_saved
            .fetch_add(transitions_saved, Ordering::Relaxed);
        self.request_rate.record();
    }

    /// Records the stage breakdown of one worker-handled request into the
    /// shard's latency histograms. `encode_ns`/`verify_ns` are `None` for
    /// requests that never reached the respective stage (rejects never
    /// encode; only verify-mode requests verify) — a `None` stage is not
    /// recorded at all, so zeros never dilute its distribution.
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
    /// whose requests were drained from the queue behind the pass opener.
    pub fn record_pass(&self, bursts: u64, coalesced: u64) {
        self.passes.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(coalesced, Ordering::Relaxed);
        self.batch_hist[batch_bucket(bursts)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one packed kernel dispatch of `chains` lane-group chains;
    /// `full` marks a dispatch whose chain count reached the selected
    /// kernel's lane width — the lane-occupancy counters behind the
    /// `batch` block's `lane_occupancy` and `full_dispatch_fraction`.
    pub fn record_dispatch(&self, chains: u64, full: bool) {
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.dispatch_chains.fetch_add(chains, Ordering::Relaxed);
        if full {
            self.full_dispatches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one rejected request (validation failure or backpressure).
    pub fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.reject_rate.record();
    }

    /// Records one verify-mode round trip: the worker decoded its own
    /// output and compared it against the request. `ok` is `false` when
    /// the comparison found an encode/decode asymmetry (the request then
    /// fails with `VerifyMismatch`).
    pub fn record_verify(&self, ok: bool) {
        self.verified.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.verify_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a request entering the shard queue, updating the depth
    /// high-watermark (a scrape between passes reads an instantaneous
    /// depth of ~0; the peak is what exposes backpressure pressure).
    pub fn enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a request leaving the shard queue.
    pub fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a newly created encode session.
    pub fn session_created(&self) {
        self.sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an idle session evicted to make room for a fresh id on a
    /// full shard; `captured` tells whether a snapshot or journal record
    /// still holds its carried state.
    pub fn session_evicted(&self, captured: bool) {
        self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
        if !captured {
            self.sessions_evicted_uncaptured
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one journal flush of `records` session records totalling
    /// `bytes` on-disk bytes.
    pub fn record_journal(&self, records: u64, bytes: u64) {
        self.journal_records.fetch_add(records, Ordering::Relaxed);
        self.journal_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one journal I/O failure: a journal that could not be
    /// created (journaling stays off for the shard), a failed flush, or a
    /// failed rotation.
    pub fn journal_error(&self) {
        self.journal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the counters into an owned snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ShardSnapshot {
        let mut batch_hist = [0u64; BATCH_BUCKETS];
        for (slot, counter) in batch_hist.iter_mut().zip(&self.batch_hist) {
            *slot = counter.load(Ordering::Relaxed);
        }
        ShardSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            bursts: self.bursts.load(Ordering::Relaxed),
            transitions_saved: self.transitions_saved.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            sessions_evicted_uncaptured: self.sessions_evicted_uncaptured.load(Ordering::Relaxed),
            journal_records: self.journal_records.load(Ordering::Relaxed),
            journal_bytes: self.journal_bytes.load(Ordering::Relaxed),
            journal_errors: self.journal_errors.load(Ordering::Relaxed),
            passes: self.passes.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            dispatch_chains: self.dispatch_chains.load(Ordering::Relaxed),
            full_dispatches: self.full_dispatches.load(Ordering::Relaxed),
            batch_hist,
            verified: self.verified.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            requests_per_s: self.request_rate.rate_per_second(),
            rejects_per_s: self.reject_rate.rate_per_second(),
            latency: StageLatency {
                queue_wait: self.queue_wait_hist.snapshot(),
                encode: self.encode_hist.snapshot(),
                verify: self.verify_hist.snapshot(),
                total: self.total_hist.snapshot(),
            },
        }
    }
}

/// Lock-free counters of the connection plane — one set per server, not
/// per shard, because connections are owned by the I/O threads, not the
/// encode workers. Same discipline as [`ShardMetrics`]: relaxed atomics,
/// bumped allocation-free from the event loop.
#[derive(Debug, Default)]
pub struct ConnectionMetrics {
    active: AtomicU64,
    accepted: AtomicU64,
    closed: AtomicU64,
    dropped_slow: AtomicU64,
    read_buf_high_watermark: AtomicU64,
    write_buf_high_watermark: AtomicU64,
}

impl ConnectionMetrics {
    /// Records an accepted connection entering the event loop.
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection leaving the event loop, however it ended
    /// (peer hang-up, protocol violation, slow-consumer drop, shutdown).
    pub fn on_close(&self) {
        self.closed.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a connection dropped for falling behind its responses —
    /// its write buffer crossed the configured high-watermark. The drop
    /// still counts as a close via [`ConnectionMetrics::on_close`]; this
    /// counter attributes the cause.
    pub fn on_dropped_slow(&self) {
        self.dropped_slow.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one connection's observed read-buffer peak into the plane's
    /// high-watermark.
    pub fn record_read_buf(&self, bytes: u64) {
        self.read_buf_high_watermark
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// Folds one connection's observed write-buffer peak into the plane's
    /// high-watermark.
    pub fn record_write_buf(&self, bytes: u64) {
        self.write_buf_high_watermark
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// Reads the counters into an owned snapshot.
    #[must_use]
    pub fn snapshot(&self) -> ConnectionsSnapshot {
        ConnectionsSnapshot {
            active: self.active.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            dropped_slow: self.dropped_slow.load(Ordering::Relaxed),
            read_buf_high_watermark: self.read_buf_high_watermark.load(Ordering::Relaxed),
            write_buf_high_watermark: self.write_buf_high_watermark.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the connection-plane counters. All zeros for
/// an engine that is not fronted by a TCP server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnectionsSnapshot {
    /// Connections currently multiplexed by the I/O threads.
    pub active: u64,
    /// Connections accepted since startup.
    pub accepted: u64,
    /// Connections closed since startup, for any reason.
    pub closed: u64,
    /// Connections dropped because their write buffer crossed the
    /// slow-consumer high-watermark (a subset of `closed`).
    pub dropped_slow: u64,
    /// Largest read buffer any connection has grown, in bytes.
    pub read_buf_high_watermark: u64,
    /// Largest write buffer any connection has grown, in bytes.
    pub write_buf_high_watermark: u64,
}

impl ConnectionsSnapshot {
    /// Folds another connection-plane snapshot into this one: the
    /// counters (and `active`) sum; the buffer high-watermarks take the
    /// maximum, because a watermark aggregated across planes is still
    /// "the largest buffer any connection grew".
    fn add(&mut self, other: &ConnectionsSnapshot) {
        self.active += other.active;
        self.accepted += other.accepted;
        self.closed += other.closed;
        self.dropped_slow += other.dropped_slow;
        self.read_buf_high_watermark = self
            .read_buf_high_watermark
            .max(other.read_buf_high_watermark);
        self.write_buf_high_watermark = self
            .write_buf_high_watermark
            .max(other.write_buf_high_watermark);
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        write!(
            out,
            "{{\"active\":{},\"accepted\":{},\"closed\":{},\
             \"dropped_slow\":{},\"read_buf_high_watermark\":{},\
             \"write_buf_high_watermark\":{}}}",
            self.active,
            self.accepted,
            self.closed,
            self.dropped_slow,
            self.read_buf_high_watermark,
            self.write_buf_high_watermark,
        )
        .expect("writing to a String cannot fail");
    }
}

/// The four per-stage latency snapshots of one shard: where a request's
/// time goes, from queue admission to completion signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageLatency {
    /// Time between enqueue and a worker picking the request up.
    pub queue_wait: LatencyStats,
    /// Time in the encode kernel (executed requests only).
    pub encode: LatencyStats,
    /// Time in the verify round trip (verify-mode requests only).
    pub verify: LatencyStats,
    /// Total service time, enqueue to completion signal (every
    /// worker-handled request, including rejects).
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

/// A point-in-time copy of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardSnapshot {
    /// Requests executed.
    pub requests: u64,
    /// Requests rejected (bad geometry/payload, backpressure, shutdown).
    pub rejected: u64,
    /// Payload bytes encoded.
    pub bytes: u64,
    /// Per-group bursts encoded.
    pub bursts: u64,
    /// Lane transitions avoided relative to sending the same stream raw.
    pub transitions_saved: u64,
    /// Requests currently sitting in the shard queue.
    pub queue_depth: u64,
    /// The deepest the shard queue has ever been — the high-watermark
    /// that exposes backpressure a between-passes scrape would miss.
    pub queue_depth_peak: u64,
    /// Encode sessions resident on the shard.
    pub sessions: u64,
    /// Idle sessions evicted to make room for fresh session ids once the
    /// shard hit its configured session bound.
    pub sessions_evicted: u64,
    /// The evictions among [`ShardSnapshot::sessions_evicted`] whose
    /// victim was not captured by a snapshot or journal record: its
    /// carried state is lost.
    pub sessions_evicted_uncaptured: u64,
    /// Session records the shard's worker has appended to its journal.
    pub journal_records: u64,
    /// Bytes the shard's worker has flushed to its journal.
    pub journal_bytes: u64,
    /// Journal I/O failures: create, flush or rotation errors. Durability
    /// degrades on each; the data path never fails.
    pub journal_errors: u64,
    /// Worker passes executed (each pass serves one or more coalesced
    /// requests of one session).
    pub passes: u64,
    /// Requests that were coalesced into another request's pass instead
    /// of opening their own.
    pub coalesced: u64,
    /// Packed kernel dispatches executed (one per round: a single
    /// `encode_lanes_into` sweep over every chain packed into the round).
    pub dispatches: u64,
    /// Lane-group chains encoded across all dispatches — `dispatch_chains
    /// / dispatches` is the average lane occupancy of a kernel sweep.
    pub dispatch_chains: u64,
    /// Dispatches whose chain count reached the selected kernel's lane
    /// width (a fully occupied SIMD sweep).
    pub full_dispatches: u64,
    /// Power-of-two histogram of pass sizes in bursts: bucket *i* counts
    /// passes of `[2^i, 2^(i+1))` bursts.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Verify-mode requests whose output was decoded and compared.
    pub verified: u64,
    /// Verify-mode requests whose round trip exposed an encode/decode
    /// asymmetry (answered with `VerifyMismatch`).
    pub verify_failures: u64,
    /// Executed requests per second over the sliding
    /// [`RATE_WINDOW_SECONDS`]-second window, as of the snapshot.
    pub requests_per_s: f64,
    /// Rejected requests per second over the same window.
    pub rejects_per_s: f64,
    /// Per-stage latency histograms: queue-wait, encode, verify, total.
    pub latency: StageLatency,
}

impl ShardSnapshot {
    fn add(&mut self, other: &ShardSnapshot) {
        self.requests += other.requests;
        self.rejected += other.rejected;
        self.bytes += other.bytes;
        self.bursts += other.bursts;
        self.transitions_saved += other.transitions_saved;
        self.queue_depth += other.queue_depth;
        self.sessions += other.sessions;
        self.sessions_evicted += other.sessions_evicted;
        self.sessions_evicted_uncaptured += other.sessions_evicted_uncaptured;
        self.journal_records += other.journal_records;
        self.journal_bytes += other.journal_bytes;
        self.journal_errors += other.journal_errors;
        self.passes += other.passes;
        self.coalesced += other.coalesced;
        self.dispatches += other.dispatches;
        self.dispatch_chains += other.dispatch_chains;
        self.full_dispatches += other.full_dispatches;
        for (mine, theirs) in self.batch_hist.iter_mut().zip(&other.batch_hist) {
            *mine += theirs;
        }
        self.verified += other.verified;
        self.verify_failures += other.verify_failures;
        // The peak is summed like the other counters: the result is the
        // (upper bound) high-watermark of total queued work, consistent
        // with `queue_depth` above.
        self.queue_depth_peak += other.queue_depth_peak;
        self.requests_per_s += other.requests_per_s;
        self.rejects_per_s += other.rejects_per_s;
        self.latency.add(&other.latency);
    }

    /// The histogram percentile of the pass-size distribution in bursts,
    /// interpolated within the winning power-of-two bucket (see
    /// [`log2_percentile`]); 0 when no pass has been recorded.
    #[must_use]
    pub fn batch_size_percentile(&self, percentile: f64) -> u64 {
        log2_percentile(&self.batch_hist, percentile)
    }

    /// Mean bursts per executed request (0 when no request has run).
    #[must_use]
    pub fn bursts_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.bursts as f64 / self.requests as f64
        }
    }

    /// Mean lane-group chains per packed kernel dispatch (0 before the
    /// first dispatch) — how full the cross-session packing keeps the
    /// kernel sweeps.
    #[must_use]
    pub fn lane_occupancy(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.dispatch_chains as f64 / self.dispatches as f64
        }
    }

    /// Fraction of dispatches whose chain count reached the selected
    /// kernel's lane width (0 before the first dispatch).
    #[must_use]
    pub fn full_dispatch_fraction(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.full_dispatches as f64 / self.dispatches as f64
        }
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        write!(
            out,
            "{{\"requests\":{},\"rejected\":{},\"bytes\":{},\"bursts\":{},\
             \"transitions_saved\":{},\"queue_depth\":{},\
             \"queue_depth_peak\":{},\"sessions\":{},\
             \"sessions_evicted\":{},\"sessions_evicted_uncaptured\":{},\
             \"journal\":{{\"records\":{},\"bytes\":{},\"errors\":{}}},\
             \"rate\":{{\"requests_per_s\":{:.1},\"rejects_per_s\":{:.1},\
             \"window_s\":{}}},\
             \"batch\":{{\"passes\":{},\"coalesced\":{},\"dispatches\":{},\
             \"lane_occupancy\":{:.1},\"full_dispatch_fraction\":{:.2},\
             \"size_p50\":{},\"size_p99\":{},\"bursts_per_request\":{:.1}}},\
             \"verify\":{{\"requests\":{},\"failures\":{}}},\"latency\":{{",
            self.requests,
            self.rejected,
            self.bytes,
            self.bursts,
            self.transitions_saved,
            self.queue_depth,
            self.queue_depth_peak,
            self.sessions,
            self.sessions_evicted,
            self.sessions_evicted_uncaptured,
            self.journal_records,
            self.journal_bytes,
            self.journal_errors,
            self.requests_per_s,
            self.rejects_per_s,
            RATE_WINDOW_SECONDS,
            self.passes,
            self.coalesced,
            self.dispatches,
            self.lane_occupancy(),
            self.full_dispatch_fraction(),
            self.batch_size_percentile(0.50),
            self.batch_size_percentile(0.99),
            self.bursts_per_request(),
            self.verified,
            self.verify_failures,
        )
        .expect("writing to a String cannot fail");
        for (index, (name, stats)) in self.latency.stages().into_iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{name}\":{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\
                 \"p90_ns\":{},\"p99_ns\":{},\"p999_ns\":{}}}",
                stats.count,
                stats.mean_ns(),
                stats.percentile_ns(0.50),
                stats.percentile_ns(0.90),
                stats.percentile_ns(0.99),
                stats.percentile_ns(0.999),
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
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

    /// Copies every shard's counters into an owned snapshot. The
    /// plan-cache block starts zeroed; the engine overwrites it with the
    /// live [`PlanCacheStats`] when it snapshots.
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
    /// Counters of the connection plane fronting the engine; all zeros
    /// when no TCP server is attached (the registry itself has no
    /// connection counters — the server stamps the live block in when it
    /// serves a metrics request).
    pub connections: ConnectionsSnapshot,
    /// State of the durable session plane, mirroring the
    /// [`SnapshotStatus`] admin response; all zeros with
    /// `configured: false` when the engine was started without a persist
    /// directory (the registry itself holds no durability state — the
    /// engine stamps the live block in when it snapshots).
    pub durability: SnapshotStatus,
    /// The slab kernel tier every worker's batched path dispatches to
    /// ([`dbi_core::simd::selected_kernel`]) — `"scalar"` when pinned by
    /// `DBI_FORCE_SCALAR`.
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

    /// Folds another snapshot into this one, shard by shard — shard *i*
    /// of `other` is added onto shard *i* of `self`, extra shards are
    /// appended, and the plan-cache counters sum. Useful for aggregating
    /// scrapes of several engines (or of one engine across restarts) into
    /// one view; the kernel and durability blocks keep `self`'s values,
    /// so merge same-hardware, same-store snapshots if those blocks
    /// matter.
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
        self.connections.add(&other.connections);
    }

    /// Serialises the snapshot as a single-line JSON object:
    /// `{"shards":[{...},...],"totals":{...},"plan_cache":{...},"connections":{...},"durability":{...},"kernel":{...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(128 * (self.per_shard.len() + 2));
        out.push_str("{\"shards\":[");
        for (index, shard) in self.per_shard.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            shard.write_json(&mut out);
        }
        out.push_str("],\"totals\":");
        self.totals().write_json(&mut out);
        write!(
            out,
            ",\"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}}",
            self.plan_cache.hits,
            self.plan_cache.misses,
            self.plan_cache.evictions,
            self.plan_cache.entries
        )
        .expect("writing to a String cannot fail");
        out.push_str(",\"connections\":");
        self.connections.write_json(&mut out);
        write!(
            out,
            ",\"durability\":{{\"configured\":{},\"generation\":{},\
             \"snapshots_taken\":{},\"last_sessions\":{},\"last_bytes\":{},\
             \"restored_sessions\":{}}}",
            self.durability.configured,
            self.durability.generation,
            self.durability.snapshots_taken,
            self.durability.last_sessions,
            self.durability.last_bytes,
            self.durability.restored_sessions,
        )
        .expect("writing to a String cannot fail");
        write!(
            out,
            ",\"kernel\":{{\"selected\":\"{}\",\"forced_scalar\":{},\"cpu_features\":\"{}\"}}",
            self.kernel, self.forced_scalar, self.cpu_features
        )
        .expect("writing to a String cannot fail");
        out.push('}');
        out
    }

    /// Renders the snapshot in Prometheus text exposition format: one
    /// `{shard="i"}`-labelled series per counter (scrapers sum shards
    /// themselves), a `dbi_stage_latency_nanoseconds` summary with
    /// `{shard,stage,quantile}` labels plus `_sum`/`_count`, the
    /// plan-cache counters, the connection-plane counters and buffer
    /// high-watermarks, and a `dbi_kernel_info` gauge carrying the
    /// dispatch tier and CPU features as labels.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        type Field = fn(&ShardSnapshot) -> u64;
        const COUNTERS: [(&str, &str, Field); 18] = [
            ("dbi_requests_total", "Requests executed.", |s| s.requests),
            ("dbi_rejected_total", "Requests rejected.", |s| s.rejected),
            ("dbi_bytes_total", "Payload bytes encoded.", |s| s.bytes),
            ("dbi_bursts_total", "Per-group bursts encoded.", |s| {
                s.bursts
            }),
            (
                "dbi_transitions_saved_total",
                "Lane transitions avoided versus sending the stream raw.",
                |s| s.transitions_saved,
            ),
            ("dbi_batch_passes_total", "Worker passes executed.", |s| {
                s.passes
            }),
            (
                "dbi_batch_coalesced_total",
                "Requests coalesced into another request's pass.",
                |s| s.coalesced,
            ),
            (
                "dbi_batch_dispatches_total",
                "Packed kernel dispatches executed.",
                |s| s.dispatches,
            ),
            (
                "dbi_batch_dispatch_chains_total",
                "Lane-group chains encoded across all packed dispatches.",
                |s| s.dispatch_chains,
            ),
            (
                "dbi_batch_full_dispatches_total",
                "Dispatches that filled the selected kernel's lane width.",
                |s| s.full_dispatches,
            ),
            (
                "dbi_verify_requests_total",
                "Verify-mode requests round-tripped.",
                |s| s.verified,
            ),
            (
                "dbi_verify_failures_total",
                "Verify round trips that exposed an encode/decode asymmetry.",
                |s| s.verify_failures,
            ),
            ("dbi_sessions_total", "Encode sessions created.", |s| {
                s.sessions
            }),
            (
                "dbi_sessions_evicted_total",
                "Idle sessions evicted to admit fresh session ids on a full shard.",
                |s| s.sessions_evicted,
            ),
            (
                "dbi_sessions_evicted_uncaptured_total",
                "Evicted sessions whose carried state no snapshot or journal record held.",
                |s| s.sessions_evicted_uncaptured,
            ),
            (
                "dbi_journal_records_total",
                "Session records appended to the shard's journal.",
                |s| s.journal_records,
            ),
            (
                "dbi_journal_bytes_total",
                "Bytes flushed to the shard's journal.",
                |s| s.journal_bytes,
            ),
            (
                "dbi_journal_errors_total",
                "Journal create, flush or rotation failures (durability degraded).",
                |s| s.journal_errors,
            ),
        ];
        const GAUGES: [(&str, &str, Field); 2] = [
            ("dbi_queue_depth", "Requests currently queued.", |s| {
                s.queue_depth
            }),
            (
                "dbi_queue_depth_peak",
                "Queue-depth high-watermark since startup.",
                |s| s.queue_depth_peak,
            ),
        ];
        let mut out = String::with_capacity(1024 + 2048 * self.per_shard.len());
        for (name, help, field) in COUNTERS {
            writeln!(out, "# HELP {name} {help}").expect("writing to a String cannot fail");
            writeln!(out, "# TYPE {name} counter").expect("writing to a String cannot fail");
            for (shard, snapshot) in self.per_shard.iter().enumerate() {
                writeln!(out, "{name}{{shard=\"{shard}\"}} {}", field(snapshot))
                    .expect("writing to a String cannot fail");
            }
        }
        for (name, help, field) in GAUGES {
            writeln!(out, "# HELP {name} {help}").expect("writing to a String cannot fail");
            writeln!(out, "# TYPE {name} gauge").expect("writing to a String cannot fail");
            for (shard, snapshot) in self.per_shard.iter().enumerate() {
                writeln!(out, "{name}{{shard=\"{shard}\"}} {}", field(snapshot))
                    .expect("writing to a String cannot fail");
            }
        }
        for (name, help, field) in [
            (
                "dbi_requests_per_second",
                "Executed requests per second over the sliding window.",
                (|s| s.requests_per_s) as fn(&ShardSnapshot) -> f64,
            ),
            (
                "dbi_rejects_per_second",
                "Rejected requests per second over the sliding window.",
                |s| s.rejects_per_s,
            ),
            (
                "dbi_batch_lane_occupancy",
                "Mean lane-group chains per packed kernel dispatch.",
                |s| s.lane_occupancy(),
            ),
            (
                "dbi_batch_full_dispatch_fraction",
                "Fraction of dispatches that filled the kernel's lane width.",
                |s| s.full_dispatch_fraction(),
            ),
        ] {
            writeln!(out, "# HELP {name} {help}").expect("writing to a String cannot fail");
            writeln!(out, "# TYPE {name} gauge").expect("writing to a String cannot fail");
            for (shard, snapshot) in self.per_shard.iter().enumerate() {
                writeln!(out, "{name}{{shard=\"{shard}\"}} {:.1}", field(snapshot))
                    .expect("writing to a String cannot fail");
            }
        }
        let name = "dbi_stage_latency_nanoseconds";
        writeln!(out, "# HELP {name} Per-stage request latency.")
            .expect("writing to a String cannot fail");
        writeln!(out, "# TYPE {name} summary").expect("writing to a String cannot fail");
        for (shard, snapshot) in self.per_shard.iter().enumerate() {
            for (stage, stats) in snapshot.latency.stages() {
                for (quantile, value) in [
                    ("0.5", stats.percentile_ns(0.50)),
                    ("0.9", stats.percentile_ns(0.90)),
                    ("0.99", stats.percentile_ns(0.99)),
                    ("0.999", stats.percentile_ns(0.999)),
                ] {
                    writeln!(
                        out,
                        "{name}{{shard=\"{shard}\",stage=\"{stage}\",quantile=\"{quantile}\"}} {value}"
                    )
                    .expect("writing to a String cannot fail");
                }
                writeln!(
                    out,
                    "{name}_sum{{shard=\"{shard}\",stage=\"{stage}\"}} {}",
                    stats.sum_ns
                )
                .expect("writing to a String cannot fail");
                writeln!(
                    out,
                    "{name}_count{{shard=\"{shard}\",stage=\"{stage}\"}} {}",
                    stats.count
                )
                .expect("writing to a String cannot fail");
            }
        }
        for (name, kind, help, value) in [
            (
                "dbi_plan_cache_hits_total",
                "counter",
                "Plan-cache hits.",
                self.plan_cache.hits,
            ),
            (
                "dbi_plan_cache_misses_total",
                "counter",
                "Plan-cache misses.",
                self.plan_cache.misses,
            ),
            (
                "dbi_plan_cache_evictions_total",
                "counter",
                "Plan-cache evictions.",
                self.plan_cache.evictions,
            ),
            (
                "dbi_plan_cache_entries",
                "gauge",
                "Plans resident in the cache.",
                self.plan_cache.entries as u64,
            ),
        ] {
            writeln!(out, "# HELP {name} {help}").expect("writing to a String cannot fail");
            writeln!(out, "# TYPE {name} {kind}").expect("writing to a String cannot fail");
            writeln!(out, "{name} {value}").expect("writing to a String cannot fail");
        }
        for (name, kind, help, value) in [
            (
                "dbi_connections_active",
                "gauge",
                "Connections currently multiplexed by the I/O threads.",
                self.connections.active,
            ),
            (
                "dbi_connections_accepted_total",
                "counter",
                "Connections accepted.",
                self.connections.accepted,
            ),
            (
                "dbi_connections_closed_total",
                "counter",
                "Connections closed, for any reason.",
                self.connections.closed,
            ),
            (
                "dbi_connections_dropped_slow_total",
                "counter",
                "Connections dropped for crossing the slow-consumer write high-watermark.",
                self.connections.dropped_slow,
            ),
            (
                "dbi_connection_read_buf_high_watermark_bytes",
                "gauge",
                "Largest read buffer any connection has grown.",
                self.connections.read_buf_high_watermark,
            ),
            (
                "dbi_connection_write_buf_high_watermark_bytes",
                "gauge",
                "Largest write buffer any connection has grown.",
                self.connections.write_buf_high_watermark,
            ),
        ] {
            writeln!(out, "# HELP {name} {help}").expect("writing to a String cannot fail");
            writeln!(out, "# TYPE {name} {kind}").expect("writing to a String cannot fail");
            writeln!(out, "{name} {value}").expect("writing to a String cannot fail");
        }
        for (name, kind, help, value) in [
            (
                "dbi_durability_configured",
                "gauge",
                "Whether a persist directory is configured (1) or not (0).",
                u64::from(self.durability.configured),
            ),
            (
                "dbi_durability_generation",
                "gauge",
                "Generation the shard journals are currently writing at.",
                self.durability.generation,
            ),
            (
                "dbi_snapshots_taken_total",
                "counter",
                "Engine snapshots written since startup (including the self-compacting recovery snapshot).",
                self.durability.snapshots_taken,
            ),
            (
                "dbi_snapshot_last_sessions",
                "gauge",
                "Sessions captured by the most recent snapshot.",
                self.durability.last_sessions,
            ),
            (
                "dbi_snapshot_last_bytes",
                "gauge",
                "On-disk size of the most recent snapshot in bytes.",
                self.durability.last_bytes,
            ),
            (
                "dbi_sessions_restored_total",
                "counter",
                "Sessions restored from disk (at startup or via the restore admin frame).",
                self.durability.restored_sessions,
            ),
        ] {
            writeln!(out, "# HELP {name} {help}").expect("writing to a String cannot fail");
            writeln!(out, "# TYPE {name} {kind}").expect("writing to a String cannot fail");
            writeln!(out, "{name} {value}").expect("writing to a String cannot fail");
        }
        writeln!(
            out,
            "# HELP dbi_kernel_info Selected slab kernel tier and detected CPU features."
        )
        .expect("writing to a String cannot fail");
        writeln!(out, "# TYPE dbi_kernel_info gauge").expect("writing to a String cannot fail");
        writeln!(
            out,
            "dbi_kernel_info{{selected=\"{}\",forced_scalar=\"{}\",cpu_features=\"{}\"}} 1",
            self.kernel, self.forced_scalar, self.cpu_features
        )
        .expect("writing to a String cannot fail");
        out
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
        metrics.record_pass(0, 0); // all-error pass lands in bucket 0
        for _ in 0..98 {
            metrics.record_pass(64, 1); // bucket 6
        }
        metrics.record_pass(70_000, 3); // beyond the last bucket boundary
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.passes, 100);
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
        registry.shard(0).record_pass(8, 0);
        registry.shard(1).record_pass(8, 2);
        let totals = registry.snapshot().totals();
        assert_eq!(totals.passes, 2);
        assert_eq!(totals.coalesced, 2);
        assert_eq!(totals.batch_hist[3], 2);
    }

    #[test]
    fn batch_percentiles_interpolate_at_bucket_boundaries() {
        // One pass of 255 bursts lands in [128, 256): its p50 is the
        // bucket midpoint 192, not the old lower-bound answer of 128.
        let metrics = ShardMetrics::default();
        metrics.record_pass(255, 0);
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.batch_size_percentile(0.50), 192);
        // p0 reports the bucket floor, p100 its upper bound.
        assert_eq!(snapshot.batch_size_percentile(0.0), 128);
        assert_eq!(snapshot.batch_size_percentile(1.0), 256);

        // 256 crosses into the next bucket.
        let metrics = ShardMetrics::default();
        metrics.record_pass(256, 0);
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
             \"write_buf_high_watermark\":0},\
             \"durability\":{\"configured\":false,\"generation\":0,\
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
            },
            durability: SnapshotStatus {
                configured: true,
                generation: 3,
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
             \"lane_occupancy\":3.5,\"full_dispatch_fraction\":0.50,\
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
             \"write_buf_high_watermark\":65536}},\
             \"durability\":{{\"configured\":true,\"generation\":3,\
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
        assert!(text.contains("dbi_durability_generation 3\n"));
        assert!(text.contains("# TYPE dbi_snapshots_taken_total counter\n"));
        assert!(text.contains("dbi_snapshots_taken_total 2\n"));
        assert!(text.contains("dbi_snapshot_last_sessions 2\n"));
        assert!(text.contains("dbi_snapshot_last_bytes 120\n"));
        assert!(text.contains("dbi_sessions_restored_total 1\n"));
        // Every series of a shard-labelled family appears once per shard.
        assert_eq!(text.matches("dbi_batch_passes_total{shard=").count(), 1);
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
