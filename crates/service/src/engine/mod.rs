//! The sharded encode engine.
//!
//! [`Engine::start`] spawns N worker threads, one per **shard**: a bounded
//! job queue and the shard's state — a map of encode sessions
//! ([`dbi_mem::BusSession`]) keyed by client session id, plus the pass's
//! reusable buffers — behind one per-shard lock. Requests are routed by
//! `shard_of(session_id)`, so a given session always lands on the same
//! shard — *sticky sharding* — and whoever holds the shard's lock runs
//! its passes, one at a time, in queue order, which is what lets the
//! carried bus state of every session evolve exactly as it would in a
//! single-threaded run. The lock is taken once per drain, never per
//! session or per burst: the encode hot path itself takes no lock.
//!
//! Queues are bounded and **lock-free**: each shard queue is a
//! Vyukov-style MPSC ring ([`eventring::Ring`]) paired with an eventcount
//! ([`eventring::EventCount`]) the worker parks on when idle, so
//! submitters never serialise on a queue mutex. When a shard's ring is
//! full, submission fails *immediately* with [`ServiceError::Overloaded`]
//! — explicit backpressure instead of unbounded memory growth.
//! Rejections, queue depth and per-request work are all counted in the
//! per-shard [`metrics`](crate::metrics).
//!
//! ## The packed data plane
//!
//! Workers encode through the slab path, and a worker pass packs chains
//! from **multiple queued sessions** into shared kernel dispatches. A
//! pass pops one job, drains a bounded window of further queued jobs
//! (whatever their sessions), and partitions the window — in queue order
//! — into *rounds*: each round holds at most one job per session, and
//! every job in a round shares the same scheme, burst length and access
//! count, so the round's chains form one uniform slab grid. The round
//! then runs as ONE packed dispatch: each session appends its lane-group
//! chains ([`BusSession::append_chains_to_slab`], one transpose of the
//! beat-interleaved payload) and exports its carried states
//! ([`BusSession::export_states_into`]), a single
//! `encode_lanes_into` sweep encodes every chain — cross-session packing
//! is what fills the SIMD kernels' full lane width even when each request
//! covers only a few groups — and each session then carves its share of
//! masks and costs back out ([`BusSession::gather_packed_results`]) and
//! re-imports its post-dispatch states ([`BusSession::import_states`]).
//! The transitions-saved metric needs no state of its own: it is derived
//! from each job's payload and the session's pre-dispatch states, so it
//! also holds across a kill and restore.
//!
//! Chains are independent recurrences and rounds execute in formation
//! order, so per-session FIFO is preserved and every reply is
//! bit-identical to the uncoalesced schedule (differential-tested in
//! `tests/packed_differential.rs`). Verify-mode requests ride the same
//! packed machinery: before its post-dispatch states are imported, the
//! session replays its own chain-major slab rows as a receiver from its
//! pre-dispatch states ([`BusSession::verify_packed_results`]: the wire
//! image of the job's encoded rows, decoded by the slab decode kernel
//! and compared against the client's payload) — a DBI receiver keeps no
//! state beyond the lane states the worker already holds. Pass sizes,
//! coalesced counts and per-dispatch lane occupancy land in the `batch`
//! block of the metrics.
//!
//! The module follows the worker's seams: `queue` (the shard queue),
//! `sessions` (the session table and eviction), `worker` (the pass:
//! rounds, packing, dispatch), `account` (gather, savings, verify and
//! telemetry, then publish) and `recovery` (start-up recovery, the
//! journal pass and a shard's part of an admin snapshot). The shard's
//! lock is the only way into its state: admin snapshots, restores and
//! the clean-shutdown compaction take it too, so they run at a pass
//! boundary with no job queued on their behalf.
//!
//! [`BusSession::append_chains_to_slab`]: dbi_mem::BusSession::append_chains_to_slab
//! [`BusSession::export_states_into`]: dbi_mem::BusSession::export_states_into
//! [`BusSession::gather_packed_results`]: dbi_mem::BusSession::gather_packed_results
//! [`BusSession::import_states`]: dbi_mem::BusSession::import_states
//! [`BusSession::verify_packed_results`]: dbi_mem::BusSession::verify_packed_results
//!
//! ## The allocation-free request path
//!
//! A [`LocalClient`] owns one reusable **request slot**: a mutex-protected
//! scratch area holding the request payload and the response buffers. A
//! call copies the payload into the slot and enqueues a reference-counted
//! pointer to it. When the shard is idle — its lock free — the client
//! *runs the shard's passes on its own thread* (caller-runs): it takes
//! the lock, enqueues without waking the worker, drains until its own
//! job has run, and reads its results back with no thread hand-off at
//! all. When the shard is busy it enqueues with a wake-up and blocks on
//! the slot's condvar; the lock holder gathers its results straight into
//! the slot's buffers and signals completion. The connection plane's I/O
//! threads never run passes: they submit asynchronously and take their
//! results through a completion sink. The `batch.inline_passes` counter
//! shows how many passes ran on a submitting client. Every
//! buffer in this round trip — payload, per-group activity, mask stream,
//! queue storage — reuses capacity from previous requests, so a warmed-up
//! client performs **zero heap allocations per request** (asserted by the
//! counting-allocator test in `tests/local_alloc.rs`).
//!
//! ## Instrumentation
//!
//! Every submission is stamped with an engine-global request id and its
//! enqueue time ([`dbi_core::clock::now_nanos`]); the worker stamps the
//! dequeue, post-encode and post-verify times and feeds the per-stage
//! durations into the shard's latency histograms
//! ([`crate::metrics::StageLatency`]) plus one [`TraceEvent`] into the
//! shard's trace ring and — when the total crosses the configured
//! threshold — the shard's slowlog (see [`crate::telemetry`]). The cost
//! per request is four monotonic-clock reads and a handful of relaxed
//! atomic adds; the hot path stays allocation-free.

mod account;
mod queue;
mod recovery;
mod sessions;
#[cfg(test)]
mod tests;
mod worker;

use crate::error::ServiceError;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::persist::{PersistConfig, PersistPlane, RestoredSession};
use crate::telemetry::{TelemetryRegistry, TraceEvent};
use crate::wire::{CostModel, EncodeBatchRequestFrame, EncodeRequestFrame, SnapshotStatus};
use dbi_core::{clock, CostBreakdown, InversionMask, PlanCache, PlanCacheStats, Scheme};
use dbi_mem::ChannelActivity;
use queue::ShardQueue;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;
use worker::ShardWorker;

/// The request type accepted by both the in-process [`LocalClient`] and the
/// TCP [`TcpClient`](crate::TcpClient) — identical to the wire frame, so a
/// request can be sent either way without translation.
pub type EncodeRequest<'a> = EncodeRequestFrame<'a>;

/// The batched request type: a whole batch of bursts for one session
/// under a single header. Identical to the wire frame, like
/// [`EncodeRequest`].
pub type EncodeBatchRequest<'a> = EncodeBatchRequestFrame<'a>;

/// Largest accepted lane-group count. A x64 channel is 8 groups; 64 leaves
/// generous headroom for exotic geometries without letting a hostile frame
/// demand gigabytes of per-session state.
pub const MAX_GROUPS: u16 = 64;

/// Largest accepted burst length — the [`dbi_core::InversionMask`] limit.
pub const MAX_BURST_LEN: u8 = 32;

/// Build-time configuration of an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads, each owning one shard of sessions. At least 1.
    pub shards: usize,
    /// Jobs a shard queue holds before submissions are rejected with
    /// [`ServiceError::Overloaded`]. At least 1.
    pub queue_capacity: usize,
    /// Largest accepted request payload in bytes.
    pub max_payload: usize,
    /// Sessions one shard will hold before new session ids are rejected
    /// with [`ServiceError::SessionLimit`] — the bound that keeps a peer
    /// cycling through fresh ids from growing worker memory without limit.
    pub max_sessions_per_shard: usize,
    /// Distinct (scheme × weights) plans the engine's process-wide
    /// [`PlanCache`] holds; the cache is shared by every shard, so a
    /// weight pair's cost tables are built at most once per engine no
    /// matter which shard first sees it. At least 1.
    pub plan_cache_capacity: usize,
    /// Trace events each shard's always-on ring holds (the most recent N
    /// worker-handled requests); drained by [`Engine::trace_dump`]. At
    /// least 1.
    pub trace_capacity: usize,
    /// Entries each shard's slowlog holds (the most recent N requests
    /// over the threshold); drained by [`Engine::slowlog`]. At least 1.
    pub slowlog_capacity: usize,
    /// Total service time (enqueue to completion) at or above which a
    /// request is captured into the slowlog, in nanoseconds. Zero
    /// captures everything.
    pub slowlog_threshold_ns: u64,
    /// The durable session plane: when set, the engine recovers carried
    /// session state from the directory on start, journals every touched
    /// session at pass boundaries, and serves the snapshot/restore
    /// admin surface ([`Engine::trigger_snapshot`], [`Engine::restore`]).
    /// `None` (the default) keeps sessions memory-only.
    pub persist: Option<PersistConfig>,
}

impl Default for ServiceConfig {
    /// Shards default to the machine's parallelism capped at 4; queues
    /// hold 64 requests; payloads up to 1 MiB; 4096 sessions per shard;
    /// 64 cached plans; 1024-event trace rings; 64-entry slowlogs at a
    /// 1 ms threshold.
    fn default() -> Self {
        ServiceConfig {
            shards: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            queue_capacity: 64,
            max_payload: 1 << 20,
            max_sessions_per_shard: 4096,
            plan_cache_capacity: 64,
            trace_capacity: 1024,
            slowlog_capacity: 64,
            slowlog_threshold_ns: 1_000_000,
            persist: None,
        }
    }
}

/// Where a request slot currently is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Owned by the client, not visible to any worker.
    Idle,
    /// Enqueued on a shard; a worker will fill in the response.
    Queued,
    /// The worker finished; the response fields are valid.
    Done,
}

/// Where a finished slot's result is delivered when the submitter does
/// not block on the slot's condvar — the connection plane's event loop.
/// Fired by whichever thread ran the pass — the shard worker, or a
/// [`LocalClient`] draining inline — *after* `Done` is published and the
/// slot lock is released, so a sink may immediately re-lock the slot to
/// read the response. Firing must not block: the implementation is
/// expected to push the slot onto an inbox and wake a poller.
pub(crate) trait CompletionSink: Send + Sync {
    /// Delivers a finished slot. `token` is the submitter-chosen value
    /// registered at submission; the engine never interprets it.
    fn complete(&self, token: u64, slot: &Arc<RequestSlot>);
}

/// A completion registration riding in a slot: the sink to fire plus the
/// opaque token the submitter uses to find its bookkeeping again.
pub(crate) struct Completion {
    pub(crate) sink: Arc<dyn CompletionSink>,
    pub(crate) token: u64,
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("token", &self.token)
            .finish_non_exhaustive()
    }
}

/// The scratch area one client call round-trips through. All buffers are
/// reused across calls.
#[derive(Debug)]
pub(crate) struct SlotState {
    // Request (written by the client, read by the worker). The scheme is
    // already *resolved*: the client applies the request's cost model
    // before enqueueing, so workers only ever see concrete weights.
    pub(crate) session_id: u64,
    pub(crate) scheme: Scheme,
    pub(crate) groups: u16,
    pub(crate) burst_len: u8,
    pub(crate) want_masks: bool,
    pub(crate) verify: bool,
    pub(crate) payload: Vec<u8>,
    // Telemetry identity, stamped at submission.
    pub(crate) request_id: u64,
    pub(crate) enqueue_ns: u64,
    // Completion routing for non-blocking submitters (the connection
    // plane); `None` for blocking condvar round trips. Taken by the
    // worker when the slot finishes.
    pub(crate) completion: Option<Completion>,
    // Response (written by the worker, read by the client).
    pub(crate) phase: Phase,
    pub(crate) result: Result<u64, ServiceError>,
    pub(crate) per_group: Vec<CostBreakdown>,
    pub(crate) masks: Vec<InversionMask>,
}

#[derive(Debug)]
pub(crate) struct RequestSlot {
    pub(crate) state: Mutex<SlotState>,
    pub(crate) done: Condvar,
}

impl RequestSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RequestSlot {
            state: Mutex::new(SlotState {
                session_id: 0,
                scheme: Scheme::Raw,
                groups: 0,
                burst_len: 0,
                want_masks: false,
                verify: false,
                payload: Vec::new(),
                request_id: 0,
                enqueue_ns: 0,
                completion: None,
                phase: Phase::Idle,
                result: Err(ServiceError::Internal("request never executed")),
                per_group: Vec::new(),
                masks: Vec::new(),
            }),
            done: Condvar::new(),
        })
    }
}

/// The session-and-configuration identity a request executes against,
/// stamped on every queue entry by the submitting client (with the cost
/// model already resolved into `scheme`). Workers coalesce queued entries
/// whose keys are equal into one pass without touching the slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouteKey {
    pub(crate) session_id: u64,
    pub(crate) scheme: Scheme,
    pub(crate) groups: u16,
    pub(crate) burst_len: u8,
}

/// Test-only fault injection shared by the engine handle and its workers.
#[derive(Debug, Default)]
struct TestHooks {
    /// When set, workers corrupt one byte of every verify-mode round
    /// trip's decoded output, so the `VerifyMismatch` path can be
    /// exercised end to end (the decode plane being correct, nothing else
    /// can make it fire).
    corrupt_verify: AtomicBool,
    /// When `slow_delay_ns` is nonzero, workers sleep that long before
    /// executing any request whose session id equals `slow_session` — the
    /// deterministic way to land a request in the slowlog.
    slow_session: AtomicU64,
    slow_delay_ns: AtomicU64,
}

/// What the engine handle and every shard worker share.
#[derive(Debug)]
pub(crate) struct Shared {
    config: ServiceConfig,
    queues: Vec<ShardQueue>,
    /// Each shard's state, built before its worker thread starts. The
    /// holder of a shard's lock is always at a pass boundary: the worker
    /// thread or a [`LocalClient`] that found the shard idle runs passes
    /// under it, and admin snapshots and restores run under it.
    shards: Vec<Mutex<ShardWorker>>,
    metrics: MetricsRegistry,
    telemetry: TelemetryRegistry,
    plans: PlanCache,
    /// Engine-global request id source; every submission takes the next
    /// id, so trace timelines interleave shards unambiguously.
    next_request_id: AtomicU64,
    hooks: TestHooks,
    /// The durable session plane's shared bookkeeping; `None` when
    /// persistence is not configured.
    persist: Option<PersistPlane>,
}

/// The engine's lifetime: the shared state plus the worker threads, which
/// stop when the last handle or client holding this drops.
#[derive(Debug)]
struct EngineInner {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
}

/// A running sharded encode engine. Cheap to clone (`Arc` inside); the
/// worker threads stop when [`Engine::shutdown`] is called or the last
/// clone is dropped.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.shared().config)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts the shard workers and returns a handle to the running
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.queue_capacity` is zero, or
    /// if persistence is configured and its on-disk state is unreadable
    /// (use [`Engine::try_start`] to handle that as a typed error).
    #[must_use]
    pub fn start(config: ServiceConfig) -> Engine {
        Engine::try_start(config).expect("engine start failed")
    }

    /// Starts the shard workers, recovering durable session state first
    /// when [`ServiceConfig::persist`] is set.
    ///
    /// Recovery folds every journal and seeds each shard's state with
    /// its sessions before any request runs; every pass then appends to
    /// its shard's journal. Start rewrites a journal
    /// only when it is torn, the shard count changed, or an older build's
    /// `snapshot.bin` is migrated (see [`crate::persist`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persistence`] when the configured directory cannot
    /// be created, its state is structurally corrupt (a torn journal
    /// *tail* is recovered from, never an error — but a corrupt snapshot
    /// or journal header must not silently reset every bus), or a
    /// rewrite fails.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.queue_capacity` is zero.
    pub fn try_start(config: ServiceConfig) -> Result<Engine, ServiceError> {
        assert!(config.shards > 0, "an engine needs at least one shard");
        assert!(
            config.queue_capacity > 0,
            "a shard queue needs room for at least one request"
        );
        assert!(
            config.max_sessions_per_shard > 0,
            "a shard needs room for at least one session"
        );
        let mut seeded: Vec<Vec<RestoredSession>> =
            (0..config.shards).map(|_| Vec::new()).collect();
        let persist = match &config.persist {
            None => None,
            Some(persist_config) => Some(recovery::recover_persist_plane(
                persist_config,
                &config,
                &mut seeded,
            )?),
        };
        let mut shared = Shared {
            queues: (0..config.shards)
                .map(|_| ShardQueue::new(config.queue_capacity))
                .collect(),
            shards: Vec::new(),
            metrics: MetricsRegistry::new(config.shards),
            telemetry: TelemetryRegistry::new(
                config.shards,
                config.trace_capacity,
                config.slowlog_capacity,
                config.slowlog_threshold_ns,
            ),
            plans: PlanCache::new(config.plan_cache_capacity),
            next_request_id: AtomicU64::new(1),
            hooks: TestHooks::default(),
            persist,
            config,
        };
        // Each shard's state reads the plan cache, metrics and journal
        // directory above, so it is built once they are in place.
        shared.shards = seeded
            .into_iter()
            .enumerate()
            .map(|(shard, restored)| Mutex::new(ShardWorker::new(shard, &shared, restored)))
            .collect();
        let shared = Arc::new(shared);
        // The engine is returned only once every worker thread runs: a
        // thread's own start-up allocates, and a caller-runs request never
        // waits for the worker, so without this the start-up can land
        // inside the first requests (`tests/local_alloc.rs`).
        let started = Arc::new(Barrier::new(shared.config.shards + 1));
        let workers = (0..shared.config.shards)
            .map(|shard| {
                let (shared, started) = (Arc::clone(&shared), Arc::clone(&started));
                std::thread::Builder::new()
                    .name(format!("dbi-shard-{shard}"))
                    .spawn(move || {
                        started.wait();
                        worker::serve(&shared, shard);
                    })
                    .expect("spawning a shard worker failed")
            })
            .collect();
        started.wait();
        Ok(Engine {
            inner: Arc::new(EngineInner {
                shared,
                workers: Mutex::new(workers),
                stopped: AtomicBool::new(false),
            }),
        })
    }

    /// Takes a snapshot now: each shard in turn, under its lock and so at
    /// a pass boundary, compacts its journal with every live session laid
    /// over the fold, synced; evicted sessions keep their records. The
    /// directory is synced before the call returns.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::PersistenceDisabled`] — no
    ///   [`ServiceConfig::persist`] was configured;
    /// * [`ServiceError::ShuttingDown`] — [`Engine::shutdown`] has run;
    /// * [`ServiceError::Persistence`] — a shard's journal could not be
    ///   rewritten (every other shard's still was).
    pub fn trigger_snapshot(&self) -> Result<SnapshotStatus, ServiceError> {
        let (plane, _ops) = self.persist_plane()?;
        let (sessions, on_disk) = self.shared().snapshot_shards()?;
        crate::persist::sync_dir(&plane.dir).map_err(recovery::persistence)?;
        plane.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        plane.last_sessions.store(sessions, Ordering::Relaxed);
        plane.last_bytes.store(on_disk, Ordering::Relaxed);
        Ok(self.snapshot_status())
    }

    /// The durable session plane's current counters. Always answers —
    /// `configured` is `false` (and every counter zero) when persistence
    /// is off.
    #[must_use]
    pub fn snapshot_status(&self) -> SnapshotStatus {
        match self.shared().persist.as_ref() {
            None => SnapshotStatus::default(),
            Some(plane) => SnapshotStatus {
                configured: true,
                compactions: plane.compactions.load(Ordering::Relaxed),
                snapshots_taken: plane.snapshots_taken.load(Ordering::Relaxed),
                last_sessions: plane.last_sessions.load(Ordering::Relaxed),
                last_bytes: plane.last_bytes.load(Ordering::Relaxed),
                restored_sessions: plane.restored_sessions.load(Ordering::Relaxed),
            },
        }
    }

    /// Re-folds every shard's journal and replaces each shard's sessions
    /// with what the fold holds — the recovery path, run against a live
    /// engine. Sessions no journal mentions keep their live entries.
    ///
    /// Every shard's lock is held, taken in index order, from before the
    /// fold until each shard is restored: every shard sits at a pass
    /// boundary whose state its journal already holds, so no pass can
    /// run between the fold and its shard's restore and be rolled back.
    ///
    /// # Errors
    ///
    /// As [`Engine::trigger_snapshot`], plus [`ServiceError::Persistence`]
    /// when a journal is structurally corrupt.
    pub fn restore(&self) -> Result<SnapshotStatus, ServiceError> {
        let (plane, _ops) = self.persist_plane()?;
        let shared = self.shared();
        let poisoned = |_| ServiceError::Internal("shard state poisoned");
        let mut workers: Vec<_> = shared
            .shards
            .iter()
            .map(|lock| lock.lock().map_err(poisoned))
            .collect::<Result<_, _>>()?;
        let shards = workers.len();
        let loaded = crate::persist::load_state(&plane.dir, shards, |id| shard_index(id, shards))
            .map_err(recovery::persistence)?;
        let mut seeded: Vec<Vec<RestoredSession>> = (0..shards).map(|_| Vec::new()).collect();
        let restored = recovery::partition_restorable(
            loaded.sessions,
            &mut seeded,
            shared.config.max_sessions_per_shard,
        );
        for (worker, sessions) in workers.iter_mut().zip(seeded) {
            let metrics = shared.metrics.shard(worker.shard);
            worker.sessions.restore(sessions, &shared.plans, metrics);
        }
        plane
            .restored_sessions
            .fetch_add(restored, Ordering::Relaxed);
        Ok(self.snapshot_status())
    }

    /// The durable session plane, locked for one admin operation; refused
    /// once the engine has shut down.
    fn persist_plane(&self) -> Result<(&PersistPlane, MutexGuard<'_, ()>), ServiceError> {
        if self.inner.stopped.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        let plane = self.shared().persist.as_ref();
        let plane = plane.ok_or(ServiceError::PersistenceDisabled)?;
        Ok((plane, plane.ops.lock().expect("persist ops lock poisoned")))
    }

    /// Fault injection for tests: when enabled, every verify-mode round
    /// trip has one byte of its decoded output flipped before comparison,
    /// forcing [`ServiceError::VerifyMismatch`]. The decode plane being
    /// correct by construction, this is the only way to exercise the
    /// mismatch path end to end.
    #[doc(hidden)]
    pub fn corrupt_verify_for_tests(&self, enabled: bool) {
        self.shared()
            .hooks
            .corrupt_verify
            .store(enabled, Ordering::SeqCst);
    }

    /// Fault injection for tests: workers sleep `delay` before executing
    /// any request for `session_id`, making that session's requests
    /// deterministically slow enough to cross the slowlog threshold.
    /// A zero `delay` disables the hook.
    #[doc(hidden)]
    pub fn inject_slowdown_for_tests(&self, session_id: u64, delay: Duration) {
        let nanos = u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX);
        let hooks = &self.shared().hooks;
        hooks.slow_session.store(session_id, Ordering::SeqCst);
        hooks.slow_delay_ns.store(nanos, Ordering::SeqCst);
    }

    /// The state the engine shares with its workers, for the connection
    /// plane's non-blocking submission path.
    pub(crate) fn shared(&self) -> &Shared {
        &self.inner.shared
    }

    /// Creates an in-process client with its own reusable request slot.
    /// Clients are independent; create one per thread.
    #[must_use]
    pub fn local_client(&self) -> LocalClient {
        LocalClient {
            engine: Arc::clone(&self.inner),
            slot: RequestSlot::new(),
        }
    }

    /// Number of shards (worker threads).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shared().config.shards
    }

    /// The shard a session id is sticky to.
    #[must_use]
    pub fn shard_of(&self, session_id: u64) -> usize {
        self.shared().shard_of(session_id)
    }

    /// A point-in-time snapshot of every shard's counters, including the
    /// shared plan-cache counters and the durable session plane's state.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.shared().metrics.snapshot();
        snapshot.plan_cache = self.shared().plans.stats();
        snapshot.durability = self.snapshot_status();
        snapshot
    }

    /// The counters of the engine's shared [`PlanCache`].
    #[must_use]
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.shared().plans.stats()
    }

    /// Up to `max_events` of the most recent trace events *per shard*,
    /// merged into one timeline ordered by enqueue time (ties by the
    /// engine-global request id). Reading never blocks the workers.
    #[must_use]
    pub fn trace_dump(&self, max_events: usize) -> Vec<TraceEvent> {
        self.shared().telemetry.trace_dump(max_events)
    }

    /// The most recent `max_entries` slowlog captures across all shards —
    /// requests whose total service time crossed
    /// [`ServiceConfig::slowlog_threshold_ns`] — in the same order as
    /// [`Engine::trace_dump`].
    #[must_use]
    pub fn slowlog(&self, max_entries: usize) -> Vec<TraceEvent> {
        self.shared().telemetry.slowlog_dump(max_entries)
    }

    /// The slowlog capture threshold this engine runs with, in
    /// nanoseconds.
    #[must_use]
    pub fn slowlog_threshold_ns(&self) -> u64 {
        self.shared().config.slowlog_threshold_ns
    }

    /// The metrics snapshot in its wire JSON form.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// Stops admitting requests, drains the queues and joins the workers.
    /// With persistence on, each shard's journal is then compacted to one
    /// record per session, synced, as an admin snapshot would, so the
    /// next start folds that instead of a journal tail; a failure counts
    /// in `journal_errors`. Idempotent; also runs when the last engine
    /// handle is dropped.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// Applies a request's cost model to its scheme, yielding the concrete
/// scheme the session will encode with.
///
/// A non-inline model replaces the weights of the parametric schemes
/// (`Opt`, `OptFixed` and `Greedy` — `OptFixed` becomes `Opt` at the new
/// weights); the remaining schemes take no coefficients, so pairing them
/// with an explicit model is rejected rather than silently ignored.
fn resolve_scheme(scheme: Scheme, cost_model: CostModel) -> Result<Scheme, ServiceError> {
    let weights = match cost_model {
        CostModel::Inline => return Ok(scheme),
        CostModel::Weights(weights) => weights,
        CostModel::Named(point) => point
            .quantised_weights()
            .map_err(|_| ServiceError::Internal("operating point failed to quantise"))?,
    };
    match scheme {
        Scheme::Opt(_) | Scheme::OptFixed => Ok(Scheme::Opt(weights)),
        Scheme::Greedy(_) => Ok(Scheme::Greedy(weights)),
        other => Err(ServiceError::BadCostModel {
            scheme: other.to_string(),
        }),
    }
}

/// Fibonacci-hash a session id onto a shard: sticky and well spread even
/// for sequential ids. Free-standing so recovery can partition restored
/// sessions before the engine exists.
fn shard_index(session_id: u64, shards: usize) -> usize {
    let mixed = session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) as usize) % shards
}

impl Shared {
    fn shard_of(&self, session_id: u64) -> usize {
        shard_index(session_id, self.config.shards)
    }

    /// Checks a request's geometry and payload, then — for a batch —
    /// that its burst count agrees with the payload.
    fn validate(
        &self,
        request: &EncodeRequest<'_>,
        count: Option<u16>,
    ) -> Result<(), ServiceError> {
        if request.groups == 0
            || request.groups > MAX_GROUPS
            || request.burst_len == 0
            || request.burst_len > MAX_BURST_LEN
        {
            return Err(ServiceError::BadGeometry {
                groups: request.groups,
                burst_len: request.burst_len,
            });
        }
        if request.payload.len() > self.config.max_payload {
            return Err(ServiceError::PayloadTooLarge {
                got: request.payload.len(),
                max: self.config.max_payload,
            });
        }
        let access = usize::from(request.groups) * usize::from(request.burst_len);
        if request.payload.is_empty() || !request.payload.len().is_multiple_of(access) {
            return Err(ServiceError::BadPayload {
                got: request.payload.len(),
                expected_multiple: access,
            });
        }
        // Wire parity: whatever the engine admits must be expressible as
        // frames in *both* directions, whatever `max_payload` is set to —
        // otherwise a LocalClient could execute requests a TcpClient can
        // never send, or the server could compute a response it cannot
        // frame (one mask per burst makes responses up to 4x the payload).
        // Bounds use the larger, batch form of each id-tagged frame.
        let request_body = crate::wire::REQUEST_ID_WIRE_BYTES
            + crate::wire::BATCH_REQUEST_HEAD_LEN
            + request.payload.len();
        let mask_bytes = if request.want_masks {
            (request.payload.len() / usize::from(request.burst_len)) * InversionMask::WIRE_BYTES
        } else {
            0
        };
        let response_body = crate::wire::REQUEST_ID_WIRE_BYTES
            + crate::wire::BATCH_RESPONSE_HEAD_LEN
            + usize::from(request.groups) * CostBreakdown::WIRE_BYTES
            + mask_bytes;
        if request_body.max(response_body) > crate::wire::MAX_BODY_LEN {
            return Err(ServiceError::PayloadTooLarge {
                got: request.payload.len(),
                max: crate::wire::MAX_BODY_LEN,
            });
        }
        if let Some(count) = count {
            // Geometry is valid, so burst_len is nonzero and the division
            // is exact; the count field must agree with it.
            let bursts_in_payload = (request.payload.len() / usize::from(request.burst_len)) as u64;
            if count == 0 || u64::from(count) != bursts_in_payload {
                return Err(ServiceError::BadBatchCount {
                    count,
                    got: bursts_in_payload,
                });
            }
        }
        Ok(())
    }

    /// Validates and resolves an encode request — a batch when `count`
    /// carries its burst count — yielding the shard it routes to and the
    /// key workers coalesce on. Rejections (geometry and payload, then
    /// count, then cost model) are counted against the target shard
    /// before returning.
    pub(crate) fn prepare(
        &self,
        request: &EncodeRequest<'_>,
        count: Option<u16>,
    ) -> Result<(usize, RouteKey), ServiceError> {
        let shard = self.shard_of(request.session_id);
        // Resolve the cost model up front: workers (and the session map)
        // only ever see concrete weights, so two sessions whose models
        // resolve differently can never collide silently.
        let scheme = self
            .validate(request, count)
            .and_then(|()| resolve_scheme(request.scheme, request.cost_model))
            .inspect_err(|_| self.metrics.shard(shard).record_reject())?;
        Ok((
            shard,
            RouteKey {
                session_id: request.session_id,
                scheme,
                groups: request.groups,
                burst_len: request.burst_len,
            },
        ))
    }

    /// Fills a prepared slot and enqueues it on its shard, waking the
    /// worker, without blocking for the result. On success the shard owns
    /// the slot until a pass publishes `Done` (and fires the registered
    /// completion, if any); on failure the slot is rolled back to `Idle`,
    /// the rejection is counted, and the completion — never fired — is
    /// returned to the caller inside the untouched slot.
    pub(crate) fn submit_slot(
        &self,
        shard: usize,
        key: RouteKey,
        request: &EncodeRequest<'_>,
        completion: Option<Completion>,
        slot: &Arc<RequestSlot>,
    ) -> Result<(), ServiceError> {
        self.enqueue(shard, key, request, completion, slot, true)
    }

    /// [`Shared::submit_slot`], with the worker's wake-up optional: only
    /// the holder of the shard's lock skips it, for the job it is about to
    /// run itself.
    fn enqueue(
        &self,
        shard: usize,
        key: RouteKey,
        request: &EncodeRequest<'_>,
        completion: Option<Completion>,
        slot: &Arc<RequestSlot>,
        notify: bool,
    ) -> Result<(), ServiceError> {
        let shard_metrics = self.metrics.shard(shard);
        {
            let mut state = slot.state.lock().expect("slot mutex poisoned");
            debug_assert_eq!(state.phase, Phase::Idle, "slot reused while in flight");
            state.session_id = key.session_id;
            state.scheme = key.scheme;
            state.groups = key.groups;
            state.burst_len = key.burst_len;
            state.want_masks = request.want_masks;
            state.verify = request.verify.is_on();
            state.payload.clear();
            state.payload.extend_from_slice(request.payload);
            state.request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
            state.enqueue_ns = clock::now_nanos();
            state.completion = completion;
            state.phase = Phase::Queued;
        }

        // Count the enqueue *before* the job becomes visible: a fast
        // worker may pop and `dequeue()` immediately, and the depth
        // counter must never transiently underflow.
        shard_metrics.enqueue();
        if let Err(err) = self.queues[shard].try_push(shard, key, Arc::clone(slot), notify) {
            shard_metrics.dequeue();
            slot.state.lock().expect("slot mutex poisoned").phase = Phase::Idle;
            shard_metrics.record_reject();
            return Err(err);
        }
        Ok(())
    }
}

impl EngineInner {
    fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for queue in &self.shared.queues {
            queue.close();
        }
        let workers = core::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
        self.compact_journals();
    }

    /// The clean-shutdown half of durability: after the last drain, each
    /// shard runs its admin-snapshot step (its journal compacted with
    /// every live session laid over the fold, synced), then the directory
    /// is synced once. A restart then folds one record per session
    /// instead of a journal tail. Failures count in `journal_errors` (a
    /// failed directory sync on shard 0's).
    fn compact_journals(&self) {
        let shared = &*self.shared;
        let Some(plane) = &shared.persist else {
            return;
        };
        let _ = shared.snapshot_shards();
        if crate::persist::sync_dir(&plane.dir).is_err() {
            shared.metrics.shard(0).journal_error();
        }
    }
}

impl Drop for EngineInner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An in-process client: the same request/response semantics as the TCP
/// path, minus the socket — deterministic and allocation-free in steady
/// state.
#[derive(Debug)]
pub struct LocalClient {
    engine: Arc<EngineInner>,
    slot: Arc<RequestSlot>,
}

impl LocalClient {
    /// Executes one encode request, blocking until its shard has encoded
    /// the payload — on this thread when the shard is idle. Results are
    /// written into `reply`, whose buffers are cleared and refilled
    /// (reusing capacity).
    ///
    /// # Errors
    ///
    /// * [`ServiceError::BadGeometry`] / [`ServiceError::BadPayload`] /
    ///   [`ServiceError::PayloadTooLarge`] — the request never reached a
    ///   shard;
    /// * [`ServiceError::Overloaded`] — the shard queue was full
    ///   (backpressure; retry later);
    /// * [`ServiceError::ShuttingDown`] — the engine no longer admits work;
    /// * [`ServiceError::SessionMismatch`] — the session id exists with a
    ///   different scheme or geometry;
    /// * [`ServiceError::SessionLimit`] — the target shard already holds
    ///   its configured maximum number of sessions.
    pub fn encode(
        &mut self,
        request: &EncodeRequest<'_>,
        reply: &mut EncodeReply,
    ) -> Result<(), ServiceError> {
        self.submit(request, None, reply)
    }

    /// Executes one **batched** encode request — a whole batch of bursts
    /// under one submission, the wire's batch request frame. Semantics
    /// and failure modes match [`LocalClient::encode`] over the same
    /// payload, plus:
    ///
    /// * [`ServiceError::BadBatchCount`] — the request's burst-count
    ///   field is zero or disagrees with the payload length.
    ///
    /// The request rides the same reusable slot, so the batch path keeps
    /// the zero-allocation-when-warm guarantee.
    pub fn encode_batch(
        &mut self,
        request: &EncodeBatchRequest<'_>,
        reply: &mut EncodeReply,
    ) -> Result<(), ServiceError> {
        self.submit(&request.plain(), Some(request.count), reply)
    }

    /// The shared tail of [`LocalClient::encode`] and
    /// [`LocalClient::encode_batch`]: validates and resolves the request
    /// (a batch when `count` is set), then round-trips it through the
    /// reusable slot.
    ///
    /// Caller-runs: when the shard's lock is free, the job is enqueued
    /// without a wake-up and this thread drains the shard until the job
    /// has run. Otherwise it is enqueued with a wake-up and this thread
    /// waits on the slot's condvar.
    fn submit(
        &mut self,
        request: &EncodeRequest<'_>,
        count: Option<u16>,
        reply: &mut EncodeReply,
    ) -> Result<(), ServiceError> {
        let shared = &self.engine.shared;
        let (shard, key) = shared.prepare(request, count)?;
        match shared.shards[shard].try_lock() {
            Ok(mut worker) => {
                shared.enqueue(shard, key, request, None, &self.slot, false)?;
                worker.drain(shared, Some(&self.slot));
            }
            Err(TryLockError::WouldBlock) => {
                shared.submit_slot(shard, key, request, None, &self.slot)?;
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard state poisoned"),
        }

        let mut state = self.slot.state.lock().expect("slot mutex poisoned");
        while state.phase != Phase::Done {
            state = self.slot.done.wait(state).expect("slot mutex poisoned");
        }
        state.phase = Phase::Idle;
        match state.result {
            Ok(bursts) => {
                reply.bursts = bursts;
                reply.per_group.clear();
                reply.per_group.extend_from_slice(&state.per_group);
                reply.masks.clear();
                reply.masks.extend_from_slice(&state.masks);
                Ok(())
            }
            Err(ref err) => Err(err.clone()),
        }
    }
}

/// An owned encode response. Reuse one across calls: the vectors are
/// cleared and refilled, so a warmed-up reply never reallocates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EncodeReply {
    /// Per-group bursts encoded by the request.
    pub bursts: u64,
    /// Activity added by the request, one record per lane group.
    pub per_group: Vec<CostBreakdown>,
    /// Per-burst inversion decisions in transmission order; empty unless
    /// the request asked for masks.
    pub masks: Vec<InversionMask>,
}

impl EncodeReply {
    /// An empty reply, ready to be filled by a client call.
    #[must_use]
    pub fn new() -> Self {
        EncodeReply::default()
    }

    /// Total activity across all groups.
    #[must_use]
    pub fn total(&self) -> CostBreakdown {
        self.per_group.iter().copied().sum()
    }

    /// The reply as a [`ChannelActivity`], for comparison against
    /// [`BusSession`](dbi_mem::BusSession) results.
    #[must_use]
    pub fn activity(&self) -> ChannelActivity {
        ChannelActivity {
            bursts: self.bursts,
            per_group: self.per_group.clone(),
        }
    }
}
