//! The sharded encode engine.
//!
//! [`Engine::start`] spawns N worker threads. Each worker owns a **shard**:
//! a bounded job queue and a private map of encode sessions
//! ([`dbi_mem::BusSession`]) keyed by client session id. Requests are
//! routed by `shard_of(session_id)`, so a given session always lands on
//! the same worker — *sticky sharding* — which is what lets the carried
//! bus state of every session evolve exactly as it would in a
//! single-threaded run. No session is ever shared between threads, so the
//! workers need no locks around the encode hot path.
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
//! covers only a few groups — and each session then re-imports its
//! states and carves its share of masks and costs back out
//! ([`BusSession::import_states`] /
//! [`BusSession::gather_packed_results`]). The transitions-saved metric
//! needs no state of its own: it is derived from each job's payload and
//! the carried states captured before the dispatch, so it also holds
//! across a kill and restore.
//!
//! Chains are independent recurrences and rounds execute in formation
//! order, so per-session FIFO is preserved and every reply is
//! bit-identical to the uncoalesced schedule (differential-tested in
//! `tests/packed_differential.rs`). Verify-mode requests ride the same
//! packed machinery: the receiver session decodes through
//! [`BusSession::decode_stream_slab_into`], the slab-kernel decode path.
//! Pass sizes, coalesced counts and per-dispatch lane occupancy land in
//! the `batch` block of the metrics.
//!
//! ## The allocation-free request path
//!
//! A [`LocalClient`] owns one reusable **request slot**: a mutex-protected
//! scratch area holding the request payload and the response buffers. A
//! call copies the payload into the slot, enqueues a reference-counted
//! pointer to it, and blocks on the slot's condvar; the worker encodes
//! straight into the slot's buffers (via
//! [`BusSession::encode_stream_into`]) and signals completion. Every
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

use crate::error::ServiceError;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::persist::journal::{journal_path, JournalWriter};
use crate::persist::{snapshot, PersistConfig, PersistPlane, RestoredSession};
use crate::telemetry::{TelemetryRegistry, TraceEvent, TraceOutcome};
use crate::wire::{
    CostModel, EncodeBatchRequestFrame, EncodeRequestFrame, SnapshotStatus, VerifyMode,
};
use dbi_core::persist::push_session_record;
use dbi_core::{
    clock, BurstSlab, BusState, CostBreakdown, DbiEncoder, InversionMask, KernelKind, PlanCache,
    PlanCacheStats, Scheme,
};
use dbi_mem::{BusSession, ChannelActivity};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// The request type accepted by both the in-process [`LocalClient`] and the
/// TCP [`TcpClient`](crate::TcpClient) — identical to the wire frame, so a
/// request can be sent either way without translation.
pub type EncodeRequest<'a> = EncodeRequestFrame<'a>;

/// The batched request type: a whole batch of bursts for one session
/// under a single header. Identical to the wire frame, like
/// [`EncodeRequest`].
pub type EncodeBatchRequest<'a> = EncodeBatchRequestFrame<'a>;

/// Upper bound on how many further queued requests one worker pass drains
/// behind the request it popped (the packing window). Bounds the latency
/// a burst of requests can add to work still arriving behind it.
const COALESCE_LIMIT: usize = 16;

/// Largest chain count one packed round accepts before a job opens a new
/// round. Generous multiple of every kernel's lane width; bounds the
/// shared slab's mask/cost arrays.
const ROUND_CHAIN_LIMIT: u32 = 64;

/// Largest payload volume (bytes) one packed round accepts before a job
/// opens a new round — bounds the shared slab's resident size no matter
/// how large the individual requests in the window are.
const ROUND_BYTE_LIMIT: usize = 1 << 20;

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
/// Fired by the shard worker *after* `Done` is published and the slot
/// lock is released, so a sink may immediately re-lock the slot to read
/// the response. Firing must not block: the implementation is expected
/// to push the slot onto an inbox and wake a poller.
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

/// Per-submission options for [`EngineInner::submit_slot`], beyond the
/// routing key and payload: the wire flags plus the optional completion
/// registration for non-blocking submitters.
#[derive(Debug, Default)]
pub(crate) struct SubmitOptions {
    pub(crate) want_masks: bool,
    pub(crate) verify: bool,
    pub(crate) completion: Option<Completion>,
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

/// An admin operation executed *by the shard worker itself*, between
/// passes — the per-shard quiesce the durable session plane is built on:
/// while the worker serves a control job, no request is mutating the
/// shard's sessions, so a capture sees every session at a pass boundary.
#[derive(Debug)]
enum ControlRequest {
    /// Serialise every live session into CRC-guarded records and mark
    /// them captured.
    Capture,
    /// Truncate the shard's journal and restart it at `generation`.
    Rotate { generation: u64 },
    /// Replace the shard's sessions with state recovered from disk.
    Restore { sessions: Vec<RestoredSession> },
}

/// What a control job came back with.
#[derive(Debug)]
enum ControlOutcome {
    /// `Capture`: the shard's sessions as back-to-back session records.
    Captured { records: u32, bytes: Vec<u8> },
    /// `Rotate` / `Restore` completed.
    Done,
    /// The engine shut down before the worker could serve the job.
    Aborted,
}

/// The rendezvous a control submitter blocks on. Every admitted control
/// job is answered exactly once — served by the worker loop, or
/// `Aborted` by the worker's shutdown drain.
#[derive(Debug)]
struct ControlReply {
    result: Mutex<Option<ControlOutcome>>,
    done: Condvar,
}

impl ControlReply {
    fn new() -> Self {
        ControlReply {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn deliver(&self, outcome: ControlOutcome) {
        *self.result.lock().expect("control reply poisoned") = Some(outcome);
        self.done.notify_all();
    }

    fn wait(&self) -> ControlOutcome {
        let mut guard = self.result.lock().expect("control reply poisoned");
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.done.wait(guard).expect("control reply poisoned");
        }
    }
}

#[derive(Debug)]
struct ControlJob {
    request: ControlRequest,
    reply: Arc<ControlReply>,
}

/// What a blocking dequeue produced.
enum Popped {
    /// A request to execute.
    Job((RouteKey, Arc<RequestSlot>)),
    /// One or more control jobs are pending; drain them via
    /// [`ShardQueue::take_control`].
    Control,
    /// The queue is closed and drained; the worker exits.
    Closed,
}

/// A bounded **lock-free** multi-producer queue feeding one shard worker:
/// a Vyukov-style ring holds the jobs (exact logical capacity, so the
/// [`ServiceError::Overloaded`] threshold is precisely
/// [`ServiceConfig::queue_capacity`]) and an eventcount lets the worker
/// park when idle without putting a mutex on the submission path.
///
/// Beside the ring rides a small mutex-protected **control lane** for the
/// rare admin jobs (snapshot capture, journal rotation, restore); a
/// worker checks its flag before popping requests, so control jobs run at
/// the next pass boundary without the data path ever touching the mutex.
///
/// Shutdown protocol: `close` raises the flag, spins out the producers
/// currently inside `try_push`/`push_control` (the `inflight` count),
/// then wakes the worker. `pop_blocking` only returns [`Popped::Closed`]
/// after observing `closed && inflight == 0` *and* a final empty pop — so
/// every job a producer was admitted to push is drained and answered
/// before the worker exits, exactly as the old mutex queue guaranteed by
/// linearising `close` against `try_push`.
#[derive(Debug)]
struct ShardQueue {
    ring: eventring::Ring<(RouteKey, Arc<RequestSlot>)>,
    ready: eventring::EventCount,
    closed: AtomicBool,
    inflight: AtomicUsize,
    control: Mutex<VecDeque<ControlJob>>,
    control_pending: AtomicBool,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            ring: eventring::Ring::with_capacity(capacity),
            ready: eventring::EventCount::new(),
            closed: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            control: Mutex::new(VecDeque::new()),
            control_pending: AtomicBool::new(false),
        }
    }

    /// Non-blocking enqueue: a full ring is an immediate, explicit
    /// overload signal, never a stall.
    fn try_push(
        &self,
        shard: usize,
        key: RouteKey,
        job: Arc<RequestSlot>,
    ) -> Result<(), ServiceError> {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(ServiceError::ShuttingDown);
        }
        let pushed = self.ring.push((key, job));
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        match pushed {
            Ok(()) => {
                self.ready.notify_all();
                Ok(())
            }
            Err(_full) => Err(ServiceError::Overloaded { shard }),
        }
    }

    /// Non-blocking dequeue, used to drain the packing window behind a
    /// popped job.
    fn try_pop(&self) -> Option<(RouteKey, Arc<RequestSlot>)> {
        self.ring.pop()
    }

    /// Enqueues a control job for the worker to serve at its next pass
    /// boundary. The same admission protocol as `try_push`, so every
    /// accepted job is guaranteed an answer even across shutdown.
    fn push_control(&self, job: ControlJob) -> Result<(), ServiceError> {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(ServiceError::ShuttingDown);
        }
        {
            let mut control = self.control.lock().expect("control lane poisoned");
            control.push_back(job);
            self.control_pending.store(true, Ordering::SeqCst);
        }
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.ready.notify_all();
        Ok(())
    }

    /// Pops one pending control job; clears the fast-path flag with the
    /// last one (flag and queue move together under the lane's lock).
    fn take_control(&self) -> Option<ControlJob> {
        let mut control = self.control.lock().expect("control lane poisoned");
        let job = control.pop_front();
        if control.is_empty() {
            self.control_pending.store(false, Ordering::SeqCst);
        }
        job
    }

    /// Blocking dequeue. Control jobs outrank requests — they are rare
    /// and latency-sensitive (a capture holds the snapshot barrier) — and
    /// the data path only ever reads their atomic flag.
    fn pop_blocking(&self) -> Popped {
        loop {
            if self.control_pending.load(Ordering::SeqCst) {
                return Popped::Control;
            }
            if let Some(job) = self.ring.pop() {
                return Popped::Job(job);
            }
            let ticket = self.ready.listen();
            if self.control_pending.load(Ordering::SeqCst) {
                return Popped::Control;
            }
            if let Some(job) = self.ring.pop() {
                return Popped::Job(job);
            }
            if self.closed.load(Ordering::SeqCst) && self.inflight.load(Ordering::SeqCst) == 0 {
                // Reading `inflight == 0` (SeqCst) after `closed` means
                // every admitted push has finished its insertion; one
                // last check of both lanes linearises the drain.
                if self.control_pending.load(Ordering::SeqCst) {
                    return Popped::Control;
                }
                return match self.ring.pop() {
                    Some(job) => Popped::Job(job),
                    None => Popped::Closed,
                };
            }
            self.ready.wait(ticket);
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        while self.inflight.load(Ordering::SeqCst) > 0 {
            std::hint::spin_loop();
        }
        self.ready.notify_all();
    }
}

/// One shard worker's per-session state: the encode session and the
/// **receiver** session verify-mode requests replay through.
struct SessionEntry {
    scheme: Scheme,
    session: BusSession,
    /// The receiver half of the session, used only by verify-mode
    /// requests: before each verified request its group states are
    /// synchronised to the transmitter's, so a session may alternate
    /// verify on and off without the receiver drifting. Shares the
    /// transmitter's plan `Arc` (decode is scheme-independent; the plan
    /// only sizes the slab geometry).
    receiver: BusSession,
    /// The worker's pass counter value the last time a request touched
    /// this session. Idle-age eviction removes the smallest stamp first;
    /// stamps equal to the current pass are in use and never evicted.
    last_touch: u64,
    /// Whether the session's current carried state is already on disk (a
    /// snapshot capture or a journal record since its last touch).
    /// Eviction prefers captured sessions: their state survives for an
    /// admin restore, so evicting them loses nothing durable.
    captured: bool,
}

impl SessionEntry {
    fn new(scheme: Scheme, groups: u16, burst_len: u8, plans: &PlanCache) -> Self {
        let plan = plans.get(scheme);
        SessionEntry {
            scheme,
            session: BusSession::with_plan_geometry(
                usize::from(groups),
                usize::from(burst_len),
                Arc::clone(&plan),
            ),
            receiver: BusSession::with_plan_geometry(
                usize::from(groups),
                usize::from(burst_len),
                plan,
            ),
            last_touch: 0,
            captured: false,
        }
    }

    fn matches(&self, scheme: Scheme, groups: u16, burst_len: u8) -> bool {
        self.scheme == scheme
            && self.session.group_count() == usize::from(groups)
            && self.session.burst_len() == usize::from(burst_len)
    }
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

#[derive(Debug)]
pub(crate) struct EngineInner {
    config: ServiceConfig,
    queues: Vec<Arc<ShardQueue>>,
    metrics: Arc<MetricsRegistry>,
    telemetry: Arc<TelemetryRegistry>,
    plans: Arc<PlanCache>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
    /// Engine-global request id source; every submission takes the next
    /// id, so trace timelines interleave shards unambiguously.
    next_request_id: AtomicU64,
    hooks: Arc<TestHooks>,
    /// The durable session plane's shared bookkeeping; `None` when
    /// persistence is not configured.
    persist: Option<Arc<PersistPlane>>,
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
            .field("config", &self.inner.config)
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
    /// Recovery folds the snapshot and every live journal (journal
    /// records winning), immediately re-writes the folded state as a
    /// fresh snapshot — so start *self-compacts* and stale files never
    /// accumulate — and seeds each shard's worker with its sessions
    /// before the worker serves its first request.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persistence`] when the configured directory cannot
    /// be created or its state is structurally corrupt (a torn journal
    /// *tail* is recovered from, never an error — but a corrupt snapshot
    /// or journal header must not silently reset every bus).
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
            Some(persist_config) => Some(Arc::new(recover_persist_plane(
                persist_config,
                &config,
                &mut seeded,
            )?)),
        };
        let queues: Vec<Arc<ShardQueue>> = (0..config.shards)
            .map(|_| Arc::new(ShardQueue::new(config.queue_capacity)))
            .collect();
        let metrics = Arc::new(MetricsRegistry::new(config.shards));
        let telemetry = Arc::new(TelemetryRegistry::new(
            config.shards,
            config.trace_capacity,
            config.slowlog_capacity,
            config.slowlog_threshold_ns,
        ));
        let plans = Arc::new(PlanCache::new(config.plan_cache_capacity));
        let hooks = Arc::new(TestHooks::default());
        let workers = queues
            .iter()
            .enumerate()
            .zip(seeded)
            .map(|((shard, queue), restored)| {
                let queue = Arc::clone(queue);
                let metrics = Arc::clone(&metrics);
                let telemetry = Arc::clone(&telemetry);
                let plans = Arc::clone(&plans);
                let hooks = Arc::clone(&hooks);
                let persist = persist.clone();
                let max_sessions = config.max_sessions_per_shard;
                std::thread::Builder::new()
                    .name(format!("dbi-shard-{shard}"))
                    .spawn(move || {
                        worker_loop(
                            shard,
                            &queue,
                            &metrics,
                            &telemetry,
                            &plans,
                            max_sessions,
                            &hooks,
                            persist.as_deref(),
                            restored,
                        )
                    })
                    .expect("spawning a shard worker failed")
            })
            .collect();
        Ok(Engine {
            inner: Arc::new(EngineInner {
                config,
                queues,
                metrics,
                telemetry,
                plans,
                workers: Mutex::new(workers),
                stopped: AtomicBool::new(false),
                next_request_id: AtomicU64::new(1),
                hooks,
                persist,
            }),
        })
    }

    /// Takes a snapshot now: quiesces each shard in turn at a pass
    /// boundary to capture its sessions, writes the combined capture
    /// atomically as the new `snapshot.bin`, then rotates every shard's
    /// journal past it.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::PersistenceDisabled`] — no
    ///   [`ServiceConfig::persist`] was configured;
    /// * [`ServiceError::ShuttingDown`] — the engine stopped before every
    ///   shard could be captured;
    /// * [`ServiceError::Persistence`] — the snapshot could not be
    ///   written.
    pub fn trigger_snapshot(&self) -> Result<SnapshotStatus, ServiceError> {
        let plane = self
            .inner
            .persist
            .as_deref()
            .ok_or(ServiceError::PersistenceDisabled)?;
        let _ops = plane.ops.lock().expect("persist ops lock poisoned");
        let generation = plane.generation.load(Ordering::Relaxed);
        let mut record_count = 0u32;
        let mut record_bytes = Vec::new();
        for queue in &self.inner.queues {
            match self.inner.control_round(queue, ControlRequest::Capture)? {
                ControlOutcome::Captured { records, bytes } => {
                    record_count += records;
                    record_bytes.extend_from_slice(&bytes);
                }
                _ => return Err(ServiceError::Internal("capture answered without records")),
            }
        }
        let bytes = snapshot::write_snapshot(&plane.dir, generation, record_count, &record_bytes)
            .map_err(|err| ServiceError::Persistence {
            detail: err.to_string(),
        })?;
        for queue in &self.inner.queues {
            self.inner.control_round(
                queue,
                ControlRequest::Rotate {
                    generation: generation + 1,
                },
            )?;
        }
        plane.generation.store(generation + 1, Ordering::Relaxed);
        plane.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        plane
            .last_sessions
            .store(u64::from(record_count), Ordering::Relaxed);
        plane.last_bytes.store(bytes, Ordering::Relaxed);
        Ok(self.snapshot_status())
    }

    /// The durable session plane's current counters. Always answers —
    /// `configured` is `false` (and every counter zero) when persistence
    /// is off.
    #[must_use]
    pub fn snapshot_status(&self) -> SnapshotStatus {
        match self.inner.persist.as_deref() {
            None => SnapshotStatus::default(),
            Some(plane) => SnapshotStatus {
                configured: true,
                generation: plane.generation.load(Ordering::Relaxed),
                snapshots_taken: plane.snapshots_taken.load(Ordering::Relaxed),
                last_sessions: plane.last_sessions.load(Ordering::Relaxed),
                last_bytes: plane.last_bytes.load(Ordering::Relaxed),
                restored_sessions: plane.restored_sessions.load(Ordering::Relaxed),
            },
        }
    }

    /// Re-reads the durable state from disk and replaces every shard's
    /// sessions with it — the recovery path, run against a live engine.
    /// Sessions the disk does not mention (created since the last
    /// snapshot+journal write, or evicted ones whose records survive)
    /// keep their live entries.
    ///
    /// # Errors
    ///
    /// As [`Engine::trigger_snapshot`], plus [`ServiceError::Persistence`]
    /// when the on-disk state is structurally corrupt.
    pub fn restore(&self) -> Result<SnapshotStatus, ServiceError> {
        let plane = self
            .inner
            .persist
            .as_deref()
            .ok_or(ServiceError::PersistenceDisabled)?;
        let _ops = plane.ops.lock().expect("persist ops lock poisoned");
        let loaded =
            crate::persist::load_state(&plane.dir).map_err(|err| ServiceError::Persistence {
                detail: err.to_string(),
            })?;
        let mut seeded: Vec<Vec<RestoredSession>> =
            (0..self.inner.config.shards).map(|_| Vec::new()).collect();
        let restored = partition_restorable(
            loaded.sessions,
            &mut seeded,
            self.inner.config.max_sessions_per_shard,
        );
        for (queue, sessions) in self.inner.queues.iter().zip(seeded) {
            self.inner
                .control_round(queue, ControlRequest::Restore { sessions })?;
        }
        plane
            .restored_sessions
            .fetch_add(restored, Ordering::Relaxed);
        Ok(self.snapshot_status())
    }

    /// Fault injection for tests: when enabled, every verify-mode round
    /// trip has one byte of its decoded output flipped before comparison,
    /// forcing [`ServiceError::VerifyMismatch`]. The decode plane being
    /// correct by construction, this is the only way to exercise the
    /// mismatch path end to end.
    #[doc(hidden)]
    pub fn corrupt_verify_for_tests(&self, enabled: bool) {
        self.inner
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
        self.inner
            .hooks
            .slow_session
            .store(session_id, Ordering::SeqCst);
        self.inner
            .hooks
            .slow_delay_ns
            .store(nanos, Ordering::SeqCst);
    }

    /// The shared engine internals, for the connection plane's
    /// non-blocking submission path.
    pub(crate) fn inner(&self) -> &Arc<EngineInner> {
        &self.inner
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
        self.inner.config.shards
    }

    /// The shard a session id is sticky to.
    #[must_use]
    pub fn shard_of(&self, session_id: u64) -> usize {
        self.inner.shard_of(session_id)
    }

    /// A point-in-time snapshot of every shard's counters, including the
    /// shared plan-cache counters and the durable session plane's state.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.inner.metrics.snapshot();
        snapshot.plan_cache = self.inner.plans.stats();
        snapshot.durability = self.snapshot_status();
        snapshot
    }

    /// The counters of the engine's shared [`PlanCache`].
    #[must_use]
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plans.stats()
    }

    /// Up to `max_events` of the most recent trace events *per shard*,
    /// merged into one timeline ordered by enqueue time (ties by the
    /// engine-global request id). Reading never blocks the workers.
    #[must_use]
    pub fn trace_dump(&self, max_events: usize) -> Vec<TraceEvent> {
        self.inner.telemetry.trace_dump(max_events)
    }

    /// The most recent `max_entries` slowlog captures across all shards —
    /// requests whose total service time crossed
    /// [`ServiceConfig::slowlog_threshold_ns`] — in the same order as
    /// [`Engine::trace_dump`].
    #[must_use]
    pub fn slowlog(&self, max_entries: usize) -> Vec<TraceEvent> {
        self.inner.telemetry.slowlog_dump(max_entries)
    }

    /// The slowlog capture threshold this engine runs with, in
    /// nanoseconds.
    #[must_use]
    pub fn slowlog_threshold_ns(&self) -> u64 {
        self.inner.config.slowlog_threshold_ns
    }

    /// The metrics snapshot in its wire JSON form.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// Stops admitting requests, drains the queues and joins the workers.
    /// Idempotent; also runs when the last engine handle is dropped.
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

/// Distributes recovered sessions onto `seeded` (one bucket per shard) by
/// the sticky hash, dropping any whose geometry this engine would not
/// admit (a foreign or hand-edited file must not plant un-servable
/// entries) and capping each bucket at the per-shard session limit.
/// Returns how many sessions were kept.
fn partition_restorable(
    sessions: Vec<RestoredSession>,
    seeded: &mut [Vec<RestoredSession>],
    max_sessions: usize,
) -> u64 {
    let mut kept = 0u64;
    for session in sessions {
        if session.groups == 0
            || session.groups > MAX_GROUPS
            || session.burst_len == 0
            || session.burst_len > MAX_BURST_LEN
            || session.states.len() != usize::from(session.groups)
        {
            continue;
        }
        let shard = shard_index(session.session_id, seeded.len());
        if seeded[shard].len() >= max_sessions {
            continue;
        }
        seeded[shard].push(session);
        kept += 1;
    }
    kept
}

/// Engine-start recovery: folds the on-disk state, partitions it onto the
/// shards, self-compacts it into a fresh snapshot (so journals restart
/// empty and files from defunct shard counts can be removed), and builds
/// the shared plane. `seeded` receives each shard's sessions.
fn recover_persist_plane(
    persist_config: &PersistConfig,
    config: &ServiceConfig,
    seeded: &mut [Vec<RestoredSession>],
) -> Result<PersistPlane, ServiceError> {
    let persistence_err = |err: &dyn std::fmt::Display| ServiceError::Persistence {
        detail: err.to_string(),
    };
    let dir = &persist_config.dir;
    std::fs::create_dir_all(dir).map_err(|err| persistence_err(&err))?;
    let loaded = crate::persist::load_state(dir).map_err(|err| persistence_err(&err))?;
    let restored = partition_restorable(loaded.sessions, seeded, config.max_sessions_per_shard);

    // Self-compact: everything recovery kept becomes the new snapshot,
    // written *before* the old journals are removed — at no point does
    // disk hold less than the recovered state.
    let mut record_count = 0u32;
    let mut record_bytes = Vec::new();
    for bucket in seeded.iter() {
        for session in bucket {
            push_session_record(
                &mut record_bytes,
                session.session_id,
                session.scheme,
                session.burst_len,
                &session.states,
            );
            record_count += 1;
        }
    }
    let snapshot_generation = loaded.generation + 1;
    let bytes = snapshot::write_snapshot(dir, snapshot_generation, record_count, &record_bytes)
        .map_err(|err| persistence_err(&err))?;
    for path in crate::persist::journal::journal_files(dir).map_err(|err| persistence_err(&err))? {
        std::fs::remove_file(path).map_err(|err| persistence_err(&err))?;
    }
    Ok(PersistPlane {
        dir: dir.clone(),
        generation: AtomicU64::new(snapshot_generation + 1),
        snapshots_taken: AtomicU64::new(1),
        last_sessions: AtomicU64::new(u64::from(record_count)),
        last_bytes: AtomicU64::new(bytes),
        restored_sessions: AtomicU64::new(restored),
        ops: Mutex::new(()),
    })
}

impl EngineInner {
    /// Fibonacci-hash the session id onto a shard: sticky and well spread
    /// even for sequential ids.
    fn shard_of(&self, session_id: u64) -> usize {
        shard_index(session_id, self.config.shards)
    }

    /// Submits one control job to a shard and blocks for its answer.
    /// Every admitted job is answered (served, or `Aborted` by the
    /// worker's shutdown drain), so the wait cannot hang.
    fn control_round(
        &self,
        queue: &ShardQueue,
        request: ControlRequest,
    ) -> Result<ControlOutcome, ServiceError> {
        let reply = Arc::new(ControlReply::new());
        queue.push_control(ControlJob {
            request,
            reply: Arc::clone(&reply),
        })?;
        match reply.wait() {
            ControlOutcome::Aborted => Err(ServiceError::ShuttingDown),
            outcome => Ok(outcome),
        }
    }

    fn validate(&self, request: &EncodeRequest<'_>) -> Result<(), ServiceError> {
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
        Ok(())
    }

    /// Validates and resolves a plain encode request, yielding the shard
    /// it routes to and the key workers coalesce on. Rejections are
    /// counted against the target shard before returning, exactly as the
    /// blocking client path does.
    pub(crate) fn prepare(
        &self,
        request: &EncodeRequest<'_>,
    ) -> Result<(usize, RouteKey), ServiceError> {
        let shard = self.shard_of(request.session_id);
        let shard_metrics = self.metrics.shard(shard);
        if let Err(err) = self.validate(request) {
            shard_metrics.record_reject();
            return Err(err);
        }
        // Resolve the cost model up front: workers (and the session map)
        // only ever see concrete weights, so two sessions whose models
        // resolve differently can never collide silently.
        let scheme = match resolve_scheme(request.scheme, request.cost_model) {
            Ok(scheme) => scheme,
            Err(err) => {
                shard_metrics.record_reject();
                return Err(err);
            }
        };
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

    /// The batched flavour of [`EngineInner::prepare`]: same validation
    /// over the flattened payload, plus the burst-count/payload agreement
    /// check of the batch frame.
    pub(crate) fn prepare_batch(
        &self,
        request: &EncodeBatchRequest<'_>,
    ) -> Result<(usize, RouteKey), ServiceError> {
        let shard = self.shard_of(request.session_id);
        let shard_metrics = self.metrics.shard(shard);
        let plain = EncodeRequest {
            session_id: request.session_id,
            scheme: request.scheme,
            cost_model: request.cost_model,
            groups: request.groups,
            burst_len: request.burst_len,
            want_masks: request.want_masks,
            verify: request.verify,
            payload: request.payload,
        };
        if let Err(err) = self.validate(&plain) {
            shard_metrics.record_reject();
            return Err(err);
        }
        // Geometry is valid, so burst_len is nonzero and the division is
        // exact; the count field must agree with it.
        let bursts_in_payload = (request.payload.len() / usize::from(request.burst_len)) as u64;
        if request.count == 0 || u64::from(request.count) != bursts_in_payload {
            shard_metrics.record_reject();
            return Err(ServiceError::BadBatchCount {
                count: request.count,
                got: bursts_in_payload,
            });
        }
        let scheme = match resolve_scheme(request.scheme, request.cost_model) {
            Ok(scheme) => scheme,
            Err(err) => {
                shard_metrics.record_reject();
                return Err(err);
            }
        };
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

    /// Fills a prepared slot and enqueues it on its shard without
    /// blocking for the result. On success the worker owns the slot until
    /// it publishes `Done` (and fires the registered completion, if any);
    /// on failure the slot is rolled back to `Idle`, the rejection is
    /// counted, and the completion — never fired — is returned to the
    /// caller inside the untouched slot.
    pub(crate) fn submit_slot(
        &self,
        shard: usize,
        key: RouteKey,
        payload: &[u8],
        options: SubmitOptions,
        slot: &Arc<RequestSlot>,
    ) -> Result<(), ServiceError> {
        let shard_metrics = self.metrics.shard(shard);
        {
            let mut state = slot.state.lock().expect("slot mutex poisoned");
            debug_assert_eq!(state.phase, Phase::Idle, "slot reused while in flight");
            state.session_id = key.session_id;
            state.scheme = key.scheme;
            state.groups = key.groups;
            state.burst_len = key.burst_len;
            state.want_masks = options.want_masks;
            state.verify = options.verify;
            state.payload.clear();
            state.payload.extend_from_slice(payload);
            state.request_id = self.next_request_id.fetch_add(1, Ordering::Relaxed);
            state.enqueue_ns = clock::now_nanos();
            state.completion = options.completion;
            state.phase = Phase::Queued;
        }

        // Count the enqueue *before* the job becomes visible: a fast
        // worker may pop and `dequeue()` immediately, and the depth
        // counter must never transiently underflow.
        shard_metrics.enqueue();
        if let Err(err) = self.queues[shard].try_push(shard, key, Arc::clone(slot)) {
            shard_metrics.dequeue();
            slot.state.lock().expect("slot mutex poisoned").phase = Phase::Idle;
            shard_metrics.record_reject();
            return Err(err);
        }
        Ok(())
    }

    fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for queue in &self.queues {
            queue.close();
        }
        let workers = core::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for worker in workers {
            let _ = worker.join();
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
    /// Executes one encode request, blocking until the shard worker has
    /// encoded the payload. Results are written into `reply`, whose
    /// buffers are cleared and refilled (reusing capacity).
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
        let (shard, key) = self.engine.prepare(request)?;
        self.submit(
            shard,
            key,
            request.want_masks,
            request.verify,
            request.payload,
            reply,
        )
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
        let (shard, key) = self.engine.prepare_batch(request)?;
        self.submit(
            shard,
            key,
            request.want_masks,
            request.verify,
            request.payload,
            reply,
        )
    }

    /// The shared tail of [`LocalClient::encode`] and
    /// [`LocalClient::encode_batch`]: round-trips the validated, resolved
    /// request through the reusable slot.
    fn submit(
        &mut self,
        shard: usize,
        key: RouteKey,
        want_masks: bool,
        verify: VerifyMode,
        payload: &[u8],
        reply: &mut EncodeReply,
    ) -> Result<(), ServiceError> {
        self.engine.submit_slot(
            shard,
            key,
            payload,
            SubmitOptions {
                want_masks,
                verify: verify.is_on(),
                completion: None,
            },
            &self.slot,
        )?;

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
    /// [`BusSession`] results.
    #[must_use]
    pub fn activity(&self) -> ChannelActivity {
        ChannelActivity {
            bursts: self.bursts,
            per_group: self.per_group.clone(),
        }
    }
}

/// Reusable per-worker buffers for verify-mode round trips: the wire
/// image, the decoded payload, the receiver-side activity and — for
/// requests that did not ask for masks — the mask stream. All reuse
/// capacity, so verified requests stay allocation-free once warm.
#[derive(Default)]
struct VerifyScratch {
    wire: Vec<u8>,
    decoded: Vec<u8>,
    rx_groups: Vec<CostBreakdown>,
    masks: Vec<InversionMask>,
}

/// Stage durations measured inside [`run_request`]. `None` stages did not
/// run: no verify requested, or the request failed before encoding.
#[derive(Debug, Default, Clone, Copy)]
struct StageTiming {
    encode_ns: Option<u64>,
    verify_ns: Option<u64>,
}

/// Clamps a nanosecond duration into the trace event's `u32` stage fields
/// (~4.3 s each; saturation only matters for pathological stalls).
fn clamp_ns(nanos: u64) -> u32 {
    u32::try_from(nanos).unwrap_or(u32::MAX)
}

/// Feeds one finished request into the shard's latency histograms, trace
/// ring and slowlog: queue wait runs enqueue→dequeue, total runs
/// enqueue→now (the completion signal follows immediately).
#[allow(clippy::too_many_arguments)]
fn record_telemetry(
    telemetry: &TelemetryRegistry,
    shard_metrics: &crate::metrics::ShardMetrics,
    shard: usize,
    key: &RouteKey,
    state: &SlotState,
    result: &Result<u64, ServiceError>,
    dequeue_ns: u64,
    timing: StageTiming,
) {
    let end_ns = clock::now_nanos();
    let queue_wait_ns = dequeue_ns.saturating_sub(state.enqueue_ns);
    let total_ns = end_ns.saturating_sub(state.enqueue_ns);
    shard_metrics.record_stage_sample(queue_wait_ns, timing.encode_ns, timing.verify_ns, total_ns);
    let (outcome, bursts) = match result {
        Ok(bursts) => (TraceOutcome::Ok, *bursts),
        Err(ServiceError::VerifyMismatch { .. }) => (TraceOutcome::VerifyFailed, 0),
        Err(_) => (TraceOutcome::Rejected, 0),
    };
    let (scheme_tag, _) = crate::wire::scheme_to_wire(key.scheme);
    telemetry.record(&TraceEvent {
        request_id: state.request_id,
        session_id: key.session_id,
        enqueue_ns: state.enqueue_ns,
        queue_wait_ns: clamp_ns(queue_wait_ns),
        encode_ns: clamp_ns(timing.encode_ns.unwrap_or(0)),
        verify_ns: clamp_ns(timing.verify_ns.unwrap_or(0)),
        total_ns: clamp_ns(total_ns),
        bursts: u32::try_from(bursts).unwrap_or(u32::MAX),
        scheme_tag,
        outcome,
        shard: u16::try_from(shard).unwrap_or(u16::MAX),
    });
}

/// One job of a worker pass: the queue entry plus the packing decisions
/// made for it (which round it executes in and where its chains start in
/// that round's shared slab).
struct PassJob {
    key: RouteKey,
    slot: Arc<RequestSlot>,
    /// Accesses (bursts per lane group) in the job's payload, read once
    /// at window-drain time; the round key that keeps slab grids uniform.
    accesses: u32,
    /// Round index this job executes in (set by `form_rounds`).
    round: u32,
    /// Index of this job's first chain within its round's packed state
    /// vector and slab grid (set during the round's packing phase).
    chain_base: u32,
    /// Set once the job's slot has been published (success or failure);
    /// later phases skip it.
    done: bool,
}

/// A packed round's shared identity: every member job agrees on all
/// three, so the round's chains form one uniform slab grid encoded by a
/// single `encode_lanes_into` dispatch.
#[derive(Clone, Copy)]
struct RoundMeta {
    scheme: Scheme,
    burst_len: u8,
    accesses: u32,
    /// Chains packed so far (sum of member jobs' group counts).
    chains: u32,
    /// Payload bytes packed so far (for [`ROUND_BYTE_LIMIT`]).
    bytes: usize,
}

/// One shard worker's whole private state: the session map plus every
/// reusable buffer of the packed data path. All scratch survives across
/// passes, so a warmed-up worker allocates nothing per request.
struct ShardWorker<'a> {
    shard: usize,
    metrics: &'a crate::metrics::ShardMetrics,
    telemetry: &'a TelemetryRegistry,
    plans: &'a PlanCache,
    hooks: &'a TestHooks,
    max_sessions: usize,
    /// The process-selected SIMD tier, resolved once: a dispatch whose
    /// chain count reaches this kernel's lane width is "full-width" in
    /// the lane-occupancy metrics.
    kernel: KernelKind,
    sessions: HashMap<u64, SessionEntry>,
    /// The packed encode slab every round runs through.
    slab: BurstSlab,
    /// The receiver-side slab verify-mode round trips decode through.
    decode_slab: BurstSlab,
    /// The packed dispatch's chain states: each member session's carried
    /// states, concatenated in chain order. Post-dispatch states are
    /// imported back per session.
    states: Vec<BusState>,
    /// Copy of `states` taken before the dispatch — the transmitter
    /// pre-request states verify-mode receivers are synchronised to.
    pre_states: Vec<BusState>,
    verify_scratch: VerifyScratch,
    window: Vec<PassJob>,
    rounds: Vec<RoundMeta>,
    /// Last round index per session seen while forming rounds (linear
    /// scan: the window is small). After the pass this doubles as the
    /// journal's work list — exactly the sessions the pass touched.
    session_rounds: Vec<(u64, u32)>,
    /// The shard's append-only journal; `None` when persistence is off
    /// (or its file could not be created — durability degrades, counted
    /// in the shard's `journal_errors`; the data path never fails).
    journal: Option<JournalWriter>,
    /// Reused scratch for serialising one session's states into the
    /// journal or a capture.
    journal_states: Vec<BusState>,
    /// Monotonic pass counter; stamps `SessionEntry::last_touch` for
    /// idle-age eviction.
    pass_stamp: u64,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    shard: usize,
    queue: &ShardQueue,
    metrics: &MetricsRegistry,
    telemetry: &TelemetryRegistry,
    plans: &PlanCache,
    max_sessions: usize,
    hooks: &TestHooks,
    persist: Option<&PersistPlane>,
    restored: Vec<RestoredSession>,
) {
    let journal = persist.and_then(|plane| {
        JournalWriter::create(
            journal_path(&plane.dir, shard),
            plane.generation.load(Ordering::Relaxed),
        )
        .inspect_err(|_| metrics.shard(shard).journal_error())
        .ok()
    });
    let mut worker = ShardWorker {
        shard,
        metrics: metrics.shard(shard),
        telemetry,
        plans,
        hooks,
        max_sessions,
        kernel: dbi_core::simd::selected_kernel(),
        sessions: HashMap::new(),
        slab: BurstSlab::new(dbi_core::STANDARD_BURST_LEN),
        decode_slab: BurstSlab::new(dbi_core::STANDARD_BURST_LEN),
        states: Vec::new(),
        pre_states: Vec::new(),
        verify_scratch: VerifyScratch::default(),
        window: Vec::with_capacity(COALESCE_LIMIT + 1),
        rounds: Vec::with_capacity(COALESCE_LIMIT + 1),
        session_rounds: Vec::with_capacity(COALESCE_LIMIT + 1),
        journal,
        journal_states: Vec::new(),
        pass_stamp: 0,
    };
    // Seed the shard with its recovered sessions before serving anything:
    // the first request a restored session sees continues its carried
    // state exactly where the previous process left it.
    worker.restore_sessions(restored);
    loop {
        let (key, slot) = match queue.pop_blocking() {
            Popped::Job(job) => job,
            Popped::Control => {
                while let Some(job) = queue.take_control() {
                    worker.serve_control(job);
                }
                continue;
            }
            Popped::Closed => break,
        };
        worker.metrics.dequeue();
        worker.window.clear();
        worker.push_job(key, slot);
        // Drain the packing window: whatever is queued behind the popped
        // job — any session, any geometry — joins this pass.
        while worker.window.len() <= COALESCE_LIMIT {
            match queue.try_pop() {
                Some((key, slot)) => {
                    worker.metrics.dequeue();
                    worker.push_job(key, slot);
                }
                None => break,
            }
        }
        // One dequeue stamp serves the whole pass: the window left the
        // queue in the same drain.
        let dequeue_ns = clock::now_nanos();
        worker.run_pass(dequeue_ns);
    }
    // Answer control jobs that slipped in behind the close; their
    // submitters are blocked on the reply.
    while let Some(job) = queue.take_control() {
        job.reply.deliver(ControlOutcome::Aborted);
    }
}

impl ShardWorker<'_> {
    fn push_job(&mut self, key: RouteKey, slot: Arc<RequestSlot>) {
        let payload_len = slot
            .state
            .lock()
            .expect("slot mutex poisoned")
            .payload
            .len();
        let access_bytes = usize::from(key.groups) * usize::from(key.burst_len);
        let accesses = (payload_len / access_bytes) as u32;
        self.window.push(PassJob {
            key,
            slot,
            accesses,
            round: 0,
            chain_base: 0,
            done: false,
        });
    }

    /// Partitions the window, in queue order, into packed rounds. A job
    /// joins the first round that (a) comes strictly after every earlier
    /// round holding the same session — rounds run in order, so this
    /// preserves per-session FIFO and keeps at most one job per session
    /// per round, (b) matches its scheme/burst-length/access-count, and
    /// (c) still has chain and byte headroom; otherwise it opens a new
    /// round. Jobs of *different* sessions may hop ahead into an earlier
    /// round — sessions are independent, so their replies are unaffected.
    fn form_rounds(&mut self) {
        self.rounds.clear();
        self.session_rounds.clear();
        for job in &mut self.window {
            let groups = u32::from(job.key.groups);
            let bytes = job.accesses as usize
                * usize::from(job.key.groups)
                * usize::from(job.key.burst_len);
            let floor = self
                .session_rounds
                .iter()
                .find(|(session, _)| *session == job.key.session_id)
                .map_or(0, |(_, last)| *last as usize + 1);
            let mut chosen = None;
            for index in floor..self.rounds.len() {
                let round = &self.rounds[index];
                if round.scheme == job.key.scheme
                    && round.burst_len == job.key.burst_len
                    && round.accesses == job.accesses
                    && round.chains + groups <= ROUND_CHAIN_LIMIT
                    && round.bytes + bytes <= ROUND_BYTE_LIMIT
                {
                    chosen = Some(index);
                    break;
                }
            }
            let index = chosen.unwrap_or_else(|| {
                self.rounds.push(RoundMeta {
                    scheme: job.key.scheme,
                    burst_len: job.key.burst_len,
                    accesses: job.accesses,
                    chains: 0,
                    bytes: 0,
                });
                self.rounds.len() - 1
            });
            let round = &mut self.rounds[index];
            round.chains += groups;
            round.bytes += bytes;
            job.round = index as u32;
            match self
                .session_rounds
                .iter_mut()
                .find(|(session, _)| *session == job.key.session_id)
            {
                Some(entry) => entry.1 = index as u32,
                None => self.session_rounds.push((job.key.session_id, index as u32)),
            }
        }
    }

    fn run_pass(&mut self, dequeue_ns: u64) {
        self.pass_stamp += 1;
        self.form_rounds();
        let coalesced = (self.window.len() - 1) as u64;
        let corrupt = self.hooks.corrupt_verify.load(Ordering::Relaxed);
        let mut pass_bursts = 0u64;
        let mut executed = false;
        for index in 0..self.rounds.len() {
            let (bursts, round_executed) = self.run_round(index, dequeue_ns, corrupt);
            pass_bursts += bursts;
            executed |= round_executed;
        }
        // Pass accounting mirrors the pre-packing engine: a pass counts
        // once it executed at least one claimed session's work.
        if executed {
            self.metrics.record_pass(pass_bursts, coalesced);
        }
        // The pass boundary is the burst boundary the journal writes at:
        // every session the pass touched gets one full-state record,
        // flushed with a single write. The buffers are reused, so a warm
        // journaled pass costs one `write_all` and no allocation.
        if executed {
            self.journal_pass();
        }
    }

    /// Journals the full carried state of every session the just-finished
    /// pass touched, then flushes. Write failures degrade durability (the
    /// next snapshot re-captures everything) but never the data path.
    fn journal_pass(&mut self) {
        if self.journal.is_none() {
            return;
        }
        let mut records = 0u64;
        for &(session_id, _) in &self.session_rounds {
            let Some(entry) = self.sessions.get_mut(&session_id) else {
                continue;
            };
            self.journal_states.clear();
            entry.session.export_states_into(&mut self.journal_states);
            let journal = self.journal.as_mut().expect("checked above");
            journal.append_session(
                session_id,
                entry.scheme,
                entry.session.burst_len() as u8,
                &self.journal_states,
            );
            entry.captured = true;
            records += 1;
        }
        let journal = self.journal.as_mut().expect("checked above");
        match journal.flush() {
            Ok(0) => {}
            Ok(bytes) => self.metrics.record_journal(records, bytes as u64),
            Err(_) => self.metrics.journal_error(),
        }
    }

    /// Seeds recovered sessions into the shard map (replacing any live
    /// entry with the same id). Restored state is on disk by definition,
    /// so the entries start `captured` — first in line for eviction until
    /// a request touches them.
    fn restore_sessions(&mut self, restored: Vec<RestoredSession>) {
        for session in restored {
            let mut entry = SessionEntry::new(
                session.scheme,
                session.groups,
                session.burst_len,
                self.plans,
            );
            entry.session.import_states(&session.states);
            entry.captured = true;
            if !self.sessions.contains_key(&session.session_id) {
                self.metrics.session_created();
            }
            self.sessions.insert(session.session_id, entry);
        }
    }

    /// Serves one quiesced admin job. Runs between passes, so every
    /// session is at a burst boundary — the consistency point the
    /// snapshot format stores.
    fn serve_control(&mut self, job: ControlJob) {
        let outcome = match job.request {
            ControlRequest::Capture => {
                let mut bytes = Vec::new();
                let mut records = 0u32;
                for (session_id, entry) in &mut self.sessions {
                    self.journal_states.clear();
                    entry.session.export_states_into(&mut self.journal_states);
                    push_session_record(
                        &mut bytes,
                        *session_id,
                        entry.scheme,
                        entry.session.burst_len() as u8,
                        &self.journal_states,
                    );
                    entry.captured = true;
                    records += 1;
                }
                ControlOutcome::Captured { records, bytes }
            }
            ControlRequest::Rotate { generation } => {
                if let Some(journal) = self.journal.as_mut() {
                    if journal.flush().is_err() {
                        self.metrics.journal_error();
                    }
                    if journal.rotate(generation).is_err() {
                        self.metrics.journal_error();
                    }
                }
                ControlOutcome::Done
            }
            ControlRequest::Restore { sessions } => {
                self.restore_sessions(sessions);
                ControlOutcome::Done
            }
        };
        job.reply.deliver(outcome);
    }

    /// Executes one packed round: packs every member job's chains and
    /// carried states into the shared slab, runs ONE kernel dispatch over
    /// all of them, then hands each job its share of the results.
    /// Returns the bursts encoded and whether any job actually executed.
    fn run_round(&mut self, round_index: usize, dequeue_ns: u64, corrupt: bool) -> (u64, bool) {
        let round = self.rounds[round_index];
        let round_tag = round_index as u32;
        if self.hooks.slow_delay_ns.load(Ordering::Relaxed) > 0 {
            let slow = self.hooks.slow_session.load(Ordering::Relaxed);
            if self
                .window
                .iter()
                .any(|job| job.round == round_tag && !job.done && job.key.session_id == slow)
            {
                std::thread::sleep(Duration::from_nanos(
                    self.hooks.slow_delay_ns.load(Ordering::Relaxed),
                ));
            }
        }

        // Packing phase: claim each member's session, append its chains,
        // export its carried states. Jobs whose claim fails are answered
        // right here; the rest share one slab grid.
        self.slab.set_pricing(true);
        self.slab.reset(usize::from(round.burst_len));
        self.states.clear();
        let mut executed = false;
        let mut round_plan = None;
        for i in 0..self.window.len() {
            if self.window[i].round != round_tag || self.window[i].done {
                continue;
            }
            let key = self.window[i].key;
            match claim_entry(
                self.shard,
                &mut self.sessions,
                &key,
                self.metrics,
                self.plans,
                self.max_sessions,
                self.pass_stamp,
            ) {
                Ok(entry) => {
                    let state = self.window[i]
                        .slot
                        .state
                        .lock()
                        .expect("slot mutex poisoned");
                    match entry
                        .session
                        .append_chains_to_slab(&state.payload, &mut self.slab)
                    {
                        Ok(_) => {
                            drop(state);
                            self.window[i].chain_base = self.states.len() as u32;
                            entry.session.export_states_into(&mut self.states);
                            if round_plan.is_none() {
                                round_plan = Some(Arc::clone(entry.session.plan()));
                            }
                            executed = true;
                        }
                        Err(_) => {
                            finish_slot(
                                self.telemetry,
                                self.metrics,
                                self.shard,
                                &key,
                                &self.window[i].slot,
                                state,
                                Err(ServiceError::Internal(
                                    "validated payload rejected by the session",
                                )),
                                dequeue_ns,
                                StageTiming::default(),
                            );
                            self.window[i].done = true;
                        }
                    }
                }
                Err(err) => {
                    self.metrics.record_reject();
                    let state = self.window[i]
                        .slot
                        .state
                        .lock()
                        .expect("slot mutex poisoned");
                    finish_slot(
                        self.telemetry,
                        self.metrics,
                        self.shard,
                        &key,
                        &self.window[i].slot,
                        state,
                        Err(err),
                        dequeue_ns,
                        StageTiming::default(),
                    );
                    self.window[i].done = true;
                }
            }
        }
        if self.states.is_empty() {
            return (0, executed);
        }
        self.pre_states.clear();
        self.pre_states.extend_from_slice(&self.states);

        // Dispatch phase: one kernel sweep encodes every packed chain.
        let chains = self.states.len();
        let plan = round_plan.expect("a packed chain implies a claimed session");
        let encode_start = clock::now_nanos();
        plan.encode_lanes_into(&mut self.slab, &mut self.states);
        let encode_span = clock::now_nanos().saturating_sub(encode_start);
        let full = chains >= self.kernel.lane_width(usize::from(round.burst_len));
        self.metrics.record_dispatch(chains as u64, full);

        // Gather phase, in job order: import post-dispatch states, carve
        // out per-job results, verify, publish. The shared dispatch span
        // is apportioned to each job by its share of the slab's rows.
        let mut round_bursts = 0u64;
        for i in 0..self.window.len() {
            if self.window[i].round != round_tag || self.window[i].done {
                continue;
            }
            let key = self.window[i].key;
            let groups = usize::from(key.groups);
            let base = self.window[i].chain_base as usize;
            let entry = self
                .sessions
                .get_mut(&key.session_id)
                .expect("session was claimed in the packing phase");
            entry
                .session
                .import_states(&self.states[base..base + groups]);
            let mut timing = StageTiming {
                encode_ns: Some(((encode_span * groups as u64) / chains as u64).max(1)),
                verify_ns: None,
            };
            let mut state = self.window[i]
                .slot
                .state
                .lock()
                .expect("slot mutex poisoned");
            let result = finish_job(
                entry,
                &mut state,
                self.metrics,
                &self.slab,
                chains,
                base,
                &mut self.decode_slab,
                &mut self.verify_scratch,
                &self.pre_states[base..base + groups],
                corrupt,
                &mut timing,
            );
            if let Ok(bursts) = &result {
                round_bursts += *bursts;
            }
            finish_slot(
                self.telemetry,
                self.metrics,
                self.shard,
                &key,
                &self.window[i].slot,
                state,
                result,
                dequeue_ns,
                timing,
            );
            self.window[i].done = true;
        }
        (round_bursts, executed)
    }
}

/// Publishes a finished slot: records telemetry, stores the result, flips
/// the phase to `Done`, and fires the completion (if registered) after
/// the lock is released — once per slot, exactly.
#[allow(clippy::too_many_arguments)]
fn finish_slot(
    telemetry: &TelemetryRegistry,
    metrics: &crate::metrics::ShardMetrics,
    shard: usize,
    key: &RouteKey,
    slot: &Arc<RequestSlot>,
    mut state: MutexGuard<'_, SlotState>,
    result: Result<u64, ServiceError>,
    dequeue_ns: u64,
    timing: StageTiming,
) {
    record_telemetry(
        telemetry, metrics, shard, key, &state, &result, dequeue_ns, timing,
    );
    state.result = result;
    state.phase = Phase::Done;
    // Take the completion before publishing: once the lock drops, a
    // blocking submitter may reclaim the slot, and the completion must
    // fire exactly once.
    let completion = state.completion.take();
    drop(state);
    slot.done.notify_all();
    if let Some(completion) = completion {
        completion.sink.complete(completion.token, slot);
    }
}

/// Resolves the session entry a pass executes against: enforces the
/// per-shard session bound, detects configuration mismatches and creates
/// the session on first touch. Rejection metrics are the caller's job
/// (one per affected request).
///
/// When the map is full and a *fresh* id arrives, the least-recently
/// touched idle session is evicted to make room — idle meaning not
/// touched by the current pass (`last_touch < pass_stamp`), so a session
/// with work in this very window can never lose its carried state
/// mid-pass. Among idle candidates, snapshot/journal-captured entries go
/// first: their state survives on disk and an admin restore can bring
/// them back. Only when *every* resident session is active in the current
/// pass does the claim fail with [`ServiceError::SessionLimit`] — a
/// transient condition, not the permanent lock-out the map previously
/// degenerated into once it filled.
fn claim_entry<'a>(
    shard: usize,
    sessions: &'a mut HashMap<u64, SessionEntry>,
    key: &RouteKey,
    metrics: &crate::metrics::ShardMetrics,
    plans: &PlanCache,
    max_sessions: usize,
    pass_stamp: u64,
) -> Result<&'a mut SessionEntry, ServiceError> {
    if sessions.len() >= max_sessions && !sessions.contains_key(&key.session_id) {
        let victim = sessions
            .iter()
            .filter(|(_, entry)| entry.last_touch < pass_stamp)
            .min_by_key(|(_, entry)| (!entry.captured, entry.last_touch))
            .map(|(id, entry)| (*id, entry.captured));
        match victim {
            Some((id, captured)) => {
                sessions.remove(&id);
                metrics.session_evicted(captured);
            }
            None => return Err(ServiceError::SessionLimit { shard }),
        }
    }
    match sessions.entry(key.session_id) {
        Entry::Occupied(occupied) => {
            let entry = occupied.into_mut();
            if !entry.matches(key.scheme, key.groups, key.burst_len) {
                return Err(ServiceError::SessionMismatch {
                    session_id: key.session_id,
                });
            }
            entry.last_touch = pass_stamp;
            entry.captured = false;
            Ok(entry)
        }
        Entry::Vacant(vacant) => {
            metrics.session_created();
            let entry = vacant.insert(SessionEntry::new(
                key.scheme,
                key.groups,
                key.burst_len,
                plans,
            ));
            entry.last_touch = pass_stamp;
            Ok(entry)
        }
    }
}

/// Finishes one job of a packed round after the shared dispatch: carves
/// its masks and per-group activity out of the slab straight into the
/// slot's response buffers, counts the transitions-saved metric from the
/// payload and the pre-request states (see [`raw_transitions`]), and —
/// for verify-mode requests — replays the output through the entry's
/// receiver session (synchronised to the transmitter's pre-request
/// states) and fails on any asymmetry. Stage durations accumulate into
/// `timing`.
#[allow(clippy::too_many_arguments)]
fn finish_job(
    entry: &mut SessionEntry,
    state: &mut SlotState,
    metrics: &crate::metrics::ShardMetrics,
    slab: &BurstSlab,
    round_chains: usize,
    chain_base: usize,
    decode_slab: &mut BurstSlab,
    verify_scratch: &mut VerifyScratch,
    pre_states: &[BusState],
    corrupt_verify: bool,
    timing: &mut StageTiming,
) -> Result<u64, ServiceError> {
    // Disjoint borrows of the slot: payload in, activity and masks out.
    let SlotState {
        session_id,
        burst_len,
        payload,
        per_group,
        masks,
        want_masks,
        verify,
        ..
    } = state;
    let verify = *verify;
    // Verification needs the mask stream even when the client did not ask
    // for it: route the masks into the slot (they go back to the client)
    // or into the worker's scratch.
    let mask_sink = if *want_masks {
        Some(&mut *masks)
    } else {
        masks.clear();
        if verify {
            Some(&mut verify_scratch.masks)
        } else {
            None
        }
    };
    let gather_start = clock::now_nanos();
    entry
        .session
        .gather_packed_results(slab, round_chains, chain_base, per_group, mask_sink);
    // Geometry was validated at submission, so this division is exact.
    let bursts = (payload.len() / usize::from(*burst_len)) as u64;

    // Transitions-saved metric: what the same stream would have cost the
    // wires uninverted, minus what it actually cost. Zero for RAW
    // sessions (nothing to save against).
    let saved = if entry.scheme == Scheme::Raw {
        0
    } else {
        let encoded: u64 = per_group.iter().map(|b| b.transitions).sum();
        raw_transitions(payload, pre_states).saturating_sub(encoded)
    };
    // The gather and savings count serve this request alone, so they bill
    // to its encode stage on top of its share of the packed dispatch.
    let solo_ns = clock::now_nanos().saturating_sub(gather_start);
    timing.encode_ns = Some(timing.encode_ns.unwrap_or(0).saturating_add(solo_ns));

    if verify {
        // Synchronise the receiver to the transmitter's pre-request lane
        // states (captured before the packed dispatch): a session may
        // alternate verify on and off, so the receiver replays exactly
        // this request's slice of the stream.
        for (group, pre) in pre_states.iter().enumerate() {
            entry.receiver.set_group_state(group, *pre);
        }
        let used_masks: &[InversionMask] = if *want_masks {
            masks
        } else {
            &verify_scratch.masks
        };
        let verify_start = clock::now_nanos();
        let outcome = verify_round_trip(
            &mut entry.receiver,
            &entry.session,
            payload,
            used_masks,
            per_group,
            &mut verify_scratch.wire,
            &mut verify_scratch.decoded,
            &mut verify_scratch.rx_groups,
            decode_slab,
            corrupt_verify,
        );
        timing.verify_ns = Some(clock::now_nanos().saturating_sub(verify_start));
        metrics.record_verify(outcome.is_ok());
        if let Err(byte_offset) = outcome {
            // Count the failure like every other failed request, so
            // requests + rejected keeps accounting for submitted traffic
            // (the work was executed, but the caller got an error).
            metrics.record_reject();
            return Err(ServiceError::VerifyMismatch {
                session_id: *session_id,
                byte_offset,
            });
        }
    }
    metrics.record_request(payload.len() as u64, bursts, saved);
    Ok(bursts)
}

/// The verify-mode round trip: reconstruct the wire image the encode
/// decisions would drive, decode it through the receiver session (whose
/// states were synchronised to the transmitter's pre-request states) via
/// the slab-kernel decode path, and compare payload bytes, receiver-side
/// wire activity and carried lane states against the transmitter. `Err`
/// carries the first mismatching payload byte offset, or `None` when the
/// payload matched but activity or carried state diverged.
#[allow(clippy::too_many_arguments)]
fn verify_round_trip(
    receiver: &mut BusSession,
    transmitter: &BusSession,
    payload: &[u8],
    masks: &[InversionMask],
    tx_groups: &[CostBreakdown],
    wire: &mut Vec<u8>,
    decoded: &mut Vec<u8>,
    rx_groups: &mut Vec<CostBreakdown>,
    decode_slab: &mut BurstSlab,
    corrupt: bool,
) -> Result<(), Option<u64>> {
    receiver
        .transmit_stream_into(payload, masks, wire)
        .map_err(|_| None)?;
    receiver
        .decode_stream_slab_into(wire, masks, rx_groups, decoded, decode_slab)
        .map_err(|_| None)?;
    if corrupt {
        if let Some(byte) = decoded.first_mut() {
            *byte ^= 0x01;
        }
    }
    if decoded.len() != payload.len() {
        return Err(None);
    }
    if let Some(offset) = decoded.iter().zip(payload.iter()).position(|(a, b)| a != b) {
        return Err(Some(offset as u64));
    }
    if rx_groups.as_slice() != tx_groups {
        return Err(None);
    }
    for group in 0..transmitter.group_count() {
        if receiver.group_state(group) != transmitter.group_state(group) {
            return Err(None);
        }
    }
    Ok(())
}

/// Lane transitions the beat-interleaved `payload` would cause sent raw
/// (uninverted) — what encoding it with [`Scheme::Raw`] would sum to
/// across the groups — starting from the transmitter's pre-request
/// states, one per group.
///
/// Needs no carried state of its own: a raw word always has its DBI lane
/// high, so raw transitions are the data-byte toggles alone, and the last
/// byte a group carried is its state's decoded word (idle is the raw word
/// of `0xFF`), whatever the inversion decisions were. Beat `i ≥ groups`
/// of the payload follows beat `i − groups` on the same group, so past
/// the first beat the count is one XOR-popcount of the payload against
/// itself offset by `groups` bytes.
fn raw_transitions(payload: &[u8], pre_states: &[BusState]) -> u64 {
    let groups = pre_states.len();
    let entry: u64 = pre_states
        .iter()
        .zip(payload)
        .map(|(state, &byte)| u64::from((state.last().decode() ^ byte).count_ones()))
        .sum();
    entry + xor_popcount(&payload[groups..], &payload[..payload.len() - groups])
}

/// Number of differing bits between two equal-length byte slices, eight
/// bytes per `u64` word plus a byte tail.
fn xor_popcount(a: &[u8], b: &[u8]) -> u64 {
    let words_a = a.chunks_exact(8);
    let words_b = b.chunks_exact(8);
    let tail = words_a
        .remainder()
        .iter()
        .zip(words_b.remainder())
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum::<u64>();
    words_a
        .zip(words_b)
        .map(|(x, y)| {
            let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
            let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
            u64::from((x ^ y).count_ones())
        })
        .sum::<u64>()
        + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::CostWeights;
    use dbi_mem::ChannelConfig;

    fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (seed >> 24) as u8
            })
            .collect()
    }

    fn small_engine() -> Engine {
        Engine::start(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            max_payload: 1 << 16,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn engine_matches_a_serial_bus_session() {
        let engine = small_engine();
        let mut client = engine.local_client();
        let config = ChannelConfig::gddr5x();
        let data = pseudo_random(config.access_bytes() * 16, 0xF00D);

        let mut reply = EncodeReply::new();
        for (index, scheme) in Scheme::paper_set().iter().copied().enumerate() {
            let session_id = 0x100 + index as u64;
            // Feed the stream in two halves: carried state must persist.
            let half = data.len() / 2;
            let request = EncodeRequest {
                session_id,
                scheme,
                cost_model: CostModel::Inline,
                groups: 4,
                burst_len: 8,
                want_masks: true,
                verify: VerifyMode::Off,
                payload: &data[..half],
            };
            client.encode(&request, &mut reply).unwrap();
            let mut first = reply.activity();
            let first_masks = reply.masks.clone();
            client
                .encode(
                    &EncodeRequest {
                        payload: &data[half..],
                        ..request
                    },
                    &mut reply,
                )
                .unwrap();

            let mut reference = BusSession::new(&config, scheme);
            let expected = reference.encode_stream(&data).unwrap();
            let mut combined_masks = first_masks;
            combined_masks.extend_from_slice(&reply.masks);
            first.bursts += reply.bursts;
            for (a, b) in first.per_group.iter_mut().zip(&reply.per_group) {
                *a += *b;
            }
            assert_eq!(first, expected, "{scheme}");

            let mut mask_reference = BusSession::new(&config, scheme);
            let mut expected_masks = Vec::new();
            let mut scratch = Vec::new();
            mask_reference
                .encode_stream_into(&data, &mut scratch, Some(&mut expected_masks))
                .unwrap();
            assert_eq!(combined_masks, expected_masks, "{scheme}");
        }
        engine.shutdown();
    }

    #[test]
    fn sticky_sharding_is_deterministic_and_spread() {
        let engine = small_engine();
        for session_id in 0..64u64 {
            assert_eq!(engine.shard_of(session_id), engine.shard_of(session_id));
            assert!(engine.shard_of(session_id) < engine.shard_count());
        }
        let on_zero = (0..64u64).filter(|&id| engine.shard_of(id) == 0).count();
        assert!((8..=56).contains(&on_zero), "lopsided spread: {on_zero}/64");
    }

    #[test]
    fn validation_rejects_before_reaching_a_shard() {
        let engine = small_engine();
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        let ok_payload = [0u8; 32];

        let base = EncodeRequest {
            session_id: 1,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &ok_payload,
        };
        let cases: [(EncodeRequest<'_>, ServiceError); 4] = [
            (
                EncodeRequest { groups: 0, ..base },
                ServiceError::BadGeometry {
                    groups: 0,
                    burst_len: 8,
                },
            ),
            (
                EncodeRequest {
                    burst_len: 33,
                    ..base
                },
                ServiceError::BadGeometry {
                    groups: 4,
                    burst_len: 33,
                },
            ),
            (
                EncodeRequest {
                    payload: &ok_payload[..31],
                    ..base
                },
                ServiceError::BadPayload {
                    got: 31,
                    expected_multiple: 32,
                },
            ),
            (
                EncodeRequest {
                    payload: &[],
                    ..base
                },
                ServiceError::BadPayload {
                    got: 0,
                    expected_multiple: 32,
                },
            ),
        ];
        for (request, expected) in cases {
            assert_eq!(client.encode(&request, &mut reply), Err(expected));
        }

        let big = vec![0u8; (1 << 16) + 32];
        let oversized = EncodeRequest {
            payload: &big,
            ..base
        };
        assert!(matches!(
            client.encode(&oversized, &mut reply),
            Err(ServiceError::PayloadTooLarge { .. })
        ));
        assert_eq!(engine.metrics().totals().rejected, 5);
    }

    #[test]
    fn session_reuse_with_a_different_config_is_a_mismatch() {
        let engine = small_engine();
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        let payload = pseudo_random(64, 3);
        let request = EncodeRequest {
            session_id: 9,
            scheme: Scheme::Dc,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        client.encode(&request, &mut reply).unwrap();
        assert_eq!(
            client.encode(
                &EncodeRequest {
                    scheme: Scheme::Ac,
                    ..request
                },
                &mut reply
            ),
            Err(ServiceError::SessionMismatch { session_id: 9 })
        );
        // Same scheme but different geometry is also a mismatch.
        assert_eq!(
            client.encode(
                &EncodeRequest {
                    groups: 8,
                    burst_len: 8,
                    ..request
                },
                &mut reply
            ),
            Err(ServiceError::SessionMismatch { session_id: 9 })
        );
    }

    #[test]
    fn requests_that_cannot_be_framed_are_rejected_even_locally() {
        // A permissive payload cap must not let the engine admit work
        // whose request or response could never travel as a wire frame.
        let engine = Engine::start(ServiceConfig {
            shards: 1,
            queue_capacity: 4,
            max_payload: 32 << 20,
            ..ServiceConfig::default()
        });
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        // 3 MiB fits a request frame, but with burst_len 1 and masks on
        // the response would carry 3M masks = 12 MiB > MAX_BODY_LEN.
        let payload = vec![0u8; 3 << 20];
        let request = EncodeRequest {
            session_id: 5,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Inline,
            groups: 1,
            burst_len: 1,
            want_masks: true,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        assert_eq!(
            client.encode(&request, &mut reply),
            Err(ServiceError::PayloadTooLarge {
                got: payload.len(),
                max: crate::wire::MAX_BODY_LEN,
            })
        );
        // Masks off, the same payload frames fine in both directions.
        client
            .encode(
                &EncodeRequest {
                    want_masks: false,
                    verify: VerifyMode::Off,
                    ..request
                },
                &mut reply,
            )
            .unwrap();
        // A payload too large for even the request frame is rejected
        // regardless of masks.
        let oversized = vec![0u8; (crate::wire::MAX_BODY_LEN / 32 + 1) * 32];
        assert!(matches!(
            client.encode(
                &EncodeRequest {
                    groups: 4,
                    burst_len: 8,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    payload: &oversized,
                    ..request
                },
                &mut reply
            ),
            Err(ServiceError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn full_shard_evicts_idle_sessions_for_fresh_ids() {
        let engine = Engine::start(ServiceConfig {
            shards: 1,
            queue_capacity: 8,
            max_sessions_per_shard: 2,
            ..ServiceConfig::default()
        });
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        let payload = pseudo_random(32, 1);
        let request = |session_id| EncodeRequest {
            session_id,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        client.encode(&request(1), &mut reply).unwrap();
        client.encode(&request(2), &mut reply).unwrap();
        // The shard is full, but both residents are idle: a third id
        // evicts the least-recently-touched one (id 1) instead of
        // bouncing.
        client.encode(&request(3), &mut reply).unwrap();
        // Id 1 comes back as a *fresh* session, evicting id 2 in turn.
        client.encode(&request(1), &mut reply).unwrap();
        let totals = engine.metrics().totals();
        assert_eq!(totals.sessions, 4);
        assert_eq!(totals.sessions_evicted, 2);
        // Without persistence nothing is ever captured, so both victims'
        // carried state is gone for good.
        assert_eq!(totals.sessions_evicted_uncaptured, 2);
        assert_eq!(totals.rejected, 0);
    }

    #[test]
    fn session_churn_far_past_the_limit_serves_every_request() {
        // The regression this pins: a full shard used to reject fresh
        // session ids *forever* — slot exhaustion was permanent. Churn
        // more than twice the limit through one shard; every request
        // must be served, with evictions making the room.
        let limit = 4usize;
        let engine = Engine::start(ServiceConfig {
            shards: 1,
            queue_capacity: 8,
            max_sessions_per_shard: limit,
            ..ServiceConfig::default()
        });
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        let payload = pseudo_random(32, 3);
        for round in 0..3u64 {
            for id in 1..=(3 * limit as u64) {
                client
                    .encode(
                        &EncodeRequest {
                            session_id: id,
                            scheme: Scheme::OptFixed,
                            cost_model: CostModel::Inline,
                            groups: 4,
                            burst_len: 8,
                            want_masks: false,
                            verify: VerifyMode::Off,
                            payload: &payload,
                        },
                        &mut reply,
                    )
                    .unwrap_or_else(|err| panic!("round {round} id {id}: {err}"));
            }
        }
        let totals = engine.metrics().totals();
        assert_eq!(totals.rejected, 0);
        assert!(
            totals.sessions_evicted > 0,
            "churning 3x the limit must evict"
        );
        engine.shutdown();
    }

    #[test]
    fn metrics_count_requests_sessions_and_savings() {
        let engine = small_engine();
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        // Alternate 0x55/0xAA per *beat* (the payload is beat-interleaved
        // over 4 groups), so every group's wires toggle each beat and OPT
        // has a measurable amount of transitions to save.
        let payload: Vec<u8> = (0..128)
            .map(|i| if (i / 4) % 2 == 0 { 0x55 } else { 0xAA })
            .collect();
        let request = EncodeRequest {
            session_id: 77,
            scheme: Scheme::Opt(CostWeights::FIXED),
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        client.encode(&request, &mut reply).unwrap();
        client.encode(&request, &mut reply).unwrap();

        let totals = engine.metrics().totals();
        assert_eq!(totals.requests, 2);
        assert_eq!(totals.bytes, 256);
        assert_eq!(totals.bursts, 2 * reply.bursts);
        assert_eq!(totals.sessions, 1);
        assert_eq!(totals.queue_depth, 0);
        assert!(
            totals.transitions_saved > 0,
            "OPT must beat RAW on a checkerboard"
        );
        let json = engine.metrics_json();
        assert!(json.contains("\"requests\":2"));

        // Exact oracle: per request, a serial RAW session's transitions
        // minus the scheme's, saturating at zero, summed. Group counts
        // 1/3/4/8 at BL8 and BL16, several requests per session, access
        // counts whose payload leaves an 8-byte-word tail in the offset
        // XOR, schemes that can spend more toggles than RAW (DC), and RAW
        // sessions, whose serial saving is zero.
        let mut raw = BusSession::with_geometry(4, 8, Scheme::Raw);
        let mut opt = BusSession::with_geometry(4, 8, Scheme::Opt(CostWeights::FIXED));
        let mut expected = serial_saving(&mut raw, &mut opt, &payload);
        expected += serial_saving(&mut raw, &mut opt, &payload);
        let mut session_id = 100;
        for scheme in [Scheme::OptFixed, Scheme::Dc, Scheme::Ac, Scheme::Raw] {
            for groups in [1u16, 3, 4, 8] {
                for burst_len in [8u8, 16] {
                    session_id += 1;
                    let mut reference = BusSession::with_geometry(
                        usize::from(groups),
                        usize::from(burst_len),
                        scheme,
                    );
                    let mut raw = BusSession::with_geometry(
                        usize::from(groups),
                        usize::from(burst_len),
                        Scheme::Raw,
                    );
                    for (request, accesses) in [3usize, 1, 5].into_iter().enumerate() {
                        let payload = pseudo_random(
                            accesses * usize::from(groups) * usize::from(burst_len),
                            session_id as u32 * 7 + request as u32,
                        );
                        client
                            .encode(
                                &EncodeRequest {
                                    session_id,
                                    scheme,
                                    cost_model: CostModel::Inline,
                                    groups,
                                    burst_len,
                                    want_masks: false,
                                    verify: VerifyMode::Off,
                                    payload: &payload,
                                },
                                &mut reply,
                            )
                            .unwrap();
                        expected += serial_saving(&mut raw, &mut reference, &payload);
                    }
                }
            }
        }
        assert_eq!(engine.metrics().totals().transitions_saved, expected);
    }

    /// One request's transitions saved against RAW, by two serial
    /// encodes that carry their sessions' states: `raw`'s transitions
    /// minus `coded`'s, saturating at zero.
    fn serial_saving(raw: &mut BusSession, coded: &mut BusSession, payload: &[u8]) -> u64 {
        let raw = raw.encode_stream(payload).unwrap().total().transitions;
        let coded = coded.encode_stream(payload).unwrap().total().transitions;
        raw.saturating_sub(coded)
    }

    #[test]
    fn telemetry_traces_requests_and_captures_slow_ones() {
        let engine = Engine::start(ServiceConfig {
            shards: 1,
            queue_capacity: 8,
            // A 100 ms threshold against a 200 ms injected delay: an
            // ordinary request stays far below the threshold even on a
            // loaded machine, and the slowed one far above it.
            slowlog_threshold_ns: 100_000_000,
            ..ServiceConfig::default()
        });
        engine.inject_slowdown_for_tests(7, Duration::from_millis(200));
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        let payload = pseudo_random(64, 11);
        let request = |session_id| EncodeRequest {
            session_id,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::RoundTrip,
            payload: &payload,
        };
        client.encode(&request(8), &mut reply).unwrap();
        client.encode(&request(7), &mut reply).unwrap();
        client.encode(&request(8), &mut reply).unwrap();

        let trace = engine.trace_dump(16);
        assert_eq!(trace.len(), 3);
        for window in trace.windows(2) {
            assert!(window[0].request_id < window[1].request_id);
            assert!(window[0].enqueue_ns <= window[1].enqueue_ns);
        }
        for event in &trace {
            assert_eq!(event.outcome, TraceOutcome::Ok);
            assert!(event.bursts > 0);
            // The stages partition the total: nothing counted twice,
            // nothing outside the enqueue→done envelope.
            let staged = u64::from(event.queue_wait_ns)
                + u64::from(event.encode_ns)
                + u64::from(event.verify_ns);
            assert!(staged <= u64::from(event.total_ns), "{event:?}");
            assert!(event.encode_ns > 0 && event.verify_ns > 0, "{event:?}");
        }

        // Only the artificially slowed session crossed the threshold.
        let slow = engine.slowlog(16);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].session_id, 7);
        assert!(u64::from(slow[0].total_ns) >= engine.slowlog_threshold_ns());

        // The histograms saw every request, the slow one included.
        let totals = engine.metrics().totals();
        assert_eq!(totals.latency.total.count, 3);
        assert_eq!(totals.latency.encode.count, 3);
        assert_eq!(totals.latency.verify.count, 3);
        assert_eq!(totals.latency.queue_wait.count, 3);
        assert!(totals.latency.total.percentile_ns(0.99) >= 1_000_000);
        engine.shutdown();
    }

    #[test]
    fn rejected_passes_still_trace_with_reject_outcome() {
        let engine = Engine::start(ServiceConfig {
            shards: 1,
            queue_capacity: 8,
            ..ServiceConfig::default()
        });
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        let payload = pseudo_random(32, 13);
        let request = |scheme| EncodeRequest {
            session_id: 1,
            scheme,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        client
            .encode(&request(Scheme::OptFixed), &mut reply)
            .unwrap();
        // Reusing the id with a different scheme is rejected *by the
        // worker* (not validation), so it still earns a trace event.
        assert_eq!(
            client.encode(&request(Scheme::Dc), &mut reply),
            Err(ServiceError::SessionMismatch { session_id: 1 })
        );
        let trace = engine.trace_dump(16);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].outcome, TraceOutcome::Ok);
        assert_eq!(trace[1].outcome, TraceOutcome::Rejected);
        assert_eq!(trace[1].session_id, 1);
        assert_eq!(trace[1].encode_ns, 0);
        assert_eq!(trace[1].bursts, 0);
        engine.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let engine = small_engine();
        let mut client = engine.local_client();
        engine.shutdown();
        engine.shutdown();
        let payload = [0u8; 32];
        let mut reply = EncodeReply::new();
        let request = EncodeRequest {
            session_id: 1,
            scheme: Scheme::Raw,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        assert_eq!(
            client.encode(&request, &mut reply),
            Err(ServiceError::ShuttingDown)
        );
    }

    #[test]
    fn raw_sessions_report_zero_savings() {
        let engine = small_engine();
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        let payload = pseudo_random(96, 5);
        let request = EncodeRequest {
            session_id: 2,
            scheme: Scheme::Raw,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: true,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        client.encode(&request, &mut reply).unwrap();
        assert_eq!(engine.metrics().totals().transitions_saved, 0);
        assert!(reply.masks.iter().all(|mask| *mask == InversionMask::NONE));
        assert_eq!(reply.bursts, 12);
        assert_eq!(reply.activity().total(), reply.total());
    }
}
