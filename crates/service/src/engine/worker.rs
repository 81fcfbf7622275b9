//! A shard's state and its pass: drains a window of queued jobs,
//! partitions it into packed rounds, and runs each round as one kernel
//! dispatch. The state lives behind the shard's lock in [`Shared`] and
//! holds no reference back to it: every pass takes `&Shared` as an
//! argument, so the worker thread and a [`super::LocalClient`] running
//! its own request drive the same [`ShardWorker::drain`].

use super::account::StageTiming;
use super::sessions::SessionTable;
use super::{RequestSlot, RouteKey, Shared};
use crate::error::ServiceError;
use crate::persist::journal::{journal_path, JournalWriter, JOURNAL_HEAD_LEN};
use crate::persist::RestoredSession;
use dbi_core::persist::session_record_len;
use dbi_core::{clock, BurstSlab, BusState, DbiEncoder, EncodePlan, KernelKind, Scheme};
use dbi_mem::ReplayScratch;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on how many further queued requests one worker pass drains
/// behind the request it popped (the packing window). Bounds the latency
/// a burst of requests can add to work still arriving behind it.
pub(super) const COALESCE_LIMIT: usize = 16;

/// Largest chain count one packed round accepts before a job opens a new
/// round. Generous multiple of every kernel's lane width; bounds the
/// shared slab's mask/cost arrays.
const ROUND_CHAIN_LIMIT: u32 = 64;

/// Largest payload volume (bytes) one packed round accepts before a job
/// opens a new round — bounds the shared slab's resident size no matter
/// how large the individual requests in the window are.
const ROUND_BYTE_LIMIT: usize = 1 << 20;

/// One job of a worker pass: the queue entry plus the packing decisions
/// made for it (which round it executes in and where its chains start in
/// that round's shared slab).
pub(super) struct PassJob {
    pub(super) key: RouteKey,
    pub(super) slot: Arc<RequestSlot>,
    /// Accesses (bursts per lane group) in the job's payload, read once
    /// at window-drain time; the round key that keeps slab grids uniform.
    accesses: u32,
    /// Round index this job executes in (set by `form_rounds`).
    round: u32,
    /// Index of this job's first chain within its round's packed state
    /// vector and slab grid (set during the round's packing phase).
    pub(super) chain_base: u32,
    /// Set once the job's slot has been published (success or failure);
    /// later phases skip it.
    pub(super) done: bool,
    /// Whether this is the draining client's own job: its slot is read
    /// back on the same thread, so publishing it wakes nobody.
    pub(super) inline: bool,
}

impl PassJob {
    /// Whether the job executes in `round` and is not yet published.
    fn pending_in(&self, round: usize) -> bool {
        self.round as usize == round && !self.done
    }
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

/// One shard's whole state: the session table plus every reusable buffer
/// of the packed data path. All scratch survives across passes, so a
/// warmed-up shard allocates nothing per request, whichever thread runs
/// the pass.
pub(super) struct ShardWorker {
    pub(super) shard: usize,
    /// The process-selected SIMD tier, resolved once: a dispatch whose
    /// chain count reaches this kernel's lane width is "full-width" in
    /// the lane-occupancy metrics.
    kernel: KernelKind,
    pub(super) sessions: SessionTable,
    /// The packed encode slab every round runs through.
    pub(super) slab: BurstSlab,
    /// The packed dispatch's chain states: each member session's carried
    /// states, concatenated in chain order, which the dispatch advances
    /// in place to the post-dispatch states each session imports back.
    pub(super) states: Vec<BusState>,
    /// The verify-mode receiver replay's reusable workspace.
    pub(super) verify: ReplayScratch,
    pub(super) window: Vec<PassJob>,
    rounds: Vec<RoundMeta>,
    /// Last round index per session seen while forming rounds (linear
    /// scan: the window is small). After the pass this doubles as the
    /// journal's work list — exactly the sessions the pass touched.
    pub(super) session_rounds: Vec<(u64, u32)>,
    /// The shard's append-only journal; `None` when persistence is off
    /// (or its file could not be created — durability degrades, counted
    /// in the shard's `journal_errors`; the data path never fails).
    pub(super) journal: Option<JournalWriter>,
    /// Reused scratch for serialising one session's states into the
    /// journal.
    pub(super) journal_states: Vec<BusState>,
    /// Monotonic pass counter; stamps each session's last touch for
    /// idle-age eviction.
    pass_stamp: u64,
}

impl std::fmt::Debug for ShardWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWorker")
            .field("shard", &self.shard)
            .finish_non_exhaustive()
    }
}

/// The body of shard `shard`'s worker thread: drains whenever the queue
/// has work, until it closes.
pub(super) fn serve(shared: &Shared, shard: usize) {
    while shared.queues[shard].wait_ready() {
        let mut worker = shared.shards[shard].lock().expect("shard state poisoned");
        worker.drain(shared, None);
    }
}

impl ShardWorker {
    /// The state of `shard`, seeded with its recovered sessions before it
    /// serves anything: the first request a restored session sees
    /// continues its carried state exactly where the previous process
    /// left it.
    pub(super) fn new(shard: usize, shared: &Shared, restored: Vec<RestoredSession>) -> Self {
        let metrics = shared.metrics.shard(shard);
        // Start left the journal holding exactly the restored sessions.
        let live_len = restored.iter().fold(JOURNAL_HEAD_LEN, |len, session| {
            len + session_record_len(usize::from(session.groups))
        });
        let journal = shared.persist.as_ref().and_then(|plane| {
            JournalWriter::open(journal_path(&plane.dir, shard), live_len as u64)
                .inspect_err(|_| metrics.journal_error())
                .ok()
        });
        let mut sessions = SessionTable::new(shard, shared.config.max_sessions_per_shard);
        sessions.restore(restored, &shared.plans, metrics);
        ShardWorker {
            shard,
            kernel: dbi_core::simd::selected_kernel(),
            sessions,
            slab: BurstSlab::new(dbi_core::STANDARD_BURST_LEN),
            states: Vec::new(),
            verify: ReplayScratch::default(),
            window: Vec::with_capacity(COALESCE_LIMIT + 1),
            rounds: Vec::with_capacity(COALESCE_LIMIT + 1),
            session_rounds: Vec::with_capacity(COALESCE_LIMIT + 1),
            journal,
            journal_states: Vec::new(),
            pass_stamp: 0,
        }
    }

    /// Runs passes until the ring is empty, or — for a client draining
    /// with its own slot `own` — until the pass that ran `own`'s job.
    /// Jobs left behind by the early return were pushed with a notify, so
    /// the worker wakes for them.
    pub(super) fn drain(&mut self, shared: &Shared, own: Option<&Arc<RequestSlot>>) {
        let queue = &shared.queues[self.shard];
        let metrics = shared.metrics.shard(self.shard);
        loop {
            // The packing window: whatever is queued — any session, any
            // geometry — joins this pass.
            self.window.clear();
            while self.window.len() <= COALESCE_LIMIT {
                let Some((key, slot)) = queue.try_pop() else {
                    break;
                };
                metrics.dequeue();
                let inline = own.is_some_and(|own| Arc::ptr_eq(own, &slot));
                self.push_job(key, slot, inline);
            }
            if self.window.is_empty() {
                if own.is_none() {
                    return;
                }
                // The client's own job is queued behind a push another
                // producer has claimed but not yet published.
                std::thread::yield_now();
                continue;
            }
            // One dequeue stamp serves the whole pass: the window left the
            // queue in the same drain.
            let dequeue_ns = clock::now_nanos();
            if self.run_pass(shared, dequeue_ns) {
                return;
            }
        }
    }

    fn push_job(&mut self, key: RouteKey, slot: Arc<RequestSlot>, inline: bool) {
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
            inline,
        });
    }

    /// One pass over the drained window, in order: form rounds; for each
    /// round claim and pack, dispatch, then gather, account and verify,
    /// and publish each of its jobs; journal every session the pass
    /// touched. Returns whether the window held the draining client's own
    /// job.
    fn run_pass(&mut self, shared: &Shared, dequeue_ns: u64) -> bool {
        self.pass_stamp += 1;
        self.form_rounds();
        let mut pass_bursts = 0u64;
        let mut executed = false;
        for round in 0..self.rounds.len() {
            let Some(plan) = self.claim_and_pack(shared, round, dequeue_ns) else {
                continue;
            };
            executed = true;
            let encode_span = self.dispatch(shared, round, &plan);
            for job in 0..self.window.len() {
                if self.window[job].pending_in(round) {
                    pass_bursts += self.finish_job(shared, job, encode_span, dequeue_ns);
                }
            }
        }
        let inline = self.window.iter().any(|job| job.inline);
        // A pass counts, and journals, once it executed at least one
        // claimed session's work.
        if executed {
            shared.metrics.shard(self.shard).record_pass(
                pass_bursts,
                (self.window.len() - 1) as u64,
                inline,
            );
            self.journal_pass(shared);
        }
        inline
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

    /// Claims each member job's session, appends its chains to the shared
    /// slab and exports its carried states. Jobs whose claim fails are
    /// published right here. Returns the plan the round dispatches
    /// through, or `None` when no job was packed.
    fn claim_and_pack(
        &mut self,
        shared: &Shared,
        round: usize,
        dequeue_ns: u64,
    ) -> Option<Arc<EncodePlan>> {
        self.slow_down_for_tests(shared, round);
        let metrics = shared.metrics.shard(self.shard);
        self.slab.reset(usize::from(self.rounds[round].burst_len));
        self.states.clear();
        let mut plan = None;
        for i in 0..self.window.len() {
            if !self.window[i].pending_in(round) {
                continue;
            }
            let job = &self.window[i];
            let state = job.slot.state.lock().expect("slot mutex poisoned");
            let claimed = self
                .sessions
                .claim(&job.key, self.pass_stamp, &shared.plans, metrics);
            let failure = match claimed {
                Ok(entry) => match entry
                    .session
                    .append_chains_to_slab(&state.payload, &mut self.slab)
                {
                    Ok(_) => {
                        drop(state);
                        self.window[i].chain_base = self.states.len() as u32;
                        entry.session.export_states_into(&mut self.states);
                        if plan.is_none() {
                            plan = Some(Arc::clone(entry.session.plan()));
                        }
                        continue;
                    }
                    Err(_) => ServiceError::Internal("validated payload rejected by the session"),
                },
                Err(err) => {
                    metrics.record_reject();
                    err
                }
            };
            let timing = StageTiming::default();
            self.finish_slot(shared, job, state, Err(failure), dequeue_ns, timing);
            self.window[i].done = true;
        }
        plan
    }

    /// Runs the round's one kernel sweep over every packed chain and
    /// returns its span in nanoseconds.
    fn dispatch(&mut self, shared: &Shared, round: usize, plan: &EncodePlan) -> u64 {
        let chains = self.states.len();
        let start = clock::now_nanos();
        plan.encode_lanes_into(&mut self.slab, &mut self.states);
        let span = clock::now_nanos().saturating_sub(start);
        let full = chains
            >= self
                .kernel
                .lane_width(usize::from(self.rounds[round].burst_len));
        shared
            .metrics
            .shard(self.shard)
            .record_dispatch(chains as u64, full);
        span
    }

    /// Test fault injection: sleeps before packing a round that holds a
    /// job of the slowed session.
    fn slow_down_for_tests(&self, shared: &Shared, round: usize) {
        let hooks = &shared.hooks;
        let delay_ns = hooks.slow_delay_ns.load(Ordering::Relaxed);
        if delay_ns > 0 {
            let slow = hooks.slow_session.load(Ordering::Relaxed);
            if self
                .window
                .iter()
                .any(|job| job.pending_in(round) && job.key.session_id == slow)
            {
                std::thread::sleep(Duration::from_nanos(delay_ns));
            }
        }
    }
}
