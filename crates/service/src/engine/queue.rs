//! The shard queue: a bounded lock-free request ring plus the control
//! lane admin jobs ride to the worker.

use super::{RequestSlot, RouteKey};
use crate::error::ServiceError;
use crate::persist::RestoredSession;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// An admin operation executed *by the shard worker itself*, between
/// passes — the per-shard quiesce the durable session plane is built on:
/// while the worker serves a control job, no request is mutating the
/// shard's sessions, so a capture sees every session at a pass boundary.
#[derive(Debug)]
pub(super) enum ControlRequest {
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
pub(super) enum ControlOutcome {
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
pub(super) struct ControlReply {
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

    pub(super) fn deliver(&self, outcome: ControlOutcome) {
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
pub(super) struct ControlJob {
    pub(super) request: ControlRequest,
    pub(super) reply: Arc<ControlReply>,
}

/// What a blocking dequeue produced.
pub(super) enum Popped {
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
/// [`super::ServiceConfig::queue_capacity`]) and an eventcount lets the worker
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
pub(super) struct ShardQueue {
    ring: eventring::Ring<(RouteKey, Arc<RequestSlot>)>,
    ready: eventring::EventCount,
    closed: AtomicBool,
    inflight: AtomicUsize,
    control: Mutex<VecDeque<ControlJob>>,
    control_pending: AtomicBool,
}

impl ShardQueue {
    pub(super) fn new(capacity: usize) -> Self {
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
    pub(super) fn try_push(
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
    pub(super) fn try_pop(&self) -> Option<(RouteKey, Arc<RequestSlot>)> {
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

    /// Submits one control job and blocks for its answer. Every admitted
    /// job is answered (served, or `Aborted` by the worker's shutdown
    /// drain), so the wait cannot hang.
    pub(super) fn control_round(
        &self,
        request: ControlRequest,
    ) -> Result<ControlOutcome, ServiceError> {
        let reply = Arc::new(ControlReply::new());
        self.push_control(ControlJob {
            request,
            reply: Arc::clone(&reply),
        })?;
        match reply.wait() {
            ControlOutcome::Aborted => Err(ServiceError::ShuttingDown),
            outcome => Ok(outcome),
        }
    }

    /// Pops one pending control job; clears the fast-path flag with the
    /// last one (flag and queue move together under the lane's lock).
    pub(super) fn take_control(&self) -> Option<ControlJob> {
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
    pub(super) fn pop_blocking(&self) -> Popped {
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

    pub(super) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        while self.inflight.load(Ordering::SeqCst) > 0 {
            std::hint::spin_loop();
        }
        self.ready.notify_all();
    }
}
