//! The shard queue: a bounded lock-free request ring plus the control
//! lane admin jobs ride to the worker.

use super::{RequestSlot, RouteKey};
use crate::error::ServiceError;
use crate::persist::{PersistError, RestoredSession};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// An admin operation executed *by the shard worker itself*, between
/// passes — the per-shard quiesce the durable session plane is built on:
/// while the worker serves a control job, no request is mutating the
/// shard's sessions, so a snapshot sees every session at a pass boundary.
#[derive(Debug)]
pub(super) enum ControlRequest {
    /// Compact the shard's journal with every live session's state laid
    /// over it, synced, and mark the live sessions captured.
    Snapshot,
    /// Replace the shard's sessions with state recovered from disk.
    Restore { sessions: Vec<RestoredSession> },
}

/// What a control job came back with.
#[derive(Debug)]
pub(super) enum ControlOutcome {
    /// `Snapshot`: the records and bytes the shard's journal holds after.
    Snapshot { records: u64, bytes: u64 },
    /// `Snapshot` could not rewrite the shard's journal.
    Failed(PersistError),
    /// `Restore` completed.
    Done,
}

/// A control job and where its answer goes. Every admitted job is
/// answered exactly once by the worker, or dropped unanswered by its
/// shutdown drain, which the submitter sees as [`ServiceError::ShuttingDown`].
#[derive(Debug)]
pub(super) struct ControlJob {
    pub(super) request: ControlRequest,
    pub(super) reply: mpsc::SyncSender<ControlOutcome>,
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
/// rare admin jobs (snapshot, restore); a worker checks its flag before
/// popping requests, so control jobs run at the next pass boundary
/// without the data path ever touching the mutex.
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
    /// job is answered or dropped, so the wait cannot hang.
    pub(super) fn control_round(
        &self,
        request: ControlRequest,
    ) -> Result<ControlOutcome, ServiceError> {
        let (reply, answer) = mpsc::sync_channel(1);
        self.push_control(ControlJob { request, reply })?;
        answer.recv().map_err(|_| ServiceError::ShuttingDown)
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
    /// and latency-sensitive (a snapshot holds the admin lock) — and
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
