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
/// Jobs are popped only by the holder of the shard's state lock (the
/// worker thread, or a [`super::LocalClient`] running its own request),
/// and each holder finishes every job it popped before letting go, so
/// per-session FIFO holds whoever runs a pass. Every job but the lock
/// holder's own is pushed with a notify, so the worker wakes for it even
/// when a client takes the lock first and leaves once its own job ran.
///
/// Shutdown protocol: `close` raises the flag, spins out the producers
/// currently inside `try_push`/`push_control` (the `inflight` count),
/// then wakes the worker. `wait_ready` only reports the queue finished
/// after observing `closed && inflight == 0` *and* both lanes empty — so
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
    /// overload signal, never a stall. `notify` is false only for the
    /// shard state's lock holder pushing its own job, which it runs
    /// itself: waking the worker for it would only cost a futex wake.
    pub(super) fn try_push(
        &self,
        shard: usize,
        key: RouteKey,
        job: Arc<RequestSlot>,
        notify: bool,
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
                if notify {
                    self.ready.notify_all();
                }
                Ok(())
            }
            Err(_full) => Err(ServiceError::Overloaded { shard }),
        }
    }

    /// Non-blocking dequeue, called only under the shard state's lock.
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
    /// The data path only reads the flag.
    pub(super) fn take_control(&self) -> Option<ControlJob> {
        if !self.control_pending.load(Ordering::SeqCst) {
            return None;
        }
        let mut control = self.control.lock().expect("control lane poisoned");
        let job = control.pop_front();
        if control.is_empty() {
            self.control_pending.store(false, Ordering::SeqCst);
        }
        job
    }

    /// Parks until a job or a control job is queued, or the queue has
    /// closed and drained; pops nothing. Returns `false` once closed with
    /// both lanes empty and no push still in flight: nothing can be
    /// queued any more, and the worker exits.
    pub(super) fn wait_ready(&self) -> bool {
        loop {
            if self.has_work() {
                return true;
            }
            let ticket = self.ready.listen();
            if self.has_work() {
                return true;
            }
            if self.closed.load(Ordering::SeqCst) && self.inflight.load(Ordering::SeqCst) == 0 {
                // Reading `inflight == 0` (SeqCst) after `closed` means
                // every admitted push has finished its insertion; one
                // last check of both lanes linearises the drain.
                return self.has_work();
            }
            self.ready.wait(ticket);
        }
    }

    /// Whether either lane holds a job. The ring counts a job from the
    /// moment its push is admitted, so this may run ahead of `try_pop` by
    /// the few instructions a producer takes to publish it.
    fn has_work(&self) -> bool {
        self.control_pending.load(Ordering::SeqCst) || !self.ring.is_empty()
    }

    pub(super) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        while self.inflight.load(Ordering::SeqCst) > 0 {
            std::hint::spin_loop();
        }
        self.ready.notify_all();
    }
}
