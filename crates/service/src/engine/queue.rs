//! The shard queue: a bounded lock-free request ring and the eventcount
//! the shard's worker parks on.

use super::{RequestSlot, RouteKey};
use crate::error::ServiceError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A bounded **lock-free** multi-producer queue feeding one shard worker:
/// a Vyukov-style ring holds the jobs (exact logical capacity, so the
/// [`ServiceError::Overloaded`] threshold is precisely
/// [`super::ServiceConfig::queue_capacity`]) and an eventcount lets the worker
/// park when idle without putting a mutex on the submission path.
///
/// Jobs are popped only by the holder of the shard's state lock (the
/// worker thread, or a [`super::LocalClient`] running its own request),
/// and each holder finishes every job it popped before letting go, so
/// per-session FIFO holds whoever runs a pass. Every job but the lock
/// holder's own is pushed with a notify, so the worker wakes for it even
/// when a client takes the lock first and leaves once its own job ran.
///
/// Shutdown protocol: `close` raises the flag, spins out the producers
/// currently inside `try_push` (the `inflight` count), then wakes the
/// worker. `wait_ready` only reports the queue finished after observing
/// `closed && inflight == 0` *and* an empty ring — so every job a
/// producer was admitted to push is drained and answered before the
/// worker exits, exactly as the old mutex queue guaranteed by
/// linearising `close` against `try_push`.
///
/// Admin work (snapshot, restore, the shutdown compaction) never rides
/// the queue: it takes the shard's state lock, whose holder is always at
/// a pass boundary.
#[derive(Debug)]
pub(super) struct ShardQueue {
    ring: eventring::Ring<(RouteKey, Arc<RequestSlot>)>,
    ready: eventring::EventCount,
    closed: AtomicBool,
    inflight: AtomicUsize,
}

impl ShardQueue {
    pub(super) fn new(capacity: usize) -> Self {
        ShardQueue {
            ring: eventring::Ring::with_capacity(capacity),
            ready: eventring::EventCount::new(),
            closed: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
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

    /// Parks until a job is queued, or the queue has closed and drained;
    /// pops nothing. Returns `false` once closed with the ring empty and
    /// no push still in flight: nothing can be queued any more, and the
    /// worker exits. The ring counts a job from the moment its push is
    /// admitted, so a `true` may run ahead of `try_pop` by the few
    /// instructions a producer takes to publish it.
    pub(super) fn wait_ready(&self) -> bool {
        loop {
            if !self.ring.is_empty() {
                return true;
            }
            let ticket = self.ready.listen();
            if !self.ring.is_empty() {
                return true;
            }
            if self.closed.load(Ordering::SeqCst) && self.inflight.load(Ordering::SeqCst) == 0 {
                // Reading `inflight == 0` (SeqCst) after `closed` means
                // every admitted push has finished its insertion; one
                // last check of the ring linearises the drain.
                return !self.ring.is_empty();
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
