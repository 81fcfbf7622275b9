//! The event-driven connection plane.
//!
//! The TCP front end used to burn one thread per connection; this module
//! replaces that with a small fixed pool of **I/O threads**, each owning
//! a [`poller::Poller`] (Linux epoll, portable poll(2) fallback) and
//! multiplexing thousands of nonblocking connections:
//!
//! ```text
//!                    accept thread (blocking accept(2))
//!                        | round-robin hand-off via Inbox + Waker
//!            +-----------+-----------+
//!            v           v           v
//!       io thread 0  io thread 1  io thread N-1
//!        Poller        Poller        Poller
//!        conn slab     conn slab     conn slab
//!            \           |           /
//!             \          v          /
//!              shard workers (Engine)
//!             /          |          \
//!            completions flow back via each thread's Inbox
//! ```
//!
//! Each connection owns a growable read buffer (bytes parsed into frames
//! in place) and a growable write buffer (responses appended, flushed as
//! the socket accepts them). Both are bounded by configurable
//! high-watermarks: a connection whose *write* buffer crosses
//! [`ConnConfig::write_high_watermark`] is a **slow consumer** — it is
//! sent a best-effort [`ErrorCode::SlowConsumer`](crate::wire::ErrorCode)
//! frame and dropped, so one unread client cannot grow server memory
//! without limit. That check runs at every queued frame.
//!
//! Responses are flushed **once per connection per wake**. Completions
//! and readiness events only queue responses; after the thread has
//! handled every one of them, it flushes each connection they touched —
//! normally one `write`, however many responses the wake queued — then
//! decides whether the connection is finished and settles its poller
//! interest (at most one reregister).
//!
//! Requests reach the engine through its non-blocking submission path
//! (`Shared::submit_slot`) with a completion registration; the shard
//! worker finishes the request and pushes the slot onto the owning I/O
//! thread's `Inbox`, waking its poller. Encode frames submit
//! concurrently up to [`ConnConfig::max_in_flight`] per connection, with
//! parsing paused at that bound, and are matched to responses by request
//! id, so they may complete out of order across sessions while staying
//! FIFO within one (sticky sharding orders same-session work).

mod connection;

use crate::engine::{CompletionSink, Engine, Phase, RequestSlot};
use crate::metrics::ConnectionMetrics;
use connection::{Close, Connection, IoContext};
use poller::{Event, Interest, Poller, Waker};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Build-time configuration of the connection plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnConfig {
    /// I/O threads multiplexing the connections. At least 1.
    pub io_threads: usize,
    /// Unparsed bytes a connection's read buffer holds before the plane
    /// stops reading from its socket (kernel-side backpressure). Clamped
    /// up to one maximum frame, so any legal frame can always be
    /// buffered whole.
    pub read_high_watermark: usize,
    /// Unflushed bytes a connection's write buffer may hold; crossing it
    /// makes the connection a slow consumer, which is dropped with a
    /// typed [`ErrorCode::SlowConsumer`](crate::wire::ErrorCode) frame.
    /// Clamped up to one maximum frame, so a single legal response can
    /// always be queued.
    pub write_high_watermark: usize,
    /// Encode requests one connection may have in flight in the
    /// engine before the plane pauses parsing its frames. At least 1.
    pub max_in_flight: usize,
}

impl Default for ConnConfig {
    /// I/O threads default to the machine's parallelism capped at 4; the
    /// read high-watermark to one maximum frame; the write
    /// high-watermark to 16 MiB (two maximum frames); 64 in-flight
    /// pipelined requests per connection.
    fn default() -> Self {
        ConnConfig {
            io_threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            read_high_watermark: crate::wire::HEADER_LEN + crate::wire::MAX_BODY_LEN,
            write_high_watermark: 16 << 20,
            max_in_flight: 64,
        }
    }
}

impl ConnConfig {
    /// The configuration with every field clamped into its workable
    /// range (see the field docs).
    #[must_use]
    fn normalised(mut self) -> Self {
        let max_frame = crate::wire::HEADER_LEN + crate::wire::MAX_BODY_LEN;
        self.io_threads = self.io_threads.max(1);
        self.read_high_watermark = self.read_high_watermark.max(max_frame);
        self.write_high_watermark = self.write_high_watermark.max(max_frame);
        self.max_in_flight = self.max_in_flight.max(1);
        self
    }
}

/// The poller token reserved for an I/O thread's inbox waker; connection
/// tokens start above it.
const WAKER_TOKEN: usize = 0;
const TOKEN_BASE: usize = 1;

/// The mailbox of one I/O thread: new connections from the accept
/// thread, finished request slots from the shard workers, and the stop
/// flag — all delivered under one mutex, with a [`Waker`] to interrupt
/// the thread's poller.
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    waker: Waker,
}

#[derive(Default)]
struct InboxState {
    conns: Vec<TcpStream>,
    completions: Vec<(u64, Arc<RequestSlot>)>,
    stop: bool,
}

impl Inbox {
    fn new(waker: Waker) -> Arc<Inbox> {
        Arc::new(Inbox {
            state: Mutex::new(InboxState::default()),
            waker,
        })
    }

    pub(crate) fn push_conn(&self, stream: TcpStream) {
        self.state
            .lock()
            .expect("inbox mutex poisoned")
            .conns
            .push(stream);
        self.waker.wake();
    }

    /// Grows the completion list's capacity to at least `capacity`, so
    /// the pushes of that many outstanding jobs never reallocate it.
    fn reserve_completions(&self, capacity: usize) {
        let mut state = self.state.lock().expect("inbox mutex poisoned");
        let len = state.completions.len();
        state.completions.reserve(capacity.saturating_sub(len));
    }

    fn request_stop(&self) {
        self.state.lock().expect("inbox mutex poisoned").stop = true;
        self.waker.wake();
    }

    /// Moves the mailbox contents into the caller's buffers; returns the
    /// stop flag.
    fn drain(
        &self,
        conns: &mut Vec<TcpStream>,
        completions: &mut Vec<(u64, Arc<RequestSlot>)>,
    ) -> bool {
        let mut state = self.state.lock().expect("inbox mutex poisoned");
        conns.append(&mut state.conns);
        completions.append(&mut state.completions);
        state.stop
    }
}

impl CompletionSink for Inbox {
    fn complete(&self, token: u64, slot: &Arc<RequestSlot>) {
        let mut state = self.state.lock().expect("inbox mutex poisoned");
        state.completions.push((token, Arc::clone(slot)));
        // Wake only on the empty->non-empty edge: the I/O thread drains
        // the whole list per wake, so further pushes before the drain
        // need no further wakes.
        let first = state.completions.len() == 1;
        drop(state);
        if first {
            self.waker.wake();
        }
    }
}

/// The jobs one I/O thread has submitted whose completions it has not
/// drained yet, and the capacity reserved for them in both completion
/// lists: the inbox's, which a finished pass pushes into, and the
/// thread's drain buffer. Room is made before each submission, so neither
/// list grows once the thread's in-flight peak (bounded by connections ×
/// [`ConnConfig::max_in_flight`]) has been reached.
#[derive(Default)]
pub(crate) struct CompletionBudget {
    in_flight: usize,
    reserved: usize,
}

impl CompletionBudget {
    /// Makes room in `inbox` for one more completion; call before
    /// submitting the job it answers.
    pub(crate) fn make_room(&mut self, inbox: &Inbox) {
        if self.in_flight >= self.reserved {
            self.reserved = (2 * self.reserved).max(16);
            inbox.reserve_completions(self.reserved);
        }
    }
}

/// The running pool of I/O threads behind one TCP server.
pub(crate) struct ConnPlane {
    inboxes: Vec<Arc<Inbox>>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ConnPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnPlane")
            .field("io_threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl ConnPlane {
    /// Spawns the configured number of I/O threads, each with its own
    /// poller and inbox.
    pub(crate) fn start(engine: &Engine, config: ConnConfig) -> io::Result<ConnPlane> {
        let config = config.normalised();
        let metrics = Arc::new(ConnectionMetrics::default());
        let mut inboxes = Vec::with_capacity(config.io_threads);
        let mut threads = Vec::with_capacity(config.io_threads);
        for index in 0..config.io_threads {
            let mut poller = Poller::new()?;
            let waker = poller.add_waker(WAKER_TOKEN)?;
            let inbox = Inbox::new(waker);
            let thread = {
                let engine = engine.clone();
                let inbox = Arc::clone(&inbox);
                let metrics = Arc::clone(&metrics);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("dbi-io-{index}"))
                    .spawn(move || io_loop(&engine, &inbox, poller, &config, &metrics))?
            };
            inboxes.push(inbox);
            threads.push(thread);
        }
        Ok(ConnPlane { inboxes, threads })
    }

    /// Handles to every I/O thread's mailbox, for the accept thread to
    /// hand streams out round-robin.
    pub(crate) fn inboxes(&self) -> Vec<Arc<Inbox>> {
        self.inboxes.clone()
    }

    /// Stops and joins every I/O thread; each closes all the connections
    /// it multiplexes on the way out. Deterministic: when this returns,
    /// no plane thread is running and no connection remains open.
    pub(crate) fn shutdown(&mut self) {
        for inbox in &self.inboxes {
            inbox.request_stop();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ConnPlane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Resets a finished slot and returns it to the thread-local pool, so a
/// steady-state I/O thread recycles slots instead of allocating.
fn recycle_slot(pool: &mut Vec<Arc<RequestSlot>>, slot: Arc<RequestSlot>) {
    slot.state.lock().expect("slot mutex poisoned").phase = Phase::Idle;
    pool.push(slot);
}

/// One I/O thread: drains its inbox (new connections, completions, the
/// stop flag), then services poller readiness until told to stop.
fn io_loop(
    engine: &Engine,
    inbox: &Arc<Inbox>,
    mut poller: Poller,
    config: &ConnConfig,
    metrics: &Arc<ConnectionMetrics>,
) {
    // Connection slab: slot index + TOKEN_BASE is the poller token;
    // (index << 32) | generation is the completion token, so a stale
    // completion can never reach a recycled slab slot.
    let mut conns: Vec<Option<Connection>> = Vec::new();
    let mut gens: Vec<u32> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut slot_pool: Vec<Arc<RequestSlot>> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut new_conns: Vec<TcpStream> = Vec::new();
    let mut completions: Vec<(u64, Arc<RequestSlot>)> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut budget = CompletionBudget::default();
    let sink: Arc<dyn CompletionSink> = Arc::clone(inbox) as Arc<dyn CompletionSink>;

    loop {
        if poller.wait(&mut events, None).is_err() {
            // Fatal backend failure; nothing to multiplex with. Drop the
            // connections rather than spin.
            return;
        }

        // Both lists are empty here. The drain buffer gets room for every
        // outstanding completion the inbox can hand over; `touched` for
        // one entry per completion and per ready connection.
        completions.reserve(budget.reserved);
        touched.reserve(budget.reserved + conns.len());
        let stop = inbox.drain(&mut new_conns, &mut completions);
        budget.in_flight -= completions.len();
        if stop {
            for (index, conn) in conns.iter_mut().enumerate() {
                if let Some(conn) = conn.take() {
                    let _ = poller.deregister(conn.stream().as_raw_fd());
                    metrics.on_close();
                    gens[index] = gens[index].wrapping_add(1);
                }
            }
            for (_, slot) in completions.drain(..) {
                recycle_slot(&mut slot_pool, slot);
            }
            return;
        }

        for stream in new_conns.drain(..) {
            let index = free.pop().unwrap_or_else(|| {
                conns.push(None);
                gens.push(0);
                conns.len() - 1
            });
            if stream.set_nonblocking(true).is_err() {
                free.push(index);
                continue;
            }
            let completion_token = ((index as u64) << 32) | u64::from(gens[index]);
            let conn = Connection::new(stream, completion_token);
            if poller
                .register(
                    conn.stream().as_raw_fd(),
                    TOKEN_BASE + index,
                    Interest::READ,
                )
                .is_err()
            {
                free.push(index);
                continue;
            }
            metrics.on_accept();
            conns[index] = Some(conn);
        }

        // Completions and readiness only queue output; each connection
        // they touched is flushed (and its interest settled) once, after
        // both loops.
        let mut ctx = IoContext {
            engine,
            config,
            metrics,
            sink: &sink,
            inbox,
            budget: &mut budget,
            slot_pool: &mut slot_pool,
        };
        for (token, slot) in completions.drain(..) {
            let index = (token >> 32) as usize;
            let generation = token as u32;
            if gens.get(index) == Some(&generation) {
                if let Some(Some(conn)) = conns.get_mut(index) {
                    match conn.handle_completion(&slot, &mut ctx) {
                        Ok(()) => touched.push(index),
                        closed => finish(
                            &mut poller,
                            &mut conns,
                            &mut gens,
                            &mut free,
                            metrics,
                            index,
                            closed,
                        ),
                    }
                }
            }
            recycle_slot(ctx.slot_pool, slot);
        }

        for &event in &events {
            if event.token == WAKER_TOKEN {
                continue;
            }
            let index = event.token - TOKEN_BASE;
            let Some(Some(conn)) = conns.get_mut(index) else {
                // Closed earlier in this same wait batch.
                continue;
            };
            match conn.handle_event(event, &mut ctx) {
                Ok(()) => touched.push(index),
                closed => finish(
                    &mut poller,
                    &mut conns,
                    &mut gens,
                    &mut free,
                    metrics,
                    index,
                    closed,
                ),
            }
        }

        // New connections are placed only at the top of the loop, so no
        // index in `touched` has been reused by a different connection.
        touched.sort_unstable();
        touched.dedup();
        for index in touched.drain(..) {
            let Some(Some(conn)) = conns.get_mut(index) else {
                // Closed earlier in this same wake.
                continue;
            };
            let result = conn.after_work(&mut ctx);
            finish(
                &mut poller,
                &mut conns,
                &mut gens,
                &mut free,
                metrics,
                index,
                result,
            );
        }
    }
}

/// Applies a connection's post-work verdict: reregisters its interest
/// when it stays open, or tears it down (with the slow-consumer notice
/// when that is the cause) when it closes.
fn finish(
    poller: &mut Poller,
    conns: &mut [Option<Connection>],
    gens: &mut [u32],
    free: &mut Vec<usize>,
    metrics: &ConnectionMetrics,
    index: usize,
    result: Result<(), Close>,
) {
    let conn = conns[index].as_mut().expect("caller holds a live slot");
    match result {
        Ok(()) => {
            let wanted = conn.desired_interest();
            if wanted != conn.current_interest() {
                if poller
                    .reregister(conn.stream().as_raw_fd(), TOKEN_BASE + index, wanted)
                    .is_err()
                {
                    close_slot(poller, conns, gens, free, metrics, index);
                    return;
                }
                conn.set_current_interest(wanted);
            }
        }
        Err(Close::Slow) => {
            metrics.on_dropped_slow();
            conn.send_slow_consumer_notice();
            close_slot(poller, conns, gens, free, metrics, index);
        }
        Err(Close::Done | Close::Error) => {
            close_slot(poller, conns, gens, free, metrics, index);
        }
    }
}

fn close_slot(
    poller: &mut Poller,
    conns: &mut [Option<Connection>],
    gens: &mut [u32],
    free: &mut Vec<usize>,
    metrics: &ConnectionMetrics,
    index: usize,
) {
    if let Some(conn) = conns[index].take() {
        let _ = poller.deregister(conn.stream().as_raw_fd());
        metrics.on_close();
    }
    gens[index] = gens[index].wrapping_add(1);
    free.push(index);
}
