//! One multiplexed connection: buffered nonblocking reads, in-place
//! frame parsing, engine submission with completion routing, and
//! buffered nonblocking writes — the whole state machine one I/O thread
//! drives for each of its connections.
//!
//! Framing errors: a *header*-level violation (bad magic, unsupported
//! version, oversized body) is answered with one `BadRequest` error frame
//! and the connection closes once it flushes — a peer that cannot frame
//! correctly cannot be resynchronised. A well-framed body that fails to
//! decode also gets `BadRequest`, but the frame boundary is intact, so
//! the connection stays open and the next frame is served. That answer
//! carries the request's id when the frame is an encode request whose id
//! prefix is readable, so the client can retire exactly that request.

use super::{CompletionBudget, ConnConfig, Inbox};
use crate::engine::{Completion, CompletionSink, EncodeRequest, Engine, Phase, RequestSlot};
use crate::error::ServiceError;
use crate::metrics::ConnectionMetrics;
use crate::wire::{
    self, EncodeBatchResponseFrame, EncodeResponseFrame, ErrorCode, ErrorFrame, Frame,
    PipelinedBatchResponseFrame, PipelinedErrorFrame, PipelinedResponseFrame, WireError,
};
use poller::Interest;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Bytes asked of the socket per read call. Reads land in a stack
/// scratch buffer and only the received bytes are appended, so an idle
/// connection's read buffer stays as small as its actual backlog —
/// essential when one thread multiplexes thousands of connections.
const READ_CHUNK: usize = 16 * 1024;

/// Flushed-prefix length past which the write buffer is compacted even
/// though unflushed bytes remain, bounding the memmove cost per byte.
const FLUSH_COMPACT_THRESHOLD: usize = 64 * 1024;

/// Why a connection is being torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Close {
    /// Normal end: peer hung up, or a protocol violation finished
    /// flushing its error frame.
    Done,
    /// The write buffer crossed the slow-consumer high-watermark.
    Slow,
    /// The transport failed mid-read or mid-write.
    Error,
}

/// Everything a connection needs from its I/O thread to make progress.
pub(crate) struct IoContext<'a> {
    pub(crate) engine: &'a Engine,
    pub(crate) config: &'a ConnConfig,
    pub(crate) metrics: &'a ConnectionMetrics,
    /// The thread's [`Inbox`](super::Inbox) as a completion sink,
    /// cloned into every submission.
    pub(crate) sink: &'a Arc<dyn CompletionSink>,
    /// The same inbox, for reserving completion room before a submission.
    pub(crate) inbox: &'a Inbox,
    /// The thread's outstanding completions and the room held for them.
    pub(crate) budget: &'a mut CompletionBudget,
    /// Thread-local pool of recycled request slots.
    pub(crate) slot_pool: &'a mut Vec<Arc<RequestSlot>>,
}

/// How the response to one in-flight engine submission is framed.
#[derive(Debug, Clone, Copy)]
enum PendingKind {
    /// An encode request, answered by echoed request id.
    Pipelined { request_id: u64 },
    /// A batch encode request, answered by echoed request id and count.
    PipelinedBatch { request_id: u64, count: u16 },
}

impl PendingKind {
    fn request_id(self) -> u64 {
        match self {
            PendingKind::Pipelined { request_id }
            | PendingKind::PipelinedBatch { request_id, .. } => request_id,
        }
    }
}

/// One in-flight engine submission of this connection.
struct Pending {
    slot: Arc<RequestSlot>,
    kind: PendingKind,
}

/// The full state of one multiplexed connection.
pub(crate) struct Connection {
    stream: TcpStream,
    /// The completion token every submission of this connection carries:
    /// `(slab index << 32) | generation`.
    completion_token: u64,
    /// Bytes read off the socket; `[..parsed]` is already consumed.
    read_buf: Vec<u8>,
    parsed: usize,
    /// Bytes queued for the socket; `[..flushed]` is already written.
    write_buf: Vec<u8>,
    flushed: usize,
    /// The longest response frame queued so far: the write buffer's
    /// room per pending request.
    largest_response: usize,
    pending: Vec<Pending>,
    /// Mirror of the pause condition, refreshed after every unit of
    /// work, so interest can be computed without a context.
    paused: bool,
    /// The peer closed its write half (clean EOF on our reads).
    read_closed: bool,
    /// A header-level protocol violation was answered; close as soon as
    /// the error frame (and any earlier responses) flush.
    close_after_flush: bool,
    current_interest: Interest,
}

impl Connection {
    pub(crate) fn new(stream: TcpStream, completion_token: u64) -> Connection {
        Connection {
            stream,
            completion_token,
            read_buf: Vec::new(),
            parsed: 0,
            write_buf: Vec::new(),
            flushed: 0,
            largest_response: 0,
            pending: Vec::new(),
            paused: false,
            read_closed: false,
            close_after_flush: false,
            current_interest: Interest::READ,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    pub(crate) fn current_interest(&self) -> Interest {
        self.current_interest
    }

    pub(crate) fn set_current_interest(&mut self, interest: Interest) {
        self.current_interest = interest;
    }

    /// The readiness this connection needs right now: reads unless
    /// paused (backpressure) or finished, writes only while flushing.
    pub(crate) fn desired_interest(&self) -> Interest {
        let read = !self.read_closed && !self.close_after_flush && !self.paused;
        let write = self.flushed < self.write_buf.len();
        match (read, write) {
            (true, true) => Interest::READ_WRITE,
            (true, false) => Interest::READ,
            (false, true) => Interest::WRITE,
            (false, false) => Interest::NONE,
        }
    }

    /// Services one readiness notification. Queued responses wait for
    /// the I/O thread's per-wake [`Connection::after_work`].
    pub(crate) fn handle_event(
        &mut self,
        event: poller::Event,
        ctx: &mut IoContext<'_>,
    ) -> Result<(), Close> {
        if event.closed {
            return Err(Close::Done);
        }
        if event.readable && !self.read_closed {
            self.fill_read_buf(ctx)?;
            self.parse_frames(ctx)?;
        }
        Ok(())
    }

    /// Services one finished engine submission: frames its response,
    /// then resumes parsing (the completion may have lifted the pause).
    /// Like [`Connection::handle_event`], it leaves the flush to the
    /// per-wake [`Connection::after_work`].
    pub(crate) fn handle_completion(
        &mut self,
        slot: &Arc<RequestSlot>,
        ctx: &mut IoContext<'_>,
    ) -> Result<(), Close> {
        let Some(position) = self
            .pending
            .iter()
            .position(|entry| Arc::ptr_eq(&entry.slot, slot))
        else {
            // Not ours (cannot happen while generations are honoured);
            // the caller recycles the slot either way.
            return Ok(());
        };
        let entry = self.pending.remove(position);
        let queued = self.write_buf.len();
        {
            let state = slot.state.lock().expect("slot mutex poisoned");
            debug_assert_eq!(
                state.phase,
                Phase::Done,
                "completion for an unfinished slot"
            );
            match &state.result {
                Ok(bursts) => match entry.kind {
                    PendingKind::Pipelined { request_id } => PipelinedResponseFrame {
                        request_id,
                        response: EncodeResponseFrame {
                            session_id: state.session_id,
                            bursts: *bursts,
                            per_group: &state.per_group,
                            masks: &state.masks,
                        },
                    }
                    .encode_into(&mut self.write_buf),
                    PendingKind::PipelinedBatch { request_id, count } => {
                        PipelinedBatchResponseFrame {
                            request_id,
                            response: EncodeBatchResponseFrame {
                                session_id: state.session_id,
                                bursts: *bursts,
                                count,
                                per_group: &state.per_group,
                                masks: &state.masks,
                            },
                        }
                        .encode_into(&mut self.write_buf)
                    }
                },
                Err(err) => queue_failure(&mut self.write_buf, entry.kind.request_id(), err),
            }
        }
        self.largest_response = self.largest_response.max(self.write_buf.len() - queued);
        self.note_queued_output(ctx)?;
        self.parse_frames(ctx)
    }

    /// Best-effort slow-consumer notice, sent right before the drop: one
    /// nonblocking write of a typed error frame. A consumer too slow to
    /// drain its responses may miss it; the drop itself is the signal.
    pub(crate) fn send_slow_consumer_notice(&mut self) {
        let mut notice = Vec::new();
        ErrorFrame {
            code: ErrorCode::SlowConsumer,
            message: "response backlog crossed the write high-watermark; dropping connection",
        }
        .encode_into(&mut notice);
        let _ = self.stream.write(&notice);
    }

    /// Reads until the socket would block, the peer reaches EOF, or the
    /// unparsed backlog reaches the read high-watermark.
    fn fill_read_buf(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if self.read_buf.len() - self.parsed >= ctx.config.read_high_watermark {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    ctx.metrics.on_socket_read();
                    self.read_buf.extend_from_slice(&chunk[..n]);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Close::Error),
            }
        }
        ctx.metrics.record_read_buf(self.read_buf.len() as u64);
        Ok(())
    }

    /// Parses and dispatches every complete frame in the read buffer,
    /// stopping at a partial frame or when backpressure pauses the
    /// connection.
    fn parse_frames(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        loop {
            if self.close_after_flush || self.is_paused(ctx) {
                break;
            }
            if self.parsed >= self.read_buf.len() {
                break;
            }
            let header = match wire::parse_header(&self.read_buf[self.parsed..]) {
                Ok(header) => header,
                Err(WireError::Truncated { .. }) => break,
                Err(err) => {
                    // Framing violation: answer once, then close after
                    // the flush — resynchronisation is impossible.
                    queue_error(&mut self.write_buf, ErrorCode::BadRequest, &err.to_string());
                    self.close_after_flush = true;
                    break;
                }
            };
            let total = wire::HEADER_LEN + header.body_len;
            if self.read_buf.len() - self.parsed < total {
                break;
            }
            let start = self.parsed;
            self.parsed += total;
            // Split borrows: the frame views borrow `read_buf` while the
            // dispatch appends to `write_buf` and grows `pending`.
            let Connection {
                read_buf,
                write_buf,
                pending,
                completion_token,
                largest_response,
                ..
            } = self;
            let frame = &read_buf[start..start + total];
            match wire::decode_frame(frame) {
                Ok((frame, _)) => {
                    dispatch_frame(frame, write_buf, pending, *completion_token, ctx);
                    // A flushed wake leaves the buffer empty and queues at
                    // most one response per pending request, so room for
                    // that many keeps a warm connection from growing it.
                    let room = pending.len() * *largest_response;
                    write_buf.reserve(room.saturating_sub(write_buf.len()));
                }
                // Body-level decode failure: the frame boundary held, so
                // answer — under the request's id when it has a readable
                // one — and keep serving the connection.
                Err(err) => {
                    let error = ErrorFrame {
                        code: ErrorCode::BadRequest,
                        message: &err.to_string(),
                    };
                    match wire::request_id_of(&header, &frame[wire::HEADER_LEN..]) {
                        Some(request_id) => {
                            PipelinedErrorFrame { request_id, error }.encode_into(write_buf)
                        }
                        None => error.encode_into(write_buf),
                    }
                }
            }
            self.note_queued_output(ctx)?;
        }
        if self.parsed > 0 {
            self.read_buf.drain(..self.parsed);
            self.parsed = 0;
        }
        Ok(())
    }

    /// Records the write-buffer watermark after queuing output and trips
    /// the slow-consumer drop when the backlog crosses the limit.
    fn note_queued_output(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        let outstanding = self.write_buf.len() - self.flushed;
        ctx.metrics.record_write_buf(outstanding as u64);
        if outstanding > ctx.config.write_high_watermark {
            return Err(Close::Slow);
        }
        Ok(())
    }

    /// Flushes what the socket will take, refreshes the pause mirror and
    /// decides whether the connection is finished. The I/O thread runs it
    /// once per connection per wake, after every completion and readiness
    /// event of that wake, so all the responses they queued leave in one
    /// write.
    pub(crate) fn after_work(&mut self, ctx: &mut IoContext<'_>) -> Result<(), Close> {
        self.flush(ctx.metrics).map_err(|_| Close::Error)?;
        self.paused = self.is_paused(ctx);
        let drained = self.flushed == self.write_buf.len();
        if (self.read_closed || self.close_after_flush) && self.pending.is_empty() && drained {
            return Err(Close::Done);
        }
        Ok(())
    }

    fn is_paused(&self, ctx: &IoContext<'_>) -> bool {
        self.pending.len() >= ctx.config.max_in_flight
    }

    fn flush(&mut self, metrics: &ConnectionMetrics) -> io::Result<()> {
        while self.flushed < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.flushed..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    metrics.on_socket_write();
                    self.flushed += n;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
        if self.flushed == self.write_buf.len() {
            self.write_buf.clear();
            self.flushed = 0;
        } else if self.flushed >= FLUSH_COMPACT_THRESHOLD {
            self.write_buf.drain(..self.flushed);
            self.flushed = 0;
        }
        Ok(())
    }
}

/// Appends a plain error frame.
fn queue_error(write_buf: &mut Vec<u8>, code: ErrorCode, message: &str) {
    ErrorFrame { code, message }.encode_into(write_buf);
}

/// Appends a failed request's typed error under its echoed id.
fn queue_failure(write_buf: &mut Vec<u8>, request_id: u64, err: &ServiceError) {
    PipelinedErrorFrame {
        request_id,
        error: ErrorFrame {
            code: err.code(),
            message: &err.to_string(),
        },
    }
    .encode_into(write_buf);
}

/// Routes one decoded frame: encode requests into the engine's
/// non-blocking submission path, metrics, telemetry and durability admin
/// requests answered inline, anything else refused.
fn dispatch_frame(
    frame: Frame<'_>,
    write_buf: &mut Vec<u8>,
    pending: &mut Vec<Pending>,
    completion_token: u64,
    ctx: &mut IoContext<'_>,
) {
    match frame {
        Frame::PipelinedRequest {
            request_id,
            request,
        } => submit_job(
            &request,
            None,
            PendingKind::Pipelined { request_id },
            write_buf,
            pending,
            completion_token,
            ctx,
        ),
        Frame::PipelinedBatchRequest {
            request_id,
            request,
        } => submit_job(
            &request.plain(),
            Some(request.count),
            PendingKind::PipelinedBatch {
                request_id,
                count: request.count,
            },
            write_buf,
            pending,
            completion_token,
            ctx,
        ),
        Frame::MetricsRequest => {
            // The engine snapshot plus this plane's live connection
            // counters — the registry itself cannot see them.
            let mut snapshot = ctx.engine.metrics();
            snapshot.connections = ctx.metrics.snapshot();
            wire::encode_metrics_response(write_buf, &snapshot.to_json());
        }
        Frame::TraceDumpRequest(max_events) => {
            let events = ctx.engine.trace_dump(max_events as usize);
            wire::encode_trace_dump_response(write_buf, &events);
        }
        Frame::SlowlogRequest(max_entries) => {
            let entries = ctx.engine.slowlog(max_entries as usize);
            wire::encode_slowlog_response(write_buf, ctx.engine.slowlog_threshold_ns(), &entries);
        }
        // Durability admin frames: answered inline — a snapshot or restore
        // takes every shard's lock in turn anyway, so there is nothing to
        // overlap.
        Frame::SnapshotRequest => match ctx.engine.trigger_snapshot() {
            Ok(status) => status.encode_into(write_buf),
            Err(err) => queue_error(write_buf, err.code(), &err.to_string()),
        },
        Frame::SnapshotStatusRequest => {
            ctx.engine.snapshot_status().encode_into(write_buf);
        }
        Frame::RestoreRequest => match ctx.engine.restore() {
            Ok(status) => status.encode_into(write_buf),
            Err(err) => queue_error(write_buf, err.code(), &err.to_string()),
        },
        _ => queue_error(
            write_buf,
            ErrorCode::BadRequest,
            "only encode, metrics, telemetry and durability admin requests are accepted",
        ),
    }
}

/// Submits one request — a batch when `count` carries its burst count —
/// through the engine's non-blocking path, recycling a pooled slot and
/// registering the connection's completion token; synchronous failures
/// (validation, backpressure, shutdown) are answered immediately under
/// the request's id.
fn submit_job(
    request: &EncodeRequest<'_>,
    count: Option<u16>,
    kind: PendingKind,
    write_buf: &mut Vec<u8>,
    pending: &mut Vec<Pending>,
    completion_token: u64,
    ctx: &mut IoContext<'_>,
) {
    let shared = ctx.engine.shared();
    let (shard, key) = match shared.prepare(request, count) {
        Ok(route) => route,
        Err(err) => return queue_failure(write_buf, kind.request_id(), &err),
    };
    let slot = ctx.slot_pool.pop().unwrap_or_else(RequestSlot::new);
    let completion = Completion {
        sink: Arc::clone(ctx.sink),
        token: completion_token,
    };
    ctx.budget.make_room(ctx.inbox);
    match shared.submit_slot(shard, key, request, Some(completion), &slot) {
        Ok(()) => {
            ctx.budget.in_flight += 1;
            pending.push(Pending { slot, kind });
        }
        Err(err) => {
            super::recycle_slot(ctx.slot_pool, slot);
            queue_failure(write_buf, kind.request_id(), &err);
        }
    }
}
