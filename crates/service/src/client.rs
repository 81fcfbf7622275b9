//! The TCP clients.
//!
//! [`PipelinedClient`] speaks the [`wire`] protocol over one
//! [`std::net::TcpStream`]: requests are **submitted** without waiting
//! ([`PipelinedClient::submit`] returns the auto-assigned request id
//! immediately) and completions are **polled**
//! ([`PipelinedClient::next_completion`] /
//! [`PipelinedClient::try_next_completion`]), matched to submissions by
//! the echoed id rather than by arrival order. Many requests ride one
//! connection concurrently, so a single client can keep every engine
//! shard busy without one thread per outstanding request.
//!
//! Submissions are **staged**: each frame is appended to the client's
//! send buffer, and the staged frames reach the socket in one `write`
//! when a poll finds no whole response buffered and must read, when the
//! caller calls [`PipelinedClient::flush`], or when the staged bytes
//! cross a fixed bound (64 KiB). A burst of submissions therefore costs
//! one syscall, not one per frame. An error from a deferred write
//! surfaces at the poll or `flush` that performed it, as
//! [`ClientError::Io`]; frames still staged when the client is dropped
//! are never sent.
//!
//! [`TcpClient`] is the request–response convenience over it: each call
//! submits one request and waits for its completion (one write, one
//! read), exposing the same [`EncodeRequest`]/[`EncodeReply`] types as
//! the in-process [`LocalClient`](crate::LocalClient) — code written
//! against one client works against the other. Its admin requests
//! (metrics, telemetry, durability) travel over the same socket and
//! buffers. The frame buffers are owned by the client and reused, so a
//! steady request loop settles into zero buffer reallocation.

use crate::engine::{EncodeBatchRequest, EncodeReply, EncodeRequest};
use crate::error::ClientError;
use crate::telemetry::TraceEvent;
use crate::wire::{
    self, ErrorCode, Frame, PipelinedBatchRequestFrame, PipelinedRequestFrame, SnapshotStatus,
    HEADER_LEN,
};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking request–response client over TCP: a [`PipelinedClient`]
/// with one request in flight at a time.
#[derive(Debug)]
pub struct TcpClient {
    inner: PipelinedClient,
}

impl TcpClient {
    /// Connects to a service and disables Nagle batching (the exchange is
    /// strict request–response, so delaying small frames only adds
    /// latency).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from establishing the connection.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        Ok(TcpClient {
            inner: PipelinedClient::connect(addr)?,
        })
    }

    /// Executes one encode request over the socket. Results are written
    /// into `reply`, whose buffers are cleared and refilled.
    ///
    /// # Errors
    ///
    /// * [`ClientError::Io`] — the transport failed mid-exchange;
    /// * [`ClientError::Wire`] — the service sent a malformed frame;
    /// * [`ClientError::Remote`] — the service answered with an error
    ///   frame (overload, bad payload, session mismatch, ...);
    /// * [`ClientError::UnexpectedResponse`] — the service answered with
    ///   a frame that is not the completion of this request.
    pub fn encode(
        &mut self,
        request: &EncodeRequest<'_>,
        reply: &mut EncodeReply,
    ) -> Result<(), ClientError> {
        let request_id = self.inner.submit(request)?;
        self.complete(request_id, reply)
    }

    /// Executes one **batched** encode request over the socket: a whole
    /// batch of bursts travels as a single frame (one header + contiguous
    /// payload) where a per-burst loop would have framed and
    /// round-tripped N times. Results land in `reply` exactly as with
    /// [`TcpClient::encode`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::encode`]; a malformed count
    /// field comes back as a remote
    /// [`BadRequest`](crate::wire::ErrorCode::BadRequest).
    pub fn encode_batch(
        &mut self,
        request: &EncodeBatchRequest<'_>,
        reply: &mut EncodeReply,
    ) -> Result<(), ClientError> {
        let request_id = self.inner.submit_batch(request)?;
        self.complete(request_id, reply)
    }

    /// Waits for the completion of the one request in flight.
    fn complete(&mut self, request_id: u64, reply: &mut EncodeReply) -> Result<(), ClientError> {
        let done = self.inner.next_completion(reply)?;
        if done.request_id != request_id {
            return Err(ClientError::UnexpectedResponse);
        }
        match done.error {
            None => Ok(()),
            Some((code, message)) => Err(ClientError::Remote { code, message }),
        }
    }

    /// Fetches the service's metrics snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::encode`].
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        self.inner
            .exchange(wire::encode_metrics_request, |frame| match frame {
                Frame::MetricsResponse(json) => Some(json.to_owned()),
                _ => None,
            })
    }

    /// Drains the service's recent trace events — up to `max_events` per
    /// shard, merged into one timeline ordered by enqueue time.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::metrics_json`].
    pub fn trace_dump(&mut self, max_events: u32) -> Result<Vec<TraceEvent>, ClientError> {
        self.inner.exchange(
            |out| wire::encode_trace_dump_request(out, max_events),
            |frame| match frame {
                Frame::TraceDumpResponse(view) => Some(view.events().collect()),
                _ => None,
            },
        )
    }

    /// Fetches the service's most recent slow requests. Returns the
    /// service's capture threshold in nanoseconds alongside up to
    /// `max_entries` captures, newest last.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::metrics_json`].
    pub fn slowlog(&mut self, max_entries: u32) -> Result<(u64, Vec<TraceEvent>), ClientError> {
        self.inner.exchange(
            |out| wire::encode_slowlog_request(out, max_entries),
            |frame| match frame {
                Frame::SlowlogResponse(view) => Some((view.threshold_ns, view.entries().collect())),
                _ => None,
            },
        )
    }

    /// Asks the service to take a durable snapshot now: every shard
    /// compacts its journal with its live sessions' state, synced.
    /// Returns the durability status after the snapshot.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::metrics_json`]; additionally
    /// the service answers `BadRequest` when it was started without a
    /// persist directory, and `Internal` when a journal could not be
    /// rewritten.
    pub fn trigger_snapshot(&mut self) -> Result<SnapshotStatus, ClientError> {
        self.admin(wire::encode_snapshot_request)
    }

    /// Fetches the service's durability status. Always answered —
    /// `configured` is `false` when the service runs without a persist
    /// directory.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::metrics_json`].
    pub fn snapshot_status(&mut self) -> Result<SnapshotStatus, ClientError> {
        self.admin(wire::encode_snapshot_status_request)
    }

    /// Asks the service to reload session state from its persist
    /// directory, replacing any live session that shares an id with a
    /// restored one. Returns the durability status after the restore.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`TcpClient::trigger_snapshot`].
    pub fn restore(&mut self) -> Result<SnapshotStatus, ClientError> {
        self.admin(wire::encode_restore_request)
    }

    /// Shared exchange of the three durability admin requests: sends the
    /// staged frame, expects a snapshot-status response.
    fn admin(&mut self, stage: fn(&mut Vec<u8>)) -> Result<SnapshotStatus, ClientError> {
        self.inner.exchange(stage, |frame| match frame {
            Frame::SnapshotStatus(status) => Some(status),
            _ => None,
        })
    }
}

/// One finished pipelined exchange, handed out by
/// [`PipelinedClient::next_completion`] /
/// [`PipelinedClient::try_next_completion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedCompletion {
    /// The id [`PipelinedClient::submit`] returned for this request.
    pub request_id: u64,
    /// `None` when the request succeeded (the poll call filled its
    /// reply); the service's typed error otherwise.
    pub error: Option<(ErrorCode, String)>,
}

impl PipelinedCompletion {
    /// Whether the request succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Bytes asked of the socket per read while polling for completions.
/// Reads land in a stack scratch buffer and only the received bytes are
/// appended, so the client's receive buffer stays as small as its actual
/// backlog — a soak harness can hold thousands of these clients.
const RECV_CHUNK: usize = 16 * 1024;

/// Staged submission bytes at which a submit writes them out without
/// waiting for a poll, so a caller that submits without ever polling
/// holds a bounded send buffer.
const SEND_BOUND: usize = 64 * 1024;

/// A pipelined client over TCP: submit many, poll completions by request
/// id.
///
/// Responses to different sessions may complete **out of order** — the
/// engine's shards run independently — while responses within one
/// session stay FIFO (sticky sharding orders same-session work). Code
/// must therefore match completions to submissions by
/// [`PipelinedCompletion::request_id`], never by arrival order.
#[derive(Debug)]
pub struct PipelinedClient {
    stream: TcpStream,
    out_buf: Vec<u8>,
    recv_buf: Vec<u8>,
    parsed: usize,
    /// The longest frame received so far: the receive buffer's room per
    /// in-flight request.
    largest_frame: usize,
    next_id: u64,
    in_flight: usize,
}

impl PipelinedClient {
    /// Connects to a service and disables Nagle batching (the client
    /// batches its own submissions, so a flush should hit the wire
    /// immediately).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from establishing the connection.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(PipelinedClient {
            stream,
            out_buf: Vec::new(),
            recv_buf: Vec::new(),
            parsed: 0,
            largest_frame: 0,
            next_id: 0,
            in_flight: 0,
        })
    }

    /// Submits one encode request without waiting for its response;
    /// returns the auto-assigned request id its completion will echo.
    ///
    /// The frame is staged, not written: it reaches the socket with the
    /// other staged frames at the next poll that must read, at
    /// [`PipelinedClient::flush`], or here once the staged bytes cross
    /// the client's send bound. That write is blocking: if the socket's
    /// send buffer is full (the service applies backpressure by pausing
    /// its reads once this connection has [`ConnConfig::max_in_flight`]
    /// requests in flight), it waits until every staged byte is handed
    /// to the kernel.
    ///
    /// [`ConnConfig::max_in_flight`]: crate::ConnConfig::max_in_flight
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] — the staged bytes crossed the send bound and
    /// the transport failed while writing them.
    pub fn submit(&mut self, request: &EncodeRequest<'_>) -> Result<u64, ClientError> {
        let request_id = self.next_id;
        PipelinedRequestFrame {
            request_id,
            request: *request,
        }
        .encode_into(&mut self.out_buf);
        self.staged()?;
        Ok(request_id)
    }

    /// Submits one **batched** encode request without waiting; returns
    /// the auto-assigned request id. Staged like
    /// [`PipelinedClient::submit`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PipelinedClient::submit`].
    pub fn submit_batch(&mut self, request: &EncodeBatchRequest<'_>) -> Result<u64, ClientError> {
        let request_id = self.next_id;
        PipelinedBatchRequestFrame {
            request_id,
            request: *request,
        }
        .encode_into(&mut self.out_buf);
        self.staged()?;
        Ok(request_id)
    }

    /// Counts the request just staged in `out_buf` in flight, and writes
    /// the staged bytes out once they cross the send bound.
    ///
    /// Every byte the receive buffer holds past its consumed prefix,
    /// which reads drop first, answers an in-flight request. Reserving
    /// room for that many of the largest frame seen here, rather than
    /// growing at a read, keeps a warm poll loop from allocating.
    fn staged(&mut self) -> Result<(), ClientError> {
        self.next_id = self.next_id.wrapping_add(1);
        self.in_flight += 1;
        let room = self.in_flight * self.largest_frame;
        self.recv_buf
            .reserve(room.saturating_sub(self.recv_buf.len()));
        if self.out_buf.len() >= SEND_BOUND {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every staged submission to the socket in one blocking
    /// `write_all`. A no-op when nothing is staged. Polls flush by
    /// themselves before they read, so a caller needs this only to put
    /// requests on the wire without polling — say, to submit on many
    /// clients before draining any of them.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] — the transport failed mid-write. The staged
    /// bytes are dropped either way.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.out_buf.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out_buf);
        self.out_buf.clear();
        Ok(written?)
    }

    /// How many submitted requests have not yet been completed, staged
    /// ones included.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Blocks until the next completion arrives (in the service's order,
    /// which across sessions need not be submission order). On success
    /// `reply` holds the response's results; on a per-request failure
    /// the returned completion carries the typed error and `reply` is
    /// untouched. When no whole response is buffered, the staged
    /// submissions are written out before the socket is read.
    ///
    /// # Errors
    ///
    /// * [`ClientError::Io`] — the transport failed (including the
    ///   deferred write of staged submissions), or the service closed
    ///   the connection with requests still in flight (e.g. a
    ///   slow-consumer drop);
    /// * [`ClientError::Wire`] — the service sent a malformed frame;
    /// * [`ClientError::Remote`] — the service answered with a
    ///   *connection-level* error frame (protocol violation);
    /// * [`ClientError::UnexpectedResponse`] — the service sent a frame
    ///   that is not a completion.
    ///
    /// The offending frame is consumed either way, so the next call
    /// reads the frame behind it.
    pub fn next_completion(
        &mut self,
        reply: &mut EncodeReply,
    ) -> Result<PipelinedCompletion, ClientError> {
        let total = self.next_frame_len()?;
        self.take_completion(total, reply)
    }

    /// [`PipelinedClient::next_completion`] without blocking on the
    /// service: when no whole response is buffered, writes the staged
    /// submissions out (a blocking write, as in
    /// [`PipelinedClient::flush`]), drains whatever the socket has ready
    /// and returns `Ok(None)` when no complete response frame has
    /// arrived yet.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PipelinedClient::next_completion`].
    pub fn try_next_completion(
        &mut self,
        reply: &mut EncodeReply,
    ) -> Result<Option<PipelinedCompletion>, ClientError> {
        if self.buffered_frame_len()?.is_none() {
            self.flush()?;
            self.stream.set_nonblocking(true)?;
            let drained = self.drain_ready();
            self.stream.set_nonblocking(false)?;
            drained?;
        }
        match self.buffered_frame_len()? {
            Some(total) => self.take_completion(total, reply).map(Some),
            None => Ok(None),
        }
    }

    /// Sends the one frame `stage` writes and decodes the frame that
    /// answers it with `answer` (`None` meaning the wrong frame type) —
    /// the in-order exchange behind [`TcpClient`]'s admin requests.
    fn exchange<T>(
        &mut self,
        stage: impl FnOnce(&mut Vec<u8>),
        answer: impl FnOnce(Frame<'_>) -> Option<T>,
    ) -> Result<T, ClientError> {
        stage(&mut self.out_buf);
        self.flush()?;
        let total = self.next_frame_len()?;
        let result = match wire::decode_frame(&self.recv_buf[self.parsed..self.parsed + total]) {
            Ok((Frame::Error(view), _)) => Err(remote_error(&view)),
            Ok((frame, _)) => answer(frame).ok_or(ClientError::UnexpectedResponse),
            Err(err) => Err(err.into()),
        };
        self.consume(total);
        result
    }

    /// The length of the whole frame at the front of the receive buffer,
    /// if all of it has arrived. The header is validated before anything
    /// else, so a corrupt or hostile length field is rejected without
    /// waiting for — let alone buffering — the body it announces.
    fn buffered_frame_len(&self) -> Result<Option<usize>, ClientError> {
        let avail = &self.recv_buf[self.parsed..];
        let header = match wire::parse_header(avail) {
            Ok(header) => header,
            Err(wire::WireError::Truncated { .. }) => return Ok(None),
            Err(err) => return Err(err.into()),
        };
        let total = HEADER_LEN + header.body_len;
        Ok((avail.len() >= total).then_some(total))
    }

    /// Reads until a whole frame is buffered, writing the staged
    /// submissions out before the first read; returns the frame's length.
    fn next_frame_len(&mut self) -> Result<usize, ClientError> {
        loop {
            if let Some(total) = self.buffered_frame_len()? {
                return Ok(total);
            }
            self.flush()?;
            self.read_some()?;
        }
    }

    /// Reads until the (nonblocking) socket would block.
    fn drain_ready(&mut self) -> Result<(), ClientError> {
        while self.read_some()? {}
        Ok(())
    }

    /// One read off the socket into the receive buffer, after dropping
    /// its consumed prefix; `false` when a nonblocking socket has nothing
    /// ready.
    fn read_some(&mut self) -> Result<bool, ClientError> {
        if self.parsed > 0 {
            self.recv_buf.drain(..self.parsed);
            self.parsed = 0;
        }
        let mut chunk = [0u8; RECV_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(closed_early().into()),
                Ok(n) => {
                    self.recv_buf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err.into()),
            }
        }
    }

    /// Decodes the `total`-byte frame at the front of the receive buffer
    /// as a completion, then consumes it whatever it held.
    fn take_completion(
        &mut self,
        total: usize,
        reply: &mut EncodeReply,
    ) -> Result<PipelinedCompletion, ClientError> {
        let completion = match wire::decode_frame(&self.recv_buf[self.parsed..self.parsed + total])
        {
            Ok((
                Frame::PipelinedResponse {
                    request_id,
                    response,
                },
                _,
            )) => {
                fill_reply(
                    reply,
                    response.bursts,
                    response.per_group(),
                    response.masks(),
                );
                Ok(PipelinedCompletion {
                    request_id,
                    error: None,
                })
            }
            Ok((
                Frame::PipelinedBatchResponse {
                    request_id,
                    response,
                },
                _,
            )) => {
                fill_reply(
                    reply,
                    response.bursts,
                    response.per_group(),
                    response.masks(),
                );
                Ok(PipelinedCompletion {
                    request_id,
                    error: None,
                })
            }
            Ok((Frame::PipelinedError { request_id, error }, _)) => Ok(PipelinedCompletion {
                request_id,
                error: Some((error.code, error.message.to_owned())),
            }),
            Ok((Frame::Error(view), _)) => Err(remote_error(&view)),
            Ok(_) => Err(ClientError::UnexpectedResponse),
            Err(err) => Err(err.into()),
        };
        self.consume(total);
        if completion.is_ok() {
            self.in_flight = self.in_flight.saturating_sub(1);
        }
        completion
    }

    /// Drops the `total`-byte frame at the front of the receive buffer.
    fn consume(&mut self, total: usize) {
        self.largest_frame = self.largest_frame.max(total);
        self.parsed += total;
        if self.parsed == self.recv_buf.len() {
            self.recv_buf.clear();
            self.parsed = 0;
        }
    }
}

/// Refills a caller-owned reply from a decoded response's record streams,
/// reusing its capacity.
fn fill_reply(
    reply: &mut EncodeReply,
    bursts: u64,
    per_group: impl Iterator<Item = dbi_core::CostBreakdown>,
    masks: impl Iterator<Item = dbi_core::InversionMask>,
) {
    reply.bursts = bursts;
    reply.per_group.clear();
    reply.per_group.extend(per_group);
    reply.masks.clear();
    reply.masks.extend(masks);
}

/// Lifts a decoded error frame into the owned client error.
fn remote_error(view: &wire::ErrorView<'_>) -> ClientError {
    ClientError::Remote {
        code: view.code,
        message: view.message.to_owned(),
    }
}

fn closed_early() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "the service closed the connection before answering",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireError;
    use std::net::TcpListener;

    /// A client connected to a loopback peer that writes `bytes` and
    /// hangs up.
    fn client_fed(bytes: Vec<u8>) -> PipelinedClient {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = PipelinedClient::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(&bytes).unwrap();
        client
    }

    #[test]
    fn closing_before_a_whole_frame_is_a_transport_error() {
        let mut whole = Vec::new();
        wire::encode_metrics_response(&mut whole, "{\"x\":1}");
        let mut reply = EncodeReply::new();
        // Silence, a stream that dies inside the header, and one that
        // dies inside the body all end the same way.
        for cut in [0, 3, whole.len() - 2] {
            let mut client = client_fed(whole[..cut].to_vec());
            match client.next_completion(&mut reply) {
                Err(ClientError::Io(err)) => {
                    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
                }
                other => panic!("cut {cut}: expected a transport error, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_plain_error_frame_is_consumed_before_it_is_returned() {
        let mut bytes = Vec::new();
        let error = wire::ErrorFrame {
            code: ErrorCode::BadRequest,
            message: "bad frame",
        };
        error.encode_into(&mut bytes);
        wire::PipelinedErrorFrame {
            request_id: 0,
            error,
        }
        .encode_into(&mut bytes);
        let mut client = client_fed(bytes);
        client.in_flight = 1;
        let mut reply = EncodeReply::new();
        assert!(matches!(
            client.next_completion(&mut reply),
            Err(ClientError::Remote {
                code: ErrorCode::BadRequest,
                ..
            })
        ));
        // The frame behind it is reachable: the client did not wedge.
        let done = client.next_completion(&mut reply).unwrap();
        assert_eq!(done.request_id, 0);
        assert_eq!(client.in_flight(), 0);
    }

    /// A client and the accepted loopback peer it talks to.
    fn client_and_peer() -> (PipelinedClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = PipelinedClient::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        (client, peer)
    }

    fn request(payload: &[u8]) -> EncodeRequest<'_> {
        EncodeRequest {
            session_id: 7,
            scheme: dbi_core::Scheme::OptFixed,
            cost_model: crate::CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: false,
            verify: crate::VerifyMode::Off,
            payload,
        }
    }

    /// The wire image of `count` submissions of `request`, ids from 0.
    fn frames(request: &EncodeRequest<'_>, count: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        for request_id in 0..count {
            PipelinedRequestFrame {
                request_id,
                request: *request,
            }
            .encode_into(&mut bytes);
        }
        bytes
    }

    /// Whether a nonblocking read of `peer` finds nothing to read.
    fn peer_has_nothing(peer: &mut TcpStream) -> bool {
        peer.set_nonblocking(true).unwrap();
        let found = peer.read(&mut [0u8; 64]);
        peer.set_nonblocking(false).unwrap();
        matches!(found, Err(err) if err.kind() == io::ErrorKind::WouldBlock)
    }

    /// Reads exactly `len` bytes off `peer`.
    fn peer_reads(peer: &mut TcpStream, len: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; len];
        peer.read_exact(&mut bytes).unwrap();
        bytes
    }

    /// One completion frame for request `request_id`.
    fn completion_frame(request_id: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        wire::PipelinedErrorFrame {
            request_id,
            error: wire::ErrorFrame {
                code: ErrorCode::Overloaded,
                message: "busy",
            },
        }
        .encode_into(&mut bytes);
        bytes
    }

    #[test]
    fn submissions_stay_staged_until_flush() {
        let (mut client, mut peer) = client_and_peer();
        let payload = [0x5Au8; 32];
        for _ in 0..3 {
            client.submit(&request(&payload)).unwrap();
        }
        assert_eq!(client.in_flight(), 3, "staged requests count in flight");
        assert!(peer_has_nothing(&mut peer));
        client.flush().unwrap();
        let expected = frames(&request(&payload), 3);
        assert_eq!(peer_reads(&mut peer, expected.len()), expected);
        // A second flush has nothing left to send.
        client.flush().unwrap();
        assert!(peer_has_nothing(&mut peer));
    }

    #[test]
    fn a_poll_that_must_read_flushes_the_staged_frames_first() {
        let payload = [0xA5u8; 32];
        let expected = frames(&request(&payload), 2);
        let mut reply = EncodeReply::new();

        // Blocking poll: the peer's answer is already waiting, but no
        // whole frame is buffered in the client, so it must read.
        let (mut client, mut peer) = client_and_peer();
        peer.write_all(&completion_frame(0)).unwrap();
        client.submit(&request(&payload)).unwrap();
        client.submit(&request(&payload)).unwrap();
        let done = client.next_completion(&mut reply).unwrap();
        assert_eq!(done.request_id, 0);
        assert_eq!(peer_reads(&mut peer, expected.len()), expected);

        // Nonblocking poll: nothing has arrived, yet it flushed.
        let (mut client, mut peer) = client_and_peer();
        client.submit(&request(&payload)).unwrap();
        client.submit(&request(&payload)).unwrap();
        assert!(client.try_next_completion(&mut reply).unwrap().is_none());
        assert_eq!(peer_reads(&mut peer, expected.len()), expected);
    }

    #[test]
    fn a_poll_served_from_the_buffer_does_not_flush() {
        let (mut client, mut peer) = client_and_peer();
        let mut answers = completion_frame(0);
        answers.extend_from_slice(&completion_frame(1));
        peer.write_all(&answers).unwrap();
        let payload = [0x3Cu8; 32];
        client.submit(&request(&payload)).unwrap();
        client.submit(&request(&payload)).unwrap();
        let mut reply = EncodeReply::new();
        // The first poll reads, flushing both submissions; the second is
        // served from the bytes that read brought in.
        assert_eq!(client.next_completion(&mut reply).unwrap().request_id, 0);
        let flushed = frames(&request(&payload), 2);
        assert_eq!(peer_reads(&mut peer, flushed.len()), flushed);
        client.submit(&request(&payload)).unwrap();
        assert!(client.buffered_frame_len().unwrap().is_some());
        assert_eq!(client.next_completion(&mut reply).unwrap().request_id, 1);
        assert!(peer_has_nothing(&mut peer));
        assert_eq!(client.out_buf.len(), flushed.len() / 2);
    }

    #[test]
    fn staging_past_the_bound_writes_without_a_poll() {
        let (mut client, mut peer) = client_and_peer();
        let payload = vec![0x11u8; 1024];
        let frame_len = frames(&request(&payload), 1).len();
        let bound_frames = SEND_BOUND.div_ceil(frame_len) as u64;
        let sink = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            peer.read_to_end(&mut bytes).unwrap();
            bytes
        });
        for _ in 0..bound_frames {
            client.submit(&request(&payload)).unwrap();
        }
        assert!(client.out_buf.is_empty(), "crossing the bound writes");
        // One more stays staged and dies with the client.
        client.submit(&request(&payload)).unwrap();
        assert_eq!(client.in_flight(), bound_frames as usize + 1);
        drop(client);
        let received = sink.join().unwrap();
        assert_eq!(received, frames(&request(&payload), bound_frames));
    }

    #[test]
    fn a_peer_that_hung_up_fails_the_next_poll() {
        let payload = [0x77u8; 32];
        let mut reply = EncodeReply::new();
        for nonblocking in [false, true] {
            let (mut client, peer) = client_and_peer();
            drop(peer);
            client.submit(&request(&payload)).unwrap();
            let polled = if nonblocking {
                client.try_next_completion(&mut reply).map(|_| ())
            } else {
                client.next_completion(&mut reply).map(|_| ())
            };
            assert!(
                matches!(polled, Err(ClientError::Io(_))),
                "nonblocking {nonblocking}: {polled:?}"
            );
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_the_body_is_read() {
        let mut frame = Vec::new();
        wire::encode_metrics_request(&mut frame);
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut client = client_fed(frame);
        assert!(matches!(
            client.next_completion(&mut EncodeReply::new()),
            Err(ClientError::Wire(WireError::Oversized { .. }))
        ));
        // Only the header was ever buffered.
        assert!(client.recv_buf.capacity() < 1024);
    }
}
