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
//! [`TcpClient`] is the request–response convenience over it: each call
//! submits one request and waits for its completion, exposing the same
//! [`EncodeRequest`]/[`EncodeReply`] types as the in-process
//! [`LocalClient`](crate::LocalClient) — code written against one client
//! works against the other. Its admin requests (metrics, telemetry,
//! durability) travel over the same socket and buffers. The frame
//! buffers are owned by the client and reused, so a steady request loop
//! settles into zero buffer reallocation (the socket itself, of course,
//! still costs syscalls).

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
    next_id: u64,
    in_flight: usize,
}

impl PipelinedClient {
    /// Connects to a service and disables Nagle batching (submissions
    /// should hit the wire immediately — pipelining already amortises
    /// the per-frame cost).
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
            next_id: 0,
            in_flight: 0,
        })
    }

    /// Submits one encode request without waiting for its response;
    /// returns the auto-assigned request id its completion will echo.
    ///
    /// The write itself is blocking: if the socket's send buffer is
    /// full (the service applies backpressure by pausing its reads once
    /// this connection has [`ConnConfig::max_in_flight`] requests in
    /// flight), `submit` waits until the frame is fully handed to the
    /// kernel.
    ///
    /// [`ConnConfig::max_in_flight`]: crate::ConnConfig::max_in_flight
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] — the transport failed mid-write.
    pub fn submit(&mut self, request: &EncodeRequest<'_>) -> Result<u64, ClientError> {
        let request_id = self.next_id;
        self.out_buf.clear();
        PipelinedRequestFrame {
            request_id,
            request: *request,
        }
        .encode_into(&mut self.out_buf);
        self.send_request()?;
        Ok(request_id)
    }

    /// Submits one **batched** encode request without waiting; returns
    /// the auto-assigned request id. Same semantics as
    /// [`PipelinedClient::submit`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] — the transport failed mid-write.
    pub fn submit_batch(&mut self, request: &EncodeBatchRequest<'_>) -> Result<u64, ClientError> {
        let request_id = self.next_id;
        self.out_buf.clear();
        PipelinedBatchRequestFrame {
            request_id,
            request: *request,
        }
        .encode_into(&mut self.out_buf);
        self.send_request()?;
        Ok(request_id)
    }

    /// Writes the request staged in `out_buf` and counts it in flight.
    fn send_request(&mut self) -> Result<(), ClientError> {
        self.stream.write_all(&self.out_buf)?;
        self.next_id = self.next_id.wrapping_add(1);
        self.in_flight += 1;
        Ok(())
    }

    /// How many submitted requests have not yet been completed.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Blocks until the next completion arrives (in the service's order,
    /// which across sessions need not be submission order). On success
    /// `reply` holds the response's results; on a per-request failure
    /// the returned completion carries the typed error and `reply` is
    /// untouched.
    ///
    /// # Errors
    ///
    /// * [`ClientError::Io`] — the transport failed, or the service
    ///   closed the connection with requests still in flight (e.g. a
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

    /// [`PipelinedClient::next_completion`] without blocking: drains
    /// whatever the socket has ready and returns `Ok(None)` when no
    /// complete response frame has arrived yet.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PipelinedClient::next_completion`].
    pub fn try_next_completion(
        &mut self,
        reply: &mut EncodeReply,
    ) -> Result<Option<PipelinedCompletion>, ClientError> {
        if self.buffered_frame_len()?.is_none() {
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
        self.out_buf.clear();
        stage(&mut self.out_buf);
        self.stream.write_all(&self.out_buf)?;
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

    /// Reads until a whole frame is buffered; returns its length.
    fn next_frame_len(&mut self) -> Result<usize, ClientError> {
        loop {
            if let Some(total) = self.buffered_frame_len()? {
                return Ok(total);
            }
            self.read_some()?;
        }
    }

    /// Reads until the (nonblocking) socket would block.
    fn drain_ready(&mut self) -> Result<(), ClientError> {
        while self.read_some()? {}
        Ok(())
    }

    /// One read off the socket into the receive buffer; `false` when a
    /// nonblocking socket has nothing ready.
    fn read_some(&mut self) -> Result<bool, ClientError> {
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
