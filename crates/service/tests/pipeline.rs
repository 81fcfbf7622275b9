//! End-to-end tests of pipelining over the event-driven connection
//! plane: many requests in flight on one connection, matched to
//! responses by request id — plus the plane's framing contract, driven
//! over a raw socket.
//!
//! The ordering contract under test:
//!
//! * **across sessions** completions may arrive out of submission order
//!   (shard workers run independently);
//! * **within one session** completions stay FIFO (sticky sharding
//!   orders same-session work);
//! * and the interleaved pipelined results are **bit-identical** to a
//!   serial [`BusSession`] run, because each session's carried bus state
//!   evolves exactly as in a single-threaded encode.

use dbi_core::{InversionMask, Scheme};
use dbi_mem::BusSession;
use dbi_service::wire::{self, ErrorCode, Frame, PipelinedRequestFrame, WireError};
use dbi_service::{
    CostModel, EncodeBatchRequest, EncodeReply, EncodeRequest, Engine, PipelinedClient,
    ServiceConfig, TcpServer, VerifyMode,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const GROUPS: u16 = 4;
const BURST_LEN: u8 = 8;
const ACCESS_BYTES: usize = GROUPS as usize * BURST_LEN as usize;

fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

fn request(session_id: u64, payload: &[u8]) -> EncodeRequest<'_> {
    EncodeRequest {
        session_id,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: GROUPS,
        burst_len: BURST_LEN,
        want_masks: true,
        verify: VerifyMode::Off,
        payload,
    }
}

/// Serial reference: the same stream through one `BusSession`.
fn reference_masks(data: &[u8]) -> Vec<InversionMask> {
    let mut session = BusSession::with_plan_geometry(
        usize::from(GROUPS),
        usize::from(BURST_LEN),
        Scheme::OptFixed.plan(),
    );
    let mut per_group = Vec::new();
    let mut masks = Vec::new();
    session
        .encode_stream_into(data, &mut per_group, Some(&mut masks))
        .unwrap();
    masks
}

/// A deterministically slowed session's completion must arrive *after*
/// faster sessions submitted behind it — responses are matched by id,
/// not by ordering.
#[test]
fn completions_cross_sessions_out_of_order() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    const SLOW_SESSION: u64 = 1_000;
    engine.inject_slowdown_for_tests(SLOW_SESSION, Duration::from_millis(50));

    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let payload = pseudo_random(ACCESS_BYTES, 0x51);

    // The slow session goes first; eight fast sessions pile in behind it.
    // Sticky sharding is deterministic, so some of them always land on
    // the other shard and finish while the slow worker sleeps.
    let slow_id = client.submit(&request(SLOW_SESSION, &payload)).unwrap();
    let mut fast_ids = Vec::new();
    for session in 1..=8u64 {
        fast_ids.push(client.submit(&request(session, &payload)).unwrap());
    }

    let mut reply = EncodeReply::new();
    let mut arrival = Vec::new();
    for _ in 0..=fast_ids.len() {
        let done = client.next_completion(&mut reply).unwrap();
        assert!(done.is_ok(), "{:?}", done.error);
        arrival.push(done.request_id);
    }
    assert_eq!(client.in_flight(), 0);
    assert_ne!(
        arrival[0], slow_id,
        "a fast session must complete before the slowed one: {arrival:?}"
    );
    assert!(arrival.contains(&slow_id), "{arrival:?}");

    server.shutdown();
    engine.shutdown();
}

/// Within one session, completions arrive in submission order even with
/// the whole window in flight — sticky sharding serialises them.
#[test]
fn completions_within_a_session_stay_fifo() {
    let engine = Engine::start(ServiceConfig {
        shards: 4,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();

    const REQUESTS: usize = 32;
    let data = pseudo_random(ACCESS_BYTES * REQUESTS, 0xF1F0);
    let mut submitted = Vec::new();
    for chunk in data.chunks(ACCESS_BYTES) {
        submitted.push(client.submit(&request(7, chunk)).unwrap());
    }

    let mut reply = EncodeReply::new();
    let mut arrival = Vec::new();
    for _ in 0..REQUESTS {
        let done = client.next_completion(&mut reply).unwrap();
        assert!(done.is_ok(), "{:?}", done.error);
        arrival.push(done.request_id);
    }
    assert_eq!(
        arrival, submitted,
        "one session's completions must keep submission order"
    );

    server.shutdown();
    engine.shutdown();
}

/// Four sessions interleaved through one pipelined connection produce
/// masks bit-identical to four serial `BusSession` runs — carried state
/// never leaks across sessions, whatever the completion interleaving.
#[test]
fn interleaved_pipelined_load_is_bit_identical_to_serial() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();

    const SESSIONS: u64 = 4;
    const REQUESTS_PER_SESSION: usize = 6;
    let streams: Vec<Vec<u8>> = (0..SESSIONS)
        .map(|s| pseudo_random(ACCESS_BYTES * REQUESTS_PER_SESSION, 0xBEEF ^ (s as u32)))
        .collect();

    // Round-robin submission: session 0's chunk 0, session 1's chunk 0,
    // ..., session 0's chunk 1, ... — maximum interleaving on the wire.
    let mut id_to_session = HashMap::new();
    for chunk in 0..REQUESTS_PER_SESSION {
        for (session, stream) in streams.iter().enumerate() {
            let payload = &stream[chunk * ACCESS_BYTES..(chunk + 1) * ACCESS_BYTES];
            let id = client
                .submit(&request(session as u64 + 1, payload))
                .unwrap();
            id_to_session.insert(id, session);
        }
    }

    // Collect every completion, appending masks per session in arrival
    // order (FIFO within a session makes that the stream order).
    let mut reply = EncodeReply::new();
    let mut masks: Vec<Vec<InversionMask>> = vec![Vec::new(); SESSIONS as usize];
    for _ in 0..SESSIONS as usize * REQUESTS_PER_SESSION {
        let done = client.next_completion(&mut reply).unwrap();
        assert!(done.is_ok(), "{:?}", done.error);
        let session = id_to_session[&done.request_id];
        masks[session].extend_from_slice(&reply.masks);
    }

    for (session, stream) in streams.iter().enumerate() {
        assert_eq!(
            masks[session],
            reference_masks(stream),
            "session {session} diverged from the serial reference"
        );
    }

    server.shutdown();
    engine.shutdown();
}

/// A per-request failure comes back as a `PipelinedError` echoing the
/// failed request's id — and the connection stays usable for the
/// requests around it.
#[test]
fn per_request_failures_echo_their_id_and_keep_the_connection() {
    let engine = Engine::start(ServiceConfig::default());
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let good = pseudo_random(ACCESS_BYTES, 0x60);
    let bad = pseudo_random(ACCESS_BYTES - 1, 0xBAD); // not a whole access

    let ok_before = client.submit(&request(1, &good)).unwrap();
    let failing = client.submit(&request(2, &bad)).unwrap();
    let ok_after = client.submit(&request(1, &good)).unwrap();

    let mut reply = EncodeReply::new();
    let mut outcomes = HashMap::new();
    for _ in 0..3 {
        let done = client.next_completion(&mut reply).unwrap();
        outcomes.insert(done.request_id, done.error);
    }
    assert_eq!(outcomes[&ok_before], None);
    assert_eq!(outcomes[&ok_after], None);
    let (code, message) = outcomes[&failing].clone().expect("bad payload must fail");
    assert_eq!(code, ErrorCode::BadPayload);
    assert!(message.contains("31"), "{message}");

    server.shutdown();
    engine.shutdown();
}

/// A batch whose count disagrees with its payload is well framed but
/// undecodable: it completes with `BadRequest` under its own id, and the
/// request behind it is served normally.
#[test]
fn a_malformed_batch_completes_under_its_own_id() {
    let engine = Engine::start(ServiceConfig::default());
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let payload = pseudo_random(ACCESS_BYTES, 0x3B); // four bursts

    let bad = client
        .submit_batch(&EncodeBatchRequest {
            session_id: 1,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Inline,
            groups: GROUPS,
            burst_len: BURST_LEN,
            want_masks: true,
            verify: VerifyMode::Off,
            count: 3,
            payload: &payload,
        })
        .unwrap();
    let good = client.submit(&request(1, &payload)).unwrap();

    let mut reply = EncodeReply::new();
    let done = client.next_completion(&mut reply).unwrap();
    assert_eq!(done.request_id, bad);
    let (code, message) = done.error.expect("a miscounted batch must fail");
    assert_eq!(code, ErrorCode::BadRequest);
    assert!(message.contains("count"), "{message}");
    let done = client.next_completion(&mut reply).unwrap();
    assert_eq!(done.request_id, good);
    assert!(done.is_ok(), "{:?}", done.error);
    assert_eq!(reply.masks, reference_masks(&payload));
    assert_eq!(client.in_flight(), 0);

    server.shutdown();
    engine.shutdown();
}

/// A raw connection to a fresh server, with a read timeout so a missing
/// answer fails the test instead of hanging it.
fn raw_connection(server: &TcpServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads one whole frame off `stream` (buffering through `buf`) and
/// returns its bytes.
fn next_raw_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Vec<u8> {
    loop {
        match wire::decode_frame(buf) {
            Ok((_, len)) => return buf.drain(..len).collect(),
            Err(WireError::Truncated { .. }) => {}
            Err(err) => panic!("the service sent a malformed frame: {err}"),
        }
        let mut chunk = [0u8; 4096];
        let n = stream
            .read(&mut chunk)
            .expect("an answer before the timeout");
        assert!(n > 0, "the service closed before a whole frame arrived");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Asserts `frame` is a plain `BadRequest` error frame.
fn assert_bad_request(frame: &[u8]) {
    match wire::decode_frame(frame) {
        Ok((Frame::Error(error), _)) => assert_eq!(error.code, ErrorCode::BadRequest),
        other => panic!("expected a plain BadRequest error, got {other:?}"),
    }
}

/// A header the plane cannot frame — bad magic, or any version but the
/// current one — is answered with exactly one `BadRequest` error frame,
/// then the connection closes.
#[test]
fn unframeable_headers_get_one_bad_request_then_eof() {
    let engine = Engine::start(ServiceConfig::default());
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut metrics = Vec::new();
    wire::encode_metrics_request(&mut metrics);
    let mut bad_magic = metrics.clone();
    bad_magic[..2].copy_from_slice(b"XB");
    let mut old_version = metrics;
    old_version[2] = 6;

    for header in [bad_magic, old_version] {
        let mut stream = raw_connection(&server);
        stream.write_all(&header).unwrap();
        let mut buf = Vec::new();
        assert_bad_request(&next_raw_frame(&mut stream, &mut buf));
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        buf.extend_from_slice(&rest);
        assert!(buf.is_empty(), "more than one answer: {buf:?}");
    }

    server.shutdown();
    engine.shutdown();
}

/// A well-framed frame under a retired tag (the plain encode request,
/// response, batch request and batch response) gets `BadRequest`, and the
/// connection keeps serving id-tagged requests behind it.
#[test]
fn retired_tags_get_bad_request_and_keep_the_connection() {
    let engine = Engine::start(ServiceConfig::default());
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut stream = raw_connection(&server);
    let payload = pseudo_random(ACCESS_BYTES, 0x7A);
    let mut buf = Vec::new();

    for (request_id, retired) in [1u8, 2, 6, 7].into_iter().enumerate() {
        let mut frame = Vec::new();
        PipelinedRequestFrame {
            request_id: request_id as u64,
            request: request(1, &payload),
        }
        .encode_into(&mut frame);
        let mut stale = frame.clone();
        stale[3] = retired;
        stream.write_all(&stale).unwrap();
        assert_bad_request(&next_raw_frame(&mut stream, &mut buf));

        stream.write_all(&frame).unwrap();
        let answer = next_raw_frame(&mut stream, &mut buf);
        match wire::decode_frame(&answer) {
            Ok((
                Frame::PipelinedResponse {
                    request_id: echoed,
                    response,
                },
                _,
            )) => {
                assert_eq!(echoed, request_id as u64);
                assert_eq!(response.session_id, 1);
            }
            other => panic!("tag {retired}: expected a served request, got {other:?}"),
        }
    }

    server.shutdown();
    engine.shutdown();
}
