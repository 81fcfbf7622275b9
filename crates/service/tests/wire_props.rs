//! Property tests of the wire codec.
//!
//! Seeded, deterministic (the vendored `rand` is a fixed xoshiro256**
//! stream): arbitrary frames must round-trip bit-exactly through
//! encode → decode, and mangled input — truncated at *every* possible
//! boundary, oversized, wrong version, retired tag, random corruption —
//! must come back as a typed [`WireError`], never a panic.

use dbi_core::{CostBreakdown, CostWeights, InversionMask, Scheme};
use dbi_phy::{NamedInterface, OperatingPoint};
use dbi_service::wire::{
    decode_frame, encode_metrics_request, encode_metrics_response, CostModel,
    EncodeBatchRequestFrame, EncodeBatchResponseFrame, EncodeRequestFrame, EncodeResponseFrame,
    ErrorCode, ErrorFrame, Frame, PipelinedBatchRequestFrame, PipelinedBatchResponseFrame,
    PipelinedErrorFrame, PipelinedRequestFrame, PipelinedResponseFrame, VerifyMode, WireError,
    BATCH_REQUEST_HEAD_LEN, HEADER_LEN, REQUEST_HEAD_LEN, REQUEST_ID_WIRE_BYTES, VERSION,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 200;

/// Offset of an encode body inside its frame: header plus request id.
const BODY_AT: usize = HEADER_LEN + REQUEST_ID_WIRE_BYTES;

fn arbitrary_scheme(rng: &mut StdRng) -> Scheme {
    let alpha = rng.gen_range(1u32..6);
    let beta = rng.gen_range(1u32..6);
    let parametric = CostWeights::new(alpha, beta).expect("nonzero weights");
    match rng.gen_range(0u8..7) {
        0 => Scheme::Raw,
        1 => Scheme::Dc,
        2 => Scheme::Ac,
        3 => Scheme::AcDc,
        4 => Scheme::Greedy(parametric),
        5 => Scheme::Opt(parametric),
        _ => Scheme::OptFixed,
    }
}

fn arbitrary_cost_model(rng: &mut StdRng) -> CostModel {
    match rng.gen_range(0u8..3) {
        0 => CostModel::Inline,
        1 => CostModel::Weights(
            CostWeights::new(rng.gen_range(0u32..9), rng.gen_range(1u32..9))
                .expect("beta is nonzero"),
        ),
        _ => {
            let interface = NamedInterface::ALL[rng.gen_range(0usize..NamedInterface::ALL.len())];
            let rate_mbps = rng.gen_range(1u32..64_000);
            CostModel::Named(OperatingPoint::new(interface, rate_mbps).expect("nonzero rate"))
        }
    }
}

fn arbitrary_verify(rng: &mut StdRng) -> VerifyMode {
    if rng.gen::<bool>() {
        VerifyMode::RoundTrip
    } else {
        VerifyMode::Off
    }
}

/// An arbitrary encode request body over a fresh random payload.
fn arbitrary_request<'a>(rng: &mut StdRng, payload: &'a mut Vec<u8>) -> EncodeRequestFrame<'a> {
    payload.clear();
    let len = rng.gen_range(0usize..256);
    payload.extend((0..len).map(|_| rng.gen::<u8>()));
    EncodeRequestFrame {
        session_id: rng.gen::<u64>(),
        scheme: arbitrary_scheme(rng),
        cost_model: arbitrary_cost_model(rng),
        groups: rng.gen::<u16>(),
        burst_len: rng.gen::<u8>(),
        want_masks: rng.gen::<bool>(),
        verify: arbitrary_verify(rng),
        payload: &payload[..],
    }
}

/// Appends the id-tagged frame carrying `request`.
fn push_request(buf: &mut Vec<u8>, request_id: u64, request: EncodeRequestFrame<'_>) {
    PipelinedRequestFrame {
        request_id,
        request,
    }
    .encode_into(buf);
}

/// Arbitrary per-group records and masks for a response.
fn arbitrary_records(rng: &mut StdRng) -> (Vec<CostBreakdown>, Vec<InversionMask>) {
    let per_group = (0..rng.gen_range(0usize..16))
        .map(|_| CostBreakdown::new(rng.gen::<u64>(), rng.gen::<u64>()))
        .collect();
    let masks = (0..rng.gen_range(0usize..64))
        .map(|_| InversionMask::from_bits(rng.gen::<u32>()))
        .collect();
    (per_group, masks)
}

fn arbitrary_message(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0usize..64))
        .map(|_| char::from(rng.gen_range(b' '..b'~')))
        .collect()
}

#[test]
fn arbitrary_requests_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..ROUNDS {
        let frame = arbitrary_request(&mut rng, &mut payload);
        let request_id = rng.gen::<u64>();
        buf.clear();
        push_request(&mut buf, request_id, frame);
        let (decoded, consumed) = decode_frame(&buf).expect("a well-formed frame must decode");
        assert_eq!(consumed, buf.len());
        let Frame::PipelinedRequest {
            request_id: echoed,
            request: view,
        } = decoded
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, frame.session_id);
        assert_eq!(view.scheme, frame.scheme);
        assert_eq!(view.cost_model, frame.cost_model);
        assert_eq!(view.groups, frame.groups);
        assert_eq!(view.burst_len, frame.burst_len);
        assert_eq!(view.want_masks, frame.want_masks);
        assert_eq!(view.verify, frame.verify);
        assert_eq!(view.payload, frame.payload);
        // Zero-copy: the payload view points into the frame buffer.
        assert!(core::ptr::eq(
            view.payload.as_ptr(),
            buf[BODY_AT + REQUEST_HEAD_LEN..].as_ptr()
        ));
    }
}

#[test]
fn arbitrary_responses_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut buf = Vec::new();
    for _ in 0..ROUNDS {
        let (per_group, masks) = arbitrary_records(&mut rng);
        let request_id = rng.gen::<u64>();
        let frame = EncodeResponseFrame {
            session_id: rng.gen::<u64>(),
            bursts: rng.gen::<u64>(),
            per_group: &per_group,
            masks: &masks,
        };
        buf.clear();
        PipelinedResponseFrame {
            request_id,
            response: frame,
        }
        .encode_into(&mut buf);
        let (
            Frame::PipelinedResponse {
                request_id: echoed,
                response: view,
            },
            consumed,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(consumed, buf.len());
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, frame.session_id);
        assert_eq!(view.bursts, frame.bursts);
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);
    }
}

#[test]
fn arbitrary_error_and_metrics_frames_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let codes = [
        ErrorCode::Overloaded,
        ErrorCode::ShuttingDown,
        ErrorCode::BadGeometry,
        ErrorCode::BadPayload,
        ErrorCode::SessionMismatch,
        ErrorCode::BadRequest,
        ErrorCode::Internal,
        ErrorCode::BadCostModel,
        ErrorCode::VerifyMismatch,
        ErrorCode::SlowConsumer,
        ErrorCode::SessionLimit,
    ];
    let mut buf = Vec::new();
    for _ in 0..ROUNDS {
        let code = codes[rng.gen_range(0usize..codes.len())];
        let message = arbitrary_message(&mut rng);
        let error = ErrorFrame {
            code,
            message: &message,
        };
        buf.clear();
        error.encode_into(&mut buf);
        let (Frame::Error(view), _) = decode_frame(&buf).unwrap() else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(view.code, code);
        assert_eq!(view.message, message);

        // The same error behind a request id.
        let request_id = rng.gen::<u64>();
        buf.clear();
        PipelinedErrorFrame { request_id, error }.encode_into(&mut buf);
        let (
            Frame::PipelinedError {
                request_id: echoed,
                error: view,
            },
            consumed,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(consumed, buf.len());
        assert_eq!(echoed, request_id);
        assert_eq!(view.code, code);
        assert_eq!(view.message, message);

        buf.clear();
        encode_metrics_response(&mut buf, &message);
        let (Frame::MetricsResponse(json), _) = decode_frame(&buf).unwrap() else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(json, message);
    }
}

/// Asserts every strict prefix of `frame` decodes to `Truncated`, with
/// the reported `needed` pointing beyond the cut.
fn assert_every_prefix_is_truncated(frame: &[u8]) {
    for cut in 0..frame.len() {
        match decode_frame(&frame[..cut]) {
            Err(WireError::Truncated { needed, got }) => {
                assert_eq!(got, cut);
                assert!(
                    needed > cut,
                    "cut at {cut}: needed {needed} must exceed the cut"
                );
            }
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

/// Every strict prefix of a valid request frame — the header, the
/// request-id field, and everywhere inside the body — must decode to
/// `Truncated`, never a panic or a wrong type.
#[test]
fn every_truncation_is_rejected_without_panicking() {
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let mut payload = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    for _ in 0..16 {
        let frame = arbitrary_request(&mut rng, &mut payload);
        buf.clear();
        push_request(&mut buf, rng.gen::<u64>(), frame);
        assert_every_prefix_is_truncated(&buf);
    }
}

#[test]
fn corrupt_headers_are_typed_errors_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut buf = Vec::new();
    encode_metrics_request(&mut buf);
    let reference = buf.clone();

    // Wrong version.
    buf[2] = VERSION.wrapping_add(1);
    assert_eq!(
        decode_frame(&buf),
        Err(WireError::UnsupportedVersion(VERSION.wrapping_add(1)))
    );
    buf.copy_from_slice(&reference);

    // Oversized body announcement.
    buf[4..8].copy_from_slice(&(u32::MAX / 2).to_le_bytes());
    assert!(matches!(
        decode_frame(&buf),
        Err(WireError::Oversized { .. })
    ));
    buf.copy_from_slice(&reference);

    // Random single-byte corruption of a real request frame: decoding may
    // succeed (payload bytes are arbitrary) but must never panic.
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    for _ in 0..64 {
        let request = arbitrary_request(&mut rng, &mut payload);
        frame.clear();
        push_request(&mut frame, rng.gen::<u64>(), request);
        let index = rng.gen_range(0usize..frame.len());
        frame[index] ^= 1 << rng.gen_range(0u8..8);
        let _ = decode_frame(&frame); // must not panic
    }

    // Random garbage buffers of every small length: same bar.
    for len in 0..64usize {
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let _ = decode_frame(&garbage);
    }
}

/// One well-formed frame of every tag the protocol defines.
fn one_frame_of_every_tag(rng: &mut StdRng) -> Vec<Vec<u8>> {
    use dbi_service::wire::{
        encode_restore_request, encode_slowlog_request, encode_slowlog_response,
        encode_snapshot_request, encode_snapshot_status_request, encode_trace_dump_request,
        encode_trace_dump_response, SnapshotStatus,
    };
    let mut payload = Vec::new();
    let request = arbitrary_request(rng, &mut payload);
    let mut batch_payload = Vec::new();
    let batch = arbitrary_batch(rng, &mut batch_payload);
    let (per_group, masks) = arbitrary_records(rng);
    let error = ErrorFrame {
        code: ErrorCode::Overloaded,
        message: "busy",
    };
    let mut frames = Vec::new();
    let mut push = |encode: &dyn Fn(&mut Vec<u8>)| {
        let mut buf = Vec::new();
        encode(&mut buf);
        frames.push(buf);
    };
    push(&|buf| error.encode_into(buf));
    push(&|buf| encode_metrics_request(buf));
    push(&|buf| encode_metrics_response(buf, "{}"));
    push(&|buf| encode_trace_dump_request(buf, 8));
    push(&|buf| encode_trace_dump_response(buf, &[]));
    push(&|buf| encode_slowlog_request(buf, 8));
    push(&|buf| encode_slowlog_response(buf, 1, &[]));
    push(&|buf| push_request(buf, 1, request));
    push(&|buf| {
        PipelinedResponseFrame {
            request_id: 1,
            response: EncodeResponseFrame {
                session_id: request.session_id,
                bursts: 1,
                per_group: &per_group,
                masks: &masks,
            },
        }
        .encode_into(buf)
    });
    push(&|buf| push_batch(buf, 1, batch));
    push(&|buf| {
        PipelinedBatchResponseFrame {
            request_id: 1,
            response: EncodeBatchResponseFrame {
                session_id: batch.session_id,
                bursts: 1,
                count: batch.count,
                per_group: &per_group,
                masks: &masks,
            },
        }
        .encode_into(buf)
    });
    push(&|buf| {
        PipelinedErrorFrame {
            request_id: 1,
            error,
        }
        .encode_into(buf)
    });
    push(&|buf| encode_snapshot_request(buf));
    push(&|buf| encode_snapshot_status_request(buf));
    push(&|buf| encode_restore_request(buf));
    push(&|buf| SnapshotStatus::default().encode_into(buf));
    frames
}

/// The protocol speaks exactly one version and has one encode framing:
/// every frame restamped with any other version is `UnsupportedVersion`,
/// and any body under a retired tag (1, 2, 6 or 7, the plain encode
/// request/response and batch request/response) is `UnknownFrameType`.
#[test]
fn only_the_current_version_and_the_id_tagged_encode_frames_decode() {
    let mut rng = StdRng::seed_from_u64(0x0007_0007);
    for _ in 0..8 {
        let frames = one_frame_of_every_tag(&mut rng);
        let mut tags: Vec<u8> = frames.iter().map(|frame| frame[3]).collect();
        tags.sort_unstable();
        assert_eq!(
            tags,
            [3, 4, 5, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]
        );
        for frame in &frames {
            assert!(decode_frame(frame).is_ok(), "tag {}", frame[3]);
            for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
                let mut stamped = frame.clone();
                stamped[2] = version;
                assert_eq!(
                    decode_frame(&stamped),
                    Err(WireError::UnsupportedVersion(version)),
                    "tag {} under version {version}",
                    frame[3]
                );
            }
            for retired in [1u8, 2, 6, 7] {
                let mut stamped = frame.clone();
                stamped[3] = retired;
                assert_eq!(
                    decode_frame(&stamped),
                    Err(WireError::UnknownFrameType(retired)),
                    "a tag {} body under retired tag {retired}",
                    frame[3]
                );
            }
        }
    }
}

/// Stamps each frame with every version in `versions` and asserts the
/// header refuses it, typed, before the tag is looked at.
fn assert_rejected_under(frames: &[Vec<u8>], versions: core::ops::Range<u8>) {
    for frame in frames {
        for version in versions.clone() {
            let mut stamped = frame.clone();
            stamped[2] = version;
            assert_eq!(
                decode_frame(&stamped),
                Err(WireError::UnsupportedVersion(version)),
                "tag {} under version {version}",
                frame[3]
            );
        }
    }
}

/// The frames of [`one_frame_of_every_tag`] whose tag is in `tags`.
fn frames_with_tags(rng: &mut StdRng, tags: core::ops::RangeInclusive<u8>) -> Vec<Vec<u8>> {
    one_frame_of_every_tag(rng)
        .into_iter()
        .filter(|frame| tags.contains(&frame[3]))
        .collect()
}

/// The batch frames (tags 14 and 15) are refused under the versions that
/// predate batching (1 and 2); the frames whose tags and bodies date from
/// version 1 — the plain error and the metrics request/response — still
/// decode from their original byte layout under the current header.
#[test]
fn batch_frames_do_not_exist_below_v3_and_old_frames_still_decode() {
    let mut rng = StdRng::seed_from_u64(0x01D5_1AB0);
    let batches = frames_with_tags(&mut rng, 14..=15);
    assert_eq!(batches.len(), 2);
    assert_rejected_under(&batches, 1..3);

    let frame = |tag: u8, body: &[u8]| {
        let mut out = b"DB".to_vec();
        out.extend_from_slice(&[VERSION, tag]);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        out
    };
    let error = frame(3, b"\x01busy");
    let (Frame::Error(view), consumed) = decode_frame(&error).unwrap() else {
        panic!("wrong frame type");
    };
    assert_eq!(consumed, error.len());
    assert_eq!((view.code, view.message), (ErrorCode::Overloaded, "busy"));
    let mut encoded = Vec::new();
    ErrorFrame {
        code: ErrorCode::Overloaded,
        message: "busy",
    }
    .encode_into(&mut encoded);
    assert_eq!(encoded, error, "the error layout is unchanged");

    let request = frame(4, &[]);
    assert_eq!(decode_frame(&request), Ok((Frame::MetricsRequest, 8)));
    let response = frame(5, b"{}");
    assert_eq!(
        decode_frame(&response),
        Ok((Frame::MetricsResponse("{}"), response.len()))
    );
}

/// A peer older than version 5 never had the id-tagged frames (tags
/// 12–16); stamped with its version they are refused at the header.
#[test]
fn pipelined_frames_do_not_exist_below_v5() {
    let mut rng = StdRng::seed_from_u64(0x0005_01D5);
    let pipelined = frames_with_tags(&mut rng, 12..=16);
    assert_eq!(pipelined.len(), 5);
    assert_rejected_under(&pipelined, 1..5);
}

/// Every byte of the cost-model field corrupted to every value: decoding
/// either succeeds (the mutation landed on a don't-care pad byte or
/// produced another valid model) or yields a typed cost-model error —
/// never a panic, and never a frame that silently misreports its model.
#[test]
fn cost_model_field_corruption_is_exhaustively_typed() {
    use dbi_service::wire::COST_MODEL_WIRE_BYTES;
    let mut rng = StdRng::seed_from_u64(0xC057);
    let mut payload = Vec::new();
    let mut pristine = Vec::new();
    // The cost-model field sits after session_id (8), scheme tag (1) and
    // the scheme weights (8).
    let field_at = BODY_AT + 8 + 1 + 8;
    for _ in 0..8 {
        let request = arbitrary_request(&mut rng, &mut payload);
        pristine.clear();
        push_request(&mut pristine, 1, request);
        for offset in 0..COST_MODEL_WIRE_BYTES {
            for value in 0..=255u8 {
                let mut frame = pristine.clone();
                frame[field_at + offset] = value;
                match decode_frame(&frame) {
                    Ok((Frame::PipelinedRequest { request: view, .. }, consumed)) => {
                        assert_eq!(consumed, frame.len());
                        // Whatever decoded must re-encode to the same
                        // model when written back out.
                        let mut reencoded = Vec::new();
                        push_request(
                            &mut reencoded,
                            1,
                            EncodeRequestFrame {
                                session_id: view.session_id,
                                scheme: view.scheme,
                                cost_model: view.cost_model,
                                groups: view.groups,
                                burst_len: view.burst_len,
                                want_masks: view.want_masks,
                                verify: view.verify,
                                payload: view.payload,
                            },
                        );
                        let (Frame::PipelinedRequest { request: again, .. }, _) =
                            decode_frame(&reencoded).unwrap()
                        else {
                            panic!("re-encode changed the frame type");
                        };
                        assert_eq!(again.cost_model, view.cost_model);
                    }
                    Ok(_) => panic!("corruption changed the frame type"),
                    Err(
                        WireError::UnknownCostModelTag(_)
                        | WireError::UnknownInterfaceTag(_)
                        | WireError::BadDataRate
                        | WireError::BadWeights,
                    ) => {}
                    Err(other) => {
                        panic!("offset {offset} value {value}: unexpected error {other:?}")
                    }
                }
            }
        }
    }
}

/// A well-formed arbitrary batch: coherent burst_len / count / payload.
fn arbitrary_batch<'a>(rng: &mut StdRng, payload: &'a mut Vec<u8>) -> EncodeBatchRequestFrame<'a> {
    let burst_len = rng.gen_range(1u8..33);
    let count = rng.gen_range(1u16..64);
    payload.clear();
    payload.extend((0..usize::from(count) * usize::from(burst_len)).map(|_| rng.gen::<u8>()));
    EncodeBatchRequestFrame {
        session_id: rng.gen::<u64>(),
        scheme: arbitrary_scheme(rng),
        cost_model: arbitrary_cost_model(rng),
        groups: rng.gen::<u16>(),
        burst_len,
        want_masks: rng.gen::<bool>(),
        verify: arbitrary_verify(rng),
        count,
        payload: &payload[..],
    }
}

/// Appends the id-tagged frame carrying `request`.
fn push_batch(buf: &mut Vec<u8>, request_id: u64, request: EncodeBatchRequestFrame<'_>) {
    PipelinedBatchRequestFrame {
        request_id,
        request,
    }
    .encode_into(buf);
}

#[test]
fn arbitrary_batch_requests_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..ROUNDS {
        let frame = arbitrary_batch(&mut rng, &mut payload);
        let request_id = rng.gen::<u64>();
        buf.clear();
        push_batch(&mut buf, request_id, frame);
        let (decoded, consumed) = decode_frame(&buf).expect("a well-formed batch must decode");
        assert_eq!(consumed, buf.len());
        let Frame::PipelinedBatchRequest {
            request_id: echoed,
            request: view,
        } = decoded
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, frame.session_id);
        assert_eq!(view.scheme, frame.scheme);
        assert_eq!(view.cost_model, frame.cost_model);
        assert_eq!(view.groups, frame.groups);
        assert_eq!(view.burst_len, frame.burst_len);
        assert_eq!(view.want_masks, frame.want_masks);
        assert_eq!(view.verify, frame.verify);
        assert_eq!(view.count, frame.count);
        assert_eq!(view.payload, frame.payload);
        // Zero-copy: the payload view points into the frame buffer.
        assert!(core::ptr::eq(
            view.payload.as_ptr(),
            &buf[BODY_AT + BATCH_REQUEST_HEAD_LEN]
        ));
    }
}

#[test]
fn arbitrary_batch_responses_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xBA7C5);
    let mut buf = Vec::new();
    for _ in 0..ROUNDS {
        let (per_group, masks) = arbitrary_records(&mut rng);
        let request_id = rng.gen::<u64>();
        let frame = EncodeBatchResponseFrame {
            session_id: rng.gen::<u64>(),
            bursts: rng.gen::<u64>(),
            count: rng.gen::<u16>(),
            per_group: &per_group,
            masks: &masks,
        };
        buf.clear();
        PipelinedBatchResponseFrame {
            request_id,
            response: frame,
        }
        .encode_into(&mut buf);
        let (
            Frame::PipelinedBatchResponse {
                request_id: echoed,
                response: view,
            },
            consumed,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(consumed, buf.len());
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, frame.session_id);
        assert_eq!(view.bursts, frame.bursts);
        assert_eq!(view.count, frame.count);
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);
    }
}

/// One exchange per round — a request, its response and its typed
/// failure, all under one arbitrary id — written back to back: walking
/// the stream yields the three frames in order, each echoing the id.
#[test]
fn arbitrary_pipelined_frames_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x9192_5EED);
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    for round in 0..ROUNDS {
        let request_id = match round {
            0 => 0,
            1 => u64::MAX,
            _ => rng.gen::<u64>(),
        };
        let request = arbitrary_request(&mut rng, &mut payload);
        let (per_group, masks) = arbitrary_records(&mut rng);
        let message = arbitrary_message(&mut rng);
        buf.clear();
        push_request(&mut buf, request_id, request);
        PipelinedResponseFrame {
            request_id,
            response: EncodeResponseFrame {
                session_id: request.session_id,
                bursts: rng.gen::<u64>(),
                per_group: &per_group,
                masks: &masks,
            },
        }
        .encode_into(&mut buf);
        PipelinedErrorFrame {
            request_id,
            error: ErrorFrame {
                code: ErrorCode::Overloaded,
                message: &message,
            },
        }
        .encode_into(&mut buf);

        let (decoded, n1) = decode_frame(&buf).expect("well-formed pipelined request");
        let Frame::PipelinedRequest {
            request_id: echoed,
            request: view,
        } = decoded
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, request.session_id);
        assert_eq!(view.payload, request.payload);

        let (decoded, n2) = decode_frame(&buf[n1..]).expect("well-formed pipelined response");
        let Frame::PipelinedResponse {
            request_id: echoed,
            response: view,
        } = decoded
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, request.session_id);
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);

        let (decoded, n3) = decode_frame(&buf[n1 + n2..]).expect("well-formed pipelined error");
        let Frame::PipelinedError {
            request_id: echoed,
            error: view,
        } = decoded
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(echoed, request_id);
        assert_eq!(view.code, ErrorCode::Overloaded);
        assert_eq!(view.message, message);
        assert_eq!(n1 + n2 + n3, buf.len());
    }
}

/// The batch form of the exchange: a batch request and the batch
/// response answering it, back to back under one id.
#[test]
fn arbitrary_pipelined_batch_frames_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_41D5);
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    for _ in 0..ROUNDS {
        let batch = arbitrary_batch(&mut rng, &mut payload);
        let request_id = rng.gen::<u64>();
        let (per_group, masks) = arbitrary_records(&mut rng);
        buf.clear();
        push_batch(&mut buf, request_id, batch);
        PipelinedBatchResponseFrame {
            request_id,
            response: EncodeBatchResponseFrame {
                session_id: batch.session_id,
                bursts: u64::from(batch.count),
                count: batch.count,
                per_group: &per_group,
                masks: &masks,
            },
        }
        .encode_into(&mut buf);

        let (decoded, n1) = decode_frame(&buf).expect("well-formed pipelined batch");
        let Frame::PipelinedBatchRequest {
            request_id: echoed,
            request: view,
        } = decoded
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, batch.session_id);
        assert_eq!(view.count, batch.count);
        assert_eq!(view.payload, batch.payload);

        let (decoded, n2) = decode_frame(&buf[n1..]).expect("well-formed pipelined batch response");
        let Frame::PipelinedBatchResponse {
            request_id: echoed,
            response: view,
        } = decoded
        else {
            panic!("round trip changed the frame type");
        };
        assert_eq!(echoed, request_id);
        assert_eq!(view.session_id, batch.session_id);
        assert_eq!(
            (view.bursts, view.count),
            (u64::from(batch.count), batch.count)
        );
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);
        assert_eq!(n1 + n2, buf.len());
    }
}

/// Every strict prefix of a valid batch frame is `Truncated` — the same
/// bar the single-access request frames are held to.
#[test]
fn every_batch_truncation_is_rejected_without_panicking() {
    let mut rng = StdRng::seed_from_u64(0xBA7C6);
    let mut payload = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    for _ in 0..16 {
        let frame = arbitrary_batch(&mut rng, &mut payload);
        buf.clear();
        push_batch(&mut buf, rng.gen::<u64>(), frame);
        assert_every_prefix_is_truncated(&buf);
    }
}

/// The count field corrupted to every value: either the mutation happens
/// to keep `count · burst_len == payload_len` (only possible for the
/// original value, since burst_len ≥ 1) or decoding yields the typed
/// `BadBatchCount` — never a panic, never a silently wrong batch.
#[test]
fn batch_count_corruption_is_exhaustively_typed() {
    let mut rng = StdRng::seed_from_u64(0xC0417);
    let mut payload = Vec::new();
    let count_at = BODY_AT + BATCH_REQUEST_HEAD_LEN - 6;
    for _ in 0..8 {
        let frame = arbitrary_batch(&mut rng, &mut payload);
        let mut pristine = Vec::new();
        push_batch(&mut pristine, 1, frame);
        for low in 0..=255u8 {
            for high in [0u8, 1, 0x80, 0xFF] {
                let mut corrupt = pristine.clone();
                corrupt[count_at] = low;
                corrupt[count_at + 1] = high;
                let forged = u16::from_le_bytes([low, high]);
                match decode_frame(&corrupt) {
                    Ok((Frame::PipelinedBatchRequest { request: view, .. }, _)) => {
                        assert_eq!(forged, frame.count, "only the true count may decode");
                        assert_eq!(view.count, frame.count);
                    }
                    Ok(_) => panic!("corruption changed the frame type"),
                    Err(WireError::BadBatchCount { count, got }) => {
                        assert_eq!(count, forged);
                        assert_eq!(got, frame.payload.len() / usize::from(frame.burst_len));
                    }
                    Err(other) => panic!("count {forged}: unexpected error {other:?}"),
                }
            }
        }
    }
}

/// Empty and oversized batches never decode as valid frames.
#[test]
fn empty_and_oversized_batches_are_rejected() {
    // count = 0 with an empty payload: structurally consistent lengths,
    // still rejected — a batch must carry at least one burst.
    let empty = EncodeBatchRequestFrame {
        session_id: 1,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 1,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        count: 0,
        payload: &[],
    };
    let mut buf = Vec::new();
    push_batch(&mut buf, 1, empty);
    assert_eq!(
        decode_frame(&buf),
        Err(WireError::BadBatchCount { count: 0, got: 0 })
    );

    // A count field that exceeds the payload is typed, whatever the size.
    let payload = vec![0u8; 8 * 100];
    let mut buf = Vec::new();
    push_batch(
        &mut buf,
        1,
        EncodeBatchRequestFrame {
            count: u16::MAX,
            payload: &payload,
            ..empty
        },
    );
    assert_eq!(
        decode_frame(&buf),
        Err(WireError::BadBatchCount {
            count: u16::MAX,
            got: 100
        })
    );

    // A header announcing a body beyond MAX_BODY_LEN is rejected before
    // any batch field is read.
    let mut buf = Vec::new();
    push_batch(
        &mut buf,
        1,
        EncodeBatchRequestFrame {
            count: 100,
            payload: &payload,
            ..empty
        },
    );
    buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&buf),
        Err(WireError::Oversized { .. })
    ));
}

/// Frames concatenated back-to-back decode independently, each reporting
/// its own length — the invariant the TCP framing layer relies on.
#[test]
fn concatenated_frames_are_walkable() {
    let mut rng = StdRng::seed_from_u64(0xCA7);
    let mut payload = Vec::new();
    let mut buf = Vec::new();
    let mut expected = Vec::new();
    for request_id in 0..20u64 {
        let request = arbitrary_request(&mut rng, &mut payload);
        push_request(&mut buf, request_id, request);
        expected.push((request.session_id, payload.clone()));
    }
    let mut offset = 0;
    let mut seen = 0;
    while offset < buf.len() {
        let (frame, consumed) = decode_frame(&buf[offset..]).unwrap();
        let Frame::PipelinedRequest {
            request_id,
            request: view,
        } = frame
        else {
            panic!("unexpected frame type");
        };
        assert_eq!(request_id, seen as u64);
        assert_eq!(view.session_id, expected[seen].0);
        assert_eq!(view.payload, expected[seen].1.as_slice());
        offset += consumed;
        seen += 1;
    }
    assert_eq!(seen, expected.len());
    assert_eq!(offset, buf.len());
}

/// Every strict prefix of a service-side id-tagged frame — response,
/// batch response and error — must decode to `Truncated`, never a panic
/// or a wrong type.
#[test]
fn every_pipelined_truncation_is_rejected_without_panicking() {
    let mut rng = StdRng::seed_from_u64(0x0007_0CA7);
    let mut buf: Vec<u8> = Vec::new();
    for _ in 0..16 {
        let (per_group, masks) = arbitrary_records(&mut rng);
        let response = EncodeResponseFrame {
            session_id: rng.gen::<u64>(),
            bursts: rng.gen::<u64>(),
            per_group: &per_group,
            masks: &masks,
        };
        buf.clear();
        PipelinedResponseFrame {
            request_id: rng.gen::<u64>(),
            response,
        }
        .encode_into(&mut buf);
        assert_every_prefix_is_truncated(&buf);

        buf.clear();
        PipelinedBatchResponseFrame {
            request_id: rng.gen::<u64>(),
            response: EncodeBatchResponseFrame {
                session_id: response.session_id,
                bursts: response.bursts,
                count: rng.gen::<u16>(),
                per_group: &per_group,
                masks: &masks,
            },
        }
        .encode_into(&mut buf);
        assert_every_prefix_is_truncated(&buf);
    }

    // The error form too: its body is id + code + message.
    buf.clear();
    PipelinedErrorFrame {
        request_id: 0x0123_4567_89AB_CDEF,
        error: ErrorFrame {
            code: ErrorCode::SlowConsumer,
            message: "too slow",
        },
    }
    .encode_into(&mut buf);
    assert_every_prefix_is_truncated(&buf);
}

/// The request id is an opaque `u64`: every value is legal, so corrupting
/// its bytes cannot be a wire error — but it must change *only* the id,
/// leaving the carried request bit-identical.
#[test]
fn request_id_corruption_stays_inside_the_id_field() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&[0xAB; 64]);
    let request = EncodeRequestFrame {
        session_id: 77,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: true,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    let original_id = 0x1111_2222_3333_4444u64;
    let mut buf = Vec::new();
    push_request(&mut buf, original_id, request);
    for byte in HEADER_LEN..BODY_AT {
        for flip in [0x01u8, 0x80u8, 0xFF] {
            let mut corrupt = buf.clone();
            corrupt[byte] ^= flip;
            let (decoded, consumed) =
                decode_frame(&corrupt).expect("id corruption is not detectable");
            assert_eq!(consumed, corrupt.len());
            let Frame::PipelinedRequest {
                request_id,
                request: view,
            } = decoded
            else {
                panic!("id corruption changed the frame type");
            };
            let mut expected = original_id.to_le_bytes();
            expected[byte - HEADER_LEN] ^= flip;
            assert_eq!(request_id, u64::from_le_bytes(expected));
            assert_eq!(view.session_id, request.session_id);
            assert_eq!(view.scheme, request.scheme);
            assert_eq!(view.payload, request.payload);
        }
    }
}
