//! End-to-end tests of the verify mode: the engine decodes its own output
//! through the receiver path before replying, fails with a typed
//! `VerifyMismatch` when (and only when) the round trip is broken, and
//! counts every verification in the per-shard metrics.

use dbi_core::{CostWeights, Scheme};
use dbi_mem::{BusSession, ChannelConfig};
use dbi_service::wire::ErrorCode;
use dbi_service::{
    ClientError, EncodeBatchRequest, EncodeReply, EncodeRequest, Engine, ServiceConfig,
    ServiceError, TcpClient, TcpServer, VerifyMode,
};

fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

fn engine() -> Engine {
    Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 16,
        ..ServiceConfig::default()
    })
}

fn all_schemes() -> Vec<Scheme> {
    let mut all: Vec<Scheme> = Scheme::paper_set().to_vec();
    all.extend_from_slice(Scheme::conventional_set());
    all.push(Scheme::Greedy(CostWeights::new(2, 3).unwrap()));
    all.dedup();
    all
}

#[test]
fn verified_requests_return_the_same_results_as_unverified_ones() {
    let engine = engine();
    let mut client = engine.local_client();
    let config = ChannelConfig::gddr5x();
    let data = pseudo_random(config.access_bytes() * 16, 0xF1F1);
    let mut plain_reply = EncodeReply::new();
    let mut verified_reply = EncodeReply::new();

    for (index, scheme) in all_schemes().into_iter().enumerate() {
        let base = EncodeRequest {
            session_id: 0x1000 + index as u64,
            scheme,
            cost_model: dbi_service::CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: true,
            verify: VerifyMode::Off,
            payload: &data,
        };
        client.encode(&base, &mut plain_reply).unwrap();
        client
            .encode(
                &EncodeRequest {
                    session_id: 0x2000 + index as u64,
                    verify: VerifyMode::RoundTrip,
                    ..base
                },
                &mut verified_reply,
            )
            .unwrap();
        assert_eq!(plain_reply, verified_reply, "{scheme}");

        // Verification also works without masks in the response, and for
        // a session that alternates verify off and on (the receiver is
        // resynchronised per request).
        client
            .encode(
                &EncodeRequest {
                    session_id: 0x2000 + index as u64,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    ..base
                },
                &mut verified_reply,
            )
            .unwrap();
        client
            .encode(
                &EncodeRequest {
                    session_id: 0x2000 + index as u64,
                    want_masks: false,
                    verify: VerifyMode::RoundTrip,
                    ..base
                },
                &mut verified_reply,
            )
            .unwrap();
    }
    let totals = engine.metrics().totals();
    assert_eq!(totals.verified, 2 * all_schemes().len() as u64);
    assert_eq!(totals.verify_failures, 0);
    engine.shutdown();
}

#[test]
fn verified_stream_stays_bit_identical_to_a_serial_session() {
    // Verification must be an observer: carried state across verified
    // requests equals the plain serial run. The four slices alternate
    // verify on and off, and masks on and off, so the scratch mask sink
    // and the pre/post state hand-off both run between plain requests.
    let engine = engine();
    let mut client = engine.local_client();
    let config = ChannelConfig::gddr5x();
    let data = pseudo_random(config.access_bytes() * 32, 0xAB12);
    let mut reply = EncodeReply::new();
    let quarter = data.len() / 4;
    let mut bursts = 0u64;
    let mut per_group = vec![dbi_core::CostBreakdown::ZERO; 4];
    let mut serial = BusSession::new(&config, Scheme::OptFixed);
    let mut serial_groups = Vec::new();
    let mut serial_masks = Vec::new();
    for (index, slice) in data.chunks(quarter).enumerate() {
        let verify = if index % 2 == 0 {
            VerifyMode::RoundTrip
        } else {
            VerifyMode::Off
        };
        let want_masks = index < 2;
        client
            .encode(
                &EncodeRequest {
                    session_id: 777,
                    scheme: Scheme::OptFixed,
                    cost_model: dbi_service::CostModel::Inline,
                    groups: 4,
                    burst_len: 8,
                    want_masks,
                    verify,
                    payload: slice,
                },
                &mut reply,
            )
            .unwrap();
        let serial_bursts = serial
            .encode_stream_into(slice, &mut serial_groups, Some(&mut serial_masks))
            .unwrap();
        assert_eq!(reply.bursts, serial_bursts, "slice {index}");
        assert_eq!(reply.per_group, serial_groups, "slice {index}");
        if want_masks {
            assert_eq!(reply.masks, serial_masks, "slice {index}");
        } else {
            assert!(reply.masks.is_empty(), "slice {index}");
        }
        bursts += reply.bursts;
        for (total, part) in per_group.iter_mut().zip(&reply.per_group) {
            *total += *part;
        }
    }
    let mut reference = BusSession::new(&config, Scheme::OptFixed);
    let expected = reference.encode_stream(&data).unwrap();
    assert_eq!(bursts, expected.bursts);
    assert_eq!(per_group, expected.per_group);
    assert_eq!(engine.metrics().totals().verified, 2);
    engine.shutdown();
}

#[test]
fn corrupted_decode_surfaces_as_a_typed_verify_mismatch_locally() {
    let engine = engine();
    let mut client = engine.local_client();
    let payload = pseudo_random(128, 7);
    let request = EncodeRequest {
        session_id: 9,
        scheme: Scheme::OptFixed,
        cost_model: dbi_service::CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: true,
        verify: VerifyMode::RoundTrip,
        payload: &payload,
    };
    let mut reply = EncodeReply::new();
    // Every reply must match a serial session fed the same stream —
    // including the one after the mismatch: the failed request's encode
    // still advanced the session's carried state.
    let mut serial = BusSession::with_geometry(4, 8, Scheme::OptFixed);
    let mut serial_groups = Vec::new();
    let mut serial_masks = Vec::new();
    let mut serial_encode = || {
        let bursts = serial
            .encode_stream_into(&payload, &mut serial_groups, Some(&mut serial_masks))
            .unwrap();
        (bursts, serial_groups.clone(), serial_masks.clone())
    };
    client.encode(&request, &mut reply).unwrap();
    assert_eq!(
        (reply.bursts, reply.per_group.clone(), reply.masks.clone()),
        serial_encode()
    );

    engine.corrupt_verify_for_tests(true);
    let err = client.encode(&request, &mut reply).unwrap_err();
    assert_eq!(
        err,
        ServiceError::VerifyMismatch {
            session_id: 9,
            byte_offset: Some(0),
        }
    );
    serial_encode();

    // Un-corrupted, the same session verifies clean again.
    engine.corrupt_verify_for_tests(false);
    client.encode(&request, &mut reply).unwrap();
    assert_eq!(
        (reply.bursts, reply.per_group.clone(), reply.masks.clone()),
        serial_encode()
    );

    let totals = engine.metrics().totals();
    assert_eq!(totals.verified, 3);
    assert_eq!(totals.verify_failures, 1);
    // The failed round trip is accounted like every other failed request,
    // so requests + rejected still covers all submitted traffic.
    assert_eq!(totals.requests, 2);
    assert_eq!(totals.rejected, 1);
    assert!(engine
        .metrics_json()
        .contains("\"verify\":{\"requests\":3,\"failures\":1}"));
    engine.shutdown();
}

#[test]
fn corrupted_decode_surfaces_as_verify_mismatch_over_tcp() {
    // The acceptance path: a verify-mode TCP request returns the typed
    // VerifyMismatch error frame when the decoder is deliberately
    // corrupted.
    let engine = engine();
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut tcp = TcpClient::connect(server.addr()).unwrap();
    let payload = pseudo_random(256, 0x7CF);
    let request = EncodeRequest {
        session_id: 0xFEED,
        scheme: Scheme::Opt(CostWeights::new(3, 1).unwrap()),
        cost_model: dbi_service::CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::RoundTrip,
        payload: &payload,
    };
    let mut reply = EncodeReply::new();
    tcp.encode(&request, &mut reply).unwrap();

    engine.corrupt_verify_for_tests(true);
    match tcp.encode(&request, &mut reply).unwrap_err() {
        ClientError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::VerifyMismatch);
            assert!(message.contains("verify failed"), "{message}");
            assert!(message.contains("65261"), "{message}"); // 0xFEED
        }
        other => panic!("expected a remote VerifyMismatch, got {other}"),
    }
    engine.corrupt_verify_for_tests(false);

    // Batch requests carry the same verify bit end to end.
    let batch = EncodeBatchRequest::from_request(&request).unwrap();
    tcp.encode_batch(&batch, &mut reply).unwrap();
    engine.corrupt_verify_for_tests(true);
    match tcp.encode_batch(&batch, &mut reply).unwrap_err() {
        ClientError::Remote { code, .. } => assert_eq!(code, ErrorCode::VerifyMismatch),
        other => panic!("expected a remote VerifyMismatch, got {other}"),
    }

    drop(tcp);
    server.shutdown();
    engine.shutdown();
}
