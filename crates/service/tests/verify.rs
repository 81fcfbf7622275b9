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

#[test]
fn packed_verify_holds_across_every_geometry_and_chain_base() {
    // Sessions of 1, 2, 3, 4 and 8 groups at one burst length submit in
    // lockstep to a single shard, so the worker packs them into shared
    // rounds and each verify replays its rows from a nonzero chain base,
    // through every transpose shape, and (at BL 4 and 12) on the tail
    // word of every burst. Every reply must match a serial session.
    const GROUPS: [u16; 5] = [1, 2, 3, 4, 8];
    const REQUESTS: usize = 8;
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    let schemes = all_schemes();
    let mut requests = 0u64;
    for (phase, burst_len) in [4u8, 8, 12, 16, 32].into_iter().enumerate() {
        let scheme = schemes[phase % schemes.len()];
        let session_of = |groups: u16| 0x5000 + 0x100 * phase as u64 + u64::from(groups);
        // Hold the worker on the one-group session's rounds, so the
        // others queue up behind it and pack together.
        engine.inject_slowdown_for_tests(session_of(1), std::time::Duration::from_micros(200));
        let barrier = std::sync::Barrier::new(GROUPS.len());
        std::thread::scope(|scope| {
            for groups in GROUPS {
                let mut client = engine.local_client();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut serial = BusSession::with_geometry(
                        usize::from(groups),
                        usize::from(burst_len),
                        scheme,
                    );
                    let mut serial_groups = Vec::new();
                    let mut serial_masks = Vec::new();
                    let mut reply = EncodeReply::new();
                    // A failed request stops this client's checks, not its
                    // barrier waits: the others wait at every step for all
                    // five clients, so leaving early would hang them. The
                    // first failure is re-raised once the round is over.
                    let mut failure = None;
                    for index in 0..REQUESTS {
                        // Same access count across sessions at each step, so
                        // their jobs can share a round.
                        let accesses = 1 + index % 3;
                        let len = accesses * usize::from(groups) * usize::from(burst_len);
                        let payload = pseudo_random(len, (u32::from(groups) << 16) ^ index as u32);
                        let want_masks = (index + usize::from(groups)) % 2 == 0;
                        barrier.wait();
                        if failure.is_some() {
                            continue;
                        }
                        let step = std::panic::AssertUnwindSafe(|| {
                            client
                                .encode(
                                    &EncodeRequest {
                                        session_id: session_of(groups),
                                        scheme,
                                        cost_model: dbi_service::CostModel::Inline,
                                        groups,
                                        burst_len,
                                        want_masks,
                                        verify: VerifyMode::RoundTrip,
                                        payload: &payload,
                                    },
                                    &mut reply,
                                )
                                .unwrap_or_else(|err| {
                                    panic!(
                                        "{scheme} x{groups} BL{burst_len} request {index}: {err}"
                                    )
                                });
                            let bursts = serial
                                .encode_stream_into(
                                    &payload,
                                    &mut serial_groups,
                                    Some(&mut serial_masks),
                                )
                                .unwrap();
                            let label = format!("{scheme} x{groups} BL{burst_len} request {index}");
                            assert_eq!(reply.bursts, bursts, "{label}");
                            assert_eq!(reply.per_group, serial_groups, "{label}");
                            if want_masks {
                                assert_eq!(reply.masks, serial_masks, "{label}");
                            } else {
                                assert!(reply.masks.is_empty(), "{label}");
                            }
                        });
                        failure = std::panic::catch_unwind(step).err();
                    }
                    if let Some(panic) = failure {
                        std::panic::resume_unwind(panic);
                    }
                });
            }
        });
        requests += (GROUPS.len() * REQUESTS) as u64;
    }
    let totals = engine.metrics().totals();
    assert_eq!(totals.verified, requests);
    assert_eq!(totals.verify_failures, 0);
    assert!(
        totals.coalesced > 0,
        "no pass ever packed more than one job"
    );
    assert!(
        totals.dispatch_chains > totals.dispatches,
        "kernel dispatches never carried more than one chain"
    );
    engine.shutdown();
}
