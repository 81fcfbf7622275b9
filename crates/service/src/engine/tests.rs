use super::*;
use crate::telemetry::TraceOutcome;
use crate::wire::VerifyMode;
use dbi_core::CostWeights;
use dbi_mem::{BusSession, ChannelConfig};

fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

fn small_engine() -> Engine {
    Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 8,
        max_payload: 1 << 16,
        ..ServiceConfig::default()
    })
}

#[test]
fn engine_matches_a_serial_bus_session() {
    let engine = small_engine();
    let mut client = engine.local_client();
    let config = ChannelConfig::gddr5x();
    let data = pseudo_random(config.access_bytes() * 16, 0xF00D);

    let mut reply = EncodeReply::new();
    for (index, scheme) in Scheme::paper_set().iter().copied().enumerate() {
        let session_id = 0x100 + index as u64;
        // Feed the stream in two halves: carried state must persist.
        let half = data.len() / 2;
        let request = EncodeRequest {
            session_id,
            scheme,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: true,
            verify: VerifyMode::Off,
            payload: &data[..half],
        };
        client.encode(&request, &mut reply).unwrap();
        let mut first = reply.activity();
        let first_masks = reply.masks.clone();
        client
            .encode(
                &EncodeRequest {
                    payload: &data[half..],
                    ..request
                },
                &mut reply,
            )
            .unwrap();

        let mut reference = BusSession::new(&config, scheme);
        let expected = reference.encode_stream(&data).unwrap();
        let mut combined_masks = first_masks;
        combined_masks.extend_from_slice(&reply.masks);
        first.bursts += reply.bursts;
        for (a, b) in first.per_group.iter_mut().zip(&reply.per_group) {
            *a += *b;
        }
        assert_eq!(first, expected, "{scheme}");

        let mut mask_reference = BusSession::new(&config, scheme);
        let mut expected_masks = Vec::new();
        let mut scratch = Vec::new();
        mask_reference
            .encode_stream_into(&data, &mut scratch, Some(&mut expected_masks))
            .unwrap();
        assert_eq!(combined_masks, expected_masks, "{scheme}");
    }
    engine.shutdown();
}

#[test]
fn sticky_sharding_is_deterministic_and_spread() {
    let engine = small_engine();
    for session_id in 0..64u64 {
        assert_eq!(engine.shard_of(session_id), engine.shard_of(session_id));
        assert!(engine.shard_of(session_id) < engine.shard_count());
    }
    let on_zero = (0..64u64).filter(|&id| engine.shard_of(id) == 0).count();
    assert!((8..=56).contains(&on_zero), "lopsided spread: {on_zero}/64");
}

#[test]
fn validation_rejects_before_reaching_a_shard() {
    let engine = small_engine();
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let ok_payload = [0u8; 32];

    let base = EncodeRequest {
        session_id: 1,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &ok_payload,
    };
    let cases: [(EncodeRequest<'_>, ServiceError); 4] = [
        (
            EncodeRequest { groups: 0, ..base },
            ServiceError::BadGeometry {
                groups: 0,
                burst_len: 8,
            },
        ),
        (
            EncodeRequest {
                burst_len: 33,
                ..base
            },
            ServiceError::BadGeometry {
                groups: 4,
                burst_len: 33,
            },
        ),
        (
            EncodeRequest {
                payload: &ok_payload[..31],
                ..base
            },
            ServiceError::BadPayload {
                got: 31,
                expected_multiple: 32,
            },
        ),
        (
            EncodeRequest {
                payload: &[],
                ..base
            },
            ServiceError::BadPayload {
                got: 0,
                expected_multiple: 32,
            },
        ),
    ];
    for (request, expected) in cases {
        assert_eq!(client.encode(&request, &mut reply), Err(expected));
    }

    let big = vec![0u8; (1 << 16) + 32];
    let oversized = EncodeRequest {
        payload: &big,
        ..base
    };
    assert!(matches!(
        client.encode(&oversized, &mut reply),
        Err(ServiceError::PayloadTooLarge { .. })
    ));
    assert_eq!(engine.metrics().totals().rejected, 5);
}

#[test]
fn session_reuse_with_a_different_config_is_a_mismatch() {
    let engine = small_engine();
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(64, 3);
    let request = EncodeRequest {
        session_id: 9,
        scheme: Scheme::Dc,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    client.encode(&request, &mut reply).unwrap();
    assert_eq!(
        client.encode(
            &EncodeRequest {
                scheme: Scheme::Ac,
                ..request
            },
            &mut reply
        ),
        Err(ServiceError::SessionMismatch { session_id: 9 })
    );
    // Same scheme but different geometry is also a mismatch.
    assert_eq!(
        client.encode(
            &EncodeRequest {
                groups: 8,
                burst_len: 8,
                ..request
            },
            &mut reply
        ),
        Err(ServiceError::SessionMismatch { session_id: 9 })
    );
}

#[test]
fn requests_that_cannot_be_framed_are_rejected_even_locally() {
    // A permissive payload cap must not let the engine admit work
    // whose request or response could never travel as a wire frame.
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 4,
        max_payload: 32 << 20,
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    // 3 MiB fits a request frame, but with burst_len 1 and masks on
    // the response would carry 3M masks = 12 MiB > MAX_BODY_LEN.
    let payload = vec![0u8; 3 << 20];
    let request = EncodeRequest {
        session_id: 5,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 1,
        burst_len: 1,
        want_masks: true,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    assert_eq!(
        client.encode(&request, &mut reply),
        Err(ServiceError::PayloadTooLarge {
            got: payload.len(),
            max: crate::wire::MAX_BODY_LEN,
        })
    );
    // Masks off, the same payload frames fine in both directions.
    client
        .encode(
            &EncodeRequest {
                want_masks: false,
                verify: VerifyMode::Off,
                ..request
            },
            &mut reply,
        )
        .unwrap();
    // A payload too large for even the request frame is rejected
    // regardless of masks.
    let oversized = vec![0u8; (crate::wire::MAX_BODY_LEN / 32 + 1) * 32];
    assert!(matches!(
        client.encode(
            &EncodeRequest {
                groups: 4,
                burst_len: 8,
                want_masks: false,
                verify: VerifyMode::Off,
                payload: &oversized,
                ..request
            },
            &mut reply
        ),
        Err(ServiceError::PayloadTooLarge { .. })
    ));
}

#[test]
fn full_shard_evicts_idle_sessions_for_fresh_ids() {
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        max_sessions_per_shard: 2,
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(32, 1);
    let request = |session_id| EncodeRequest {
        session_id,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    client.encode(&request(1), &mut reply).unwrap();
    client.encode(&request(2), &mut reply).unwrap();
    // The shard is full, but both residents are idle: a third id
    // evicts the least-recently-touched one (id 1) instead of
    // bouncing.
    client.encode(&request(3), &mut reply).unwrap();
    // Id 1 comes back as a *fresh* session, evicting id 2 in turn.
    client.encode(&request(1), &mut reply).unwrap();
    let totals = engine.metrics().totals();
    assert_eq!(totals.sessions, 4);
    assert_eq!(totals.sessions_evicted, 2);
    // Without persistence nothing is ever captured, so both victims'
    // carried state is gone for good.
    assert_eq!(totals.sessions_evicted_uncaptured, 2);
    assert_eq!(totals.rejected, 0);
}

#[test]
fn session_churn_far_past_the_limit_serves_every_request() {
    // The regression this pins: a full shard used to reject fresh
    // session ids *forever* — slot exhaustion was permanent. Churn
    // more than twice the limit through one shard; every request
    // must be served, with evictions making the room.
    let limit = 4usize;
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        max_sessions_per_shard: limit,
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(32, 3);
    for round in 0..3u64 {
        for id in 1..=(3 * limit as u64) {
            client
                .encode(
                    &EncodeRequest {
                        session_id: id,
                        scheme: Scheme::OptFixed,
                        cost_model: CostModel::Inline,
                        groups: 4,
                        burst_len: 8,
                        want_masks: false,
                        verify: VerifyMode::Off,
                        payload: &payload,
                    },
                    &mut reply,
                )
                .unwrap_or_else(|err| panic!("round {round} id {id}: {err}"));
        }
    }
    let totals = engine.metrics().totals();
    assert_eq!(totals.rejected, 0);
    assert!(
        totals.sessions_evicted > 0,
        "churning 3x the limit must evict"
    );
    engine.shutdown();
}

#[test]
fn metrics_count_requests_sessions_and_savings() {
    let engine = small_engine();
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    // Alternate 0x55/0xAA per *beat* (the payload is beat-interleaved
    // over 4 groups), so every group's wires toggle each beat and OPT
    // has a measurable amount of transitions to save.
    let payload: Vec<u8> = (0..128)
        .map(|i| if (i / 4) % 2 == 0 { 0x55 } else { 0xAA })
        .collect();
    let request = EncodeRequest {
        session_id: 77,
        scheme: Scheme::Opt(CostWeights::FIXED),
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    client.encode(&request, &mut reply).unwrap();
    client.encode(&request, &mut reply).unwrap();

    let totals = engine.metrics().totals();
    assert_eq!(totals.requests, 2);
    assert_eq!(totals.bytes, 256);
    assert_eq!(totals.bursts, 2 * reply.bursts);
    assert_eq!(totals.sessions, 1);
    assert_eq!(totals.queue_depth, 0);
    assert!(
        totals.transitions_saved > 0,
        "OPT must beat RAW on a checkerboard"
    );
    let json = engine.metrics_json();
    assert!(json.contains("\"requests\":2"));

    // Exact oracle: per request, a serial RAW session's transitions
    // minus the scheme's, saturating at zero, summed. Group counts
    // 1/3/4/8 at BL8 and BL16, several requests per session, access
    // counts whose payload leaves an 8-byte-word tail in the offset
    // XOR, schemes that can spend more toggles than RAW (DC), and RAW
    // sessions, whose serial saving is zero.
    let mut raw = BusSession::with_geometry(4, 8, Scheme::Raw);
    let mut opt = BusSession::with_geometry(4, 8, Scheme::Opt(CostWeights::FIXED));
    let mut expected = serial_saving(&mut raw, &mut opt, &payload);
    expected += serial_saving(&mut raw, &mut opt, &payload);
    let mut session_id = 100;
    for scheme in [Scheme::OptFixed, Scheme::Dc, Scheme::Ac, Scheme::Raw] {
        for groups in [1u16, 3, 4, 8] {
            for burst_len in [8u8, 16] {
                session_id += 1;
                let mut reference =
                    BusSession::with_geometry(usize::from(groups), usize::from(burst_len), scheme);
                let mut raw = BusSession::with_geometry(
                    usize::from(groups),
                    usize::from(burst_len),
                    Scheme::Raw,
                );
                for (request, accesses) in [3usize, 1, 5].into_iter().enumerate() {
                    let payload = pseudo_random(
                        accesses * usize::from(groups) * usize::from(burst_len),
                        session_id as u32 * 7 + request as u32,
                    );
                    client
                        .encode(
                            &EncodeRequest {
                                session_id,
                                scheme,
                                cost_model: CostModel::Inline,
                                groups,
                                burst_len,
                                want_masks: false,
                                verify: VerifyMode::Off,
                                payload: &payload,
                            },
                            &mut reply,
                        )
                        .unwrap();
                    expected += serial_saving(&mut raw, &mut reference, &payload);
                }
            }
        }
    }
    assert_eq!(engine.metrics().totals().transitions_saved, expected);
}

/// One request's transitions saved against RAW, by two serial
/// encodes that carry their sessions' states: `raw`'s transitions
/// minus `coded`'s, saturating at zero.
fn serial_saving(raw: &mut BusSession, coded: &mut BusSession, payload: &[u8]) -> u64 {
    let raw = raw.encode_stream(payload).unwrap().total().transitions;
    let coded = coded.encode_stream(payload).unwrap().total().transitions;
    raw.saturating_sub(coded)
}

#[test]
fn telemetry_traces_requests_and_captures_slow_ones() {
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        // A 100 ms threshold against a 200 ms injected delay: an
        // ordinary request stays far below the threshold even on a
        // loaded machine, and the slowed one far above it.
        slowlog_threshold_ns: 100_000_000,
        ..ServiceConfig::default()
    });
    engine.inject_slowdown_for_tests(7, Duration::from_millis(200));
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(64, 11);
    let request = |session_id| EncodeRequest {
        session_id,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::RoundTrip,
        payload: &payload,
    };
    client.encode(&request(8), &mut reply).unwrap();
    client.encode(&request(7), &mut reply).unwrap();
    client.encode(&request(8), &mut reply).unwrap();

    let trace = engine.trace_dump(16);
    assert_eq!(trace.len(), 3);
    for window in trace.windows(2) {
        assert!(window[0].request_id < window[1].request_id);
        assert!(window[0].enqueue_ns <= window[1].enqueue_ns);
    }
    for event in &trace {
        assert_eq!(event.outcome, TraceOutcome::Ok);
        assert!(event.bursts > 0);
        // The stages partition the total: nothing counted twice,
        // nothing outside the enqueue→done envelope.
        let staged = u64::from(event.queue_wait_ns)
            + u64::from(event.encode_ns)
            + u64::from(event.verify_ns);
        assert!(staged <= u64::from(event.total_ns), "{event:?}");
        assert!(event.encode_ns > 0 && event.verify_ns > 0, "{event:?}");
    }

    // Only the artificially slowed session crossed the threshold.
    let slow = engine.slowlog(16);
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].session_id, 7);
    assert!(u64::from(slow[0].total_ns) >= engine.slowlog_threshold_ns());

    // The histograms saw every request, the slow one included.
    let totals = engine.metrics().totals();
    assert_eq!(totals.latency.total.count, 3);
    assert_eq!(totals.latency.encode.count, 3);
    assert_eq!(totals.latency.verify.count, 3);
    assert_eq!(totals.latency.queue_wait.count, 3);
    assert!(totals.latency.total.percentile_ns(0.99) >= 1_000_000);
    engine.shutdown();
}

#[test]
fn rejected_passes_still_trace_with_reject_outcome() {
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(32, 13);
    let request = |scheme| EncodeRequest {
        session_id: 1,
        scheme,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    client
        .encode(&request(Scheme::OptFixed), &mut reply)
        .unwrap();
    // Reusing the id with a different scheme is rejected *by the
    // worker* (not validation), so it still earns a trace event.
    assert_eq!(
        client.encode(&request(Scheme::Dc), &mut reply),
        Err(ServiceError::SessionMismatch { session_id: 1 })
    );
    let trace = engine.trace_dump(16);
    assert_eq!(trace.len(), 2);
    assert_eq!(trace[0].outcome, TraceOutcome::Ok);
    assert_eq!(trace[1].outcome, TraceOutcome::Rejected);
    assert_eq!(trace[1].session_id, 1);
    assert_eq!(trace[1].encode_ns, 0);
    assert_eq!(trace[1].bursts, 0);
    engine.shutdown();
}

#[test]
fn shutdown_rejects_new_work_and_is_idempotent() {
    let engine = small_engine();
    let mut client = engine.local_client();
    engine.shutdown();
    engine.shutdown();
    let payload = [0u8; 32];
    let mut reply = EncodeReply::new();
    let request = EncodeRequest {
        session_id: 1,
        scheme: Scheme::Raw,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    assert_eq!(
        client.encode(&request, &mut reply),
        Err(ServiceError::ShuttingDown)
    );
}

#[test]
fn admin_calls_after_shutdown_answer_shutting_down() {
    let dir = std::env::temp_dir().join(format!("dbi-engine-admin-stopped-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    });
    engine.trigger_snapshot().unwrap();
    engine.shutdown();
    assert_eq!(engine.trigger_snapshot(), Err(ServiceError::ShuttingDown));
    assert_eq!(engine.restore(), Err(ServiceError::ShuttingDown));
    assert_eq!(engine.snapshot_status().snapshots_taken, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raw_sessions_report_zero_savings() {
    let engine = small_engine();
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(96, 5);
    let request = EncodeRequest {
        session_id: 2,
        scheme: Scheme::Raw,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: true,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    client.encode(&request, &mut reply).unwrap();
    assert_eq!(engine.metrics().totals().transitions_saved, 0);
    assert!(reply.masks.iter().all(|mask| *mask == InversionMask::NONE));
    assert_eq!(reply.bursts, 12);
    assert_eq!(reply.activity().total(), reply.total());
}

#[test]
fn failed_journal_flush_leaves_sessions_uncaptured() {
    let dir = std::env::temp_dir().join(format!("dbi-engine-failed-flush-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        max_sessions_per_shard: 1,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(32, 17);
    let request = |session_id| EncodeRequest {
        session_id,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    // Session A's journal record never reaches the file...
    let mut worker = engine.shared().shards[0].lock().unwrap();
    worker.journal.as_mut().unwrap().reopen_read_only().unwrap();
    drop(worker);
    client.encode(&request(1), &mut reply).unwrap();
    // ...so evicting it for session B loses state no disk holds.
    client.encode(&request(2), &mut reply).unwrap();
    let totals = engine.metrics().totals();
    assert_eq!(totals.sessions_evicted, 1);
    assert_eq!(totals.sessions_evicted_uncaptured, 1);
    assert!(totals.journal_errors >= 1, "{totals:?}");
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_inline_drain_runs_passes_until_its_own_job_has_run() {
    // More jobs are queued ahead of the draining client's own job than
    // one pass takes, and nobody was woken for its job: the drain must
    // keep running passes until that job has run.
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 64,
        max_payload: 1 << 16,
        ..ServiceConfig::default()
    });
    let shared = engine.shared();
    let payload = pseudo_random(4 * 8, 0x1A1);
    let request = |session_id| EncodeRequest {
        session_id,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: true,
        verify: VerifyMode::Off,
        payload: &payload,
    };
    // Hold the shard the way an inline client does.
    let mut worker = shared.shards[0].lock().unwrap();
    let ahead: Vec<_> = (0..2 * (worker::COALESCE_LIMIT as u64 + 1))
        .map(|index| {
            let slot = RequestSlot::new();
            let request = request(0x100 + index);
            let (shard, key) = shared.prepare(&request, None).unwrap();
            shared
                .submit_slot(shard, key, &request, None, &slot)
                .unwrap();
            slot
        })
        .collect();
    let own = RequestSlot::new();
    let (shard, key) = shared.prepare(&request(1), None).unwrap();
    shared
        .enqueue(shard, key, &request(1), None, &own, false)
        .unwrap();
    worker.drain(shared, Some(&own));

    let phase = |slot: &RequestSlot| slot.state.lock().unwrap().phase;
    assert_eq!(phase(&own), Phase::Done);
    assert!(ahead.iter().all(|slot| phase(slot) == Phase::Done));
    let totals = engine.metrics().totals();
    assert_eq!(totals.passes, 3, "{} jobs at 17 per pass", ahead.len() + 1);
    assert_eq!(totals.inline_passes, 1, "only the last pass held its job");
    drop(worker);
    engine.shutdown();
}
