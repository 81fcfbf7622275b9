//! Kill-and-restore conformance of the durable session plane.
//!
//! The decodability of a DBI memory-based code lives in the carried
//! per-session [`BusState`]: lose it and every later burst decodes
//! wrong. This test drives half of each session's stream through one
//! engine (snapshotting mid-way so recovery has to fold snapshot *and*
//! journal), kills it, recovers a second engine from the same persist
//! directory and drives the other half — the concatenated responses must
//! be **bit-identical** to one uninterrupted serial [`BusSession`] run
//! over the whole stream. Runs identically on both dispatch arms
//! (`DBI_FORCE_SCALAR=1` pins the scalar tier; CI runs both).
//!
//! Also covers the durability admin surface end to end: snapshot /
//! status / restore frames over a real socket, and the typed refusal
//! when the engine runs without a persist directory.

use dbi_core::{CostBreakdown, InversionMask, Scheme};
use dbi_mem::BusSession;
use dbi_service::{
    CostModel, EncodeReply, EncodeRequest, Engine, PersistConfig, ServiceConfig, TcpClient,
    TcpServer, VerifyMode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const GROUPS: u16 = 4;
const BURST_LEN: u8 = 8;
const SESSIONS: u64 = 6;
const REQUESTS: usize = 24;
const ACCESSES_PER_REQUEST: usize = 4;

fn persist_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbi-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session_stream(session: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0xBEEF + session);
    let len = usize::from(GROUPS) * usize::from(BURST_LEN) * ACCESSES_PER_REQUEST * REQUESTS;
    (0..len).map(|_| rng.gen()).collect()
}

fn session_scheme(session: u64) -> Scheme {
    // Mix schemes so recovery restores heterogeneous sessions.
    let set = Scheme::paper_set();
    set[session as usize % set.len()]
}

/// Per-session accumulated responses: summed per-group activity plus the
/// concatenated mask stream.
#[derive(Clone)]
struct Accumulated {
    per_group: Vec<CostBreakdown>,
    masks: Vec<InversionMask>,
    bursts: u64,
}

impl Accumulated {
    fn new() -> Self {
        Accumulated {
            per_group: vec![CostBreakdown::ZERO; usize::from(GROUPS)],
            masks: Vec::new(),
            bursts: 0,
        }
    }
}

/// Drives requests `range` of every session through the engine,
/// round-robin across sessions so several shards stay busy at once.
fn drive(engine: &Engine, range: std::ops::Range<usize>, into: &mut [Accumulated]) {
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let chunk = usize::from(GROUPS) * usize::from(BURST_LEN) * ACCESSES_PER_REQUEST;
    for index in range {
        for session in 0..SESSIONS {
            let data = session_stream(session);
            let piece = &data[index * chunk..(index + 1) * chunk];
            client
                .encode(
                    &EncodeRequest {
                        session_id: 0x5E55 + session,
                        scheme: session_scheme(session),
                        cost_model: CostModel::Inline,
                        groups: GROUPS,
                        burst_len: BURST_LEN,
                        want_masks: true,
                        verify: VerifyMode::RoundTrip,
                        payload: piece,
                    },
                    &mut reply,
                )
                .unwrap_or_else(|err| panic!("session {session} request {index}: {err}"));
            let acc = &mut into[session as usize];
            acc.bursts += reply.bursts;
            for (total, piece) in acc.per_group.iter_mut().zip(&reply.per_group) {
                *total += *piece;
            }
            acc.masks.extend_from_slice(&reply.masks);
        }
    }
}

/// Every session's accumulated replies must equal one uninterrupted
/// serial [`BusSession`] run over its whole stream.
fn assert_matches_serial(accumulated: &[Accumulated]) {
    for (session, got) in accumulated.iter().enumerate() {
        let data = session_stream(session as u64);
        let mut reference = BusSession::with_geometry(
            usize::from(GROUPS),
            usize::from(BURST_LEN),
            session_scheme(session as u64),
        );
        let mut expected_per_group = Vec::new();
        let mut expected_masks = Vec::new();
        let expected_bursts = reference
            .encode_stream_into(&data, &mut expected_per_group, Some(&mut expected_masks))
            .unwrap();
        assert_eq!(got.bursts, expected_bursts, "session {session}: bursts");
        assert_eq!(
            got.per_group, expected_per_group,
            "session {session}: per-group activity diverged across the kill"
        );
        assert_eq!(
            got.masks, expected_masks,
            "session {session}: mask stream diverged across the kill"
        );
    }
}

#[test]
fn kill_and_restore_replay_is_bit_identical_to_serial() {
    let dir = persist_dir("conformance");
    let config = || ServiceConfig {
        shards: 3,
        queue_capacity: 16,
        max_payload: 1 << 16,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    };
    let mut accumulated = vec![Accumulated::new(); SESSIONS as usize];
    let half = REQUESTS / 2;

    // First life: drive the first half, snapshotting a third of the way
    // in — recovery must fold the snapshot AND the journal records
    // written after it.
    let engine = Engine::start(config());
    drive(&engine, 0..half / 2, &mut accumulated);
    let status = engine.trigger_snapshot().unwrap();
    assert!(status.configured);
    assert_eq!(status.last_sessions, SESSIONS);
    drive(&engine, half / 2..half, &mut accumulated);
    let saved_before_kill = engine.metrics().totals().transitions_saved;
    // The kill point: every served burst's state is already journaled
    // (the worker flushes at each burst boundary), so a crash here loses
    // nothing. Shutdown stands in for the kill.
    engine.shutdown();
    drop(engine);

    // Second life: recover from the same directory and finish the
    // streams on the carried state the journals preserved.
    let engine = Engine::start(config());
    let status = engine.snapshot_status();
    assert_eq!(
        status.restored_sessions, SESSIONS,
        "every session must come back"
    );
    drive(&engine, half..REQUESTS, &mut accumulated);
    let saved_after_restore = engine.metrics().totals().transitions_saved;
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_matches_serial(&accumulated);

    // The transitions-saved metric survives the restore too: both lives
    // together count exactly what one uninterrupted engine counts over the
    // same streams.
    let engine = Engine::start(ServiceConfig {
        persist: None,
        ..config()
    });
    drive(
        &engine,
        0..REQUESTS,
        &mut vec![Accumulated::new(); SESSIONS as usize],
    );
    let uninterrupted = engine.metrics().totals().transitions_saved;
    engine.shutdown();
    assert_eq!(
        saved_before_kill + saved_after_restore,
        uninterrupted,
        "transitions saved drifted across the kill"
    );
}

#[test]
fn admin_frames_round_trip_over_tcp() {
    let dir = persist_dir("admin");
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 8,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.addr()).unwrap();

    let status = client.snapshot_status().unwrap();
    assert!(status.configured);
    // Startup self-compaction wrote the initial snapshot.
    assert!(status.snapshots_taken >= 1);
    assert_eq!(status.restored_sessions, 0);

    // Put two sessions on the wire, snapshot them, pull them back.
    let payload = [0x5Au8; 64];
    let mut reply = EncodeReply::new();
    for session_id in [1u64, 2] {
        client
            .encode(
                &EncodeRequest {
                    session_id,
                    scheme: Scheme::OptFixed,
                    cost_model: CostModel::Inline,
                    groups: GROUPS,
                    burst_len: BURST_LEN,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    payload: &payload,
                },
                &mut reply,
            )
            .unwrap();
    }
    let after_snapshot = client.trigger_snapshot().unwrap();
    assert!(after_snapshot.snapshots_taken > status.snapshots_taken);
    assert!(after_snapshot.generation > status.generation);
    assert_eq!(after_snapshot.last_sessions, 2);
    assert!(after_snapshot.last_bytes > 0);

    let after_restore = client.restore().unwrap();
    assert_eq!(after_restore.restored_sessions, 2);

    // The durability state shows up in the metrics JSON too.
    let json = client.metrics_json().unwrap();
    assert!(
        json.contains("\"durability\":{\"configured\":true"),
        "{json}"
    );

    drop(client);
    server.shutdown();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admin_frames_without_persistence_are_refused_typed() {
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = TcpClient::connect(server.addr()).unwrap();

    // Status always answers; configured is simply false.
    let status = client.snapshot_status().unwrap();
    assert!(!status.configured);
    assert_eq!(status.snapshots_taken, 0);

    for result in [client.trigger_snapshot(), client.restore()] {
        match result {
            Err(dbi_service::ClientError::Remote { code, message }) => {
                assert_eq!(code, dbi_service::wire::ErrorCode::BadRequest);
                assert!(message.contains("persist"), "{message}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    // The connection survived the refusals: ordinary requests still work.
    let payload = [0x11u8; 32];
    let mut reply = EncodeReply::new();
    client
        .encode(
            &EncodeRequest {
                session_id: 9,
                scheme: Scheme::Dc,
                cost_model: CostModel::Inline,
                groups: GROUPS,
                burst_len: BURST_LEN,
                want_masks: false,
                verify: VerifyMode::Off,
                payload: &payload,
            },
            &mut reply,
        )
        .unwrap();

    drop(client);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn journal_create_failures_are_counted_and_requests_still_served() {
    // Replacing the live journal file with a directory makes the next
    // rotation's re-create fail (EISDIR, which no privilege bypasses).
    // Journaling degrades, but the failure is counted and the data path
    // keeps serving bit-identical replies.
    let dir = persist_dir("journal-errors");
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 16,
        max_payload: 1 << 16,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    });
    let mut accumulated = vec![Accumulated::new(); SESSIONS as usize];
    drive(&engine, 0..2, &mut accumulated);
    assert_eq!(engine.metrics().per_shard[0].journal_errors, 0);

    let journal = dbi_service::persist::journal::journal_path(&dir, 0);
    std::fs::remove_file(&journal).unwrap();
    std::fs::create_dir(&journal).unwrap();
    engine.trigger_snapshot().unwrap();
    let metrics = engine.metrics();
    assert_eq!(metrics.per_shard[0].journal_errors, 1);
    assert!(metrics.to_json().contains("\"errors\":1}"));
    assert!(metrics
        .to_prometheus()
        .contains("dbi_journal_errors_total{shard=\"0\"} 1\n"));

    drive(&engine, 2..REQUESTS, &mut accumulated);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_serial(&accumulated);
}

#[test]
fn a_compacted_journal_recovers_the_states_served() {
    // Enough one-access passes to push the shard's journal past the
    // compaction floor: the worker rewrites it as one record per session
    // mid-run, and an engine recovered from the compacted journal carries
    // on exactly where a serial session would. Session 0 goes quiet after
    // the first passes, so only the compacted record carries its state.
    use dbi_service::persist::journal::{journal_path, JOURNAL_COMPACT_FLOOR};
    let dir = persist_dir("compaction");
    let config = ServiceConfig {
        shards: 1,
        queue_capacity: 16,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    };
    let schemes = [Scheme::OptFixed, Scheme::Dc];
    let mut serial = schemes.map(|scheme| BusSession::with_geometry(1, 4, scheme));
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    let mut expected = (Vec::new(), Vec::new());
    let mut reply = EncodeReply::new();
    let request = |engine: &Engine, session: usize, payload: &[u8], reply: &mut EncodeReply| {
        engine
            .local_client()
            .encode(
                &EncodeRequest {
                    session_id: 0xC0 + session as u64,
                    scheme: schemes[session],
                    cost_model: CostModel::Inline,
                    groups: 1,
                    burst_len: 4,
                    want_masks: true,
                    verify: VerifyMode::Off,
                    payload,
                },
                reply,
            )
            .unwrap();
    };

    let engine = Engine::start(config.clone());
    // A one-group record is 34 bytes: 33k passes journal past 1 MiB.
    for pass in 0..33_000 {
        let session = if pass < 100 { pass % 2 } else { 1 };
        let payload = rng.gen::<u32>().to_le_bytes();
        serial[session]
            .encode_stream_into(&payload, &mut expected.0, Some(&mut expected.1))
            .unwrap();
        request(&engine, session, &payload, &mut reply);
    }
    assert_eq!(engine.metrics().per_shard[0].journal_errors, 0);
    let journal_len = std::fs::metadata(journal_path(&dir, 0)).unwrap().len();
    assert!(
        journal_len < JOURNAL_COMPACT_FLOOR,
        "33k passes never compacted the journal ({journal_len} bytes)"
    );
    engine.shutdown();
    drop(engine);

    let engine = Engine::start(config);
    for (session, serial) in serial.iter_mut().enumerate() {
        let payload = rng.gen::<u32>().to_le_bytes();
        serial
            .encode_stream_into(&payload, &mut expected.0, Some(&mut expected.1))
            .unwrap();
        request(&engine, session, &payload, &mut reply);
        assert_eq!(reply.per_group, expected.0, "session {session}");
        assert_eq!(reply.masks, expected.1, "session {session}");
    }
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
