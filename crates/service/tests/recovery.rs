//! Kill-and-restore conformance of the durable session plane.
//!
//! The decodability of a DBI memory-based code lives in the carried
//! per-session [`BusState`]: lose it and every later burst decodes
//! wrong. This test drives half of each session's stream through one
//! engine (snapshotting mid-way, so recovery folds compacted journals
//! *and* the records appended after them), kills it without a shutdown,
//! recovers a second engine from the same persist directory and drives
//! the other half —
//! the concatenated responses must be **bit-identical** to one
//! uninterrupted serial [`BusSession`] run over the whole stream. Runs
//! identically on both dispatch arms (`DBI_FORCE_SCALAR=1` pins the
//! scalar tier; CI runs both).
//!
//! The crash-window tests build persist directories by hand — each state
//! a 3→2 or 2→3 shard change passes through, a legacy store with a
//! `snapshot.bin` before and after a crash mid-migration, a journal with
//! a torn tail — and check that an engine started from each recovers
//! every session bit-identically and keeps it so across further
//! restarts. A start stopped half-way is forced by a directory sitting
//! where a staged journal rewrite would go.
//!
//! A clean shutdown compacts every journal to one record per live
//! session, so the next start folds no journal tail; a kill leaves the
//! tail, which recovery folds to the same states.
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

/// Stops `engine` the way a crash would, as far as its store can tell:
/// it is leaked, never shut down, so no clean-shutdown compaction runs
/// and each journal keeps its tail. Waits first until every served
/// request's record is flushed (a reply can go out before its pass
/// journals); the idle workers write nothing after that.
fn kill(engine: Engine) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let totals = engine.metrics().totals();
        if totals.journal_records >= totals.requests {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "journal never caught up"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::mem::forget(engine);
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

    // First life: drive the first half, snapshotting a quarter of the way
    // in — recovery must fold the compacted journals AND the records
    // appended after the snapshot.
    let engine = Engine::start(config());
    drive(&engine, 0..half / 2, &mut accumulated);
    let status = engine.trigger_snapshot().unwrap();
    assert!(status.configured);
    assert_eq!(status.last_sessions, SESSIONS);
    drive(&engine, half / 2..half, &mut accumulated);
    let saved_before_kill = engine.metrics().totals().transitions_saved;
    // The kill point: every served burst's state is journaled (each pass
    // flushes at its burst boundary), so a crash here loses nothing.
    kill(engine);

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

/// Records in each shard's journal, and the sessions each shard owns.
fn journal_shape(dir: &std::path::Path, engine: &Engine) -> Vec<(usize, usize)> {
    (0..engine.shard_count())
        .map(|shard| {
            let path = dbi_service::persist::journal::journal_path(dir, shard);
            let replay = replay_journal(&path).unwrap().expect("a journal per shard");
            let owned = (0..SESSIONS)
                .filter(|session| engine.shard_of(0x5E55 + session) == shard)
                .count();
            (replay.records.len(), owned)
        })
        .collect()
}

#[test]
fn a_clean_shutdown_compacts_each_journal_to_one_record_per_session() {
    let dir = persist_dir("clean-shutdown");
    let config = || ServiceConfig {
        shards: 2,
        queue_capacity: 16,
        max_payload: 1 << 16,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    };
    let mut accumulated = vec![Accumulated::new(); SESSIONS as usize];
    let third = REQUESTS / 3;

    // A kill keeps each journal's tail: a record per pass, not per
    // session.
    let engine = Engine::start(config());
    drive(&engine, 0..third, &mut accumulated);
    let probe = engine.clone();
    kill(engine);
    for (shard, (records, owned)) in journal_shape(&dir, &probe).into_iter().enumerate() {
        assert!(
            records > owned,
            "shard {shard}: a killed engine's journal keeps its tail ({records} records)"
        );
    }

    // A clean shutdown compacts each journal to exactly one record per
    // session its shard holds, and the restart folds nothing else.
    let engine = Engine::start(config());
    assert_eq!(engine.snapshot_status().restored_sessions, SESSIONS);
    drive(&engine, third..2 * third, &mut accumulated);
    engine.shutdown();
    assert_eq!(engine.metrics().totals().journal_errors, 0);
    for (shard, (records, owned)) in journal_shape(&dir, &engine).into_iter().enumerate() {
        assert_eq!(records, owned, "shard {shard}: one record per live session");
    }
    let fold = journal_fold(&dir);
    assert_eq!(fold.len(), SESSIONS as usize);
    drop(engine);

    // The compacted journals carry every session on bit-identically.
    let engine = Engine::start(config());
    assert_eq!(engine.snapshot_status().restored_sessions, SESSIONS);
    drive(&engine, 2 * third..REQUESTS, &mut accumulated);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_matches_serial(&accumulated);
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
    // A cold start writes nothing: no snapshot, no compaction.
    assert_eq!(status.snapshots_taken, 0);
    assert_eq!(status.compactions, 0);
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
    assert_eq!(after_snapshot.snapshots_taken, 1);
    // One compaction per shard.
    assert_eq!(after_snapshot.compactions, 2);
    assert_eq!(after_snapshot.last_sessions, 2);
    let on_disk: u64 = (0..2)
        .map(|shard| {
            let path = dbi_service::persist::journal::journal_path(&dir, shard);
            std::fs::metadata(path).unwrap().len()
        })
        .sum();
    assert_eq!(after_snapshot.last_bytes, on_disk);

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
    // A directory where the snapshot stages the journal's rewrite makes
    // that create fail (EISDIR, which no privilege bypasses). The
    // snapshot answers a typed error and leaves the journal in place;
    // the failure is counted and the data path keeps serving
    // bit-identical replies.
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
    std::fs::create_dir(journal.with_extension("bin.compact")).unwrap();
    // The last pass may still be appending (replies go out before their
    // records are written), so "untouched" means: not rewritten, only
    // appended to.
    let before = std::fs::read(&journal).unwrap();
    assert!(matches!(
        engine.trigger_snapshot(),
        Err(dbi_service::ServiceError::Persistence { .. })
    ));
    assert!(std::fs::read(&journal).unwrap().starts_with(&before));
    assert_eq!(engine.snapshot_status().snapshots_taken, 0);
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

// ---------------------------------------------------------------------
// Crash windows: hand-built directories for every state engine start
// passes through while it re-shards, heals or migrates a store.
// ---------------------------------------------------------------------

use dbi_core::persist::push_session_record;
use dbi_core::BusState;
use dbi_service::persist::journal::{journal_files, journal_path, replay_journal, JournalWriter};
use dbi_service::persist::snapshot::snapshot_path;
use dbi_service::RestoredSession;
use std::collections::BTreeMap;
use std::path::Path;

/// The newest record of every session in `dir`'s journals, folded in
/// name order as recovery folds them.
fn journal_fold(dir: &Path) -> BTreeMap<u64, RestoredSession> {
    let mut folded = BTreeMap::new();
    for path in journal_files(dir).unwrap() {
        if let Some(replay) = replay_journal(&path).unwrap() {
            for record in replay.records {
                folded.insert(record.session_id, record);
            }
        }
    }
    folded
}

/// Appends `sessions` to `dir`'s journal of `shard` (created at
/// `generation` when missing), then, when `torn`, half a record more: a
/// kill mid-append.
fn append_records(
    dir: &Path,
    shard: usize,
    generation: u64,
    sessions: &[&RestoredSession],
    torn: bool,
) {
    let path = journal_path(dir, shard);
    if !path.exists() {
        drop(JournalWriter::create(path.clone(), generation).unwrap());
    }
    let mut bytes = std::fs::read(&path).unwrap();
    for session in sessions {
        push_session_record(
            &mut bytes,
            session.session_id,
            session.scheme,
            session.burst_len,
            &session.states,
        );
    }
    if torn {
        let mut record = Vec::new();
        push_session_record(&mut record, 0x7042, Scheme::Dc, 8, &[BusState::idle()]);
        bytes.extend_from_slice(&record[..record.len() / 2]);
    }
    std::fs::write(&path, bytes).unwrap();
}

/// Replaces `dir`'s journal of `shard` with exactly `sessions`.
fn rewrite_records(dir: &Path, shard: usize, generation: u64, sessions: &[&RestoredSession]) {
    let _ = std::fs::remove_file(journal_path(dir, shard));
    append_records(dir, shard, generation, sessions, false);
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The shard each of `sessions` belongs to on a `shards`-shard engine.
fn owners(shards: usize, sessions: &BTreeMap<u64, RestoredSession>) -> Vec<Vec<&RestoredSession>> {
    let engine = Engine::start(ServiceConfig {
        shards,
        queue_capacity: 8,
        ..ServiceConfig::default()
    });
    let mut owned = vec![Vec::new(); shards];
    for session in sessions.values() {
        owned[engine.shard_of(session.session_id)].push(session);
    }
    engine.shutdown();
    owned
}

fn durable(dir: &Path, shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        queue_capacity: 16,
        max_payload: 1 << 16,
        persist: Some(PersistConfig {
            dir: dir.to_path_buf(),
        }),
        ..ServiceConfig::default()
    }
}

/// Makes the staged rewrite of `dir`'s journal of `shard` fail: a
/// directory sits where it would be created.
fn block_rewrite(dir: &Path, shard: usize) -> PathBuf {
    let blocker = journal_path(dir, shard).with_extension("bin.compact");
    std::fs::create_dir(&blocker).unwrap();
    blocker
}

/// A start from `dir` that fails on `blocker`, then starts that succeed
/// once it is removed: the state the failed start left behind is a crash
/// window like any other.
fn start_fails_on(dir: &Path, shards: usize, blocker: &Path) {
    let err = Engine::try_start(durable(dir, shards)).unwrap_err();
    assert!(
        matches!(err, dbi_service::ServiceError::Persistence { .. }),
        "{err}"
    );
    std::fs::remove_dir(blocker).unwrap();
}

/// Starts a `shards`-shard engine on `dir`, which must recover every
/// session, drives the second half of the streams over two further lives
/// and checks the whole run against the serial reference.
fn finish_from(dir: &Path, shards: usize, first_half: &[Accumulated], case: &str) {
    // Names the case in a failing run's captured output.
    eprintln!("case: {case}");
    let mut accumulated = first_half.to_vec();
    let engine = Engine::start(durable(dir, shards));
    assert_eq!(
        engine.snapshot_status().restored_sessions,
        SESSIONS,
        "{case}: every session must come back"
    );
    assert!(!snapshot_path(dir).exists(), "{case}");
    drive(&engine, REQUESTS / 2..REQUESTS * 3 / 4, &mut accumulated);
    engine.shutdown();
    drop(engine);
    // One journal per shard, each holding only its own sessions.
    let files = journal_files(dir).unwrap();
    assert_eq!(files.len(), shards, "{case}: {files:?}");
    let engine = Engine::start(durable(dir, shards));
    for (shard, path) in files.iter().enumerate() {
        assert_eq!(*path, journal_path(dir, shard), "{case}");
        let replay = replay_journal(path).unwrap().unwrap();
        assert_eq!(replay.dropped_bytes, 0, "{case}");
        for record in &replay.records {
            assert_eq!(engine.shard_of(record.session_id), shard, "{case}");
        }
    }
    drive(&engine, REQUESTS * 3 / 4..REQUESTS, &mut accumulated);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    assert_matches_serial(&accumulated);
}

/// A store written by a `from`-shard engine over the first half of the
/// streams, and the replies that half got.
fn first_half_store(tag: &str, from: usize) -> (PathBuf, Vec<Accumulated>) {
    let store = persist_dir(tag);
    let mut accumulated = vec![Accumulated::new(); SESSIONS as usize];
    let engine = Engine::start(durable(&store, from));
    drive(&engine, 0..REQUESTS / 2, &mut accumulated);
    engine.shutdown();
    (store, accumulated)
}

/// A point a start that changes the shard count can crash at. Step 1
/// makes each live journal a superset: its records plus its shard's
/// sessions. Step 2 removes defunct journals. Step 3 rewrites each
/// journal down to its shard's sessions.
#[derive(Debug, Clone, Copy)]
enum Window {
    AsLeft,
    Torn,
    Step1Through(usize),
    Step2,
    Step3Through(usize),
}

/// Builds `window` by hand in `dir`, a copy of a `from`-shard store whose
/// sessions the `to`-shard engine assigns as `owned`.
fn build_window(dir: &Path, window: Window, owned: &[Vec<&RestoredSession>], from: usize) {
    let to = owned.len();
    match window {
        Window::AsLeft => {}
        Window::Torn => append_records(dir, 0, 0, &[], true),
        Window::Step1Through(last) => {
            for (shard, sessions) in owned.iter().enumerate().take(last + 1) {
                append_records(dir, shard, 0, sessions, false);
            }
        }
        Window::Step2 => {
            build_window(dir, Window::Step1Through(to - 1), owned, from);
            for shard in to..from {
                std::fs::remove_file(journal_path(dir, shard)).unwrap();
            }
        }
        Window::Step3Through(last) => {
            build_window(dir, Window::Step2, owned, from);
            for (shard, sessions) in owned.iter().enumerate().take(last + 1) {
                rewrite_records(dir, shard, 0, sessions);
            }
        }
    }
}

/// Every state a change from `from` to `to` shards passes through, built
/// by hand from a `from`-shard store, and starts stopped half-way by a
/// blocked rewrite: each must recover every session bit-identically.
fn reshard_crash_windows(tag: &str, from: usize, to: usize) {
    let (store, first_half) = first_half_store(tag, from);
    let folded = journal_fold(&store);
    assert_eq!(folded.len() as u64, SESSIONS);
    let owned = owners(to, &folded);
    let case_dir = persist_dir(&format!("{tag}-case"));

    let mut windows = vec![Window::AsLeft, Window::Torn, Window::Step2];
    for last in 0..to {
        windows.extend([Window::Step1Through(last), Window::Step3Through(last)]);
    }
    for window in windows {
        copy_dir(&store, &case_dir);
        build_window(&case_dir, window, &owned, from);
        finish_from(
            &case_dir,
            to,
            &first_half,
            &format!("{from}→{to}, {window:?}"),
        );
    }

    // Starts stopped by a blocked rewrite of each shard's journal in turn.
    for shard in 0..to {
        copy_dir(&store, &case_dir);
        let blocker = block_rewrite(&case_dir, shard);
        start_fails_on(&case_dir, to, &blocker);
        let case = format!("{from}→{to}, start stopped at shard {shard}'s rewrite");
        finish_from(&case_dir, to, &first_half, &case);
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn three_to_two_shard_change_survives_a_crash_in_every_window() {
    reshard_crash_windows("reshard-3-2", 3, 2);
}

#[test]
fn two_to_three_shard_change_survives_a_crash_in_every_window() {
    reshard_crash_windows("reshard-2-3", 2, 3);
}

#[test]
fn a_torn_journal_is_healed_before_start_appends_to_it() {
    let (store, first_half) = first_half_store("torn-tail", 2);
    // A kill mid-append: half a record at the end of shard 0's journal.
    let untorn = std::fs::read(journal_path(&store, 1)).unwrap();
    append_records(&store, 0, 0, &[], true);
    assert!(
        replay_journal(&journal_path(&store, 0))
            .unwrap()
            .unwrap()
            .dropped_bytes
            > 0
    );

    // Start rewrites the torn journal as its own fold and leaves the
    // other one as it is; the next lives append to both, and every record
    // they append must survive the next restart.
    let engine = Engine::start(durable(&store, 2));
    let healed = replay_journal(&journal_path(&store, 0)).unwrap().unwrap();
    assert_eq!(healed.dropped_bytes, 0);
    assert_eq!(std::fs::read(journal_path(&store, 1)).unwrap(), untorn);
    assert_eq!(engine.snapshot_status().compactions, 0);
    engine.shutdown();
    drop(engine);
    finish_from(&store, 2, &first_half, "torn tail");
}

/// A store from a build that still wrote `snapshot.bin`: the golden
/// snapshot (generation 41) and journal (42), the journal moved on for
/// two sessions and torn at its end, plus a stale generation-7 journal
/// whose records the snapshot supersedes.
fn legacy_store(dir: &Path) -> BTreeMap<u64, RestoredSession> {
    let (snapshot, journal) = golden_images();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(snapshot_path(dir), snapshot).unwrap();
    std::fs::write(journal_path(dir, 0), journal).unwrap();
    let mut newest = journal_fold(dir);
    assert_eq!(newest.len(), Scheme::paper_set().len());
    let moved: Vec<RestoredSession> = newest
        .values()
        .step_by(2)
        .map(|session| RestoredSession {
            states: session.states.iter().map(|s| flip(*s)).collect(),
            ..session.clone()
        })
        .collect();
    let moved_refs: Vec<&RestoredSession> = moved.iter().collect();
    append_records(dir, 0, 0, &moved_refs, true);
    let stale: Vec<RestoredSession> = newest
        .values()
        .map(|session| RestoredSession {
            states: vec![BusState::idle(); session.states.len()],
            ..session.clone()
        })
        .collect();
    append_records(dir, 1, 7, &stale.iter().collect::<Vec<_>>(), false);
    for session in moved {
        newest.insert(session.session_id, session);
    }
    newest
}

/// `state` with its data lanes inverted.
fn flip(state: BusState) -> BusState {
    BusState::new(dbi_core::LaneWord::new(state.last().bits() ^ 0x0FF).unwrap())
}

/// The checked-in golden snapshot and journal images.
fn golden_images() -> (Vec<u8>, Vec<u8>) {
    let doc = include_str!("../../conformance/vectors/persist_v1.hex");
    let mut images = doc.split("\n\n").map(|block| {
        let hex: String = block.split_whitespace().collect();
        (0..hex.len())
            .step_by(2)
            .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).unwrap())
            .collect::<Vec<u8>>()
    });
    (images.next().unwrap(), images.next().unwrap())
}

/// Starts a `shards`-shard engine on `dir` and checks that every one of
/// `expected` continues bit-identically from its recovered state, over
/// this life and the next.
fn continue_legacy_sessions(dir: &Path, expected: &BTreeMap<u64, RestoredSession>, case: &str) {
    let mut references: Vec<(&RestoredSession, BusSession)> = expected
        .values()
        .map(|session| {
            let mut reference = BusSession::with_geometry(
                usize::from(session.groups),
                usize::from(session.burst_len),
                session.scheme,
            );
            reference.import_states(&session.states);
            (session, reference)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x1E6A);
    for life in 0..2 {
        let engine = Engine::start(durable(dir, 3));
        assert!(!snapshot_path(dir).exists(), "{case}");
        if life == 0 {
            let status = engine.snapshot_status();
            assert_eq!(status.restored_sessions, expected.len() as u64, "{case}");
        }
        let mut client = engine.local_client();
        let mut reply = EncodeReply::new();
        for (session, reference) in &mut references {
            let len = usize::from(session.groups) * usize::from(session.burst_len) * 3;
            let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            client
                .encode(
                    &EncodeRequest {
                        session_id: session.session_id,
                        scheme: session.scheme,
                        cost_model: CostModel::Inline,
                        groups: session.groups,
                        burst_len: session.burst_len,
                        want_masks: true,
                        verify: VerifyMode::RoundTrip,
                        payload: &payload,
                    },
                    &mut reply,
                )
                .unwrap();
            let (mut per_group, mut masks) = (Vec::new(), Vec::new());
            reference
                .encode_stream_into(&payload, &mut per_group, Some(&mut masks))
                .unwrap();
            let id = session.session_id;
            assert_eq!(reply.per_group, per_group, "{case}: session {id:x}");
            assert_eq!(reply.masks, masks, "{case}: session {id:x}");
        }
        drop(client);
        engine.shutdown();
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_legacy_snapshot_store_migrates_once_even_across_a_crash() {
    let dir = persist_dir("legacy");
    let expected = legacy_store(&dir);
    continue_legacy_sessions(&dir, &expected, "legacy store");

    // Stopped at shard 2's rewrite, after healing the torn journal 0 and
    // writing shard 1's: the snapshot is still there, so the journals
    // written so far must carry a generation its rule accepts.
    legacy_store(&dir);
    let blocker = block_rewrite(&dir, 2);
    start_fails_on(&dir, 3, &blocker);
    assert!(snapshot_path(&dir).exists());
    continue_legacy_sessions(&dir, &expected, "crash in step 1");

    // By hand: step 1 done (journal 0 healed, the stale journal gone,
    // every journal a superset at generation 42), with and without the
    // snapshot step 2 deletes.
    let owned = owners(3, &expected);
    for snapshot_deleted in [false, true] {
        legacy_store(&dir);
        std::fs::remove_file(journal_path(&dir, 1)).unwrap();
        let replay = replay_journal(&journal_path(&dir, 0)).unwrap().unwrap();
        std::fs::remove_file(journal_path(&dir, 0)).unwrap();
        append_records(
            &dir,
            0,
            42,
            &replay.records.iter().collect::<Vec<_>>(),
            false,
        );
        for (shard, sessions) in owned.iter().enumerate() {
            append_records(&dir, shard, 42, sessions, false);
        }
        if snapshot_deleted {
            std::fs::remove_file(snapshot_path(&dir)).unwrap();
        }
        continue_legacy_sessions(&dir, &expected, "step 1 done by hand");
    }
}
