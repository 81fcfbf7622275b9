//! Property tests of the durable-state readers, in the style of
//! `wire_props`: a reader handed *any* bytes — truncated at every
//! possible boundary, corrupt magic/version/CRC, oversized length
//! fields, torn mid-record — must answer with a typed error (or, for the
//! journal's deliberately lenient tail, a clean skip), and must never
//! panic. Seeded and deterministic; `DBI_FUZZ_CASES` scales the random
//! engine-recovery sweep the same way it scales the conformance fuzz.

use dbi_core::persist::{
    crc32, parse_session_record, push_session_record, session_record_len, RecordError,
    MAX_RECORD_BODY, RECORD_BODY_HEAD_LEN, RECORD_MAGIC, RECORD_VERSION,
};
use dbi_core::{BusState, CostWeights, LaneWord, Scheme};
use dbi_service::persist::journal::{
    self, JournalReader, JournalWriter, JOURNAL_CHUNK, JOURNAL_HEAD_LEN,
};
use dbi_service::persist::snapshot::{encode_snapshot, parse_snapshot};
use dbi_service::persist::PersistError;
use dbi_service::{
    CostModel, EncodeReply, EncodeRequest, Engine, PersistConfig, ServiceConfig, VerifyMode,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

fn state(raw: u16) -> BusState {
    BusState::new(LaneWord::new(raw).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dbi-persist-props-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fuzz_cases(default: usize) -> usize {
    std::env::var("DBI_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn session_records_reject_every_truncation_and_bit_flip_typed() {
    let mut bytes = Vec::new();
    let states: Vec<BusState> = (0..16u16).map(|g| state(g * 3 % 0x200)).collect();
    push_session_record(
        &mut bytes,
        0xFEED_F00D,
        Scheme::Opt(CostWeights::new(3, 2).unwrap()),
        16,
        &states,
    );
    let (view, consumed) = parse_session_record(&bytes).unwrap();
    assert_eq!(consumed, bytes.len());
    assert_eq!(view.session_id, 0xFEED_F00D);
    assert_eq!(view.group_count(), 16);

    // Every possible truncation is a typed Truncated, never a panic.
    for len in 0..bytes.len() {
        match parse_session_record(&bytes[..len]) {
            Err(RecordError::Truncated { needed, got }) => {
                assert_eq!(got, len);
                assert!(needed > len, "needed {needed} must exceed the {len} given");
            }
            other => panic!("truncation at {len} answered {other:?}"),
        }
    }

    // Every single-bit flip is refused typed. The one exception is the
    // reserved header byte, which carries no meaning yet and is allowed
    // to pass.
    for index in 0..bytes.len() {
        for bit in 0..8 {
            let mut copy = bytes.clone();
            copy[index] ^= 1 << bit;
            if parse_session_record(&copy).is_ok() {
                assert_eq!(index, 3, "a flip at byte {index} bit {bit} parsed silently");
            }
        }
    }
}

#[test]
fn oversized_record_lengths_are_refused_before_anything_trusts_them() {
    for announced in [MAX_RECORD_BODY as u32 + 1, u32::MAX] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&RECORD_MAGIC);
        bytes.push(RECORD_VERSION);
        bytes.push(0);
        bytes.extend_from_slice(&announced.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]); // CRC, never reached
        match parse_session_record(&bytes) {
            Err(RecordError::Oversized { got, max }) => {
                assert_eq!(got, announced as usize);
                assert_eq!(max, MAX_RECORD_BODY);
            }
            other => panic!("announced body of {announced} answered {other:?}"),
        }
    }
}

#[test]
fn snapshot_reader_is_strict_and_typed_at_every_corruption() {
    let mut records = Vec::new();
    push_session_record(&mut records, 1, Scheme::OptFixed, 8, &[state(0x1A5)]);
    push_session_record(
        &mut records,
        2,
        Scheme::Dc,
        16,
        &[state(0x0FF), state(0x100)],
    );
    push_session_record(&mut records, 3, Scheme::Ac, 4, &[state(0x003)]);
    let image = encode_snapshot(7, 3, &records);

    let parsed = parse_snapshot(&image).unwrap();
    assert_eq!(parsed.generation, 7);
    assert_eq!(parsed.sessions.len(), 3);
    assert_eq!(parsed.sessions[1].states.len(), 2);

    // Strict reader: every truncation point is a typed Truncated.
    for len in 0..image.len() {
        match parse_snapshot(&image[..len]) {
            Err(PersistError::Truncated { got, .. }) => assert_eq!(got, len),
            other => panic!("truncation at {len} answered {other:?}"),
        }
    }

    // Corrupt magic, version, header CRC: each its own refusal.
    let mut bad = image.clone();
    bad[0] ^= 0x40;
    assert!(matches!(
        parse_snapshot(&bad),
        Err(PersistError::BadMagic(_))
    ));
    let mut bad = image.clone();
    bad[4] = 9;
    assert!(matches!(
        parse_snapshot(&bad),
        Err(PersistError::UnsupportedVersion(9))
    ));
    let mut bad = image.clone();
    bad[18] ^= 1;
    assert!(matches!(
        parse_snapshot(&bad),
        Err(PersistError::BadHeaderCrc { .. })
    ));

    // A count field disagreeing with the records present (with a *valid*
    // header CRC, so only the count is wrong): too many wants bytes the
    // file does not have, too few leaves trailing bytes. Both refused.
    let overcounted = encode_snapshot(7, 4, &records);
    assert!(matches!(
        parse_snapshot(&overcounted),
        Err(PersistError::Truncated { .. })
    ));
    let undercounted = encode_snapshot(7, 2, &records);
    assert!(matches!(
        parse_snapshot(&undercounted),
        Err(PersistError::TrailingBytes(_))
    ));
    let mut padded = image.clone();
    padded.push(0);
    assert!(matches!(
        parse_snapshot(&padded),
        Err(PersistError::TrailingBytes(1))
    ));

    // Random mutations: any byte soup answers Ok or a typed error.
    let mut rng = StdRng::seed_from_u64(0x05EE_D5A9);
    for _ in 0..fuzz_cases(200) {
        let mut copy = image.clone();
        for _ in 0..rng.gen_range(1usize..8) {
            let at = rng.gen_range(0..copy.len());
            copy[at] = rng.gen();
        }
        if rng.gen_bool(0.3) {
            copy.truncate(rng.gen_range(0..copy.len() + 1));
        }
        let _ = parse_snapshot(&copy); // must not panic
    }
}

#[test]
fn journal_replay_skips_torn_tails_and_refuses_bad_headers() {
    let dir = temp_dir("journal");
    let path = journal::journal_path(&dir, 0);
    let mut writer = JournalWriter::create(path.clone(), 9).unwrap();
    // Same geometry for every record, so record boundaries are uniform
    // and the expected replay at any truncation is computable.
    let groups = 4usize;
    for session in 1..=3u64 {
        let states: Vec<BusState> = (0..groups as u16)
            .map(|g| state(g + session as u16))
            .collect();
        writer.append_session(session, Scheme::OptFixed, 8, &states);
    }
    writer.flush().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let record_len = session_record_len(groups);
    assert_eq!(bytes.len(), JOURNAL_HEAD_LEN + 3 * record_len);

    let replay = journal::replay_journal(&path).unwrap().unwrap();
    assert_eq!(replay.generation, 9);
    assert_eq!(replay.records.len(), 3);
    assert_eq!(replay.dropped_bytes, 0);

    // A kill can tear the file at *any* byte. Replay must come back
    // clean every time: complete records kept, the torn tail counted
    // and skipped, a headerless stub treated as absent.
    let torn = dir.join("torn.bin");
    for len in 0..bytes.len() {
        std::fs::write(&torn, &bytes[..len]).unwrap();
        let replayed = journal::replay_journal(&torn).unwrap();
        if len < JOURNAL_HEAD_LEN {
            assert!(
                replayed.is_none(),
                "a headerless stub at {len} must read as absent"
            );
            continue;
        }
        let replayed = replayed.unwrap();
        assert_eq!(replayed.generation, 9);
        assert_eq!(
            replayed.records.len(),
            (len - JOURNAL_HEAD_LEN) / record_len,
            "wrong record count at truncation {len}"
        );
        assert_eq!(
            replayed.dropped_bytes as usize,
            (len - JOURNAL_HEAD_LEN) % record_len,
            "wrong dropped-byte count at truncation {len}"
        );
    }

    // Header corruption is structural — typed refusal, not a skip.
    let bad_path = dir.join("bad.bin");
    let mut bad = bytes.clone();
    bad[0] ^= 0x20;
    std::fs::write(&bad_path, &bad).unwrap();
    assert!(matches!(
        journal::replay_journal(&bad_path),
        Err(PersistError::BadMagic(_))
    ));
    let mut bad = bytes.clone();
    bad[4] = 0xEE;
    std::fs::write(&bad_path, &bad).unwrap();
    assert!(matches!(
        journal::replay_journal(&bad_path),
        Err(PersistError::UnsupportedVersion(0xEE))
    ));
    let mut bad = bytes.clone();
    bad[JOURNAL_HEAD_LEN - 1] ^= 1;
    std::fs::write(&bad_path, &bad).unwrap();
    assert!(matches!(
        journal::replay_journal(&bad_path),
        Err(PersistError::BadHeaderCrc { .. })
    ));

    // Mid-stream record corruption stops the replay at the last good
    // record and counts the rest as dropped — journal records after a
    // torn one cannot be trusted to be aligned.
    let mut bad = bytes.clone();
    bad[JOURNAL_HEAD_LEN + record_len + 20] ^= 0xFF; // inside record 2's body
    std::fs::write(&bad_path, &bad).unwrap();
    let replayed = journal::replay_journal(&bad_path).unwrap().unwrap();
    assert_eq!(replayed.records.len(), 1);
    assert_eq!(replayed.dropped_bytes as usize, 2 * record_len);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// One session's newest journaled state: scheme, burst length and the
/// per-group states.
type LastWins = HashMap<u64, (Scheme, u8, Vec<BusState>)>;

/// Folds `path` through the streaming reader: last record per session
/// wins, plus the generation and the dropped-byte count.
fn fold_last_wins(path: &Path) -> Option<(u64, LastWins, u64)> {
    let reader = JournalReader::open(path).unwrap()?;
    let generation = reader.generation();
    let mut sessions = LastWins::new();
    let dropped = reader
        .fold(|view| {
            sessions.insert(
                view.session_id,
                (view.scheme, view.burst_len, view.states().collect()),
            );
        })
        .unwrap();
    Some((generation, sessions, dropped))
}

/// The same last-wins state computed from `replay_journal`'s records.
fn replay_last_wins(path: &Path) -> Option<(u64, LastWins, u64)> {
    let replay = journal::replay_journal(path).unwrap()?;
    let mut sessions = LastWins::new();
    for record in replay.records {
        sessions.insert(
            record.session_id,
            (record.scheme, record.burst_len, record.states),
        );
    }
    Some((replay.generation, sessions, replay.dropped_bytes))
}

/// A record as written: the offset it ends at, then its contents.
type WrittenRecord = (usize, u64, Scheme, u8, Vec<BusState>);

/// Appends record number `index` of `groups` states: five sessions in
/// turn, schemes and burst lengths varying, states derived from `index`.
fn push_numbered_record(bytes: &mut Vec<u8>, index: usize, groups: usize) -> WrittenRecord {
    let schemes = [Scheme::OptFixed, Scheme::Dc, Scheme::Ac];
    let session = 1 + (index % 5) as u64;
    let scheme = schemes[index % schemes.len()];
    let burst_len = if index.is_multiple_of(2) { 8 } else { 16 };
    let states: Vec<BusState> = (0..groups)
        .map(|g| state(((index * 7 + g * 3) % 0x200) as u16))
        .collect();
    push_session_record(bytes, session, scheme, burst_len, &states);
    (bytes.len(), session, scheme, burst_len, states)
}

#[test]
fn journal_fold_streams_records_across_chunk_boundaries() {
    // A journal a few chunks long, written record by record with the
    // byte offset each record ends at: five sessions appended over and
    // over, so the fold must keep only each one's newest state.
    let mut bytes = journal::encode_journal_header(11).to_vec();
    let mut written: Vec<WrittenRecord> = Vec::new();
    let mut push = |bytes: &mut Vec<u8>, index: usize, groups: usize| {
        written.push(push_numbered_record(bytes, index, groups));
    };
    let record_len = session_record_len(4);
    let mut index = 0;
    // Uniform records up to the first chunk boundary, then one record
    // sized to end exactly on it.
    while JOURNAL_CHUNK - bytes.len() > 2 * record_len {
        push(&mut bytes, index, 4);
        index += 1;
    }
    let filler = (JOURNAL_CHUNK - bytes.len() - session_record_len(0)) / BusState::WIRE_BYTES;
    push(&mut bytes, index, filler);
    index += 1;
    assert_eq!(bytes.len(), JOURNAL_CHUNK, "a record ends on the boundary");
    // Uniform records past the second boundary, which one of them
    // straddles; then a record longer than a whole chunk, and a few more.
    while bytes.len() < 2 * JOURNAL_CHUNK + 4 * record_len {
        push(&mut bytes, index, 4);
        index += 1;
    }
    let huge = (MAX_RECORD_BODY - RECORD_BODY_HEAD_LEN) / BusState::WIRE_BYTES;
    push(&mut bytes, index, huge);
    index += 1;
    assert!(session_record_len(huge) > JOURNAL_CHUNK);
    for _ in 0..8 {
        push(&mut bytes, index, 4);
        index += 1;
    }
    assert!(written.iter().all(|record| record.0 != 2 * JOURNAL_CHUNK));

    // Cut the file at every byte around each chunk boundary, and at the
    // whole length: a record torn exactly at a boundary, a torn record
    // ending on one, whole records ending on one. The stream fold, the
    // replay collector and the written model must agree on the newest
    // state per session, the generation and the dropped bytes.
    let dir = temp_dir("fold");
    let path = journal::journal_path(&dir, 0);
    let window = record_len;
    let mut cuts: Vec<usize> = Vec::new();
    for boundary in [JOURNAL_CHUNK, 2 * JOURNAL_CHUNK, 3 * JOURNAL_CHUNK] {
        cuts.extend(boundary - window..=boundary + window);
    }
    cuts.push(bytes.len());
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut expected = LastWins::new();
        let mut kept = JOURNAL_HEAD_LEN;
        for (end, session, scheme, burst_len, states) in &written {
            if *end > cut {
                break;
            }
            expected.insert(*session, (*scheme, *burst_len, states.clone()));
            kept = *end;
        }
        let (generation, folded, dropped) = fold_last_wins(&path).unwrap();
        assert_eq!(generation, 11, "cut {cut}");
        assert_eq!(folded, expected, "fold state at cut {cut}");
        assert_eq!(
            dropped as usize,
            cut - kept,
            "fold dropped bytes at cut {cut}"
        );
        assert_eq!(
            replay_last_wins(&path).unwrap(),
            (generation, folded, dropped),
            "replay at cut {cut}"
        );
    }
    assert!(written.len() > 3000, "sessions recur many times");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn engine_recovery_never_panics_on_corrupt_stores() {
    // Build one valid store: a few sessions, a snapshot, then more
    // traffic so the journals hold records appended after it.
    let source = temp_dir("fuzz-source");
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 8,
        persist: Some(PersistConfig {
            dir: source.clone(),
        }),
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = [0xA7u8; 64];
    let mut encode = |session_id| {
        client
            .encode(
                &EncodeRequest {
                    session_id,
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
            .unwrap();
    };
    for session in 1..=4u64 {
        encode(session);
    }
    engine.trigger_snapshot().unwrap();
    for session in 3..=6u64 {
        encode(session);
    }
    drop(client);
    engine.shutdown();
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&source)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().into_string().unwrap(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect();
    assert!(files.iter().all(|(name, _)| name.starts_with("journal-")));
    // Plus a legacy snapshot, so the sweep also mangles stores that start
    // migrates: its records at generation 0 continue into the journals.
    let mut records = Vec::new();
    push_session_record(&mut records, 1, Scheme::OptFixed, 8, &[state(0x0AA); 4]);
    push_session_record(&mut records, 7, Scheme::Dc, 8, &[state(0x155); 4]);
    files.push(("snapshot.bin".to_owned(), encode_snapshot(0, 2, &records)));

    // Bounded fuzz smoke: mangle the store, recover, never panic. A
    // recovered engine must serve traffic; a refused store must be a
    // typed error.
    let mut rng = StdRng::seed_from_u64(0xDEAD_10AD);
    let case_dir = temp_dir("fuzz-case");
    for case in 0..fuzz_cases(24) {
        let _ = std::fs::remove_dir_all(&case_dir);
        std::fs::create_dir_all(&case_dir).unwrap();
        for (name, bytes) in &files {
            let mut copy = bytes.clone();
            match rng.gen_range(0u8..4) {
                0 => {} // leave this file intact
                1 => copy.truncate(rng.gen_range(0..copy.len() + 1)),
                2 => {
                    for _ in 0..rng.gen_range(1usize..6) {
                        let at = rng.gen_range(0..copy.len().max(1));
                        if !copy.is_empty() {
                            copy[at] = rng.gen();
                        }
                    }
                }
                _ => continue, // drop the file entirely
            }
            std::fs::write(case_dir.join(name), &copy).unwrap();
        }
        let result = Engine::try_start(ServiceConfig {
            shards: 2,
            queue_capacity: 8,
            persist: Some(PersistConfig {
                dir: case_dir.clone(),
            }),
            ..ServiceConfig::default()
        });
        match result {
            Ok(engine) => {
                // Whatever survived recovery, the engine must serve.
                let mut client = engine.local_client();
                client
                    .encode(
                        &EncodeRequest {
                            session_id: 0x900D + case as u64,
                            scheme: Scheme::OptFixed,
                            cost_model: CostModel::Inline,
                            groups: 4,
                            burst_len: 8,
                            want_masks: false,
                            verify: VerifyMode::RoundTrip,
                            payload: &payload,
                        },
                        &mut reply,
                    )
                    .unwrap();
                drop(client);
                engine.shutdown();
            }
            Err(err) => {
                // Typed refusal; its message renders.
                assert!(!err.to_string().is_empty());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&case_dir);
    let _ = std::fs::remove_dir_all(&source);
}

/// The `crc32` the store trusts matches the well-known IEEE check value,
/// so a record written by this build is readable by any other CRC-32
/// implementation (and vice versa) — the cross-build compatibility the
/// format depends on.
#[test]
fn store_crc_is_ieee_crc32() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}
