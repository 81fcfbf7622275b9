//! Drift check of the durable-store byte formats: the checked-in
//! `vectors/persist_v1.hex` images — a legacy snapshot at generation 41
//! and the journal an older build continued it with at 42 — must match
//! what the format encoders produce today, and must read back through the
//! production parsers. A failing first test means the on-disk format
//! changed — which breaks restore across builds — so the diff must be
//! deliberate.

use dbi_conformance::persist_golden::{
    from_hex_document, golden_journal_image, golden_snapshot_image, to_hex_document,
    CHECKED_IN_PERSIST, PERSIST_GOLDEN_GENERATION,
};
use dbi_core::Scheme;
use dbi_service::persist::journal::replay_journal;
use dbi_service::persist::snapshot::parse_snapshot;

#[test]
fn checked_in_persist_images_match_a_fresh_generation() {
    let (snapshot, journal) = from_hex_document(CHECKED_IN_PERSIST);
    assert_eq!(
        snapshot,
        golden_snapshot_image(),
        "vectors/persist_v1.hex: the snapshot byte format has drifted; \
         regenerate with `cargo run -p dbi-conformance --bin gen_golden` \
         and review the diff — old stores must stay restorable"
    );
    assert_eq!(
        journal,
        golden_journal_image(),
        "vectors/persist_v1.hex: the journal byte format has drifted; \
         regenerate with `cargo run -p dbi-conformance --bin gen_golden` \
         and review the diff — old stores must stay restorable"
    );
    // And the hex rendering itself is stable.
    assert_eq!(to_hex_document(&snapshot, &journal), CHECKED_IN_PERSIST);
}

#[test]
fn checked_in_snapshot_parses_through_the_production_reader() {
    let (snapshot, _) = from_hex_document(CHECKED_IN_PERSIST);
    let parsed = parse_snapshot(&snapshot).expect("golden snapshot must parse");
    assert_eq!(parsed.generation, PERSIST_GOLDEN_GENERATION);
    let schemes = Scheme::paper_set();
    assert_eq!(parsed.sessions.len(), schemes.len());
    for (index, session) in parsed.sessions.iter().enumerate() {
        assert_eq!(session.session_id, 0x90_1D00 + index as u64);
        assert_eq!(session.scheme, schemes[index]);
        assert_eq!(session.groups, 1 + index as u16);
        assert_eq!(session.states.len(), session.groups as usize);
    }
}

#[test]
fn checked_in_journal_replays_the_same_sessions_as_the_snapshot() {
    let dir = std::env::temp_dir().join(format!("dbi-persist-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden-journal.bin");

    let (snapshot, journal) = from_hex_document(CHECKED_IN_PERSIST);
    std::fs::write(&path, &journal).unwrap();
    let replay = replay_journal(&path)
        .expect("golden journal must replay")
        .expect("golden journal has a header");
    assert_eq!(replay.generation, PERSIST_GOLDEN_GENERATION + 1);
    assert_eq!(replay.dropped_bytes, 0);

    // The record layer is shared byte for byte: the journal replays
    // exactly the sessions the snapshot restores.
    let parsed = parse_snapshot(&snapshot).unwrap();
    assert_eq!(replay.records, parsed.sessions);

    std::fs::remove_dir_all(&dir).unwrap();
}
