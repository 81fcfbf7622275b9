//! Golden images of the durable-store formats: a version-1 snapshot and
//! the matching journal, generated deterministically and checked in as
//! `vectors/persist_v1.hex`.
//!
//! The on-disk formats are a compatibility promise — a store written by
//! yesterday's build must restore under tomorrow's. The engine now writes
//! journals only; the snapshot image pins the legacy format engine start
//! migrates. The corpus in [`crate::corpus`] pins the *coding* behaviour;
//! this module pins the *byte layout* of the persistence layer the same
//! way: an unchanged writer reproduces the checked-in image bit for bit,
//! so any diff under version control is a deliberate (and reviewable)
//! format change.
//! Regenerate with `cargo run -p dbi-conformance --bin gen_golden`.

use dbi_core::persist::push_session_record;
use dbi_core::word::LANE_MASK;
use dbi_core::{BusState, LaneWord, Scheme};
use dbi_service::persist::journal::encode_journal_header;
use dbi_service::persist::snapshot::encode_snapshot;

/// Generation the golden snapshot is written at. The paired journal is
/// one generation ahead: the layout older builds left on disk, which
/// engine start still migrates. The engine itself now writes journals
/// only, at generation 0.
pub const PERSIST_GOLDEN_GENERATION: u64 = 41;

/// The checked-in golden image (hex text, snapshot then journal,
/// separated by a blank line).
pub const CHECKED_IN_PERSIST: &str = include_str!("../vectors/persist_v1.hex");

/// One session per paper scheme, with geometry and carried states varied
/// deterministically so every record field (id, scheme tag, weights,
/// group count, burst length, per-group states) takes a distinguishing
/// value in the image.
fn golden_records() -> Vec<u8> {
    let mut records = Vec::new();
    for (index, &scheme) in Scheme::paper_set().iter().enumerate() {
        let groups = 1 + index as u16;
        let burst_len = [4u8, 8, 16][index % 3];
        let states: Vec<BusState> = (0..groups)
            .map(|g| {
                let raw = (0x0157_u16
                    .wrapping_mul(index as u16 + 1)
                    .wrapping_add(g * 11))
                    & LANE_MASK;
                BusState::new(LaneWord::new(raw).expect("masked to lane width"))
            })
            .collect();
        push_session_record(
            &mut records,
            0x90_1D00 + index as u64,
            scheme,
            burst_len,
            &states,
        );
    }
    records
}

/// The golden snapshot image: a version-1 header at
/// [`PERSIST_GOLDEN_GENERATION`] over one record per paper scheme.
#[must_use]
pub fn golden_snapshot_image() -> Vec<u8> {
    let records = golden_records();
    encode_snapshot(
        PERSIST_GOLDEN_GENERATION,
        Scheme::paper_set().len() as u32,
        &records,
    )
}

/// The golden journal image: a version-1 journal header one generation
/// ahead of the snapshot, followed by the same session records — the two
/// stores share the record layer byte for byte.
#[must_use]
pub fn golden_journal_image() -> Vec<u8> {
    let mut image = encode_journal_header(PERSIST_GOLDEN_GENERATION + 1).to_vec();
    image.extend_from_slice(&golden_records());
    image
}

/// Renders both golden images as the checked-in hex document.
#[must_use]
pub fn to_hex_document(snapshot: &[u8], journal: &[u8]) -> String {
    let mut doc = String::new();
    for (i, image) in [snapshot, journal].into_iter().enumerate() {
        if i > 0 {
            doc.push('\n');
        }
        for chunk in image.chunks(32) {
            for byte in chunk {
                doc.push_str(&format!("{byte:02x}"));
            }
            doc.push('\n');
        }
    }
    doc
}

/// Parses a hex document back into its (snapshot, journal) images.
///
/// # Panics
///
/// Panics when the document is not two blank-line-separated blocks of
/// hex — the file is checked in, so malformation means a bad edit.
#[must_use]
pub fn from_hex_document(doc: &str) -> (Vec<u8>, Vec<u8>) {
    let mut images = doc.split("\n\n").map(|block| {
        block
            .split_whitespace()
            .flat_map(|line| {
                line.as_bytes().chunks(2).map(|pair| {
                    let text = std::str::from_utf8(pair).expect("hex is ASCII");
                    u8::from_str_radix(text, 16).expect("checked-in image must be hex")
                })
            })
            .collect::<Vec<u8>>()
    });
    let snapshot = images.next().expect("snapshot block");
    let journal = images.next().expect("journal block");
    assert!(images.next().is_none(), "exactly two blocks expected");
    (snapshot, journal)
}
