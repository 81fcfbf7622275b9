//! The legacy engine-wide snapshot, read once to migrate an old store.
//!
//! Older builds also wrote `snapshot.bin`: every live session as a
//! CRC-guarded record ([`dbi_core::persist`]) behind a header whose CRC
//! covers bytes `0..18`, continued by journals one generation above:
//!
//! ```text
//!  0        4     5      6            14       18      22
//! +--------+-----+------+------------+--------+--------+----- - - -
//! | "DBSN" | ver | rsvd | generation | count  | crc32  | records…
//! |        | u8  | u8   | u64 LE     | u32 LE | u32 LE |
//! +--------+-----+------+------------+--------+--------+----- - - -
//! ```
//!
//! The reader is **strict**: any malformation is a typed [`PersistError`],
//! because a snapshot that cannot be trusted byte for byte must not seed
//! bus state. Engine start folds a store that still has one by its old
//! rule, then deletes it.

use std::fs;
use std::path::{Path, PathBuf};

use dbi_core::persist::{crc32, parse_session_record};

use super::{LoadedState, PersistError, RestoredSession};

/// Snapshot file magic, ASCII `"DBSN"`.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DBSN";

/// The snapshot format version this build reads.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Fixed snapshot header length (magic, version, reserved, generation,
/// record count, header CRC).
pub const SNAPSHOT_HEAD_LEN: usize = 22;

/// The snapshot's file name inside the persist directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// The snapshot file path under `dir`.
#[must_use]
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// A fully parsed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The generation the snapshot was taken at.
    pub generation: u64,
    /// Every captured session, in file order.
    pub sessions: Vec<RestoredSession>,
}

/// Serialises a snapshot header followed by `record_bytes` (which must be
/// exactly `record_count` back-to-back session records). Exposed so the
/// format tests, the migration tests and the drift check can build
/// images.
#[must_use]
pub fn encode_snapshot(generation: u64, record_count: u32, record_bytes: &[u8]) -> Vec<u8> {
    let mut image = Vec::with_capacity(SNAPSHOT_HEAD_LEN + record_bytes.len());
    image.extend_from_slice(&SNAPSHOT_MAGIC);
    image.push(SNAPSHOT_VERSION);
    image.push(0); // reserved
    image.extend_from_slice(&generation.to_le_bytes());
    image.extend_from_slice(&record_count.to_le_bytes());
    let crc = crc32(&image);
    image.extend_from_slice(&crc.to_le_bytes());
    image.extend_from_slice(record_bytes);
    image
}

/// Parses a snapshot image. Strict: every truncation point, corrupt
/// magic/version/CRC, count mismatch or trailing garbage is a typed
/// error, never a panic.
pub fn parse_snapshot(bytes: &[u8]) -> Result<Snapshot, PersistError> {
    if bytes.len() < SNAPSHOT_HEAD_LEN {
        return Err(PersistError::Truncated {
            needed: SNAPSHOT_HEAD_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]));
    }
    if bytes[4] != SNAPSHOT_VERSION {
        return Err(PersistError::UnsupportedVersion(bytes[4]));
    }
    let stored = u32::from_le_bytes(bytes[18..22].try_into().expect("checked length"));
    let computed = crc32(&bytes[..18]);
    if stored != computed {
        return Err(PersistError::BadHeaderCrc { stored, computed });
    }
    let generation = u64::from_le_bytes(bytes[6..14].try_into().expect("checked length"));
    let expected = u32::from_le_bytes(bytes[14..18].try_into().expect("checked length"));

    let mut sessions = Vec::with_capacity(expected as usize);
    let mut offset = SNAPSHOT_HEAD_LEN;
    while sessions.len() < expected as usize {
        let (view, consumed) = parse_session_record(&bytes[offset..]).map_err(|err| {
            // A record torn at the end of the file reads as overall
            // truncation; anything else is record-level corruption.
            if let dbi_core::persist::RecordError::Truncated { needed, .. } = err {
                PersistError::Truncated {
                    needed: offset + needed,
                    got: bytes.len(),
                }
            } else {
                PersistError::Record(err)
            }
        })?;
        sessions.push(RestoredSession::from_record(&view));
        offset += consumed;
    }
    if offset != bytes.len() {
        return Err(PersistError::TrailingBytes(bytes.len() - offset));
    }
    Ok(Snapshot {
        generation,
        sessions,
    })
}

/// Reads and parses `dir`'s snapshot. `Ok(None)` when no snapshot exists
/// (a cold start); strict typed errors for anything unreadable.
pub fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>, PersistError> {
    let bytes = match fs::read(snapshot_path(dir)) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err.into()),
    };
    parse_snapshot(&bytes).map(Some)
}

/// Folds a store that still holds a snapshot by the rule it was written
/// under — the snapshot, then the journals at its generation or one above,
/// journal records winning — as [`super::load_state`] folds journals.
/// Returns the snapshot's generation with the fold, or `None` when `dir`
/// has no snapshot.
///
/// # Errors
///
/// The snapshot's strict refusals, or a journal header's.
pub(crate) fn load_legacy_state(
    dir: &Path,
    shards: usize,
    home: impl Fn(u64) -> usize,
) -> Result<Option<(u64, LoadedState)>, PersistError> {
    let Some(snapshot) = read_snapshot(dir)? else {
        return Ok(None);
    };
    let generation = snapshot.generation;
    let folded = snapshot
        .sessions
        .into_iter()
        .map(|session| (session.session_id, session))
        .collect();
    let accept = |journal: u64| journal == generation || journal == generation + 1;
    let loaded = super::fold_journals(dir, folded, accept, shards, home)?;
    Ok(Some((generation, loaded)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::persist::push_session_record;
    use dbi_core::{BusState, LaneWord, Scheme};

    fn sample_records() -> (u32, Vec<u8>) {
        let mut bytes = Vec::new();
        let states = [
            BusState::idle(),
            BusState::new(LaneWord::new(0x123).unwrap()),
        ];
        push_session_record(&mut bytes, 10, Scheme::OptFixed, 8, &states);
        push_session_record(&mut bytes, 11, Scheme::Dc, 4, &states[..1]);
        (2, bytes)
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("dbi-snap-roundtrip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (count, records) = sample_records();
        let image = encode_snapshot(9, count, &records);
        assert_eq!(image.len(), SNAPSHOT_HEAD_LEN + records.len());
        std::fs::write(snapshot_path(&dir), &image).unwrap();
        let snap = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(snap.generation, 9);
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.sessions[0].session_id, 10);
        assert_eq!(snap.sessions[0].groups, 2);
        assert_eq!(snap.sessions[1].burst_len, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_reader_refuses_malformed_images() {
        let (count, records) = sample_records();
        let pristine = encode_snapshot(3, count, &records);
        assert!(parse_snapshot(&pristine).is_ok());

        for len in 0..pristine.len() {
            assert!(
                matches!(
                    parse_snapshot(&pristine[..len]),
                    Err(PersistError::Truncated { .. })
                ),
                "truncation at {len} was not typed"
            );
        }

        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'Z';
        assert!(matches!(
            parse_snapshot(&bad_magic),
            Err(PersistError::BadMagic(_))
        ));

        let mut bad_version = pristine.clone();
        bad_version[4] = 7;
        assert!(matches!(
            parse_snapshot(&bad_version),
            Err(PersistError::UnsupportedVersion(7))
        ));

        let mut bad_crc = pristine.clone();
        bad_crc[6] ^= 1; // generation byte: covered by the header CRC
        assert!(matches!(
            parse_snapshot(&bad_crc),
            Err(PersistError::BadHeaderCrc { .. })
        ));

        let mut trailing = pristine.clone();
        trailing.push(0xEE);
        assert!(matches!(
            parse_snapshot(&trailing),
            Err(PersistError::TrailingBytes(1))
        ));

        // Corrupting a record body is caught by the record CRC, reported
        // as a record-level error.
        let mut bad_record = pristine.clone();
        let last = bad_record.len() - 1;
        bad_record[last] ^= 0xFF;
        assert!(matches!(
            parse_snapshot(&bad_record),
            Err(PersistError::Record(_))
        ));
    }
}
