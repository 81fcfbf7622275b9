//! The durable session plane: snapshots plus an append-only journal.
//!
//! Every scheme the engine serves is a *memory-based* code — decodability
//! depends on the receiver holding exactly the transmitter's carried
//! [`BusState`]. Worker memory is therefore the only
//! copy of state a restart must not lose. This module keeps a second copy
//! on disk, built from the CRC-guarded session records of
//! [`dbi_core::persist`]:
//!
//! * **Snapshot** (`snapshot.bin`, [`snapshot`]) — a compact engine-wide
//!   capture of every live session, written atomically (temp file +
//!   rename) while each shard is quiesced at a pass boundary.
//! * **Journal** (`journal-<shard>.bin`, [`journal`]) — an append-only
//!   per-shard log written *between* snapshots by the worker itself at
//!   burst boundaries: after every pass, the full carried state of each
//!   session the pass touched. Appends go through a worker-owned buffer
//!   sized once, so the steady-state hot path stays allocation-free.
//!
//! Recovery folds the snapshot first and then the journals, later records
//! winning — the journal always holds state at least as new as the
//! snapshot for any session it mentions (the worker journals every touched
//! pass, and captures happen quiesced at pass boundaries). Journals are
//! **streamed**: each is read a fixed-size chunk at a time
//! ([`journal::JournalReader`]), its records parsed in place, and only the
//! newest record per session is kept, so recovery memory follows the
//! session count and chunk size, not how many passes the previous run
//! journaled. Recovery *time* follows the journal's length, which the
//! worker bounds: once a journal reaches
//! [`journal::JOURNAL_COMPACT_FLOOR`] and twice its size after the last
//! compaction, it is rewritten as its own fold, one record per session
//! ([`journal::JournalWriter::compact`]).
//!
//! ## Generations
//!
//! Files carry a monotonically increasing **generation** so recovery can
//! tell which journal belongs with which snapshot. The invariant is
//! *journal generation = snapshot generation + 1*; a snapshot is taken at
//! the journals' current generation and the journals then rotate past it.
//! Recovery accepts journals at the snapshot's generation (the crash
//! window between writing a snapshot and rotating the journals — safe,
//! because in that window every journal record is at least as new as the
//! snapshot) or one above it; anything older is stale and skipped.
//! Engine start self-compacts: the folded recovery state is immediately
//! written as a fresh snapshot and the journals restart empty one
//! generation above it, so stale files never accumulate.

pub mod journal;
pub mod snapshot;

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

use dbi_core::persist::{RecordError, SessionRecordView};
use dbi_core::{BusState, Scheme};

/// Where the engine keeps its durable session state.
///
/// Set [`crate::ServiceConfig::persist`] to `Some(PersistConfig { .. })`
/// to enable the durable session plane; the default is off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Directory holding `snapshot.bin` and the per-shard journals.
    /// Created (with parents) on engine start if absent.
    pub dir: PathBuf,
}

/// A failure to read or write durable session state.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// A file header names a magic this plane does not write.
    BadMagic([u8; 4]),
    /// A file header names a format version this build does not read.
    UnsupportedVersion(u8),
    /// A file header fails its own CRC — torn or corrupted at rest.
    BadHeaderCrc {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the header bytes.
        computed: u32,
    },
    /// The file ends before its fixed structure does.
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A session record inside the file is malformed.
    Record(RecordError),
    /// A snapshot's record count disagrees with its contents.
    CountMismatch {
        /// Records the header announced.
        expected: u32,
        /// Records actually parsed.
        got: u32,
    },
    /// A snapshot carries bytes beyond its last announced record.
    TrailingBytes(usize),
    /// A journal fold stopped at a malformed record, so compacting it
    /// would drop that record and everything after it for good; the
    /// journal is left as it is.
    TornJournal {
        /// Bytes from the first malformed record to the end of the file.
        dropped_bytes: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(err) => write!(f, "persistence i/o error: {err}"),
            PersistError::BadMagic(bytes) => write!(
                f,
                "bad file magic {:02x}{:02x}{:02x}{:02x}",
                bytes[0], bytes[1], bytes[2], bytes[3]
            ),
            PersistError::UnsupportedVersion(version) => {
                write!(f, "file format version {version} is not supported")
            }
            PersistError::BadHeaderCrc { stored, computed } => write!(
                f,
                "file header CRC mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            PersistError::Truncated { needed, got } => {
                write!(f, "file truncated: needs {needed} bytes, got {got}")
            }
            PersistError::Record(err) => write!(f, "bad session record: {err}"),
            PersistError::CountMismatch { expected, got } => {
                write!(f, "snapshot announces {expected} records but holds {got}")
            }
            PersistError::TrailingBytes(extra) => {
                write!(f, "snapshot carries {extra} bytes past its last record")
            }
            PersistError::TornJournal { dropped_bytes } => write!(
                f,
                "journal holds {dropped_bytes} bytes from a malformed record on; not compacted"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(err) => Some(err),
            PersistError::Record(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(err: io::Error) -> Self {
        PersistError::Io(err)
    }
}

impl From<RecordError> for PersistError {
    fn from(err: RecordError) -> Self {
        PersistError::Record(err)
    }
}

/// One session's full carried state as recovered from disk: everything a
/// worker needs to rebuild the live [`dbi_mem::BusSession`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoredSession {
    /// The client-chosen session id.
    pub session_id: u64,
    /// The scheme the session encodes with.
    pub scheme: Scheme,
    /// Lane groups (one carried state per group).
    pub groups: u16,
    /// Burst length in beats.
    pub burst_len: u8,
    /// The carried per-group bus states, in group order.
    pub states: Vec<BusState>,
}

impl RestoredSession {
    /// The session a parsed record describes.
    pub(crate) fn from_record(view: &SessionRecordView<'_>) -> Self {
        RestoredSession {
            session_id: view.session_id,
            scheme: view.scheme,
            groups: view.group_count() as u16,
            burst_len: view.burst_len,
            states: view.states().collect(),
        }
    }

    /// Overwrites this session with a newer record of it, reusing the
    /// state buffer.
    fn assign_record(&mut self, view: &SessionRecordView<'_>) {
        self.scheme = view.scheme;
        self.groups = view.group_count() as u16;
        self.burst_len = view.burst_len;
        self.states.clear();
        self.states.extend(view.states());
    }
}

/// Folded sessions by id, the map every journal fold fills.
pub(crate) type SessionMap = HashMap<u64, RestoredSession, SessionIdHash>;

/// The hash of a [`SessionMap`]: one 64×64→128-bit multiply of the id
/// XOR a per-map random key, its halves folded together. Session ids
/// are client-chosen, so the key (drawn once per map from the standard
/// library's randomly seeded [`RandomState`]) keeps them from being
/// pre-collided; at one multiply per lookup the fold costs a fraction of
/// SipHash's rounds.
#[derive(Debug, Clone)]
pub(crate) struct SessionIdHash {
    key: u64,
}

impl Default for SessionIdHash {
    fn default() -> Self {
        SessionIdHash {
            key: RandomState::new().hash_one(0x5E55_1011u64),
        }
    }
}

impl BuildHasher for SessionIdHash {
    type Hasher = SessionIdHasher;

    fn build_hasher(&self) -> SessionIdHasher {
        SessionIdHasher {
            key: self.key,
            hash: 0,
        }
    }
}

/// The [`Hasher`] of [`SessionIdHash`].
#[derive(Debug)]
pub(crate) struct SessionIdHasher {
    key: u64,
    hash: u64,
}

impl SessionIdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word ^ self.key) * 0x9E37_79B9_7F4A_7C15;
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for SessionIdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.mix(id);
    }

    /// Any other key shape, eight bytes at a time (session maps only ever
    /// hash `u64` ids).
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Shared durability bookkeeping, stamped into the metrics snapshot and
/// served over the durability admin frames.
#[derive(Debug)]
pub(crate) struct PersistPlane {
    /// Directory holding the snapshot and journals.
    pub dir: PathBuf,
    /// Current journal generation (the snapshot on disk is one behind).
    pub generation: AtomicU64,
    /// Snapshots written since engine start (including the start-time
    /// self-compaction snapshot).
    pub snapshots_taken: AtomicU64,
    /// Sessions captured by the most recent snapshot.
    pub last_sessions: AtomicU64,
    /// Bytes of the most recent snapshot file.
    pub last_bytes: AtomicU64,
    /// Sessions recovered from disk at engine start.
    pub restored_sessions: AtomicU64,
    /// Serialises snapshot/restore admin operations.
    pub ops: Mutex<()>,
}

/// Everything recovery found on disk, folded to one entry per session.
#[derive(Debug)]
pub(crate) struct LoadedState {
    /// Generation the *journals* should continue at (max accepted
    /// generation seen on disk; 0 on a cold start).
    pub generation: u64,
    /// One entry per session, journal state winning over snapshot state,
    /// sorted by session id for determinism.
    pub sessions: Vec<RestoredSession>,
    /// Journal bytes dropped as torn tails during replay. Diagnostic:
    /// recovery deliberately discards torn tails (the records were never
    /// acknowledged), so outside the replay tests nothing consumes it.
    #[allow(dead_code)]
    pub dropped_bytes: u64,
}

/// Reads and folds the snapshot plus every acceptable journal under
/// `dir`. Missing files are a cold start, not an error; torn journal
/// tails are skipped (counted in `dropped_bytes`); structural corruption
/// of a snapshot or a journal header is a typed refusal — recovery never
/// silently invents state.
pub(crate) fn load_state(dir: &std::path::Path) -> Result<LoadedState, PersistError> {
    let mut folded = SessionMap::default();
    let mut dropped_bytes = 0u64;

    let snapshot = snapshot::read_snapshot(dir)?;
    let snapshot_generation = snapshot.as_ref().map_or(0, |snap| snap.generation);
    if let Some(snap) = snapshot {
        for session in snap.sessions {
            folded.insert(session.session_id, session);
        }
    }

    // Journals at the snapshot's generation or one above are live; older
    // ones are leftovers of a previous epoch whose state the snapshot
    // already holds. Journal records win over snapshot records: the
    // worker journals every touched pass, so for any session the journal
    // mentions its last record is at least as new as the capture. Each
    // session's entry is overwritten in place by its newer records.
    let mut generation = snapshot_generation;
    for path in journal::journal_files(dir)? {
        let Some(reader) = journal::JournalReader::open(&path)? else {
            continue;
        };
        let journal_generation = reader.generation();
        if journal_generation != snapshot_generation
            && journal_generation != snapshot_generation + 1
        {
            continue;
        }
        generation = generation.max(journal_generation);
        dropped_bytes += fold_newest(reader, &mut folded)?;
    }

    let mut sessions: Vec<RestoredSession> = folded.into_values().collect();
    sessions.sort_by_key(|session| session.session_id);
    Ok(LoadedState {
        generation,
        sessions,
        dropped_bytes,
    })
}

/// Folds every record of `reader` into `folded`, the newest record per
/// session winning (an existing entry is overwritten in place, reusing
/// its state buffer). Returns the torn-tail bytes the fold dropped.
fn fold_newest(
    reader: journal::JournalReader,
    folded: &mut SessionMap,
) -> Result<u64, PersistError> {
    reader.fold(|view| match folded.entry(view.session_id) {
        Entry::Occupied(mut entry) => entry.get_mut().assign_record(&view),
        Entry::Vacant(entry) => {
            entry.insert(RestoredSession::from_record(&view));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::persist::push_session_record;
    use dbi_core::LaneWord;

    fn state(raw: u16) -> BusState {
        BusState::new(LaneWord::new(raw).unwrap())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dbi-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cold_start_is_empty_not_an_error() {
        let dir = temp_dir("cold");
        let loaded = load_state(&dir).unwrap();
        assert_eq!(loaded.generation, 0);
        assert!(loaded.sessions.is_empty());
        assert_eq!(loaded.dropped_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_records_win_over_snapshot_records() {
        let dir = temp_dir("fold");
        // Snapshot at generation 3 holds session 1 in one state…
        let mut records = Vec::new();
        push_session_record(&mut records, 1, Scheme::OptFixed, 8, &[state(0x100)]);
        push_session_record(&mut records, 2, Scheme::Dc, 8, &[state(0x0FF)]);
        snapshot::write_snapshot(&dir, 3, 2, &records).unwrap();
        // …and the generation-4 journal moves it on.
        let mut writer = journal::JournalWriter::create(journal::journal_path(&dir, 0), 4).unwrap();
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x055)]);
        writer.flush().unwrap();

        let loaded = load_state(&dir).unwrap();
        assert_eq!(loaded.generation, 4);
        assert_eq!(loaded.sessions.len(), 2);
        assert_eq!(loaded.sessions[0].session_id, 1);
        assert_eq!(loaded.sessions[0].states, vec![state(0x055)]);
        assert_eq!(loaded.sessions[1].session_id, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Thousands of sessions journaled round-robin, several records each
    /// with shifting geometry, fold to exactly the newest record per id
    /// that an ordered-map replay keeps.
    #[test]
    fn round_robin_journal_folds_to_the_newest_record_per_session() {
        use std::collections::BTreeMap;
        let dir = temp_dir("round-robin");
        let ids: Vec<u64> = (0..3000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 3))
            .chain([0, u64::MAX])
            .collect();
        let schemes = [Scheme::OptFixed, Scheme::Dc, Scheme::Ac];
        let mut oracle: BTreeMap<u64, (Scheme, u8, Vec<BusState>)> = BTreeMap::new();
        let mut writer = journal::JournalWriter::create(journal::journal_path(&dir, 0), 1).unwrap();
        for round in 0..4u16 {
            for (i, &id) in ids.iter().enumerate() {
                let scheme = schemes[(i + usize::from(round)) % schemes.len()];
                let burst_len = if round % 2 == 0 { 8 } else { 16 };
                let states: Vec<BusState> = (0..1 + (i + usize::from(round)) % 4)
                    .map(|g| state(((i as u16).wrapping_mul(7) + round * 31 + g as u16) & 0x1FF))
                    .collect();
                writer.append_session(id, scheme, burst_len, &states);
                oracle.insert(id, (scheme, burst_len, states));
            }
            writer.flush().unwrap();
        }

        let loaded = load_state(&dir).unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.dropped_bytes, 0);
        assert_eq!(loaded.sessions.len(), oracle.len());
        for (session, (&id, (scheme, burst_len, states))) in loaded.sessions.iter().zip(&oracle) {
            assert_eq!(session.session_id, id);
            assert_eq!(session.scheme, *scheme, "session {id}");
            assert_eq!(session.burst_len, *burst_len, "session {id}");
            assert_eq!(usize::from(session.groups), states.len(), "session {id}");
            assert_eq!(&session.states, states, "session {id}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_journals_are_skipped() {
        let dir = temp_dir("stale");
        let mut records = Vec::new();
        push_session_record(&mut records, 7, Scheme::Ac, 8, &[state(0x1FF)]);
        snapshot::write_snapshot(&dir, 5, 1, &records).unwrap();
        // Generation 2 predates the snapshot: its state is already folded
        // into it (or superseded), so replay must ignore the file.
        let mut writer = journal::JournalWriter::create(journal::journal_path(&dir, 0), 2).unwrap();
        writer.append_session(7, Scheme::Ac, 8, &[state(0x000)]);
        writer.append_session(9, Scheme::Ac, 8, &[state(0x001)]);
        writer.flush().unwrap();

        let loaded = load_state(&dir).unwrap();
        assert_eq!(loaded.generation, 5);
        assert_eq!(loaded.sessions.len(), 1);
        assert_eq!(loaded.sessions[0].states, vec![state(0x1FF)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
