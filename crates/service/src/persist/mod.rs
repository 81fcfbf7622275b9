//! The durable session plane: one append-only journal per shard.
//!
//! Every scheme the engine serves is a *memory-based* code — decodability
//! depends on the receiver holding exactly the transmitter's carried
//! [`BusState`], so worker memory is the only copy of state a restart
//! must not lose. This module keeps a second copy on disk, as the
//! CRC-guarded session records of [`dbi_core::persist`], in one kind of
//! file: each shard worker's journal ([`journal`]), to which it appends
//! the full carried state of every session a pass touched, through a
//! buffer sized once, so the hot path stays allocation-free.
//!
//! Recovery folds the journals, streamed a chunk at a time, keeping the
//! newest record per session: its memory follows the session count, its
//! time the journals' length, which compaction bounds
//! ([`journal::JournalWriter::compact`]). An admin snapshot is that
//! compaction on every shard, with the live sessions laid over the fold.
//!
//! ## Migration and re-sharding
//!
//! A serving engine keeps each session in exactly one journal, its
//! shard's, so the fold needs no order between files. When start finds
//! anything else — a changed shard count, a dropped session, or a
//! `snapshot.bin` from an older build ([`snapshot`]), folded once by its
//! old rule — it rewrites each live journal as its own fold plus the
//! sessions its shard owns, removes defunct journals and the snapshot,
//! and only then rewrites each journal down to its own sessions. Every
//! copy of a session on disk is then the same state at every step, so a
//! crash anywhere recovers it; the migration writes at a generation the
//! snapshot's rule accepts until the snapshot is gone. A torn journal is
//! rewritten as its own fold before anything is appended to it.
//! Otherwise start rewrites nothing, and the workers append.

pub mod journal;
pub mod snapshot;

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::path::{Path, PathBuf};
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
    /// Directory holding the per-shard journals. Created (with parents)
    /// on engine start if absent.
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
#[derive(Debug, Default)]
pub(crate) struct PersistPlane {
    /// Directory holding the journals.
    pub dir: PathBuf,
    /// Journal compactions since engine start: automatic ones, and one
    /// per shard for each admin snapshot and at a clean shutdown.
    pub compactions: AtomicU64,
    /// Admin snapshots taken since engine start.
    pub snapshots_taken: AtomicU64,
    /// Session records the journals held after the most recent snapshot.
    pub last_sessions: AtomicU64,
    /// Bytes the journals held after the most recent snapshot.
    pub last_bytes: AtomicU64,
    /// Sessions recovered from disk at engine start.
    pub restored_sessions: AtomicU64,
    /// Serialises snapshot/restore admin operations.
    pub ops: Mutex<()>,
}

/// One journal file a recovery fold found.
#[derive(Debug)]
pub(crate) struct FoundJournal {
    pub path: PathBuf,
    /// Whether it is the journal of a live shard.
    pub live: bool,
    /// Bytes the fold dropped from a malformed record on.
    pub dropped_bytes: u64,
    /// Whether it holds a session another shard owns.
    pub foreign: bool,
    /// Whether its generation is one a migrated snapshot does not accept
    /// (then it was not folded).
    pub stale: bool,
}

/// Everything recovery found on disk.
#[derive(Debug)]
pub(crate) struct LoadedState {
    /// The newest state of each session, in session-id order.
    pub sessions: Vec<RestoredSession>,
    /// Every journal file, in name order.
    pub journals: Vec<FoundJournal>,
}

/// Folds every journal under `dir` for an engine of `shards` shards,
/// where `home` names the shard that owns a session id. Missing files are
/// a cold start; torn tails are skipped; a corrupt journal header is a
/// typed refusal.
pub(crate) fn load_state(
    dir: &Path,
    shards: usize,
    home: impl Fn(u64) -> usize,
) -> Result<LoadedState, PersistError> {
    fold_journals(dir, SessionMap::default(), |_| true, shards, home)
}

/// Folds, over `folded` and in name order, the journals under `dir`
/// whose generation `accept`s; the others are stale.
fn fold_journals(
    dir: &Path,
    mut folded: SessionMap,
    accept: impl Fn(u64) -> bool,
    shards: usize,
    home: impl Fn(u64) -> usize,
) -> Result<LoadedState, PersistError> {
    let mut journals = Vec::new();
    for path in journal::journal_files(dir)? {
        let shard = (0..shards).find(|&shard| journal::journal_path(dir, shard) == path);
        let (mut dropped_bytes, mut foreign, mut stale) = (0, false, false);
        match journal::JournalReader::open(&path)? {
            Some(reader) if accept(reader.generation()) => {
                dropped_bytes = reader.fold(|view| {
                    foreign |= shard != Some(home(view.session_id));
                    fold_record(&mut folded, &view);
                })?;
            }
            reader => stale = reader.is_some(),
        }
        let live = shard.is_some();
        journals.push(FoundJournal {
            path,
            live,
            dropped_bytes,
            foreign,
            stale,
        });
    }
    let sessions = sorted(folded);
    Ok(LoadedState { sessions, journals })
}

/// Syncs `dir`, making the renames and removals inside it durable.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Folds one record into `folded`: an existing entry is overwritten in
/// place, reusing its state buffer.
fn fold_record(folded: &mut SessionMap, view: &SessionRecordView<'_>) {
    match folded.entry(view.session_id) {
        Entry::Occupied(mut entry) => entry.get_mut().assign_record(view),
        Entry::Vacant(entry) => {
            entry.insert(RestoredSession::from_record(view));
        }
    }
}

/// Folds one journal file; also returns the bytes the fold dropped.
pub(crate) fn fold_file(path: &Path) -> Result<(SessionMap, u64), PersistError> {
    let mut newest = SessionMap::default();
    let dropped_bytes = match journal::JournalReader::open(path)? {
        Some(reader) => reader.fold(|view| fold_record(&mut newest, &view))?,
        None => 0,
    };
    Ok((newest, dropped_bytes))
}

/// The sessions of `folded`, in session-id order.
pub(crate) fn sorted(folded: SessionMap) -> Vec<RestoredSession> {
    let mut sessions: Vec<RestoredSession> = folded.into_values().collect();
    sessions.sort_by_key(|session| session.session_id);
    sessions
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

    /// Every session id lives on shard 0.
    fn one_shard(_: u64) -> usize {
        0
    }

    /// Writes a legacy `snapshot.bin` at `generation` over `records`.
    fn write_legacy_snapshot(dir: &Path, generation: u64, count: u32, records: &[u8]) {
        let image = snapshot::encode_snapshot(generation, count, records);
        std::fs::write(snapshot::snapshot_path(dir), image).unwrap();
    }

    #[test]
    fn cold_start_is_empty_not_an_error() {
        let dir = temp_dir("cold");
        let loaded = load_state(&dir, 1, one_shard).unwrap();
        assert!(loaded.sessions.is_empty());
        assert!(loaded.journals.is_empty());
        assert!(snapshot::load_legacy_state(&dir, 1, one_shard)
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_records_win_over_snapshot_records() {
        let dir = temp_dir("fold");
        // A legacy snapshot at generation 3 holds session 1 in one state…
        let mut records = Vec::new();
        push_session_record(&mut records, 1, Scheme::OptFixed, 8, &[state(0x100)]);
        push_session_record(&mut records, 2, Scheme::Dc, 8, &[state(0x0FF)]);
        write_legacy_snapshot(&dir, 3, 2, &records);
        // …and the generation-4 journal moves it on.
        let mut writer = journal::JournalWriter::create(journal::journal_path(&dir, 0), 4).unwrap();
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x055)]);
        writer.flush().unwrap();

        let (generation, loaded) = snapshot::load_legacy_state(&dir, 1, one_shard)
            .unwrap()
            .unwrap();
        assert_eq!(generation, 3);
        assert!(!loaded.journals[0].stale);
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

        let loaded = load_state(&dir, 1, one_shard).unwrap();
        assert_eq!(loaded.journals.len(), 1);
        assert!(loaded.journals[0].live);
        assert_eq!(loaded.journals[0].dropped_bytes, 0);
        assert!(!loaded.journals[0].foreign);
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

    /// Each journal knows whether its name is a live shard's and whether
    /// it holds a session another shard owns; any other `journal-*.bin`
    /// name belongs to no shard.
    #[test]
    fn journals_know_their_shard_and_foreign_records() {
        let dir = temp_dir("homes");
        let write = |name: &str, ids: &[u64]| {
            let mut writer = journal::JournalWriter::create(dir.join(name), 0).unwrap();
            for &id in ids {
                writer.append_session(id, Scheme::Dc, 8, &[state(id as u16)]);
            }
            writer.flush().unwrap();
        };
        write("journal-0.bin", &[0, 2]);
        write("journal-1.bin", &[3, 4]);
        write("journal-01.bin", &[5]);
        std::fs::write(dir.join("journal-1.bin.compact"), b"staged").unwrap();

        let loaded = load_state(&dir, 2, |id| (id % 2) as usize).unwrap();
        let found: Vec<(String, bool, bool)> = loaded
            .journals
            .iter()
            .map(|journal| {
                let name = journal.path.file_name().unwrap().to_str().unwrap();
                (name.to_owned(), journal.live, journal.foreign)
            })
            .collect();
        assert_eq!(
            found,
            [
                ("journal-0.bin".to_owned(), true, false),
                ("journal-01.bin".to_owned(), false, true),
                ("journal-1.bin".to_owned(), true, true),
            ]
        );
        // With one shard, shard 1's journal is defunct.
        assert!(!load_state(&dir, 1, |_| 0).unwrap().journals[2].live);
        assert_eq!(loaded.sessions.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_journals_are_skipped() {
        let dir = temp_dir("stale");
        let mut records = Vec::new();
        push_session_record(&mut records, 7, Scheme::Ac, 8, &[state(0x1FF)]);
        write_legacy_snapshot(&dir, 5, 1, &records);
        // Generation 2 predates the snapshot: its state is already folded
        // into it (or superseded), so the legacy fold must ignore the file.
        let mut writer = journal::JournalWriter::create(journal::journal_path(&dir, 0), 2).unwrap();
        writer.append_session(7, Scheme::Ac, 8, &[state(0x000)]);
        writer.append_session(9, Scheme::Ac, 8, &[state(0x001)]);
        writer.flush().unwrap();

        let (generation, loaded) = snapshot::load_legacy_state(&dir, 1, one_shard)
            .unwrap()
            .unwrap();
        assert_eq!(generation, 5);
        assert!(loaded.journals[0].stale);
        assert_eq!(loaded.sessions.len(), 1);
        assert_eq!(loaded.sessions[0].states, vec![state(0x1FF)]);
        // Without the snapshot, generations mean nothing: the journal is
        // the store.
        assert_eq!(load_state(&dir, 1, one_shard).unwrap().sessions.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
