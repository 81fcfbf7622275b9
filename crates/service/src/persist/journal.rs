//! The append-only per-shard session journal, the only file the engine
//! writes.
//!
//! Each shard worker owns one journal file, `journal-<shard>.bin`:
//!
//! ```text
//!  0        4     5      6            14       18
//! +--------+-----+------+------------+--------+------------------ - - -
//! | "DBJL" | ver | rsvd | generation | crc32  | records, appended…
//! |        | u8  | u8   | u64 LE     | u32 LE |
//! +--------+-----+------+------------+--------+------------------ - - -
//! ```
//!
//! The header CRC covers bytes `0..14`. The engine writes generation 0;
//! the field is read only when engine start migrates a store that still
//! holds a `snapshot.bin` ([`super`]). After the header come CRC-guarded
//! session records ([`dbi_core::persist`]), appended by the worker at
//! every pass boundary for each session the pass touched — full carried
//! state, not deltas, so replay needs only the *last* record per session.
//!
//! The writer buffers records in a worker-owned `Vec` and flushes once
//! per pass with a single `write_all`, so the steady-state encode path
//! performs no heap allocation for journaling (the buffer is sized by the
//! first passes and then reused). Once the file reaches
//! [`JOURNAL_COMPACT_FLOOR`] and twice its length after the last
//! compaction, the writer rewrites it as its own fold — one record per
//! session ([`JournalWriter::compact`]) — so a journal, and the recovery
//! that replays it, stays within twice its live records or the floor
//! however long the engine runs. An admin snapshot is the same rewrite
//! with the shard's live sessions laid over the fold. Every rewrite goes
//! through one routine: staged, synced and renamed over the file.
//!
//! Replay streams the file a chunk at a time ([`JournalReader::fold`]),
//! parsing each record in place. A corrupt header is a typed error;
//! records are read **leniently at the tail**: a process killed
//! mid-append leaves a torn final record, so replay stops at the first
//! record that does not parse and reports everything from it as dropped.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use dbi_core::persist::{
    crc32, parse_session_record, push_session_record, RecordError, SessionRecordView,
};
use dbi_core::{BusState, Scheme};

use super::{PersistError, RestoredSession};

/// Journal file magic, ASCII `"DBJL"`.
pub const JOURNAL_MAGIC: [u8; 4] = *b"DBJL";

/// The journal format version this build writes and reads.
pub const JOURNAL_VERSION: u8 = 1;

/// Fixed journal header length (magic, version, reserved, generation,
/// header CRC).
pub const JOURNAL_HEAD_LEN: usize = 18;

/// The journal file path for `shard` under `dir`.
#[must_use]
pub fn journal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("journal-{shard}.bin"))
}

/// Every `journal-*.bin` under `dir`, sorted by name for deterministic
/// replay order.
pub fn journal_files(dir: &Path) -> Result<Vec<PathBuf>, PersistError> {
    let mut files = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(files),
        Err(err) => return Err(err.into()),
    };
    for entry in entries {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|name| name.to_str()) else {
            continue;
        };
        if name.starts_with("journal-") && name.ends_with(".bin") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Serialises a journal header for `generation`. Exposed for the format
/// tests and the drift check.
#[must_use]
pub fn encode_journal_header(generation: u64) -> [u8; JOURNAL_HEAD_LEN] {
    let mut head = [0u8; JOURNAL_HEAD_LEN];
    head[..4].copy_from_slice(&JOURNAL_MAGIC);
    head[4] = JOURNAL_VERSION;
    head[5] = 0; // reserved
    head[6..14].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&head[..14]);
    head[14..18].copy_from_slice(&crc.to_le_bytes());
    head
}

/// Journal length (bytes) below which a writer never compacts. A
/// compaction reads the whole journal back, so it only pays once the file
/// is long enough to slow recovery: 1 MiB is about 26k four-group records,
/// which a fold replays in about a millisecond.
pub const JOURNAL_COMPACT_FLOOR: u64 = 1 << 20;

/// A worker-owned buffered journal writer.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: fs::File,
    buf: Vec<u8>,
    /// Bytes in the file: header plus every record flushed since.
    len: u64,
    /// `len` right after the last create or compaction; for a reopened
    /// journal, the length of its fold.
    compacted_len: u64,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path` and writes a fresh
    /// header for `generation`.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating the file or writing the header.
    pub fn create(path: PathBuf, generation: u64) -> Result<Self, PersistError> {
        let mut file = fs::File::create(&path)?;
        file.write_all(&encode_journal_header(generation))?;
        Ok(JournalWriter {
            path,
            file,
            buf: Vec::new(),
            len: JOURNAL_HEAD_LEN as u64,
            compacted_len: JOURNAL_HEAD_LEN as u64,
        })
    }

    /// Opens the journal at `path` to append to it, creating it when it
    /// is missing or shorter than a header. Start must have healed a torn
    /// file first: records appended after a tear are lost to every fold.
    /// `live_len`, the length of the file's fold, is the baseline
    /// [`JournalWriter::compact_if_due`] doubles from.
    ///
    /// # Errors
    ///
    /// Any I/O failure opening or creating the file.
    pub(crate) fn open(path: PathBuf, live_len: u64) -> Result<Self, PersistError> {
        let file = match fs::OpenOptions::new().append(true).open(&path) {
            Ok(file) => file,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Self::create(path, 0),
            Err(err) => return Err(err.into()),
        };
        let len = file.metadata()?.len();
        if len < JOURNAL_HEAD_LEN as u64 {
            return Self::create(path, 0);
        }
        Ok(JournalWriter {
            path,
            file,
            buf: Vec::new(),
            len,
            compacted_len: live_len.clamp(JOURNAL_HEAD_LEN as u64, len),
        })
    }

    /// Buffers one session record. Appends into the reused buffer — once
    /// the buffer has grown to a pass's working size this allocates
    /// nothing.
    pub fn append_session(
        &mut self,
        session_id: u64,
        scheme: Scheme,
        burst_len: u8,
        states: &[BusState],
    ) {
        push_session_record(&mut self.buf, session_id, scheme, burst_len, states);
    }

    /// Bytes in the file: the header and every record flushed since.
    #[must_use]
    pub(crate) fn file_len(&self) -> u64 {
        self.len
    }

    /// Bytes currently buffered and not yet flushed.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Writes the buffered records with one `write_all` and clears the
    /// buffer (keeping its capacity). Returns the bytes written.
    ///
    /// # Errors
    ///
    /// The underlying write failure; the buffer is cleared regardless, so
    /// a transiently failing disk degrades durability, not the encode
    /// path.
    pub fn flush(&mut self) -> Result<usize, PersistError> {
        if self.buf.is_empty() {
            return Ok(0);
        }
        let len = self.buf.len();
        let result = self.file.write_all(&self.buf);
        self.buf.clear();
        result?;
        self.len += len as u64;
        Ok(len)
    }

    /// Compacts the journal ([`JournalWriter::compact`]) once it is at
    /// least [`JOURNAL_COMPACT_FLOOR`] long and twice as long as it was
    /// after the last compaction, so compaction work stays proportional
    /// to the records appended and the file to twice its live records
    /// (or the floor). Returns whether it compacted.
    ///
    /// # Errors
    ///
    /// A failed compaction; the journal is then left as it was.
    pub fn compact_if_due(&mut self) -> Result<bool, PersistError> {
        if self.len < JOURNAL_COMPACT_FLOOR.max(2 * self.compacted_len) {
            return Ok(false);
        }
        self.compact(None)?;
        Ok(true)
    }

    /// Flushes and rewrites the journal as its own replay — one record
    /// per session, the newest, in session-id order — with `live` laid
    /// over it, staged, synced and renamed over the file. Returns the
    /// records written.
    ///
    /// Automatic compaction passes no `live` sessions and refuses a
    /// journal whose fold drops bytes (a malformed record and everything
    /// after it): compacting it would make that loss permanent. The
    /// refusal counts as a compaction, so
    /// [`JournalWriter::compact_if_due`] does not re-fold the file on
    /// every pass. An admin snapshot passes every live session of the
    /// shard and rewrites a torn journal too: the live states come from
    /// memory, and no fold reads the records past a tear.
    ///
    /// # Errors
    ///
    /// [`PersistError::TornJournal`] on a refusal, or any I/O failure;
    /// the old journal then stays in place and keeps receiving appends.
    pub fn compact(&mut self, live: Option<Vec<RestoredSession>>) -> Result<u64, PersistError> {
        self.flush()?;
        let (mut newest, dropped_bytes) = super::fold_file(&self.path)?;
        match live {
            Some(live) => newest.extend(live.into_iter().map(|s| (s.session_id, s))),
            None if dropped_bytes != 0 => {
                self.compacted_len = self.len;
                return Err(PersistError::TornJournal { dropped_bytes });
            }
            None => {}
        }
        let sessions = super::sorted(newest);
        (self.file, self.len) = write_journal(&self.path, 0, &sessions)?;
        self.compacted_len = self.len;
        Ok(sessions.len() as u64)
    }

    /// Test fault injection: reopens the journal file read-only, so every
    /// later non-empty [`JournalWriter::flush`] fails with a real write
    /// error until a compaction replaces the file.
    #[cfg(test)]
    pub(crate) fn reopen_read_only(&mut self) -> Result<(), PersistError> {
        self.file = fs::File::open(&self.path)?;
        Ok(())
    }
}

/// Writes `sessions` as the whole journal at `path`, at `generation`:
/// staged as `journal-<shard>.bin.compact`, synced and renamed over it, so
/// a crash leaves the old file or the new one (recovery never reads the
/// staged one). Every journal rewrite goes through here; the rename is
/// durable once the directory is synced. Returns a handle at the end of
/// the new file and its length.
///
/// # Errors
///
/// Any I/O failure; the staged file is then removed.
pub(crate) fn write_journal(
    path: &Path,
    generation: u64,
    sessions: &[RestoredSession],
) -> Result<(fs::File, u64), PersistError> {
    let mut bytes = encode_journal_header(generation).to_vec();
    for session in sessions {
        push_session_record(
            &mut bytes,
            session.session_id,
            session.scheme,
            session.burst_len,
            &session.states,
        );
    }
    let staged = path.with_extension("bin.compact");
    let written = fs::File::create(&staged)
        .and_then(|mut file| file.write_all(&bytes).map(|()| file))
        .and_then(|file| file.sync_all().map(|()| file))
        .and_then(|file| fs::rename(&staged, path).map(|()| file));
    match written {
        // The handle is already at the end of the renamed file.
        Ok(file) => Ok((file, bytes.len() as u64)),
        Err(err) => {
            let _ = fs::remove_file(&staged);
            Err(err.into())
        }
    }
}

/// Size of the reads a journal fold makes: records are parsed in place
/// out of one buffer of this size (grown for a longer record), so
/// recovery holds a chunk of a journal in memory, never the whole file.
pub const JOURNAL_CHUNK: usize = 64 * 1024;

/// The result of replaying one journal file.
#[derive(Debug)]
pub struct JournalReplay {
    /// The generation the journal was written at.
    pub generation: u64,
    /// Every parsed record, in append order (a session may appear many
    /// times; the last occurrence is its newest state).
    pub records: Vec<RestoredSession>,
    /// Bytes dropped at the tail as a torn partial record.
    pub dropped_bytes: u64,
}

/// A journal opened for a streaming fold: its header is read and checked,
/// its records not yet.
#[derive(Debug)]
pub struct JournalReader {
    file: fs::File,
    generation: u64,
    /// Holds `buf[..filled]`, the first chunk of the file, header
    /// included.
    buf: Vec<u8>,
    filled: usize,
}

impl JournalReader {
    /// Opens a journal and checks its header. `Ok(None)` when the file is
    /// missing or too short to hold a complete header (a journal that
    /// never got its header out is an empty journal). A corrupt header —
    /// bad magic, unknown version, CRC mismatch — is a typed error.
    ///
    /// # Errors
    ///
    /// The header errors above, or the underlying read failure.
    pub fn open(path: &Path) -> Result<Option<Self>, PersistError> {
        let mut file = match fs::File::open(path) {
            Ok(file) => file,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(err) => return Err(err.into()),
        };
        let mut buf = vec![0u8; JOURNAL_CHUNK];
        let filled = read_full(&mut file, &mut buf)?;
        if filled < JOURNAL_HEAD_LEN {
            return Ok(None);
        }
        if buf[..4] != JOURNAL_MAGIC {
            return Err(PersistError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
        }
        if buf[4] != JOURNAL_VERSION {
            return Err(PersistError::UnsupportedVersion(buf[4]));
        }
        let stored = u32::from_le_bytes(buf[14..18].try_into().expect("checked length"));
        let computed = crc32(&buf[..14]);
        if stored != computed {
            return Err(PersistError::BadHeaderCrc { stored, computed });
        }
        let generation = u64::from_le_bytes(buf[6..14].try_into().expect("checked length"));
        Ok(Some(JournalReader {
            file,
            generation,
            buf,
            filled,
        }))
    }

    /// The generation the journal was written at.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Streams every record, in append order, to `visit` as a view
    /// parsed in place, reading the file a [`JOURNAL_CHUNK`] at a time; a
    /// record cut by a chunk boundary is carried over to the next read.
    /// Records replay until the first malformation; everything from that
    /// point is a torn tail, skipped and returned as the count of
    /// dropped bytes.
    ///
    /// # Errors
    ///
    /// The underlying read failure.
    pub fn fold(
        mut self,
        mut visit: impl FnMut(SessionRecordView<'_>),
    ) -> Result<u64, PersistError> {
        let mut start = JOURNAL_HEAD_LEN;
        let mut end = self.filled;
        let mut eof = end < self.buf.len();
        loop {
            match parse_session_record(&self.buf[start..end]) {
                Ok((view, consumed)) => {
                    visit(view);
                    start += consumed;
                }
                Err(RecordError::Truncated { needed, .. }) if !eof => {
                    self.buf.copy_within(start..end, 0);
                    end -= start;
                    start = 0;
                    if needed > self.buf.len() {
                        self.buf.resize(needed, 0);
                    }
                    let got = read_full(&mut self.file, &mut self.buf[end..])?;
                    eof = end + got < self.buf.len();
                    end += got;
                }
                // Append-only files tear only at the tail: the first
                // record that does not parse marks the kill point, and
                // whatever follows it is the torn write.
                Err(_) => break,
            }
        }
        let unread = if eof {
            0
        } else {
            io::copy(&mut self.file, &mut io::sink())?
        };
        Ok((end - start) as u64 + unread)
    }
}

/// Reads until `buf` is full or the file ends; returns the bytes read (a
/// short count means end of file).
fn read_full(file: &mut fs::File, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(got) => filled += got,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(filled)
}

/// Replays a journal file into a list of its records: a
/// [`JournalReader`] fold that collects every view. `Ok(None)` when the
/// file is missing or too short to hold a complete header; a corrupt
/// header is a typed error; a torn tail is skipped and counted in
/// [`JournalReplay::dropped_bytes`].
///
/// # Errors
///
/// The header errors of [`JournalReader::open`], or a read failure.
pub fn replay_journal(path: &Path) -> Result<Option<JournalReplay>, PersistError> {
    let Some(reader) = JournalReader::open(path)? else {
        return Ok(None);
    };
    let generation = reader.generation();
    let mut records = Vec::new();
    let dropped_bytes = reader.fold(|view| records.push(RestoredSession::from_record(&view)))?;
    Ok(Some(JournalReplay {
        generation,
        records,
        dropped_bytes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::persist::session_record_len;
    use dbi_core::LaneWord;

    fn state(raw: u16) -> BusState {
        BusState::new(LaneWord::new(raw).unwrap())
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dbi-journal-{tag}-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn journal_round_trips_and_reopens_for_append() {
        let path = temp_path("roundtrip");
        let mut writer = JournalWriter::create(path.clone(), 4).unwrap();
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x0AA), state(0x155)]);
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x0AB), state(0x156)]);
        writer.append_session(2, Scheme::Dc, 4, &[state(0x001)]);
        assert!(writer.pending() > 0);
        let written = writer.flush().unwrap();
        assert!(written > 0);
        assert_eq!(writer.pending(), 0);
        assert_eq!(writer.flush().unwrap(), 0, "empty flush writes nothing");

        let replay = replay_journal(&path).unwrap().unwrap();
        assert_eq!(replay.generation, 4);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(replay.records[1].states, vec![state(0x0AB), state(0x156)]);
        drop(writer);

        // Reopening appends after the records already there, keeps the
        // header, and takes the caller's fold length as its baseline.
        let len = fs::metadata(&path).unwrap().len();
        let live_len = (JOURNAL_HEAD_LEN + 2 * session_record_len(1)) as u64;
        let mut writer = JournalWriter::open(path.clone(), live_len).unwrap();
        assert_eq!((writer.len, writer.compacted_len), (len, live_len));
        writer.append_session(3, Scheme::Ac, 8, &[state(0x111)]);
        writer.flush().unwrap();
        let replay = replay_journal(&path).unwrap().unwrap();
        assert_eq!(replay.generation, 4);
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records[3].session_id, 3);
        assert_eq!(fs::metadata(&path).unwrap().len(), writer.len);

        // A journal that never got its header out, or none at all, is
        // created afresh.
        for cut in [0, JOURNAL_HEAD_LEN - 1] {
            fs::write(&path, &encode_journal_header(9)[..cut]).unwrap();
            let writer = JournalWriter::open(path.clone(), 0).unwrap();
            assert_eq!(writer.len, JOURNAL_HEAD_LEN as u64);
            let replay = replay_journal(&path).unwrap().unwrap();
            assert_eq!((replay.generation, replay.records.len()), (0, 0));
        }
        std::fs::remove_file(&path).unwrap();
        drop(JournalWriter::open(path.clone(), 0).unwrap());
        assert!(replay_journal(&path).unwrap().is_some());
        std::fs::remove_file(&path).unwrap();
    }

    /// The newest states per session, as a replay of `path` folds them.
    fn newest_states(path: &Path) -> std::collections::HashMap<u64, Vec<BusState>> {
        replay_journal(path)
            .unwrap()
            .unwrap()
            .records
            .into_iter()
            .map(|record| (record.session_id, record.states))
            .collect()
    }

    #[test]
    fn compaction_keeps_the_newest_record_per_session() {
        let path = temp_path("compact");
        let mut writer = JournalWriter::create(path.clone(), 7).unwrap();
        for round in 0..50u16 {
            for session in 1..=3u16 {
                writer.append_session(
                    u64::from(session),
                    Scheme::OptFixed,
                    8,
                    &[state(round + session), state(round)],
                );
            }
            writer.flush().unwrap();
        }
        let before = newest_states(&path);
        let len_before = fs::metadata(&path).unwrap().len();

        writer.compact(None).unwrap();
        let replay = replay_journal(&path).unwrap().unwrap();
        assert_eq!(replay.generation, 0, "a rewrite is at generation 0");
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.dropped_bytes, 0);
        assert_eq!(newest_states(&path), before);
        assert_eq!(fs::metadata(&path).unwrap().len(), writer.len);
        assert!(writer.len < len_before);
        assert!(!path.with_extension("bin.compact").exists());

        // Appends land after the compacted records and win over them.
        writer.append_session(2, Scheme::OptFixed, 8, &[state(0x1FF), state(0x001)]);
        writer.flush().unwrap();
        let replay = replay_journal(&path).unwrap().unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(newest_states(&path)[&2], vec![state(0x1FF), state(0x001)]);
        assert!(!writer.compact_if_due().unwrap(), "far below the floor");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_is_due_at_the_floor_then_at_twice_the_compacted_length() {
        let path = temp_path("compact-due");
        let mut writer = JournalWriter::create(path.clone(), 1).unwrap();
        let states = [state(0x0AA); 4];
        // Every record is a new session, so compaction keeps them all and
        // the compacted journal is as long as the one it replaced.
        let mut sessions = 0u64;
        let mut append = |writer: &mut JournalWriter| {
            for _ in 0..1024 {
                writer.append_session(sessions, Scheme::OptFixed, 8, &states);
                sessions += 1;
            }
            writer.flush().unwrap();
        };
        while writer.len < JOURNAL_COMPACT_FLOOR {
            assert!(!writer.compact_if_due().unwrap());
            append(&mut writer);
        }
        assert!(writer.compact_if_due().unwrap());
        let compacted = writer.compacted_len;
        assert!(compacted >= JOURNAL_COMPACT_FLOOR);
        while writer.len < 2 * compacted {
            assert!(!writer.compact_if_due().unwrap());
            append(&mut writer);
        }
        assert!(writer.compact_if_due().unwrap());
        let replay = replay_journal(&path).unwrap().unwrap();
        assert_eq!(replay.records.len() as u64, sessions);
        std::fs::remove_file(&path).unwrap();
    }

    /// A failed write that tore a record mid-file, then more appends:
    /// compaction refuses, leaves the file byte-identical, and is not
    /// due again until the journal doubles.
    #[test]
    fn compaction_refuses_a_journal_torn_mid_file() {
        let path = temp_path("compact-torn");
        let mut writer = JournalWriter::create(path.clone(), 3).unwrap();
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x0AA)]);
        writer.append_session(2, Scheme::Dc, 8, &[state(0x0BB)]);
        writer.flush().unwrap();
        let mut record = Vec::new();
        push_session_record(&mut record, 3, Scheme::Ac, 8, &[state(0x0CC)]);
        writer.buf.extend_from_slice(&record[..record.len() - 3]);
        writer.flush().unwrap();
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x0DD)]);
        writer.append_session(4, Scheme::OptFixed, 8, &[state(0x0EE)]);
        let tail = writer.flush().unwrap() as u64;

        let before = fs::read(&path).unwrap();
        let torn = (record.len() - 3) as u64;
        assert!(matches!(
            writer.compact(None),
            Err(PersistError::TornJournal { dropped_bytes }) if dropped_bytes == torn + tail
        ));
        assert_eq!(fs::read(&path).unwrap(), before);
        assert!(!path.with_extension("bin.compact").exists());
        assert_eq!(writer.compacted_len, writer.len);
        assert!(!writer.compact_if_due().unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    /// A snapshot lays the live sessions over the journal's fold: evicted
    /// sessions keep their records, live ones take their in-memory state,
    /// and a torn journal comes out whole.
    #[test]
    fn snapshot_overlays_live_sessions_and_heals_a_torn_journal() {
        let path = temp_path("snapshot");
        let mut writer = JournalWriter::create(path.clone(), 0).unwrap();
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x0AA)]);
        writer.append_session(2, Scheme::Dc, 8, &[state(0x0BB)]);
        writer.flush().unwrap();
        let mut record = Vec::new();
        push_session_record(&mut record, 2, Scheme::Dc, 8, &[state(0x0CC)]);
        writer.buf.extend_from_slice(&record[..record.len() - 1]);
        writer.flush().unwrap();

        let live = |id: u64, raw: u16| RestoredSession {
            session_id: id,
            scheme: Scheme::Dc,
            groups: 1,
            burst_len: 8,
            states: vec![state(raw)],
        };
        let records = writer
            .compact(Some(vec![live(3, 0x033), live(2, 0x022)]))
            .unwrap();
        assert_eq!(records, 3);
        let bytes = fs::metadata(&path).unwrap().len();
        assert_eq!((writer.file_len(), writer.compacted_len), (bytes, bytes));
        let replay = replay_journal(&path).unwrap().unwrap();
        assert_eq!(replay.dropped_bytes, 0);
        let states: Vec<(u64, Vec<BusState>)> = replay
            .records
            .into_iter()
            .map(|record| (record.session_id, record.states))
            .collect();
        assert_eq!(
            states,
            vec![
                (1, vec![state(0x0AA)]),
                (2, vec![state(0x022)]),
                (3, vec![state(0x033)])
            ]
        );
        assert!(!path.with_extension("bin.compact").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_skipped_cleanly() {
        let path = temp_path("torn");
        let mut writer = JournalWriter::create(path.clone(), 1).unwrap();
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x0AA)]);
        writer.append_session(2, Scheme::OptFixed, 8, &[state(0x0BB)]);
        writer.flush().unwrap();
        drop(writer);

        let full = fs::read(&path).unwrap();
        // Kill the file at every byte of the final record: the first
        // record must survive, the torn tail must be counted, and replay
        // must never error or panic.
        let second_record_at = {
            let body = &full[JOURNAL_HEAD_LEN..];
            let (_, consumed) = parse_session_record(body).unwrap();
            JOURNAL_HEAD_LEN + consumed
        };
        for kill in second_record_at..full.len() {
            fs::write(&path, &full[..kill]).unwrap();
            let replay = replay_journal(&path).unwrap().unwrap();
            assert_eq!(replay.records.len(), 1, "kill at {kill}");
            assert_eq!(replay.dropped_bytes as usize, kill - second_record_at);
        }

        // A header that never finished writing is an empty journal.
        for kill in 0..JOURNAL_HEAD_LEN {
            fs::write(&path, &full[..kill]).unwrap();
            assert!(replay_journal(&path).unwrap().is_none(), "kill at {kill}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_headers_are_typed_errors() {
        let path = temp_path("header");
        let mut writer = JournalWriter::create(path.clone(), 1).unwrap();
        writer.append_session(1, Scheme::OptFixed, 8, &[state(0x0AA)]);
        writer.flush().unwrap();
        drop(writer);
        let full = fs::read(&path).unwrap();

        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            replay_journal(&path),
            Err(PersistError::BadMagic(_))
        ));

        let mut bad_version = full.clone();
        bad_version[4] = 9;
        fs::write(&path, &bad_version).unwrap();
        assert!(matches!(
            replay_journal(&path),
            Err(PersistError::UnsupportedVersion(9))
        ));

        let mut bad_crc = full.clone();
        bad_crc[6] ^= 1;
        fs::write(&path, &bad_crc).unwrap();
        assert!(matches!(
            replay_journal(&path),
            Err(PersistError::BadHeaderCrc { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_and_missing_dir_replay_as_empty() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert!(replay_journal(&path).unwrap().is_none());
        let ghost_dir =
            std::env::temp_dir().join(format!("dbi-journal-ghost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&ghost_dir);
        assert!(journal_files(&ghost_dir).unwrap().is_empty());
    }
}
