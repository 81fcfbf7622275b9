//! The durable session plane's engine side: start-up recovery, the
//! pass's journal step, and a shard's part of an admin snapshot.

use super::worker::ShardWorker;
use super::{shard_index, ServiceConfig, Shared, MAX_BURST_LEN, MAX_GROUPS};
use crate::error::ServiceError;
use crate::persist::journal::{journal_path, write_journal};
use crate::persist::{
    fold_file, load_state, snapshot, sorted, sync_dir, PersistConfig, PersistError, PersistPlane,
    RestoredSession,
};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distributes recovered sessions onto `seeded` (one bucket per shard) by
/// the sticky hash, dropping any whose geometry this engine would not
/// admit (a foreign or hand-edited file must not plant un-servable
/// entries) and capping each bucket at the per-shard session limit.
/// Returns how many sessions were kept.
pub(super) fn partition_restorable(
    sessions: Vec<RestoredSession>,
    seeded: &mut [Vec<RestoredSession>],
    max_sessions: usize,
) -> u64 {
    let mut kept = 0u64;
    for session in sessions {
        if session.groups == 0
            || session.groups > MAX_GROUPS
            || session.burst_len == 0
            || session.burst_len > MAX_BURST_LEN
            || session.states.len() != usize::from(session.groups)
        {
            continue;
        }
        let shard = shard_index(session.session_id, seeded.len());
        if seeded[shard].len() >= max_sessions {
            continue;
        }
        seeded[shard].push(session);
        kept += 1;
    }
    kept
}

/// Engine-start recovery: folds the store under the configured directory
/// onto `seeded` (one bucket per shard), leaves each journal ready for its
/// worker to append to ([`crate::persist`] has the order), and builds the
/// shared plane.
pub(super) fn recover_persist_plane(
    persist_config: &PersistConfig,
    config: &ServiceConfig,
    seeded: &mut [Vec<RestoredSession>],
) -> Result<PersistPlane, ServiceError> {
    let dir = &persist_config.dir;
    std::fs::create_dir_all(dir).map_err(persistence)?;
    let restored = settle_store(dir, config.max_sessions_per_shard, seeded).map_err(persistence)?;
    Ok(PersistPlane {
        dir: dir.clone(),
        restored_sessions: AtomicU64::new(restored),
        ..PersistPlane::default()
    })
}

/// Folds the store under `dir` onto `seeded`, rewriting only what start
/// must, and returns how many sessions were kept.
fn settle_store(
    dir: &Path,
    max_sessions: usize,
    seeded: &mut [Vec<RestoredSession>],
) -> Result<u64, PersistError> {
    let shards = seeded.len();
    let home = |session_id| shard_index(session_id, shards);
    let (legacy, loaded) = match snapshot::load_legacy_state(dir, shards, home)? {
        Some((generation, loaded)) => (Some(generation), loaded),
        None => (None, load_state(dir, shards, home)?),
    };
    let found = loaded.sessions.len() as u64;
    let restored = partition_restorable(loaded.sessions, seeded, max_sessions);
    let generation = legacy.map_or(0, |generation| generation + 1);
    let settled = legacy.is_none()
        && restored == found
        && loaded.journals.iter().all(|j| j.live && !j.foreign);
    for journal in loaded.journals.iter().filter(|j| j.stale) {
        fs::remove_file(&journal.path)?;
    }
    // 1. Each torn journal (every one, unless settled) becomes its own
    //    fold plus the sessions its shard owns.
    let torn = |path: &Path| {
        let found = loaded.journals.iter().find(|j| j.path == path);
        found.is_some_and(|j| j.dropped_bytes != 0)
    };
    for (shard, sessions) in seeded.iter().enumerate() {
        let path = journal_path(dir, shard);
        if settled && !torn(&path) {
            continue;
        }
        let (mut own, _) = fold_file(&path)?;
        own.extend(sessions.iter().map(|s| (s.session_id, s.clone())));
        write_journal(&path, generation, &sorted(own))?;
        sync_dir(dir)?;
    }
    if settled {
        return Ok(restored);
    }
    // 2. Defunct journals and a migrated snapshot go.
    for journal in loaded.journals.iter().filter(|j| !j.stale && !j.live) {
        fs::remove_file(&journal.path)?;
    }
    if legacy.is_some() {
        fs::remove_file(snapshot::snapshot_path(dir))?;
    }
    sync_dir(dir)?;
    // 3. Each journal down to the sessions its shard owns.
    for (shard, sessions) in seeded.iter().enumerate() {
        write_journal(&journal_path(dir, shard), generation, sessions)?;
    }
    sync_dir(dir)?;
    Ok(restored)
}

/// A durability failure as the engine reports it.
pub(super) fn persistence(err: impl std::fmt::Display) -> ServiceError {
    ServiceError::Persistence {
        detail: err.to_string(),
    }
}

impl ShardWorker {
    /// Journals the full carried state of every session the just-finished
    /// pass touched, then flushes, and compacts the journal when it is due.
    /// Only a flushed record marks its session captured. Write failures
    /// degrade durability (the next snapshot re-captures everything) but
    /// never the data path.
    pub(super) fn journal_pass(&mut self, shared: &Shared) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let metrics = shared.metrics.shard(self.shard);
        let mut records = 0u64;
        for &(session_id, _) in &self.session_rounds {
            let Some(entry) = self.sessions.get_mut(session_id) else {
                continue;
            };
            self.journal_states.clear();
            entry.session.export_states_into(&mut self.journal_states);
            journal.append_session(
                session_id,
                entry.scheme,
                entry.session.burst_len() as u8,
                &self.journal_states,
            );
            records += 1;
        }
        match journal.flush() {
            Ok(0) => {}
            Ok(bytes) => {
                metrics.record_journal(records, bytes as u64);
                for &(session_id, _) in &self.session_rounds {
                    if let Some(entry) = self.sessions.get_mut(session_id) {
                        entry.captured = true;
                    }
                }
                match journal.compact_if_due() {
                    Ok(false) => {}
                    Ok(true) => count_compaction(shared),
                    Err(_) => metrics.journal_error(),
                }
            }
            Err(_) => metrics.journal_error(),
        }
    }

    /// The shard's part of an admin snapshot, and of a clean shutdown:
    /// compacts its journal with every live session laid over the fold,
    /// synced, and marks them captured. Runs under the shard's lock, so
    /// every session is at a pass boundary — the consistency point a
    /// journal record stores. Returns the records and bytes the journal
    /// holds after; a failure counts in the shard's `journal_errors`.
    pub(super) fn snapshot(&mut self, shared: &Shared) -> Result<(u64, u64), PersistError> {
        let Some(journal) = self.journal.as_mut() else {
            return Err(io::Error::other("the shard has no journal").into());
        };
        let live = self.sessions.iter_mut().map(|(&session_id, entry)| {
            let mut states = Vec::new();
            entry.session.export_states_into(&mut states);
            RestoredSession {
                session_id,
                scheme: entry.scheme,
                groups: entry.session.group_count() as u16,
                burst_len: entry.session.burst_len() as u8,
                states,
            }
        });
        let records = journal
            .compact(Some(live.collect()))
            .inspect_err(|_| shared.metrics.shard(self.shard).journal_error())?;
        let bytes = journal.file_len();
        for (_, entry) in self.sessions.iter_mut() {
            entry.captured = true;
        }
        count_compaction(shared);
        Ok((records, bytes))
    }
}

impl Shared {
    /// Runs every shard's [`ShardWorker::snapshot`] under its lock, in
    /// index order — the loop an admin snapshot and the clean-shutdown
    /// compaction share. Returns the records and bytes the journals hold
    /// after, or the first failure; a failing shard does not stop the
    /// rest. A shard without a journal fails uncounted (its create
    /// failure was counted when it was built), and a shard whose lock a
    /// panicked pass poisoned is left as it is.
    pub(super) fn snapshot_shards(&self) -> Result<(u64, u64), ServiceError> {
        let (mut totals, mut failure) = ((0, 0), None);
        for lock in &self.shards {
            let outcome = match lock.lock() {
                Ok(mut worker) => worker.snapshot(self).map_err(persistence),
                Err(_) => Err(ServiceError::Internal("shard state poisoned")),
            };
            match outcome {
                Ok((records, bytes)) => {
                    totals.0 += records;
                    totals.1 += bytes;
                }
                Err(err) => {
                    failure.get_or_insert(err);
                }
            }
        }
        failure.map_or(Ok(totals), Err)
    }
}

fn count_compaction(shared: &Shared) {
    if let Some(plane) = &shared.persist {
        plane.compactions.fetch_add(1, Ordering::Relaxed);
    }
}
