//! The durable session plane's engine side: start-up recovery, and the
//! worker's journal pass and admin control jobs.

use super::queue::{ControlJob, ControlOutcome, ControlRequest};
use super::worker::ShardWorker;
use super::{shard_index, ServiceConfig, MAX_BURST_LEN, MAX_GROUPS};
use crate::error::ServiceError;
use crate::persist::{snapshot, PersistConfig, PersistPlane, RestoredSession};
use dbi_core::persist::push_session_record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Engine-start recovery: folds the on-disk state, partitions it onto the
/// shards, self-compacts it into a fresh snapshot (so journals restart
/// empty and files from defunct shard counts can be removed), and builds
/// the shared plane. `seeded` receives each shard's sessions.
pub(super) fn recover_persist_plane(
    persist_config: &PersistConfig,
    config: &ServiceConfig,
    seeded: &mut [Vec<RestoredSession>],
) -> Result<PersistPlane, ServiceError> {
    let persistence_err = |err: &dyn std::fmt::Display| ServiceError::Persistence {
        detail: err.to_string(),
    };
    let dir = &persist_config.dir;
    std::fs::create_dir_all(dir).map_err(|err| persistence_err(&err))?;
    let loaded = crate::persist::load_state(dir).map_err(|err| persistence_err(&err))?;
    let restored = partition_restorable(loaded.sessions, seeded, config.max_sessions_per_shard);

    // Self-compact: everything recovery kept becomes the new snapshot,
    // written *before* the old journals are removed — at no point does
    // disk hold less than the recovered state.
    let mut record_count = 0u32;
    let mut record_bytes = Vec::new();
    for bucket in seeded.iter() {
        for session in bucket {
            push_session_record(
                &mut record_bytes,
                session.session_id,
                session.scheme,
                session.burst_len,
                &session.states,
            );
            record_count += 1;
        }
    }
    let snapshot_generation = loaded.generation + 1;
    let bytes = snapshot::write_snapshot(dir, snapshot_generation, record_count, &record_bytes)
        .map_err(|err| persistence_err(&err))?;
    for path in crate::persist::journal::journal_files(dir).map_err(|err| persistence_err(&err))? {
        std::fs::remove_file(path).map_err(|err| persistence_err(&err))?;
    }
    Ok(PersistPlane {
        dir: dir.clone(),
        generation: AtomicU64::new(snapshot_generation + 1),
        snapshots_taken: AtomicU64::new(1),
        last_sessions: AtomicU64::new(u64::from(record_count)),
        last_bytes: AtomicU64::new(bytes),
        restored_sessions: AtomicU64::new(restored),
        ops: Mutex::new(()),
    })
}

impl ShardWorker<'_> {
    /// Journals the full carried state of every session the just-finished
    /// pass touched, then flushes, and compacts the journal when it is due.
    /// Only a flushed record marks its session captured. Write failures
    /// degrade durability (the next snapshot re-captures everything) but
    /// never the data path.
    pub(super) fn journal_pass(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
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
        let hooks = &self.shared.hooks;
        if hooks.fail_next_flush.load(Ordering::Relaxed)
            && hooks.fail_next_flush.swap(false, Ordering::Relaxed)
            && journal.reopen_read_only().is_err()
        {
            self.metrics.journal_error();
        }
        match journal.flush() {
            Ok(0) => {}
            Ok(bytes) => {
                self.metrics.record_journal(records, bytes as u64);
                for &(session_id, _) in &self.session_rounds {
                    if let Some(entry) = self.sessions.get_mut(session_id) {
                        entry.captured = true;
                    }
                }
                if journal.compact_if_due().is_err() {
                    self.metrics.journal_error();
                }
            }
            Err(_) => self.metrics.journal_error(),
        }
    }

    /// Serves one quiesced admin job. Runs between passes, so every
    /// session is at a burst boundary — the consistency point the
    /// snapshot format stores.
    pub(super) fn serve_control(&mut self, job: ControlJob) {
        let outcome = match job.request {
            ControlRequest::Capture => {
                let mut bytes = Vec::new();
                let mut records = 0u32;
                for (session_id, entry) in self.sessions.iter_mut() {
                    self.journal_states.clear();
                    entry.session.export_states_into(&mut self.journal_states);
                    push_session_record(
                        &mut bytes,
                        *session_id,
                        entry.scheme,
                        entry.session.burst_len() as u8,
                        &self.journal_states,
                    );
                    entry.captured = true;
                    records += 1;
                }
                ControlOutcome::Captured { records, bytes }
            }
            ControlRequest::Rotate { generation } => {
                if let Some(journal) = self.journal.as_mut() {
                    if journal.flush().is_err() {
                        self.metrics.journal_error();
                    }
                    if journal.rotate(generation).is_err() {
                        self.metrics.journal_error();
                    }
                }
                ControlOutcome::Done
            }
            ControlRequest::Restore { sessions } => {
                self.sessions.restore(sessions);
                ControlOutcome::Done
            }
        };
        job.reply.deliver(outcome);
    }
}
