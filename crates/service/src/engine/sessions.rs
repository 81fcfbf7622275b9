//! A shard worker's session table: one carried-state [`BusSession`] per
//! session id, bounded per shard, with idle-age eviction.

use super::RouteKey;
use crate::error::ServiceError;
use crate::metrics::ShardMetrics;
use crate::persist::RestoredSession;
use dbi_core::{PlanCache, Scheme};
use dbi_mem::BusSession;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One shard worker's per-session state. Verify-mode requests replay
/// through `session` itself: the decoder is stateless beyond the carried
/// lane states the worker already holds on both sides of a dispatch.
pub(super) struct SessionEntry {
    pub(super) scheme: Scheme,
    pub(super) session: BusSession,
    /// The worker's pass counter value the last time a request touched
    /// this session. Idle-age eviction removes the smallest stamp first;
    /// stamps equal to the current pass are in use and never evicted.
    last_touch: u64,
    /// Whether the session's current carried state is already on disk (a
    /// journal record since its last touch). Eviction prefers captured
    /// sessions: their state survives for an admin restore, so evicting
    /// them loses nothing durable.
    pub(super) captured: bool,
}

impl SessionEntry {
    fn new(scheme: Scheme, groups: u16, burst_len: u8, plans: &PlanCache) -> Self {
        SessionEntry {
            scheme,
            session: BusSession::with_plan_geometry(
                usize::from(groups),
                usize::from(burst_len),
                plans.get(scheme),
            ),
            last_touch: 0,
            captured: false,
        }
    }

    fn matches(&self, scheme: Scheme, groups: u16, burst_len: u8) -> bool {
        self.scheme == scheme
            && self.session.group_count() == usize::from(groups)
            && self.session.burst_len() == usize::from(burst_len)
    }
}

/// The sessions one shard holds, keyed by client session id.
pub(super) struct SessionTable {
    shard: usize,
    max_sessions: usize,
    entries: HashMap<u64, SessionEntry>,
}

impl SessionTable {
    pub(super) fn new(shard: usize, max_sessions: usize) -> Self {
        SessionTable {
            shard,
            max_sessions,
            entries: HashMap::new(),
        }
    }

    pub(super) fn get_mut(&mut self, session_id: u64) -> Option<&mut SessionEntry> {
        self.entries.get_mut(&session_id)
    }

    pub(super) fn iter_mut(&mut self) -> impl Iterator<Item = (&u64, &mut SessionEntry)> {
        self.entries.iter_mut()
    }

    /// Resolves the session entry a pass executes against: enforces the
    /// per-shard session bound, detects configuration mismatches and
    /// creates the session on first touch. Rejection metrics are the
    /// caller's job (one per affected request).
    ///
    /// When the table is full and a *fresh* id arrives, the
    /// least-recently touched idle session is evicted to make room — idle
    /// meaning not touched by the current pass (`last_touch <
    /// pass_stamp`), so a session with work in this very window can never
    /// lose its carried state mid-pass. Among idle candidates,
    /// journal-captured entries go first: their state survives on disk
    /// and an admin restore can bring them back. Only when *every*
    /// resident session is active in the current pass does the claim fail
    /// with [`ServiceError::SessionLimit`] — a transient condition, not a
    /// permanent lock-out.
    pub(super) fn claim(
        &mut self,
        key: &RouteKey,
        pass_stamp: u64,
        plans: &PlanCache,
        metrics: &ShardMetrics,
    ) -> Result<&mut SessionEntry, ServiceError> {
        if self.entries.len() >= self.max_sessions && !self.entries.contains_key(&key.session_id) {
            let victim = self
                .entries
                .iter()
                .filter(|(_, entry)| entry.last_touch < pass_stamp)
                .min_by_key(|(_, entry)| (!entry.captured, entry.last_touch))
                .map(|(id, entry)| (*id, entry.captured));
            match victim {
                Some((id, captured)) => {
                    self.entries.remove(&id);
                    metrics.session_evicted(captured);
                }
                None => return Err(ServiceError::SessionLimit { shard: self.shard }),
            }
        }
        match self.entries.entry(key.session_id) {
            Entry::Occupied(occupied) => {
                let entry = occupied.into_mut();
                if !entry.matches(key.scheme, key.groups, key.burst_len) {
                    return Err(ServiceError::SessionMismatch {
                        session_id: key.session_id,
                    });
                }
                entry.last_touch = pass_stamp;
                entry.captured = false;
                Ok(entry)
            }
            Entry::Vacant(vacant) => {
                metrics.session_created();
                let entry = vacant.insert(SessionEntry::new(
                    key.scheme,
                    key.groups,
                    key.burst_len,
                    plans,
                ));
                entry.last_touch = pass_stamp;
                Ok(entry)
            }
        }
    }

    /// Seeds recovered sessions into the table (replacing any live entry
    /// with the same id). Restored state is on disk by definition, so the
    /// entries start `captured` — first in line for eviction until a
    /// request touches them.
    pub(super) fn restore(
        &mut self,
        restored: Vec<RestoredSession>,
        plans: &PlanCache,
        metrics: &ShardMetrics,
    ) {
        for session in restored {
            let mut entry =
                SessionEntry::new(session.scheme, session.groups, session.burst_len, plans);
            entry.session.import_states(&session.states);
            entry.captured = true;
            if !self.entries.contains_key(&session.session_id) {
                metrics.session_created();
            }
            self.entries.insert(session.session_id, entry);
        }
    }
}
