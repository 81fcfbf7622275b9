//! The output check: every session's replies against a serial
//! [`BusSession`] run over the same payloads.
//!
//! For each session the reference encodes every executed sequence
//! number in order and must reproduce the reply count, the running hash
//! of every reply's per-group costs, and the masks of every sampled
//! request (the post-window probe included). Replies must have arrived
//! in submission order. Where the workload persists, the final carried
//! states are read back from the persist directory (snapshot and
//! journals, folded as recovery folds them) and must equal the reference's
//! exactly; elsewhere the probe request, whose costs and masks depend on
//! the carried state, stands in for them.

use crate::spec::{fold_costs, Session, Spec, POOL};
use dbi_core::BurstSlab;
use dbi_mem::BusSession;
use dbi_service::RestoredSession;
use std::collections::HashMap;

/// Checks every session, spreading them over two threads.
pub fn check_all(
    spec: &Spec,
    producers: &[Vec<Session>],
    persisted: Option<&HashMap<u64, RestoredSession>>,
) -> Result<(), String> {
    let sessions: Vec<&Session> = producers.iter().flatten().collect();
    let half = sessions.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .try_for_each(|session| check_session(spec, session, persisted))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("check thread panicked"))
            .collect::<Result<Vec<()>, String>>()
            .map(|_| ())
    })
}

fn check_session(
    spec: &Spec,
    session: &Session,
    persisted: Option<&HashMap<u64, RestoredSession>>,
) -> Result<(), String> {
    let id = session.id;
    let log = &session.log;
    if log.fifo_violations > 0 {
        return Err(format!(
            "session {id}: {} replies arrived out of submission order",
            log.fifo_violations
        ));
    }
    let mut skipped = log.skipped.clone();
    skipped.sort_unstable();
    let mut skipped = skipped.into_iter().peekable();
    let mut sampled = log.masks.iter().peekable();
    let mut bus = BusSession::with_geometry(
        usize::from(spec.groups),
        usize::from(spec.burst_len),
        session.resolved,
    );
    let mut slab = BurstSlab::new(usize::from(spec.burst_len));
    let mut per_group = Vec::new();
    let mut masks = Vec::new();
    let mut hash = 0u64;
    let mut completed = 0u64;
    for seq in 0..log.next_seq {
        if skipped.next_if_eq(&seq).is_some() {
            continue;
        }
        let sample = sampled.next_if(|(at, _)| *at == seq);
        bus.encode_stream_slab_into(
            &session.pool[seq as usize % POOL],
            &mut per_group,
            sample.is_some().then_some(&mut masks),
            &mut slab,
        )
        .map_err(|err| format!("session {id}: reference encode failed: {err}"))?;
        hash = fold_costs(hash, &per_group);
        completed += 1;
        if let Some((_, got)) = sample {
            if *got != masks {
                return Err(format!("session {id}: masks of request {seq} differ"));
            }
        }
    }
    if sampled.next().is_some() {
        return Err(format!("session {id}: a sampled reply has no request"));
    }
    if completed != log.completed || hash != log.hash {
        return Err(format!(
            "session {id}: per-group costs differ from the serial reference \
             ({} replies, {completed} expected)",
            log.completed
        ));
    }
    if let Some(persisted) = persisted {
        let record = persisted
            .get(&id)
            .ok_or_else(|| format!("session {id}: missing from the persist directory"))?;
        let expected: Vec<_> = (0..bus.group_count())
            .map(|group| bus.group_state(group).expect("group in range"))
            .collect();
        if record.scheme != session.resolved || record.states != expected {
            return Err(format!(
                "session {id}: persisted carried state differs from the serial reference"
            ));
        }
    }
    Ok(())
}
