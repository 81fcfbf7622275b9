//! The account step of a worker pass: each dispatched job's results are
//! gathered out of the shared slab, its transitions saved counted, its
//! round trip verified on request, and its slot published together with
//! its telemetry.

use super::worker::{PassJob, ShardWorker};
use super::{Phase, Shared, SlotState};
use crate::error::ServiceError;
use crate::telemetry::{TraceEvent, TraceOutcome};
use dbi_core::persist::scheme_to_tag;
use dbi_core::{clock, simd, Scheme};
use dbi_mem::{BusSession, MemError};
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;

/// Stage durations measured while a job runs. `None` stages did not run:
/// no verify requested, or the request failed before encoding.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct StageTiming {
    encode_ns: Option<u64>,
    verify_ns: Option<u64>,
}

/// Clamps a nanosecond duration into the trace event's `u32` stage fields
/// (~4.3 s each; saturation only matters for pathological stalls).
fn clamp_ns(nanos: u64) -> u32 {
    u32::try_from(nanos).unwrap_or(u32::MAX)
}

impl ShardWorker {
    /// Finishes job `index` of the just-dispatched round: gathers its
    /// masks and per-group activity out of the slab straight into the
    /// slot's response buffers, counts the transitions-saved metric from
    /// the payload and the pre-dispatch states (see [`raw_transitions`]),
    /// verifies the round trip when asked, hands the session its
    /// post-dispatch states and publishes the slot. `encode_span` is the
    /// round's dispatch time, apportioned to the job by its share of the
    /// slab's chains. Returns the bursts the job encoded (zero on
    /// failure).
    pub(super) fn finish_job(
        &mut self,
        shared: &Shared,
        index: usize,
        encode_span: u64,
        dequeue_ns: u64,
    ) -> u64 {
        let metrics = shared.metrics.shard(self.shard);
        let job = &self.window[index];
        let groups = usize::from(job.key.groups);
        let base = job.chain_base as usize;
        let chains = self.states.len();
        let post_states = &self.states[base..base + groups];
        // The session keeps its pre-dispatch states until the import
        // below: packing only exported them.
        let entry = self
            .sessions
            .get_mut(job.key.session_id)
            .expect("session was claimed in the packing phase");
        let mut guard = job.slot.state.lock().expect("slot mutex poisoned");
        let state: &mut SlotState = &mut guard;

        let gather_start = clock::now_nanos();
        if !state.want_masks {
            state.masks.clear();
        }
        entry.session.gather_packed_results(
            &self.slab,
            chains,
            base,
            &mut state.per_group,
            state.want_masks.then_some(&mut state.masks),
        );
        // Geometry was validated at submission, so this division is exact.
        let bursts = (state.payload.len() / usize::from(state.burst_len)) as u64;
        // Transitions-saved metric: what the same stream would have cost
        // the wires uninverted, minus what it actually cost. Zero for RAW
        // sessions (nothing to save against).
        let saved = if entry.scheme == Scheme::Raw {
            0
        } else {
            let encoded: u64 = state.per_group.iter().map(|b| b.transitions).sum();
            raw_transitions(&state.payload, &entry.session).saturating_sub(encoded)
        };
        // The gather and savings count serve this request alone, so they
        // bill to its encode stage on top of its share of the dispatch.
        let share_ns = ((encode_span * groups as u64) / chains as u64).max(1);
        let mut timing = StageTiming {
            encode_ns: Some(
                share_ns.saturating_add(clock::now_nanos().saturating_sub(gather_start)),
            ),
            verify_ns: None,
        };

        let outcome = if state.verify {
            if shared.hooks.corrupt_verify.load(Ordering::Relaxed) {
                self.verify.corrupt_next_for_tests();
            }
            let verify_start = clock::now_nanos();
            let outcome = entry.session.verify_packed_results(
                &self.slab,
                base,
                &state.payload,
                &state.per_group,
                post_states,
                &mut self.verify,
            );
            timing.verify_ns = Some(clock::now_nanos().saturating_sub(verify_start));
            metrics.record_verify(outcome.is_ok());
            outcome
        } else {
            Ok(())
        };
        // Whatever the verify outcome, the session carries on from the
        // post-dispatch states.
        entry.session.import_states(post_states);
        let result = match outcome {
            Ok(()) => {
                metrics.record_request(state.payload.len() as u64, bursts, saved);
                Ok(bursts)
            }
            Err(err) => {
                // Count the failure like every other failed request, so
                // requests + rejected keeps accounting for submitted
                // traffic (the work was executed, but the caller got an
                // error).
                metrics.record_reject();
                let byte_offset = match err {
                    MemError::PayloadMismatch { byte_offset } => Some(byte_offset as u64),
                    _ => None,
                };
                Err(ServiceError::VerifyMismatch {
                    session_id: state.session_id,
                    byte_offset,
                })
            }
        };
        let finished = *result.as_ref().unwrap_or(&0);
        self.finish_slot(shared, job, guard, result, dequeue_ns, timing);
        self.window[index].done = true;
        finished
    }

    /// Publishes a finished slot: feeds the shard's latency histograms,
    /// trace ring and slowlog (queue wait runs enqueue→dequeue, total
    /// runs enqueue→now), stores the result, flips the phase to `Done`,
    /// and fires the completion after the lock is released — the sink
    /// when one is registered, the slot's condvar otherwise, nothing for
    /// the draining client's own slot — once per slot, exactly.
    pub(super) fn finish_slot(
        &self,
        shared: &Shared,
        job: &PassJob,
        mut state: MutexGuard<'_, SlotState>,
        result: Result<u64, ServiceError>,
        dequeue_ns: u64,
        timing: StageTiming,
    ) {
        let end_ns = clock::now_nanos();
        let queue_wait_ns = dequeue_ns.saturating_sub(state.enqueue_ns);
        let total_ns = end_ns.saturating_sub(state.enqueue_ns);
        shared.metrics.shard(self.shard).record_stage_sample(
            queue_wait_ns,
            timing.encode_ns,
            timing.verify_ns,
            total_ns,
        );
        let (outcome, bursts) = match &result {
            Ok(bursts) => (TraceOutcome::Ok, *bursts),
            Err(ServiceError::VerifyMismatch { .. }) => (TraceOutcome::VerifyFailed, 0),
            Err(_) => (TraceOutcome::Rejected, 0),
        };
        let (scheme_tag, _) = scheme_to_tag(job.key.scheme);
        shared.telemetry.record(&TraceEvent {
            request_id: state.request_id,
            session_id: job.key.session_id,
            enqueue_ns: state.enqueue_ns,
            queue_wait_ns: clamp_ns(queue_wait_ns),
            encode_ns: clamp_ns(timing.encode_ns.unwrap_or(0)),
            verify_ns: clamp_ns(timing.verify_ns.unwrap_or(0)),
            total_ns: clamp_ns(total_ns),
            bursts: u32::try_from(bursts).unwrap_or(u32::MAX),
            scheme_tag,
            outcome,
            shard: u16::try_from(self.shard).unwrap_or(u16::MAX),
        });
        state.result = result;
        state.phase = Phase::Done;
        // Take the completion before publishing: once the lock drops, a
        // blocking submitter may reclaim the slot, and the completion must
        // fire exactly once.
        let completion = state.completion.take();
        drop(state);
        // Only a blocking submitter waits on `done`; a slot with a sink,
        // or the draining client's own, skips the notify, whose futex
        // wake is a syscall even when nobody waits.
        match completion {
            Some(completion) => completion.sink.complete(completion.token, &job.slot),
            None if job.inline => {}
            None => job.slot.done.notify_all(),
        }
    }
}

/// Lane transitions the beat-interleaved `payload` would cause sent raw
/// (uninverted) — what encoding it with [`Scheme::Raw`] would sum to
/// across the groups — starting from `session`'s carried states, the
/// transmitter's pre-request states.
///
/// Needs no carried state of its own: a raw word always has its DBI lane
/// high, so raw transitions are the data-byte toggles alone, and the last
/// byte a group carried is its state's decoded word (idle is the raw word
/// of `0xFF`), whatever the inversion decisions were. Beat `i ≥ groups`
/// of the payload follows beat `i − groups` on the same group, so past
/// the first beat the count is one XOR-popcount of the payload against
/// itself offset by `groups` bytes ([`simd::xor_popcount`], on the
/// selected kernel tier).
fn raw_transitions(payload: &[u8], session: &BusSession) -> u64 {
    let groups = session.group_count();
    let entry: u64 = payload[..groups]
        .iter()
        .enumerate()
        .map(|(group, &byte)| {
            let state = session.group_state(group).expect("one state per group");
            u64::from((state.last().decode() ^ byte).count_ones())
        })
        .sum();
    entry + simd::xor_popcount(&payload[groups..], &payload[..payload.len() - groups])
}
