//! The layer replays of the traced run: timed calls into each layer's
//! public functions, made from here at the workload's exact geometry.
//! Nothing inside the program is instrumented.

use crate::spec::{Session, Spec};
use crate::stats::replay_ns_per_unit;
use dbi_core::{BurstSlab, BusState, CostBreakdown, DbiEncoder, InversionMask, LaneWord, Scheme};
use dbi_mem::BusSession;
use dbi_service::persist::journal::JournalWriter;
use dbi_service::wire::{
    decode_frame, EncodeBatchResponseFrame, EncodeResponseFrame, PipelinedBatchRequestFrame,
    PipelinedBatchResponseFrame, PipelinedRequestFrame, PipelinedResponseFrame,
};
use dbi_service::PipelinedClient;
use std::hint::black_box;
use std::io::Read;
use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;

/// Time one replay measures for.
const BUDGET: Duration = Duration::from_millis(150);

/// The geometry the kernel rows were measured at (always priced, as
/// the engine's slab is).
#[derive(Debug, Clone, Copy)]
pub struct KernelGeometry {
    pub chains: usize,
    pub sessions_per_round: usize,
    pub burst_len: usize,
    pub accesses: usize,
}

/// Replay results, one field per per-layer metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    pub dispatch_ns_per_burst: f64,
    pub pack_ns_per_burst: f64,
    pub gather_ns_per_burst: f64,
    pub verify_ns_per_burst: f64,
    pub savings_ns_per_burst: f64,
    pub journal_ns_per_pass: f64,
    pub journal_bytes_per_pass: f64,
    pub request_encode_ns: f64,
    pub request_decode_ns: f64,
    pub response_encode_ns: f64,
    pub response_decode_ns: f64,
    pub submit_ns: f64,
}

/// The benchmark's copy of the engine's savings walk: the lane
/// transitions the beat-interleaved `payload` would cause sent raw,
/// continuing from `prev`, one word per group.
fn raw_transitions(payload: &[u8], prev: &mut [LaneWord]) -> u64 {
    let groups = prev.len();
    let mut total = 0u64;
    for beat in payload.chunks_exact(groups) {
        for (byte, prev_word) in beat.iter().zip(prev.iter_mut()) {
            let word = LaneWord::encode_byte(*byte, false);
            total += u64::from(word.transitions_from(*prev_word));
            *prev_word = word;
        }
    }
    total
}

/// Runs every replay. `sessions_per_round` is how many sessions the
/// engine packed into one dispatch round in the traced window and
/// `sessions_per_pass` how many it journaled per pass (both at least 1).
pub fn replay(
    spec: &Spec,
    sessions: &[&Session],
    sessions_per_round: usize,
    sessions_per_pass: usize,
    scratch: &Path,
) -> Result<(Replays, KernelGeometry), String> {
    let groups = usize::from(spec.groups);
    let burst_len = usize::from(spec.burst_len);
    let bursts_per_session = (spec.accesses * groups) as f64;
    let round_bursts = bursts_per_session * sessions_per_round as f64;
    let chains = groups * sessions_per_round;
    let geometry = KernelGeometry {
        chains,
        sessions_per_round,
        burst_len,
        accesses: spec.accesses,
    };
    let mut out = Replays::default();

    // Kernel, pack, gather and verify: averaged over the workload's
    // distinct schemes (one round packs one scheme).
    let mut schemes: Vec<Scheme> = Vec::new();
    for session in sessions {
        if !schemes.contains(&session.resolved) {
            schemes.push(session.resolved);
        }
    }
    for &scheme in &schemes {
        let members: Vec<&Session> = sessions
            .iter()
            .copied()
            .filter(|session| session.resolved == scheme)
            .cycle()
            .take(sessions_per_round)
            .collect();
        let buses: Vec<BusSession> = members
            .iter()
            .map(|_| BusSession::with_geometry(groups, burst_len, scheme))
            .collect();
        let mut slab = BurstSlab::new(burst_len);
        slab.set_pricing(true);
        let mut states: Vec<BusState> = Vec::new();
        let pack = |slab: &mut BurstSlab, states: &mut Vec<BusState>| {
            slab.reset(burst_len);
            states.clear();
            for (bus, member) in buses.iter().zip(&members) {
                bus.append_chains_to_slab(&member.pool[0], slab)
                    .expect("pool payloads are whole accesses");
                bus.export_states_into(states);
            }
        };
        out.pack_ns_per_burst += replay_ns_per_unit(BUDGET, round_bursts, || {
            pack(&mut slab, &mut states);
            black_box(&slab);
        });
        pack(&mut slab, &mut states);
        let plan = scheme.plan();
        out.dispatch_ns_per_burst += replay_ns_per_unit(BUDGET, round_bursts, || {
            plan.encode_lanes_into(&mut slab, &mut states);
            black_box(&slab);
        });
        let mut gather_buses: Vec<BusSession> = members
            .iter()
            .map(|_| BusSession::with_geometry(groups, burst_len, scheme))
            .collect();
        let mut per_group: Vec<CostBreakdown> = Vec::new();
        let mut masks: Vec<InversionMask> = Vec::new();
        out.gather_ns_per_burst += replay_ns_per_unit(BUDGET, round_bursts, || {
            for (index, bus) in gather_buses.iter_mut().enumerate() {
                let sink = spec.verify.then_some(&mut masks);
                bus.gather_packed_results(&slab, chains, index * groups, &mut per_group, sink);
                bus.import_states(&states[index * groups..(index + 1) * groups]);
            }
            black_box(&per_group);
        });

        // Verify: the receiver replay of one request's output.
        let payload = &members[0].pool[0];
        let mut transmitter = BusSession::with_geometry(groups, burst_len, scheme);
        let mut encode_slab = BurstSlab::new(burst_len);
        transmitter
            .encode_stream_slab_into(payload, &mut per_group, Some(&mut masks), &mut encode_slab)
            .map_err(|err| format!("verify replay encode: {err}"))?;
        let mut receiver = BusSession::with_geometry(groups, burst_len, scheme);
        let (mut wire, mut decoded, mut rx_groups) = (Vec::new(), Vec::new(), Vec::new());
        let mut decode_slab = BurstSlab::new(burst_len);
        out.verify_ns_per_burst += replay_ns_per_unit(BUDGET, bursts_per_session, || {
            receiver
                .transmit_stream_into(payload, &masks, &mut wire)
                .expect("masks match the payload");
            receiver
                .decode_stream_slab_into(
                    &wire,
                    &masks,
                    &mut rx_groups,
                    &mut decoded,
                    &mut decode_slab,
                )
                .expect("masks match the wire image");
            black_box(&decoded);
        });
    }
    let count = schemes.len() as f64;
    out.pack_ns_per_burst /= count;
    out.dispatch_ns_per_burst /= count;
    out.gather_ns_per_burst /= count;
    out.verify_ns_per_burst /= count;

    // Savings walk over one request's payload.
    let payload = &sessions[0].pool[0];
    let mut prev = vec![BusState::idle().last(); groups];
    out.savings_ns_per_burst = replay_ns_per_unit(BUDGET, bursts_per_session, || {
        black_box(raw_transitions(black_box(payload), &mut prev));
    });

    // Journal: one pass's records, then one flush.
    let journal_path = scratch.join("journal-replay.bin");
    let mut journal = JournalWriter::create(journal_path.clone(), 1)
        .map_err(|err| format!("journal replay: {err}"))?;
    let states = vec![BusState::idle(); groups];
    let mut pass_bytes = 0usize;
    let mut journal_error = None;
    out.journal_ns_per_pass = replay_ns_per_unit(BUDGET, 1.0, || {
        for session in sessions.iter().cycle().take(sessions_per_pass) {
            journal.append_session(session.id, session.resolved, spec.burst_len, &states);
        }
        match journal.flush() {
            Ok(bytes) => pass_bytes = bytes,
            Err(err) => journal_error = Some(err.to_string()),
        }
    });
    drop(journal);
    let _ = std::fs::remove_file(&journal_path);
    if let Some(err) = journal_error {
        return Err(format!("journal replay: {err}"));
    }
    out.journal_bytes_per_pass = pass_bytes as f64;

    // Wire: the pipelined request and response frames of one request.
    let session = sessions[0];
    let batch = session.batch_request(spec, 0, false);
    let plain = session.plain_request(spec, 0, false);
    let per_group = vec![CostBreakdown::ZERO; groups];
    let mut frame = Vec::new();
    let encode_request = |frame: &mut Vec<u8>| {
        frame.clear();
        if spec.batch() {
            PipelinedBatchRequestFrame {
                request_id: 7,
                request: batch,
            }
            .encode_into(frame);
        } else {
            PipelinedRequestFrame {
                request_id: 7,
                request: plain,
            }
            .encode_into(frame);
        }
    };
    out.request_encode_ns = replay_ns_per_unit(BUDGET, 1.0, || {
        encode_request(&mut frame);
        black_box(&frame);
    });
    encode_request(&mut frame);
    out.request_decode_ns = replay_ns_per_unit(BUDGET, 1.0, || {
        black_box(decode_frame(black_box(&frame)).expect("a well-formed frame"));
    });
    let bursts = spec.bursts_per_request();
    let encode_response = |frame: &mut Vec<u8>| {
        frame.clear();
        if spec.batch() {
            PipelinedBatchResponseFrame {
                request_id: 7,
                response: EncodeBatchResponseFrame {
                    session_id: session.id,
                    bursts,
                    count: batch.count,
                    per_group: &per_group,
                    masks: &[],
                },
            }
            .encode_into(frame);
        } else {
            PipelinedResponseFrame {
                request_id: 7,
                response: EncodeResponseFrame {
                    session_id: session.id,
                    bursts,
                    per_group: &per_group,
                    masks: &[],
                },
            }
            .encode_into(frame);
        }
    };
    out.response_encode_ns = replay_ns_per_unit(BUDGET, 1.0, || {
        encode_response(&mut frame);
        black_box(&frame);
    });
    encode_response(&mut frame);
    out.response_decode_ns = replay_ns_per_unit(BUDGET, 1.0, || {
        black_box(decode_frame(black_box(&frame)).expect("a well-formed frame"));
    });

    out.submit_ns = replay_submit(spec, session)?;
    Ok((out, geometry))
}

/// Times [`PipelinedClient::submit`] (or `submit_batch`) against a
/// loopback sink that reads and discards, so only the client's own
/// frame encoding and socket write are measured.
fn replay_submit(spec: &Spec, session: &Session) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|err| format!("sink bind: {err}"))?;
    let addr = listener
        .local_addr()
        .map_err(|err| format!("sink addr: {err}"))?;
    std::thread::scope(|scope| {
        let sink = scope.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            let mut buf = vec![0u8; 1 << 16];
            while stream.read(&mut buf)? > 0 {}
            Ok(())
        });
        let mut client =
            PipelinedClient::connect(addr).map_err(|err| format!("sink connect: {err}"))?;
        let batch = session.batch_request(spec, 0, false);
        let plain = session.plain_request(spec, 0, false);
        let mut failure = None;
        let ns = replay_ns_per_unit(BUDGET, 1.0, || {
            let sent = if spec.batch() {
                client.submit_batch(&batch)
            } else {
                client.submit(&plain)
            };
            if let Err(err) = sent {
                failure = Some(err.to_string());
            }
        });
        drop(client);
        sink.join()
            .expect("sink thread panicked")
            .map_err(|err| format!("sink: {err}"))?;
        match failure {
            Some(err) => Err(format!("submit replay: {err}")),
            None => Ok(ns),
        }
    })
}
