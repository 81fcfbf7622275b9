//! Differential proof of the caller-runs schedule: a blocking
//! [`LocalClient`](dbi_service::LocalClient) that finds its shard idle
//! runs the shard's pass on its own thread, one that finds it busy hands
//! its job to the worker, and the connection plane's I/O threads always
//! hand theirs over. Whichever thread runs a pass, every reply must be
//! **bit-identical** to a serial [`BusSession`] replaying the same
//! session's stream.
//!
//! The first test mixes all three paths on one shard: LocalClients share
//! sessions (a per-session lock orders each session's stream across
//! clients), a pipelined TCP client keeps a window of its own sessions'
//! requests in flight, and an injected slowdown holds whichever thread
//! runs a pass of one session, so the other clients find the shard busy
//! and fall back to the worker. The second races `Engine::shutdown`
//! against LocalClients mid-request: each must get a reply or
//! `ShuttingDown`, none may hang, and the journals the shutdown compacts
//! must carry every session on from exactly the replies its clients saw.
//! The third races admin restores and snapshots against inline and
//! worker passes: a restore runs with every shard at a pass boundary,
//! where the journals hold exactly the live states, so it must roll no
//! session back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use dbi_core::{CostBreakdown, InversionMask, Scheme};
use dbi_mem::BusSession;
use dbi_service::{
    CostModel, EncodeReply, EncodeRequest, Engine, PersistConfig, PipelinedClient, ServiceConfig,
    ServiceError, TcpServer, VerifyMode,
};

const GROUPS: u16 = 4;
const BURST_LEN: u8 = 8;

/// What one request produced, or must produce.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    bursts: u64,
    per_group: Vec<CostBreakdown>,
    masks: Vec<InversionMask>,
}

impl Outcome {
    fn of(reply: &EncodeReply) -> Self {
        Outcome {
            bursts: reply.bursts,
            per_group: reply.per_group.clone(),
            masks: reply.masks.clone(),
        }
    }
}

/// Request `index` of `session`'s stream: 1–4 accesses of deterministic
/// bytes, so requests split the packing window into several rounds.
fn payload(session: u64, index: usize) -> Vec<u8> {
    let mut x = session.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index as u64 + 1);
    let mut next = || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let accesses = 1 + (next() % 4) as usize;
    let len = accesses * usize::from(GROUPS) * usize::from(BURST_LEN);
    (0..len).map(|_| (next() >> 32) as u8).collect()
}

fn scheme_of(session: u64) -> Scheme {
    let set = Scheme::paper_set();
    set[session as usize % set.len()]
}

fn request(session: u64, payload: &[u8]) -> EncodeRequest<'_> {
    EncodeRequest {
        session_id: session,
        scheme: scheme_of(session),
        cost_model: CostModel::Inline,
        groups: GROUPS,
        burst_len: BURST_LEN,
        want_masks: true,
        verify: if session.is_multiple_of(2) {
            VerifyMode::RoundTrip
        } else {
            VerifyMode::Off
        },
        payload,
    }
}

/// The serial ground truth: the first `count` requests of `session`'s
/// stream through one standalone session.
fn serial(session: u64, count: usize) -> Vec<Outcome> {
    let mut reference = BusSession::with_geometry(
        usize::from(GROUPS),
        usize::from(BURST_LEN),
        scheme_of(session),
    );
    (0..count)
        .map(|index| {
            let payload = payload(session, index);
            let mut per_group = Vec::new();
            let mut masks = Vec::new();
            let bursts = reference
                .encode_stream_into(&payload, &mut per_group, Some(&mut masks))
                .unwrap();
            Outcome {
                bursts,
                per_group,
                masks,
            }
        })
        .collect()
}

fn assert_serial(session: u64, got: &[Outcome]) {
    for (index, (want, have)) in serial(session, got.len()).iter().zip(got).enumerate() {
        assert_eq!(
            want, have,
            "session {session:#x} diverged from its serial reference at request {index}"
        );
    }
}

/// `count` session ids the engine routes to `shard`, from `from` on.
fn ids_on(engine: &Engine, shard: usize, from: u64, count: usize) -> Vec<u64> {
    (from..)
        .filter(|&id| engine.shard_of(id) == shard)
        .take(count)
        .collect()
}

#[test]
fn inline_fallback_and_pipelined_passes_match_serial_sessions() {
    const LOCAL_CLIENTS: usize = 3;
    const SHARED_REQUESTS: usize = 48;
    const PIPELINED_REQUESTS: usize = 96;
    const WINDOW: usize = 8;

    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 64,
        max_payload: 1 << 16,
        ..ServiceConfig::default()
    });
    // Every session lives on shard 0; shard 1 stays idle.
    let shared_ids = ids_on(&engine, 0, 0x5A00, 4);
    let pipelined_ids = ids_on(&engine, 0, 0x7B00, 2);
    engine.inject_slowdown_for_tests(shared_ids[0], Duration::from_micros(300));
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Each shared session's replies so far; its lock is held across a
    // request, so the stream runs in index order whichever client sends.
    let shared: Vec<Mutex<Vec<Outcome>>> =
        shared_ids.iter().map(|_| Mutex::new(Vec::new())).collect();
    let pipelined: Vec<Vec<Outcome>> = std::thread::scope(|scope| {
        for client in 0..LOCAL_CLIENTS {
            let (shared, shared_ids) = (&shared, &shared_ids);
            let mut local = engine.local_client();
            scope.spawn(move || {
                let mut reply = EncodeReply::new();
                for turn in (client..).take(SHARED_REQUESTS * shared_ids.len()) {
                    let which = turn % shared_ids.len();
                    let mut replies = shared[which].lock().unwrap();
                    if replies.len() == SHARED_REQUESTS {
                        continue;
                    }
                    let session = shared_ids[which];
                    let payload = payload(session, replies.len());
                    local
                        .encode(&request(session, &payload), &mut reply)
                        .unwrap();
                    replies.push(Outcome::of(&reply));
                }
            });
        }
        let pipelined_ids = &pipelined_ids;
        let pump =
            scope.spawn(move || pump_pipelined(addr, pipelined_ids, PIPELINED_REQUESTS, WINDOW));
        pump.join().unwrap()
    });

    for (session, replies) in shared_ids.iter().zip(&shared) {
        let replies = replies.lock().unwrap();
        assert_eq!(replies.len(), SHARED_REQUESTS);
        assert_serial(*session, &replies);
    }
    for (session, replies) in pipelined_ids.iter().zip(&pipelined) {
        assert_eq!(replies.len(), PIPELINED_REQUESTS);
        assert_serial(*session, replies);
    }
    // Both paths really ran: clients ran passes inline, and the worker
    // thread ran the rest (the pipelined jobs and every fallback).
    let totals = engine.metrics().totals();
    assert!(totals.inline_passes > 0, "no pass ran on a client thread");
    assert!(
        totals.passes > totals.inline_passes,
        "no pass ran on the worker thread"
    );
    server.shutdown();
    engine.shutdown();
}

#[test]
fn shutdown_racing_local_clients_answers_every_request() {
    const CLIENTS: usize = 4;
    const SESSIONS_PER_CLIENT: usize = 2;

    let dir = std::env::temp_dir().join(format!("dbi-mixed-schedule-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServiceConfig {
        shards: 2,
        queue_capacity: 16,
        max_payload: 1 << 16,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    };
    let engine = Engine::start(config());
    // Two clients per shard, so some find it busy and wait on the worker;
    // a slowed session makes that wait long enough to straddle shutdown.
    let sessions: Vec<Vec<u64>> = (0..CLIENTS)
        .map(|client| {
            ids_on(
                &engine,
                client % 2,
                0x3000 + 0x100 * client as u64,
                SESSIONS_PER_CLIENT,
            )
        })
        .collect();
    engine.inject_slowdown_for_tests(sessions[0][0], Duration::from_micros(200));

    // Each client sends a first round on its own, then waits here; the
    // shutdown starts once every client is released into its second
    // round, so it lands while clients are mid-request.
    let first_round_done = Arc::new(Barrier::new(CLIENTS + 1));
    let (answers, answered) = mpsc::channel();
    let clients: Vec<_> = sessions
        .iter()
        .cloned()
        .enumerate()
        .map(|(client, ids)| {
            let mut local = engine.local_client();
            let (first_round_done, answers) = (Arc::clone(&first_round_done), answers.clone());
            std::thread::spawn(move || {
                let mut replies: Vec<Vec<Outcome>> = vec![Vec::new(); ids.len()];
                let mut reply = EncodeReply::new();
                'serve: for round in 0.. {
                    if round == 1 {
                        first_round_done.wait();
                    }
                    for (which, &session) in ids.iter().enumerate() {
                        let payload = payload(session, replies[which].len());
                        match local.encode(&request(session, &payload), &mut reply) {
                            Ok(()) => replies[which].push(Outcome::of(&reply)),
                            Err(ServiceError::ShuttingDown) => break 'serve,
                            Err(err) => panic!("client {client}: {err}"),
                        }
                    }
                }
                answers.send((client, replies)).unwrap();
            })
        })
        .collect();
    first_round_done.wait();
    engine.shutdown();

    let mut served = vec![Vec::new(); CLIENTS];
    for _ in 0..CLIENTS {
        let (client, replies) = answered
            .recv_timeout(Duration::from_secs(30))
            .expect("a client never got a reply or ShuttingDown");
        served[client] = replies;
    }
    for client in clients {
        client.join().unwrap();
    }
    drop(engine);

    // Every reply before the shutdown matches the serial stream, and the
    // journals the shutdown compacted carry each session on from exactly
    // the replies its client saw.
    let engine = Engine::start(config());
    let mut local = engine.local_client();
    let mut reply = EncodeReply::new();
    for (ids, replies) in sessions.iter().zip(&mut served) {
        for (&session, replies) in ids.iter().zip(replies.iter_mut()) {
            assert!(!replies.is_empty(), "session {session:#x} was never served");
            let payload = payload(session, replies.len());
            local
                .encode(&request(session, &payload), &mut reply)
                .unwrap();
            replies.push(Outcome::of(&reply));
            assert_serial(session, replies);
        }
    }
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives `requests` requests of each of `sessions`' streams through one
/// pipelined connection, at most `window` in flight, and returns every
/// session's replies in stream order.
fn pump_pipelined(
    addr: std::net::SocketAddr,
    sessions: &[u64],
    requests: usize,
    window: usize,
) -> Vec<Vec<Outcome>> {
    let mut client = PipelinedClient::connect(addr).unwrap();
    let mut in_flight = std::collections::HashMap::new();
    let mut replies = vec![Vec::new(); sessions.len()];
    let mut sent = vec![0usize; sessions.len()];
    let mut reply = EncodeReply::new();
    let total = requests * sessions.len();
    let mut submitted = 0;
    while replies.iter().map(Vec::len).sum::<usize>() < total {
        while submitted < total && client.in_flight() < window {
            let which = submitted % sessions.len();
            let session = sessions[which];
            let payload = payload(session, sent[which]);
            let id = client.submit(&request(session, &payload)).unwrap();
            in_flight.insert(id, (which, sent[which]));
            sent[which] += 1;
            submitted += 1;
        }
        let done = client.next_completion(&mut reply).unwrap();
        assert!(done.is_ok(), "{:?}", done.error);
        let (which, index) = in_flight.remove(&done.request_id).unwrap();
        assert_eq!(index, replies[which].len(), "a session's replies reordered");
        replies[which].push(Outcome::of(&reply));
    }
    replies
}

/// Request `index` of a one-access OptFixed stream: four masks.
fn opt_fixed_payload(index: usize) -> Vec<u8> {
    let mut x = (index as u32).wrapping_mul(0x9E37_79B9) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        (x >> 24) as u8
    };
    (0..usize::from(GROUPS) * usize::from(BURST_LEN))
        .map(|_| next())
        .collect()
}

fn opt_fixed_request(session: u64, payload: &[u8]) -> EncodeRequest<'_> {
    EncodeRequest {
        session_id: session,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: GROUPS,
        burst_len: BURST_LEN,
        want_masks: true,
        verify: VerifyMode::Off,
        payload,
    }
}

#[test]
fn restores_racing_passes_roll_no_session_back() {
    const REQUESTS: usize = 4_000;
    const PIPELINED_REQUESTS: usize = 400;
    const ADMIN_CALLS: usize = 20;

    let dir = std::env::temp_dir().join(format!("dbi-restore-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 64,
        max_payload: 1 << 16,
        persist: Some(PersistConfig { dir: dir.clone() }),
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let addr = server.addr();
    const SESSION: u64 = 0x6100;
    let pipelined_ids = [0x6200, 0x6201];
    let streaming = AtomicBool::new(true);
    let (masks, pipelined) = std::thread::scope(|scope| {
        let (engine, streaming) = (&engine, &streaming);
        scope.spawn(move || {
            for call in 0..ADMIN_CALLS {
                if !streaming.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
                if call % 4 == 3 {
                    engine.trigger_snapshot().unwrap();
                } else {
                    engine.restore().unwrap();
                }
            }
        });
        let pipelined_ids = &pipelined_ids;
        let pump = scope.spawn(move || pump_pipelined(addr, pipelined_ids, PIPELINED_REQUESTS, 16));
        let mut local = engine.local_client();
        let mut reply = EncodeReply::new();
        let mut masks = Vec::with_capacity(REQUESTS * usize::from(GROUPS));
        for index in 0..REQUESTS {
            let payload = opt_fixed_payload(index);
            local
                .encode(&opt_fixed_request(SESSION, &payload), &mut reply)
                .unwrap();
            masks.extend_from_slice(&reply.masks);
        }
        streaming.store(false, Ordering::Relaxed);
        (masks, pump.join().unwrap())
    });

    let mut reference = BusSession::with_geometry(
        usize::from(GROUPS),
        usize::from(BURST_LEN),
        Scheme::OptFixed,
    );
    let (mut per_group, mut step, mut want) = (Vec::new(), Vec::new(), Vec::new());
    for index in 0..REQUESTS {
        let payload = opt_fixed_payload(index);
        reference
            .encode_stream_into(&payload, &mut per_group, Some(&mut step))
            .unwrap();
        want.extend_from_slice(&step);
    }
    assert_eq!(masks.len(), want.len());
    let diverged = masks
        .iter()
        .zip(&want)
        .position(|(have, want)| have != want);
    assert_eq!(
        diverged, None,
        "the mask stream diverged from its serial reference"
    );
    for (session, replies) in pipelined_ids.iter().zip(&pipelined) {
        assert_eq!(replies.len(), PIPELINED_REQUESTS);
        assert_serial(*session, replies);
    }
    assert!(engine.snapshot_status().restored_sessions > 0);
    server.shutdown();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
