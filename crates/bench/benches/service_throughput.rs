//! Service load generator: throughput and latency of the sharded encode
//! service under concurrent multi-client traffic.
//!
//! Spins the whole service up **in-process** and drives it with the
//! `dbi_workloads` traffic mixes ([`LoadProfile`]) at varying client
//! counts, over four transports:
//!
//! * `local` — each client thread owns a [`LocalClient`] (the
//!   allocation-free in-process path; measures engine + sharding),
//! * `tcp` — each client thread owns a [`TcpClient`] over loopback
//!   (adds the wire protocol and socket round trip),
//! * `local-batch` / `tcp-batch` — the **batched data
//!   plane**: each request is one `EncodeBatch` submission carrying
//!   [`BATCH_ACCESSES`] accesses (one header + contiguous payload per
//!   whole batch), the throughput headline of the slab refactor,
//! * `pipelined` — the **high-fan-in rows**: one driver
//!   multiplexing 64/256/1024 [`PipelinedClient`] connections into the
//!   event-driven connection plane, keeping a constant
//!   [`FAN_IN_WINDOW`]-deep aggregate pipeline in flight so the series
//!   isolates what fan-in itself costs,
//! * `local-contend` — the **many-session contention rows**:
//!   [`CONTEND_SESSIONS`] client threads, each its own session, firing
//!   small ([`CONTEND_ACCESSES`]-access) requests at once. This is the
//!   profile the packed worker pass and the lock-free shard queues are
//!   built for — many shallow streams contending for the same shards —
//!   and `stage_queue_p99_us` is its headline column.
//!
//! Per-request latency is recorded and the run's requests/s, bursts/s
//! and p50/p99 latency land in `BENCH_service.json` at the repository
//! root, next to `BENCH_encode.json`. Each row also carries the
//! **server-side stage latencies** for its window — queue-wait, encode
//! and total percentiles read as deltas of the engine's stage histograms
//! around the run — so client-observed latency can be decomposed into
//! where the service actually spent it.
//!
//! Environment knobs: `DBI_SERVICE_SCHEME` (any name `Scheme::from_str`
//! accepts, e.g. `opt-fixed`, `dc`, `opt:2,3`; default `opt-fixed`),
//! `DBI_SERVICE_BENCH_REQUESTS` (requests per client per run) and
//! `DBI_SERVICE_BENCH_SMOKE` (when set: 1 client, a small bounded
//! request count, no timing gate and no JSON rewrite — the CI mode that
//! fails the workflow on batch-path regressions without timing noise;
//! it additionally asserts that every stage histogram that should have
//! run reports non-zero counts and percentiles).
//!
//! Full (non-smoke) runs also gate against the previously recorded
//! `BENCH_service.json`: if any `local-batch` row's bursts/s falls below
//! [`GATE_TOLERANCE`] of its recorded value the run prints a regression
//! warning — or fails outright when `DBI_ENFORCE_SPEEDUP=1`, the CI mode
//! for machines whose baseline was recorded on the same hardware.

use dbi_core::Scheme;
use dbi_service::telemetry::LatencyStats;
use dbi_service::{
    CostModel, EncodeBatchRequest, EncodeReply, EncodeRequest, Engine, PipelinedClient,
    ServiceConfig, StageLatency, TcpClient, TcpServer, VerifyMode,
};
use dbi_workloads::LoadProfile;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

const GROUPS: u16 = 4;
const BURST_LEN: u8 = 8;
const ACCESSES_PER_REQUEST: usize = 16;
/// Accesses per `EncodeBatch` submission on the batch transports: 256
/// accesses = 1024 bursts = 8 KiB per frame, amortising the header, the
/// queue hop and the syscall across a whole slab.
const BATCH_ACCESSES: usize = 256;
const CLIENT_COUNTS: [usize; 3] = [1, 4, 8];
const BENCH_SEED: u64 = 0x5E41_11CE;

/// Sessions in the many-session contention rows: enough concurrent
/// shallow streams that shard queues stay deep and worker passes can
/// pack cross-session rounds.
const CONTEND_SESSIONS: usize = 64;
/// Accesses per request on the contention rows: small on purpose, so
/// queue handling and dispatch packing dominate over raw encode time.
const CONTEND_ACCESSES: usize = 4;
/// A `local-batch` row may drop to this fraction of its recorded
/// bursts/s before the regression gate trips; headroom for ordinary
/// run-to-run bench noise.
const GATE_TOLERANCE: f64 = 0.90;

/// Connection counts for the high-fan-in rows: the same aggregate load
/// spread over ever more pipelined connections, all multiplexed onto the
/// fixed I/O-thread pool.
const FAN_IN_CONNS: [usize; 3] = [64, 256, 1024];
/// Aggregate in-flight pipeline depth for the fan-in runs. Holding this
/// constant across connection counts means the row series isolates the
/// connection-plane cost of fan-in (poller tables, per-connection buffer
/// bookkeeping) from queueing depth.
const FAN_IN_WINDOW: usize = 256;
/// Requests each connection carries over a fan-in run.
const FAN_IN_ROUNDS_PER_CONN: usize = 8;

/// One measured configuration.
struct Row {
    transport: &'static str,
    profile: String,
    clients: usize,
    requests: u64,
    elapsed_s: f64,
    bursts: u64,
    p50_us: f64,
    p99_us: f64,
    /// Server-side stage percentiles over this run's window, read as
    /// deltas of the engine's stage histograms (microseconds).
    stage_queue_p99_us: f64,
    stage_encode_p50_us: f64,
    stage_encode_p99_us: f64,
    stage_total_p99_us: f64,
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[rank] as f64 / 1_000.0
}

/// What one client thread reports back: per-request latencies, the
/// bursts it encoded, and how long its (pre-generated) request loop ran.
struct ClientReport {
    latencies_ns: Vec<u64>,
    bursts: u64,
    elapsed_s: f64,
}

/// Payloads each client pre-generates and cycles through, so the timed
/// loop measures the service rather than the traffic generator (the
/// text-heavy `server` profile costs more to *generate* than to encode).
const PAYLOAD_POOL: usize = 32;

/// Drives `requests` encode calls through `call`, cycling payloads drawn
/// up front from the client's own seeded profile instance.
fn drive_client(
    mut profile: LoadProfile,
    session_id: u64,
    scheme: Scheme,
    requests: usize,
    accesses_per_request: usize,
    mut call: impl FnMut(&EncodeRequest<'_>, &mut EncodeReply) -> bool,
) -> ClientReport {
    let pool: Vec<Vec<u8>> = (0..PAYLOAD_POOL.min(requests.max(1)))
        .map(|_| {
            let mut payload = Vec::new();
            for _ in 0..accesses_per_request {
                profile.fill_access(usize::from(GROUPS), usize::from(BURST_LEN), &mut payload);
            }
            payload
        })
        .collect();
    let mut reply = EncodeReply::new();
    let mut report = ClientReport {
        latencies_ns: Vec::with_capacity(requests),
        bursts: 0,
        elapsed_s: 0.0,
    };
    let run_start = Instant::now();
    for index in 0..requests {
        let request = EncodeRequest {
            session_id,
            scheme,
            cost_model: CostModel::Inline,
            groups: GROUPS,
            burst_len: BURST_LEN,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &pool[index % pool.len()],
        };
        let start = Instant::now();
        // Overload responses are explicit backpressure: retry until
        // admitted, counting the whole wait as request latency.
        while !call(&request, &mut reply) {
            std::thread::yield_now();
        }
        report.latencies_ns.push(start.elapsed().as_nanos() as u64);
        report.bursts += reply.bursts;
    }
    report.elapsed_s = run_start.elapsed().as_secs_f64();
    report
}

fn profile_by_name(name: &str, seed: u64) -> LoadProfile {
    match name {
        "uniform" => LoadProfile::uniform(seed),
        "gpu" => LoadProfile::gpu(seed),
        "server" => LoadProfile::server(seed),
        "stress" => LoadProfile::stress(seed),
        other => panic!("unknown profile {other}"),
    }
}

/// Converts a per-burst request into its batch form.
fn to_batch<'a>(request: &EncodeRequest<'a>) -> EncodeBatchRequest<'a> {
    EncodeBatchRequest::from_request(request).expect("bench payloads divide into whole bursts")
}

/// The samples one stage histogram gained between two snapshots.
fn stage_delta(after: &LatencyStats, before: &LatencyStats) -> LatencyStats {
    let mut delta = *after;
    for (mine, earlier) in delta.buckets.iter_mut().zip(&before.buckets) {
        *mine -= *earlier;
    }
    delta.count -= before.count;
    delta.sum_ns -= before.sum_ns;
    delta
}

fn percentile_delta_us(after: &LatencyStats, before: &LatencyStats, p: f64) -> f64 {
    stage_delta(after, before).percentile_ns(p) as f64 / 1_000.0
}

fn run_config(
    engine: &Engine,
    tcp_addr: SocketAddr,
    transport: &'static str,
    profile_name: &str,
    scheme: Scheme,
    clients: usize,
    requests_per_client: usize,
) -> Row {
    let accesses_per_request = if transport.ends_with("batch") {
        BATCH_ACCESSES
    } else if transport == "local-contend" {
        CONTEND_ACCESSES
    } else {
        ACCESSES_PER_REQUEST
    };
    let stages_before: StageLatency = engine.metrics().totals().latency;
    let reports: Vec<ClientReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let profile = profile_by_name(profile_name, BENCH_SEED ^ (client as u64) << 8);
                let session_id = 0xB00 + client as u64;
                s.spawn(move || match transport {
                    "local" | "local-contend" => {
                        let mut local = engine.local_client();
                        drive_client(
                            profile,
                            session_id,
                            scheme,
                            requests_per_client,
                            accesses_per_request,
                            |req, reply| match local.encode(req, reply) {
                                Ok(()) => true,
                                Err(dbi_service::ServiceError::Overloaded { .. }) => false,
                                Err(err) => panic!("local client failed: {err}"),
                            },
                        )
                    }
                    "local-batch" => {
                        let mut local = engine.local_client();
                        drive_client(
                            profile,
                            session_id,
                            scheme,
                            requests_per_client,
                            accesses_per_request,
                            |req, reply| match local.encode_batch(&to_batch(req), reply) {
                                Ok(()) => true,
                                Err(dbi_service::ServiceError::Overloaded { .. }) => false,
                                Err(err) => panic!("local batch client failed: {err}"),
                            },
                        )
                    }
                    "tcp-batch" => {
                        let mut tcp =
                            TcpClient::connect(tcp_addr).expect("connect to the bench server");
                        drive_client(
                            profile,
                            session_id,
                            scheme,
                            requests_per_client,
                            accesses_per_request,
                            |req, reply| match tcp.encode_batch(&to_batch(req), reply) {
                                Ok(()) => true,
                                Err(dbi_service::ClientError::Remote {
                                    code: dbi_service::wire::ErrorCode::Overloaded,
                                    ..
                                }) => false,
                                Err(err) => panic!("tcp batch client failed: {err}"),
                            },
                        )
                    }
                    _ => {
                        let mut tcp =
                            TcpClient::connect(tcp_addr).expect("connect to the bench server");
                        drive_client(
                            profile,
                            session_id,
                            scheme,
                            requests_per_client,
                            accesses_per_request,
                            |req, reply| match tcp.encode(req, reply) {
                                Ok(()) => true,
                                Err(dbi_service::ClientError::Remote {
                                    code: dbi_service::wire::ErrorCode::Overloaded,
                                    ..
                                }) => false,
                                Err(err) => panic!("tcp client failed: {err}"),
                            },
                        )
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // The clients run concurrently; the slowest request loop bounds the
    // measurement window (pool generation happens before each client's
    // clock starts).
    let elapsed_s = reports
        .iter()
        .map(|r| r.elapsed_s)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);

    let mut latencies: Vec<u64> = reports
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let stages_after: StageLatency = engine.metrics().totals().latency;
    Row {
        transport,
        profile: profile_name.to_owned(),
        clients,
        requests: latencies.len() as u64,
        elapsed_s,
        bursts: reports.iter().map(|r| r.bursts).sum(),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        stage_queue_p99_us: percentile_delta_us(
            &stages_after.queue_wait,
            &stages_before.queue_wait,
            0.99,
        ),
        stage_encode_p50_us: percentile_delta_us(&stages_after.encode, &stages_before.encode, 0.50),
        stage_encode_p99_us: percentile_delta_us(&stages_after.encode, &stages_before.encode, 0.99),
        stage_total_p99_us: percentile_delta_us(&stages_after.total, &stages_before.total, 0.99),
    }
}

/// High-fan-in run: one driver thread multiplexing `conns` pipelined v5
/// connections, keeping a constant [`FAN_IN_WINDOW`]-deep aggregate
/// pipeline in flight in waves. Each wave submits one request per
/// round-robin-chosen connection and then drains those completions in
/// submission order, asserting that every response comes back under the
/// id it was submitted with.
fn run_fan_in(
    engine: &Engine,
    tcp_addr: SocketAddr,
    profile_name: &str,
    scheme: Scheme,
    conns: usize,
    rounds_per_conn: usize,
) -> Row {
    let mut profile = profile_by_name(profile_name, BENCH_SEED ^ 0xFA_u64);
    let pool: Vec<Vec<u8>> = (0..PAYLOAD_POOL)
        .map(|_| {
            let mut payload = Vec::new();
            for _ in 0..ACCESSES_PER_REQUEST {
                profile.fill_access(usize::from(GROUPS), usize::from(BURST_LEN), &mut payload);
            }
            payload
        })
        .collect();
    let mut clients: Vec<PipelinedClient> = (0..conns)
        .map(|index| {
            PipelinedClient::connect(tcp_addr)
                .unwrap_or_else(|err| panic!("fan-in connection {index}/{conns} failed: {err}"))
        })
        .collect();

    let stages_before: StageLatency = engine.metrics().totals().latency;
    let total = conns * rounds_per_conn;
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut bursts = 0u64;
    let mut reply = EncodeReply::new();
    let mut next_conn = 0usize;
    let mut submitted = 0usize;
    let run_start = Instant::now();
    while submitted < total {
        let wave = FAN_IN_WINDOW.min(total - submitted);
        let mut in_flight = Vec::with_capacity(wave);
        for _ in 0..wave {
            let index = next_conn % conns;
            next_conn += 1;
            let request = EncodeRequest {
                session_id: index as u64 + 1,
                scheme,
                cost_model: CostModel::Inline,
                groups: GROUPS,
                burst_len: BURST_LEN,
                want_masks: false,
                verify: VerifyMode::Off,
                payload: &pool[submitted % pool.len()],
            };
            let start = Instant::now();
            let id = clients[index].submit(&request).expect("fan-in submit");
            in_flight.push((index, id, start));
            submitted += 1;
        }
        // Submissions are staged; put the whole wave on the wire before
        // draining any client, so the I/O threads see the full fan-in.
        for client in &mut clients {
            client.flush().expect("fan-in flush");
        }
        for (index, id, start) in in_flight {
            let done = clients[index]
                .next_completion(&mut reply)
                .expect("fan-in completion");
            assert!(done.is_ok(), "connection {index}: {:?}", done.error);
            assert_eq!(
                done.request_id, id,
                "connection {index}: completion id mismatch"
            );
            latencies.push(start.elapsed().as_nanos() as u64);
            bursts += reply.bursts;
        }
    }
    let elapsed_s = run_start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);

    latencies.sort_unstable();
    let stages_after: StageLatency = engine.metrics().totals().latency;
    Row {
        transport: "pipelined",
        profile: profile_name.to_owned(),
        clients: conns,
        requests: total as u64,
        elapsed_s,
        bursts,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        stage_queue_p99_us: percentile_delta_us(
            &stages_after.queue_wait,
            &stages_before.queue_wait,
            0.99,
        ),
        stage_encode_p50_us: percentile_delta_us(&stages_after.encode, &stages_before.encode, 0.50),
        stage_encode_p99_us: percentile_delta_us(&stages_after.encode, &stages_before.encode, 0.99),
        stage_total_p99_us: percentile_delta_us(&stages_after.total, &stages_before.total, 0.99),
    }
}

fn main() {
    // `cargo bench` passes harness flags; this custom harness ignores
    // everything except `--bench`-style invocations.
    let scheme: Scheme = std::env::var("DBI_SERVICE_SCHEME")
        .unwrap_or_else(|_| "opt-fixed".to_owned())
        .parse()
        .expect("DBI_SERVICE_SCHEME must be a valid scheme name");
    // Smoke mode (CI): 1 client, a small bounded request count, all four
    // transports exercised end to end — a functional regression in the
    // batch path fails the workflow — but no timing gate and no JSON
    // rewrite, so a noisy runner cannot corrupt the recorded numbers.
    let smoke = std::env::var_os("DBI_SERVICE_BENCH_SMOKE").is_some();
    let requests_per_client: usize = std::env::var("DBI_SERVICE_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 64 } else { 2_000 });
    let client_counts: &[usize] = if smoke { &[1] } else { &CLIENT_COUNTS };

    let engine = Engine::start(ServiceConfig {
        shards: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        queue_capacity: 256,
        max_payload: 1 << 20,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").expect("bind the bench server");
    let addr = server.addr();

    let profiles = ["uniform", "gpu", "server", "stress"];
    let mut rows = Vec::new();
    for transport in ["local", "tcp", "local-batch", "tcp-batch"] {
        for profile in profiles {
            for &clients in client_counts {
                // A batch submission carries 16x the accesses of a
                // per-burst request; fewer submissions measure the same
                // traffic volume.
                let requests = if transport.ends_with("batch") {
                    (requests_per_client / 8).max(8)
                } else {
                    requests_per_client
                };
                let row = run_config(&engine, addr, transport, profile, scheme, clients, requests);
                println!(
                    "{:<11} {:<8} {:>2} clients: {:>9.0} req/s {:>12.0} bursts/s  p50 {:>7.1} us  p99 {:>7.1} us  [stage p99: queue {:>6.1} encode {:>6.1} total {:>6.1} us]",
                    row.transport,
                    row.profile,
                    row.clients,
                    row.requests as f64 / row.elapsed_s,
                    row.bursts as f64 / row.elapsed_s,
                    row.p50_us,
                    row.p99_us,
                    row.stage_queue_p99_us,
                    row.stage_encode_p99_us,
                    row.stage_total_p99_us,
                );
                rows.push(row);
            }
        }
    }

    // High-fan-in rows: the same aggregate pipeline depth spread over
    // 64/256/1024 pipelined connections. Both socket ends live in this
    // process, so make sure the fd table can hold the largest run.
    let fan_in_counts: &[usize] = if smoke { &[32] } else { &FAN_IN_CONNS };
    let rounds_per_conn = if smoke { 4 } else { FAN_IN_ROUNDS_PER_CONN };
    let largest = *fan_in_counts.iter().max().unwrap() as u64;
    let granted = poller::raise_nofile_limit(largest * 2 + 256).expect("query fd limit");
    assert!(
        granted >= largest * 2 + 256,
        "fd limit {granted} cannot hold {largest} in-process fan-in connections"
    );
    for profile in profiles {
        for &conns in fan_in_counts {
            let row = run_fan_in(&engine, addr, profile, scheme, conns, rounds_per_conn);
            println!(
                "{:<11} {:<8} {:>4} conns:  {:>9.0} req/s {:>12.0} bursts/s  p50 {:>7.1} us  p99 {:>7.1} us  [stage p99: queue {:>6.1} encode {:>6.1} total {:>6.1} us]",
                row.transport,
                row.profile,
                row.clients,
                row.requests as f64 / row.elapsed_s,
                row.bursts as f64 / row.elapsed_s,
                row.p50_us,
                row.p99_us,
                row.stage_queue_p99_us,
                row.stage_encode_p99_us,
                row.stage_total_p99_us,
            );
            rows.push(row);
        }
    }

    // Many-session contention rows: every session is its own client
    // thread firing small requests, so shard queues stay deep and worker
    // passes pack cross-session rounds. Queue-wait p99 is the headline.
    let contend_clients = if smoke { 8 } else { CONTEND_SESSIONS };
    let contend_requests = (requests_per_client / 4).max(8);
    for profile in profiles {
        let row = run_config(
            &engine,
            addr,
            "local-contend",
            profile,
            scheme,
            contend_clients,
            contend_requests,
        );
        println!(
            "{:<11} {:<8} {:>2} clients: {:>9.0} req/s {:>12.0} bursts/s  p50 {:>7.1} us  p99 {:>7.1} us  [stage p99: queue {:>6.1} encode {:>6.1} total {:>6.1} us]",
            row.transport,
            row.profile,
            row.clients,
            row.requests as f64 / row.elapsed_s,
            row.bursts as f64 / row.elapsed_s,
            row.p50_us,
            row.p99_us,
            row.stage_queue_p99_us,
            row.stage_encode_p99_us,
            row.stage_total_p99_us,
        );
        rows.push(row);
    }

    if smoke {
        // The CI gate for the telemetry plane: every stage that executed
        // must have seen every request, with believable (non-zero)
        // percentiles. Verify mode is off here, so that stage stays
        // legitimately empty.
        let latency = engine.metrics().totals().latency;
        let executed = engine.metrics().totals().requests;
        for (stage, stats) in latency.stages() {
            if stage == "verify" {
                assert_eq!(stats.count, 0, "verify never ran in this bench");
                continue;
            }
            assert_eq!(
                stats.count, executed,
                "stage {stage} must have one sample per executed request"
            );
            assert!(
                stats.percentile_ns(0.5) > 0 && stats.percentile_ns(0.999) > 0,
                "stage {stage} percentiles must be non-zero"
            );
            assert!(stats.mean_ns() > 0, "stage {stage} mean must be non-zero");
        }
        println!("smoke mode: stage histograms consistent ({executed} samples per stage); skipping the BENCH_service.json rewrite");
    } else {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
        // Gate against the recorded baseline *before* overwriting it.
        if let Ok(previous) = std::fs::read_to_string(path) {
            gate_against_baseline(&previous, &rows);
        }
        let json = render_json(scheme, requests_per_client, &rows);
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }

    let totals = engine.metrics().totals();
    println!(
        "service totals: {} requests, {} bursts, {} transitions saved, {} rejects, \
         {} passes ({} coalesced)",
        totals.requests,
        totals.bursts,
        totals.transitions_saved,
        totals.rejected,
        totals.passes,
        totals.coalesced
    );
    server.shutdown();
    engine.shutdown();
}

/// Pulls one `"key": value` number out of a recorded row line. The file
/// is this bench's own line-oriented output, so no JSON crate is needed.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Pulls one `"key": "value"` string out of a recorded row line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// The local-batch throughput gate: compares every freshly measured
/// `local-batch` row against the same (profile, clients) row recorded in
/// the previous `BENCH_service.json`. Regressions beyond
/// [`GATE_TOLERANCE`] warn by default — bench runners are noisy and the
/// recorded file may come from different hardware — and abort the run
/// when `DBI_ENFORCE_SPEEDUP=1`.
fn gate_against_baseline(previous: &str, rows: &[Row]) {
    let mut regressions = 0u32;
    for line in previous
        .lines()
        .filter(|line| line.contains("\"transport\": \"local-batch\""))
    {
        let (Some(profile), Some(clients), Some(recorded)) = (
            field_str(line, "profile"),
            field_f64(line, "clients"),
            field_f64(line, "bursts_per_s"),
        ) else {
            continue;
        };
        let Some(row) = rows.iter().find(|row| {
            row.transport == "local-batch"
                && row.profile == profile
                && row.clients == clients as usize
        }) else {
            continue;
        };
        let measured = row.bursts as f64 / row.elapsed_s;
        if measured < recorded * GATE_TOLERANCE {
            regressions += 1;
            eprintln!(
                "regression: local-batch/{profile}/{clients} clients: \
                 {measured:.0} bursts/s vs {recorded:.0} recorded \
                 ({:.1}% of baseline)",
                measured / recorded * 100.0
            );
        }
    }
    if regressions > 0 {
        let enforce = std::env::var("DBI_ENFORCE_SPEEDUP").is_ok_and(|v| v == "1");
        assert!(
            !enforce,
            "{regressions} local-batch row(s) regressed past {GATE_TOLERANCE} \
             of the recorded baseline (DBI_ENFORCE_SPEEDUP=1)"
        );
        eprintln!(
            "warning: {regressions} local-batch row(s) below {GATE_TOLERANCE} of the \
             recorded baseline; set DBI_ENFORCE_SPEEDUP=1 to make this fatal"
        );
    } else {
        println!(
            "throughput gate: every local-batch row within tolerance of the recorded baseline"
        );
    }
}

fn render_json(scheme: Scheme, requests_per_client: usize, rows: &[Row]) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"dbi-service load generator, {GROUPS} groups x BL{BURST_LEN}, \
         {ACCESSES_PER_REQUEST} accesses/request ({BATCH_ACCESSES} on the -batch transports)\","
    );
    let _ = writeln!(json, "  \"scheme\": \"{scheme}\",");
    let _ = writeln!(json, "  \"requests_per_client\": {requests_per_client},");
    let _ = writeln!(json, "  \"rows\": [");
    for (index, row) in rows.iter().enumerate() {
        let comma = if index + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"transport\": \"{}\", \"profile\": \"{}\", \"clients\": {}, \
             \"requests\": {}, \"requests_per_s\": {:.0}, \"bursts_per_s\": {:.0}, \
             \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
             \"stage_queue_p99_us\": {:.2}, \"stage_encode_p50_us\": {:.2}, \
             \"stage_encode_p99_us\": {:.2}, \"stage_total_p99_us\": {:.2}}}{comma}",
            row.transport,
            row.profile,
            row.clients,
            row.requests,
            row.requests as f64 / row.elapsed_s,
            row.bursts as f64 / row.elapsed_s,
            row.p50_us,
            row.p99_us,
            row.stage_queue_p99_us,
            row.stage_encode_p50_us,
            row.stage_encode_p99_us,
            row.stage_total_p99_us,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push('}');
    json.push('\n');
    json
}
