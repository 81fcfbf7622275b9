//! Connection-plane soak: one engine, one TCP server, and a wall of
//! concurrent pipelined connections fanning into the fixed I/O-thread
//! pool.
//!
//! The connection count scales with the environment so the same harness
//! serves three jobs:
//!
//! * plain `cargo test` — 64 connections, fast enough for every run;
//! * `DBI_SOAK_SMOKE=1` — 512 connections, the CI smoke configuration;
//! * `DBI_SOAK_CONNS=10000` — the full 10k-connection soak.
//!
//! The harness raises the process fd limit via
//! [`poller::raise_nofile_limit`]. When both ends of every connection
//! fit under that limit, the clients live in this process; when they do
//! not (the 10k soak needs ~20k descriptors for the two ends alone),
//! the harness re-executes this same test binary as **client-driver
//! child processes**, each owning a slice of the wall, with a
//! stdout/stdin barrier so every connection is provably open — and
//! counted `active` by the server — at the same moment.
//!
//! Every connection submits a pipelined window of requests under its own
//! session; the harness drains every completion and checks the whole
//! contract: all responses matched by request id, zero within-session
//! ordering violations, correct burst counts — and the plane's
//! connection metrics add up.

use dbi_core::Scheme;
use dbi_service::{
    CostModel, EncodeReply, EncodeRequest, Engine, PipelinedClient, ServiceConfig, TcpClient,
    TcpServer, VerifyMode,
};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

const GROUPS: u16 = 4;
const BURST_LEN: u8 = 8;
const ACCESS_BYTES: usize = GROUPS as usize * BURST_LEN as usize;
/// Pipelined requests each connection keeps in flight.
const WINDOW: usize = 4;
/// Connections per client-driver child process.
const CHILD_SLICE: usize = 2048;

/// Set in child processes: the server address to drive.
const ENV_ADDR: &str = "DBI_SOAK_CHILD_ADDR";
/// Set in child processes: first session id of this child's slice.
const ENV_BASE: &str = "DBI_SOAK_CHILD_BASE";
/// Set in child processes: connections in this child's slice.
const ENV_COUNT: &str = "DBI_SOAK_CHILD_COUNT";
/// The barrier line a child prints once its whole slice is connected and
/// drained; it then holds the connections open until stdin answers.
const READY_MARK: &str = "SOAK-READY";

fn connection_count() -> usize {
    if let Ok(value) = std::env::var("DBI_SOAK_CONNS") {
        return value.parse().expect("DBI_SOAK_CONNS must be a number");
    }
    if std::env::var("DBI_SOAK_SMOKE").is_ok_and(|v| v == "1") {
        return 512;
    }
    64
}

fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

/// Opens `count` pipelined connections (sessions `base+1..`), pushes a
/// `WINDOW`-deep pipeline through every one of them, drains and checks
/// every completion, and returns the still-open connections.
fn open_and_drive(addr: &str, base: u64, count: usize) -> Vec<PipelinedClient> {
    let mut clients: Vec<PipelinedClient> = (0..count)
        .map(|i| {
            PipelinedClient::connect(addr)
                .unwrap_or_else(|err| panic!("connection {i}/{count} failed: {err}"))
        })
        .collect();

    // Every connection submits its window, interleaved across the whole
    // slice so the I/O threads see maximal fan-in.
    let payload = pseudo_random(ACCESS_BYTES, 0x50AC);
    let mut submitted: Vec<Vec<u64>> = vec![Vec::with_capacity(WINDOW); count];
    for _round in 0..WINDOW {
        for (index, client) in clients.iter_mut().enumerate() {
            let id = client
                .submit(&EncodeRequest {
                    session_id: base + index as u64 + 1,
                    scheme: Scheme::OptFixed,
                    cost_model: CostModel::Inline,
                    groups: GROUPS,
                    burst_len: BURST_LEN,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    payload: &payload,
                })
                .expect("submit");
            submitted[index].push(id);
        }
    }
    // Submissions are staged; put every connection's window on the wire
    // before draining any of them.
    for (index, client) in clients.iter_mut().enumerate() {
        client
            .flush()
            .unwrap_or_else(|err| panic!("connection {index}: flush: {err}"));
    }

    // Drain every completion: request-id matching and within-session
    // FIFO asserted per connection.
    let mut reply = EncodeReply::new();
    for (index, client) in clients.iter_mut().enumerate() {
        let mut arrival = Vec::with_capacity(WINDOW);
        for _ in 0..WINDOW {
            let done = client
                .next_completion(&mut reply)
                .unwrap_or_else(|err| panic!("connection {index}: {err}"));
            assert!(done.is_ok(), "connection {index}: {:?}", done.error);
            assert_eq!(reply.bursts, u64::from(GROUPS), "connection {index}");
            arrival.push(done.request_id);
        }
        assert_eq!(
            arrival, submitted[index],
            "connection {index}: completions out of submission order \
             within one session"
        );
        assert_eq!(client.in_flight(), 0, "connection {index}");
    }
    clients
}

/// Client-driver role, run inside a re-executed child: drive the slice,
/// report ready, hold every connection open until the parent answers.
fn run_child(addr: &str) {
    let base: u64 = std::env::var(ENV_BASE).unwrap().parse().unwrap();
    let count: usize = std::env::var(ENV_COUNT).unwrap().parse().unwrap();
    let wanted = count as u64 + 256;
    let granted = poller::raise_nofile_limit(wanted).expect("query fd limit");
    assert!(granted >= wanted, "child fd limit {granted} < {wanted}");

    let clients = open_and_drive(addr, base, count);

    println!("{READY_MARK}");
    std::io::stdout().flush().unwrap();
    let mut line = String::new();
    std::io::stdin().read_line(&mut line).unwrap();
    drop(clients);
}

/// Spawns one client-driver child covering `count` sessions starting at
/// `base`.
fn spawn_child(addr: &str, base: u64, count: usize) -> Child {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args(["pipelined_fan_in_soak", "--exact", "--nocapture"])
        .env(ENV_ADDR, addr)
        .env(ENV_BASE, base.to_string())
        .env(ENV_COUNT, count.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn client-driver child")
}

#[test]
fn pipelined_fan_in_soak() {
    if let Ok(addr) = std::env::var(ENV_ADDR) {
        run_child(&addr);
        return;
    }

    let conns = connection_count();
    let engine = Engine::start(ServiceConfig {
        shards: 4,
        // Deep enough for every soak connection's whole window to be in
        // flight at once without tripping overload rejections.
        queue_capacity: (conns * WINDOW / 2).max(1024),
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // Both ends in-process when the fd limit allows it; client-driver
    // children otherwise (the servers' end alone then fills about half
    // the limit).
    let in_process_fds = (conns as u64) * 2 + 256;
    let granted = poller::raise_nofile_limit(in_process_fds).expect("query fd limit");
    let mut local_clients = Vec::new();
    let mut children: Vec<Child> = Vec::new();
    if granted >= in_process_fds {
        local_clients = open_and_drive(&addr, 0, conns);
    } else {
        let server_side_fds = (conns as u64) + 512;
        assert!(
            granted >= server_side_fds,
            "fd limit {granted} cannot hold even the server end of \
             {conns} connections"
        );
        let mut base = 0usize;
        while base < conns {
            let count = CHILD_SLICE.min(conns - base);
            children.push(spawn_child(&addr, base as u64, count));
            base += count;
        }
        // Barrier: every child has driven and drained its slice and is
        // holding its connections open.
        for (index, child) in children.iter_mut().enumerate() {
            let stdout = child.stdout.as_mut().expect("piped stdout");
            let mut lines = BufReader::new(stdout).lines();
            // `contains`, not equality: the libtest harness prints its
            // `test <name> ... ` prefix on the same line as the first
            // child print.
            let ready = lines
                .by_ref()
                .any(|line| line.map(|l| l.contains(READY_MARK)).unwrap_or(false));
            assert!(ready, "child {index} exited before reporting ready");
        }
    }

    // The whole wall is open right now: the plane's live counters must
    // say so (the probe connection adds one to both numbers).
    let mut probe = TcpClient::connect(server.addr()).unwrap();
    let json = probe.metrics_json().unwrap();
    for expect in [
        format!("\"active\":{}", conns + 1),
        format!("\"accepted\":{}", conns + 1),
        "\"dropped_slow\":0".to_owned(),
    ] {
        assert!(json.contains(&expect), "expected {expect} in {json}");
    }

    // Release the wall.
    for child in &mut children {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        writeln!(stdin, "go").unwrap();
    }
    for (index, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("join child");
        assert!(status.success(), "child {index} failed: {status}");
    }
    drop(local_clients);
    drop(probe);
    server.shutdown();
    engine.shutdown();
}
