//! Set-up, the closed-loop producers, and teardown.
//!
//! A run's clock is a [`Window`]: a warm-up, then a measured span. The
//! producer threads start once per window and file every attempt that
//! completes inside the measured span into their own [`Tally`]; the
//! main thread sleeps to the window's edges and reads the engine
//! counters there when asked to.

use crate::spec::{assign_ids, Session, Spec, Transport, IO_THREADS, QUEUE_CAPACITY, SHARDS};
use crate::stats::{process_cpu_s, Histogram};
use dbi_core::clock;
use dbi_service::wire::ErrorCode;
use dbi_service::{
    ConnConfig, EncodeReply, Engine, LocalClient, MetricsSnapshot, PersistConfig, PipelinedClient,
    ServiceConfig, ServiceError, TcpServer,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The pinned engine configuration.
pub fn service_config(
    spec: &Spec,
    trace_capacity: usize,
    persist: Option<PathBuf>,
) -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        queue_capacity: QUEUE_CAPACITY,
        max_payload: 1 << 20,
        max_sessions_per_shard: 4096,
        plan_cache_capacity: 64,
        trace_capacity,
        slowlog_capacity: 64,
        slowlog_threshold_ns: 1_000_000,
        persist: persist
            .filter(|_| spec.persist)
            .map(|dir| PersistConfig { dir }),
    }
}

/// The pinned connection-plane configuration.
pub fn conn_config(spec: &Spec) -> ConnConfig {
    let window = match spec.transport {
        Transport::Pipelined { window } => window,
        Transport::Local => 1,
    };
    ConnConfig {
        io_threads: IO_THREADS,
        max_in_flight: window,
        ..ConnConfig::default()
    }
}

/// A running engine with its front end and one client per producer.
pub struct Live {
    pub engine: Engine,
    pub server: Option<TcpServer>,
    pub clients: Clients,
}

pub enum Clients {
    Local(Vec<LocalClient>),
    Pipelined(Vec<PipelinedClient>),
}

/// Starts the engine (recovering from `persist` when the workload is
/// durable), gives every session an id the engine has not seen from
/// `*next_id` on, binds the server and connects the clients of a
/// pipelined workload, and runs the first request to completion.
/// Returns the live system and the seconds all of that took.
pub fn setup(
    spec: &Spec,
    producers: &mut [Vec<Session>],
    next_id: &mut u64,
    trace_capacity: usize,
    persist: Option<PathBuf>,
) -> Result<(Live, f64), String> {
    let start = Instant::now();
    let engine = Engine::try_start(service_config(spec, trace_capacity, persist))
        .map_err(|err| format!("engine start: {err}"))?;
    *next_id = assign_ids(&engine, producers, *next_id);
    let (server, clients) = match spec.transport {
        Transport::Local => (
            None,
            Clients::Local(producers.iter().map(|_| engine.local_client()).collect()),
        ),
        Transport::Pipelined { .. } => {
            let server = TcpServer::bind_with(&engine, "127.0.0.1:0", conn_config(spec))
                .map_err(|err| format!("bind: {err}"))?;
            let clients = producers
                .iter()
                .map(|_| PipelinedClient::connect(server.addr()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|err| format!("connect: {err}"))?;
            (Some(server), Clients::Pipelined(clients))
        }
    };
    let mut live = Live {
        engine,
        server,
        clients,
    };
    let mut reply = EncodeReply::new();
    one_request(spec, &mut live, producers, 0, 0, false, &mut reply)?;
    Ok((live, start.elapsed().as_secs_f64()))
}

/// Sends one request on `producers[producer][session]` through that
/// producer's client and waits for it; used for set-up and the probes.
pub fn one_request(
    spec: &Spec,
    live: &mut Live,
    producers: &mut [Vec<Session>],
    producer: usize,
    session: usize,
    probe: bool,
    reply: &mut EncodeReply,
) -> Result<(), String> {
    let target = &mut producers[producer][session];
    let (seq, want_masks) = target.next_request(probe);
    match &mut live.clients {
        Clients::Local(clients) => {
            let request = target.batch_request(spec, seq, want_masks);
            clients[producer]
                .encode_batch(&request, reply)
                .map_err(|err| format!("request on session {}: {err}", target.id))?;
        }
        Clients::Pipelined(clients) => {
            let request = target.plain_request(spec, seq, want_masks);
            let client = &mut clients[producer];
            client
                .submit(&request)
                .map_err(|err| format!("submit: {err}"))?;
            let done = client
                .next_completion(reply)
                .map_err(|err| format!("completion: {err}"))?;
            if let Some((code, message)) = done.error {
                return Err(format!(
                    "request on session {}: {code:?} {message}",
                    target.id
                ));
            }
        }
    }
    target.log.record(seq, reply, want_masks);
    Ok(())
}

/// Stops the front end and the engine and waits for their threads.
pub fn teardown(live: Live) {
    let Live {
        engine,
        server,
        clients,
    } = live;
    drop(clients);
    if let Some(server) = server {
        server.shutdown();
    }
    engine.shutdown();
}

/// The clock of one measured run: a warm-up, then the measured span.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    /// `clock::now_nanos()` at `start`, to place engine trace stamps.
    start_ns: u64,
    warmup: Duration,
    measured: Duration,
}

impl Window {
    pub fn new(warmup: Duration, measured: Duration) -> Window {
        Window {
            start: Instant::now(),
            start_ns: clock::now_nanos(),
            warmup,
            measured,
        }
    }

    fn measure_from(&self) -> Instant {
        self.start + self.warmup
    }

    fn end(&self) -> Instant {
        self.measure_from() + self.measured
    }

    /// The engine-clock span of the measured window.
    pub fn engine_span_ns(&self) -> (u64, u64) {
        let from = self.start_ns + self.warmup.as_nanos() as u64;
        (from, from + self.measured.as_nanos() as u64)
    }
}

/// What producers saw in measured spans.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Client-observed latency of every completed request.
    pub latency: Histogram,
    pub bursts: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Files one attempt submitted at `start` and finished at `now`
    /// (`bursts` is `None` for a refusal). Returns false once the window
    /// is over; that attempt is not filed.
    fn record(
        &mut self,
        window: &Window,
        start: Instant,
        now: Instant,
        bursts: Option<u64>,
    ) -> bool {
        if now >= window.end() {
            return false;
        }
        if now < window.measure_from() {
            return true;
        }
        self.attempted += 1;
        match bursts {
            Some(bursts) => {
                self.bursts += bursts;
                self.latency.record(now - start);
            }
            None => self.failed += 1,
        }
        true
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.latency.absorb(&other.latency);
        self.bursts += other.bursts;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One or more measured windows.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    pub tally: Tally,
    /// Seconds measured.
    pub measured_s: f64,
    /// Process CPU seconds spent while measuring.
    pub cpu_s: f64,
    /// Engine counters at the start and the end of the measured span,
    /// when asked for.
    pub counters: Option<(MetricsSnapshot, MetricsSnapshot)>,
}

impl WindowStats {
    pub fn absorb(&mut self, other: &WindowStats) {
        self.tally.absorb(&other.tally);
        self.measured_s += other.measured_s;
        self.cpu_s += other.cpu_s;
    }

    pub fn bursts_per_s(&self) -> f64 {
        self.tally.bursts as f64 / self.measured_s.max(f64::MIN_POSITIVE)
    }
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Runs the workload's closed loop through `window` and drains every
/// outstanding request. With `counters`, the engine metrics are read at
/// the edges of the measured span.
pub fn run_window(
    spec: &Spec,
    live: &mut Live,
    producers: &mut [Vec<Session>],
    window: Window,
    counters: bool,
) -> Result<WindowStats, String> {
    let engine = live.engine.clone();
    std::thread::scope(|scope| {
        let handles: Vec<_> = match &mut live.clients {
            Clients::Local(clients) => clients
                .iter_mut()
                .zip(producers.iter_mut())
                .map(|(client, sessions)| {
                    scope.spawn(move || local_producer(spec, client, sessions, window))
                })
                .collect(),
            Clients::Pipelined(clients) => {
                vec![scope.spawn(move || pipelined_pump(spec, clients, producers, window))]
            }
        };
        sleep_until(window.measure_from());
        let cpu_before = process_cpu_s();
        let before = counters.then(|| engine.metrics());
        sleep_until(window.end());
        let after = counters.then(|| engine.metrics());
        let mut stats = WindowStats {
            measured_s: window.measured.as_secs_f64(),
            cpu_s: process_cpu_s() - cpu_before,
            counters: before.zip(after),
            ..WindowStats::default()
        };
        for handle in handles {
            let tally = handle.join().expect("producer thread panicked")?;
            stats.tally.absorb(&tally);
        }
        Ok(stats)
    })
}

fn is_refusal(err: &ServiceError) -> bool {
    matches!(
        err,
        ServiceError::Overloaded { .. } | ServiceError::SessionLimit { .. }
    )
}

fn is_refusal_code(code: ErrorCode) -> bool {
    matches!(code, ErrorCode::Overloaded | ErrorCode::SessionLimit)
}

/// A local producer: one blocking client cycling over its sessions
/// until the window ends.
fn local_producer(
    spec: &Spec,
    client: &mut LocalClient,
    sessions: &mut [Session],
    window: Window,
) -> Result<Tally, String> {
    let mut reply = EncodeReply::new();
    let mut tally = Tally::default();
    for turn in (0..sessions.len()).cycle() {
        let session = &mut sessions[turn];
        let (seq, want_masks) = session.next_request(false);
        let request = session.batch_request(spec, seq, want_masks);
        let start = Instant::now();
        let outcome = client.encode_batch(&request, &mut reply);
        let now = Instant::now();
        let bursts = match outcome {
            Ok(()) => {
                session.log.record(seq, &reply, want_masks);
                Some(reply.bursts)
            }
            Err(err) if is_refusal(&err) => {
                session.log.skipped.push(seq);
                None
            }
            Err(err) => return Err(format!("session {}: {err}", session.id)),
        };
        if !tally.record(&window, start, now, bursts) {
            break;
        }
    }
    Ok(tally)
}

/// Bookkeeping of one in-flight pipelined request.
#[derive(Clone, Copy)]
struct InFlight {
    request_id: u64,
    start: Instant,
    session: usize,
    seq: u64,
    want_masks: bool,
}

/// Slots of the per-connection in-flight table (indexed by request id).
const RING: usize = 4096;

/// The pipelined pump's in-flight requests: one table per connection,
/// indexed by request id, and each connection's turn over its sessions.
struct Pump {
    tables: Vec<Vec<Option<InFlight>>>,
    turns: Vec<usize>,
}

impl Pump {
    fn submit(
        &mut self,
        spec: &Spec,
        conn: usize,
        client: &mut PipelinedClient,
        sessions: &mut [Session],
    ) -> Result<(), String> {
        let index = self.turns[conn] % sessions.len();
        self.turns[conn] += 1;
        let session = &mut sessions[index];
        let (seq, want_masks) = session.next_request(false);
        let request = session.plain_request(spec, seq, want_masks);
        let start = Instant::now();
        let request_id = client
            .submit(&request)
            .map_err(|err| format!("connection {conn}: submit: {err}"))?;
        let slot = &mut self.tables[conn][request_id as usize % RING];
        if slot.is_some() {
            return Err(format!("connection {conn}: in-flight table overflow"));
        }
        *slot = Some(InFlight {
            request_id,
            start,
            session: index,
            seq,
            want_masks,
        });
        Ok(())
    }

    /// Waits for one completion on a connection and logs it. Returns the
    /// bursts (`None` for a refusal) and the request's submit instant.
    fn complete_one(
        &mut self,
        conn: usize,
        client: &mut PipelinedClient,
        sessions: &mut [Session],
        reply: &mut EncodeReply,
    ) -> Result<(Option<u64>, Instant), String> {
        let done = client
            .next_completion(reply)
            .map_err(|err| format!("connection {conn}: completion: {err}"))?;
        let entry = self.tables[conn][done.request_id as usize % RING]
            .take()
            .filter(|entry| entry.request_id == done.request_id)
            .ok_or_else(|| format!("connection {conn}: unknown request id {}", done.request_id))?;
        let session = &mut sessions[entry.session];
        let bursts = match done.error {
            None => {
                session.log.record(entry.seq, reply, entry.want_masks);
                Some(reply.bursts)
            }
            Some((code, _)) if is_refusal_code(code) => {
                session.log.skipped.push(entry.seq);
                None
            }
            Some((code, message)) => {
                return Err(format!("session {}: {code:?} {message}", session.id));
            }
        };
        Ok((bursts, entry.start))
    }
}

/// The pipelined closed loop: keeps `window` requests in flight on every
/// connection, each connection cycling over its own sessions, until the
/// window ends; then collects every outstanding completion.
fn pipelined_pump(
    spec: &Spec,
    clients: &mut [PipelinedClient],
    producers: &mut [Vec<Session>],
    window: Window,
) -> Result<Tally, String> {
    let Transport::Pipelined { window: depth } = spec.transport else {
        unreachable!("the pump drives pipelined workloads");
    };
    let mut pump = Pump {
        tables: clients.iter().map(|_| vec![None; RING]).collect(),
        turns: vec![0; clients.len()],
    };
    for (conn, client) in clients.iter_mut().enumerate() {
        for _ in 0..depth {
            pump.submit(spec, conn, client, &mut producers[conn])?;
        }
    }
    let mut tally = Tally::default();
    let mut reply = EncodeReply::new();
    'window: loop {
        for (conn, client) in clients.iter_mut().enumerate() {
            let sessions = &mut producers[conn];
            let (bursts, start) = pump.complete_one(conn, client, sessions, &mut reply)?;
            if !tally.record(&window, start, Instant::now(), bursts) {
                break 'window;
            }
            pump.submit(spec, conn, client, sessions)?;
        }
    }
    for (conn, client) in clients.iter_mut().enumerate() {
        while client.in_flight() > 0 {
            pump.complete_one(conn, client, &mut producers[conn], &mut reply)?;
        }
    }
    Ok(tally)
}
