//! The repository benchmark: end-to-end and per-layer numbers for the
//! DBI encode service on three closed-loop workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-x64 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `bulk-x64` — two `LocalClient` threads, one x64 session per shard,
//!   1 024-burst `EncodeBatch` requests: the kernel path does the work.
//! * `pipelined-small` — one pump thread over two `PipelinedClient`
//!   connections, 64 requests in flight on each, 8 sessions per
//!   connection, 64-burst requests: per-frame costs dominate.
//! * `durable-mixed` — two `LocalClient` threads cycling over OPT
//!   (`pod12@3.2`), DC and AC sessions, x32 BL16, verify and persist on.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, as a
//! series of 0.5 s epochs, each on a freshly started engine, with every
//! epoch's requests pooled. `--trace 1` is the traced run: exact
//! per-request engine spans from `Engine::trace_dump`, engine counters,
//! and timed replays of each layer's public functions at the workload's
//! geometry. Both check every reply against a serial `BusSession`
//! reference and fail on any mismatch. The last stdout line is the
//! result object; the lines before it record the run's identity (kernel,
//! CPU features, `nproc`, configuration, sample counts). `--self-test`
//! runs every workload and the traced run briefly and asserts every
//! metric is present and finite.

mod check;
mod drive;
mod layers;
mod metrics;
mod spec;
mod stats;

use dbi_service::persist::journal::{journal_files, replay_journal};
use dbi_service::persist::snapshot::read_snapshot;
use dbi_service::telemetry::LatencyStats;
use dbi_service::{EncodeReply, RestoredSession, TcpClient, TraceEvent};
use drive::{one_request, run_window, setup, teardown, Window, WindowStats};
use spec::{Session, Spec, SHARDS, WORKLOADS};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Measured time of one `--trace 0` epoch.
const EPOCH: Duration = Duration::from_millis(500);
/// Warm-up of each `--trace 0` epoch before it is measured.
const EPOCH_WARMUP: Duration = Duration::from_millis(200);

fn epochs_in(measured: Duration) -> usize {
    ((measured.as_secs_f64() / EPOCH.as_secs_f64()).round() as usize).max(1)
}

/// Warm-up of each traced-run pass.
const TRACE_WARMUP: Duration = Duration::from_millis(500);
/// Measured time of the traced run's sizing pass.
const SIZING: Duration = Duration::from_secs(1);
/// Trace events each shard keeps outside the traced pass (the default).
const UNTRACED_TRACE_CAPACITY: usize = 1024;

/// Command-line options.
#[derive(Debug, Clone)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => options.workload = value()?,
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--self-test" => {
                self_test()?;
                println!("self-test passed");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Some(options))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Some(options)) => options,
        Ok(None) => return ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("dbi-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(report) => {
            for line in &report.info {
                println!("{line}");
            }
            println!("{}", report.result_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("dbi-perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    info: Vec<String>,
}

impl Report {
    fn result_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (index, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if index == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metrics::unit_of(name)
            );
        }
        line.push_str("}}");
        line
    }
}

/// A scratch directory inside the benchmark's own directory, removed
/// when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Result<Scratch, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|err| format!("scratch {}: {err}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(options: &Options) -> Result<Report, String> {
    let spec = Spec::by_name(&options.workload).expect("validated by parse_args");
    let scratch = Scratch::new(spec.name)?;
    let measured = Duration::from_secs_f64(options.seconds);
    let mut report = if options.trace {
        traced(&spec, options.seed, measured, &scratch)?
    } else {
        end_to_end(&spec, options.seed, measured, &scratch)?
    };
    report.info.insert(0, identity(&spec, options));
    Ok(report)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The run's identity line: what was run, on which kernel and hardware
/// tier, with which configuration. Runs with different kernels or
/// `forced_scalar` are not comparable.
fn identity(spec: &Spec, options: &Options) -> String {
    let sessions: usize = spec.producers.iter().map(Vec::len).sum();
    format!(
        "identity: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"kernel\": \"{}\", \"forced_scalar\": {}, \"cpu_features\": \"{}\", \"nproc\": {}, \
         \"geometry\": \"{} groups x BL{} x {} accesses = {} bursts/request\", \
         \"transport\": \"{:?}\", \"producers\": {}, \"sessions\": {}, \"verify\": {}, \
         \"persist\": {}, \"service_config\": \"{}\", \"conn_config\": \"{:?}\"}}",
        spec.name,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        dbi_core::simd::selected_kernel().name(),
        dbi_core::simd::forced_scalar(),
        dbi_core::simd::cpu_features(),
        nproc(),
        spec.groups,
        spec.burst_len,
        spec.accesses,
        spec.bursts_per_request(),
        spec.transport,
        spec.producers.len(),
        sessions,
        spec.verify,
        spec.persist,
        format!(
            "{:?}",
            drive::service_config(
                spec,
                UNTRACED_TRACE_CAPACITY,
                Some(PathBuf::from("scratch"))
            )
        )
        .replace('"', "'"),
        drive::conn_config(spec),
    )
}

/// Sends one probe per session (masks on), stops the engine and checks
/// every session against the serial reference; on a durable workload
/// the carried states are read back from `persist_dir` after the stop.
/// The outer error is a failure to drive the workload, the inner one a
/// failed output check.
fn finish(
    spec: &Spec,
    mut live: drive::Live,
    producers: &mut [Vec<Session>],
    persist_dir: &Path,
) -> Result<Result<(), String>, String> {
    let mut reply = EncodeReply::new();
    for producer in 0..producers.len() {
        for session in 0..producers[producer].len() {
            one_request(
                spec, &mut live, producers, producer, session, true, &mut reply,
            )?;
        }
    }
    teardown(live);
    let persisted = if spec.persist {
        Some(persisted_states(persist_dir)?)
    } else {
        None
    };
    Ok(check::check_all(spec, producers, persisted.as_ref()))
}

/// The carried state of every session on disk under `dir`: the
/// snapshot, overridden by the records of the journals that continue it
/// in append order, the fold engine recovery makes.
fn persisted_states(dir: &Path) -> Result<HashMap<u64, RestoredSession>, String> {
    let snapshot = read_snapshot(dir).map_err(|err| format!("read snapshot: {err}"))?;
    let generation = snapshot.as_ref().map_or(0, |snapshot| snapshot.generation);
    let mut sessions: HashMap<u64, RestoredSession> = snapshot
        .into_iter()
        .flat_map(|snapshot| snapshot.sessions)
        .map(|session| (session.session_id, session))
        .collect();
    for path in journal_files(dir).map_err(|err| format!("list journals: {err}"))? {
        let Some(replay) =
            replay_journal(&path).map_err(|err| format!("replay {}: {err}", path.display()))?
        else {
            continue;
        };
        if replay.generation == generation || replay.generation == generation + 1 {
            for session in replay.records {
                sessions.insert(session.session_id, session);
            }
        }
    }
    Ok(sessions)
}

fn reset_logs(producers: &mut [Vec<Session>]) {
    for session in producers.iter_mut().flatten() {
        session.log = spec::SessionLog::default();
    }
}

/// The `--trace 0` run: one epoch per [`EPOCH`] of measured time. Each
/// epoch sets up a fresh engine (one `setup_s` sample), warms it up,
/// measures, probes, stops it and checks its output. Fresh engines place
/// their worker threads anew, so a run spans many thread placements
/// rather than the one its engine happened to get. A durable workload
/// keeps one persist directory for the whole run with new session ids in
/// every epoch, so each set-up recovers and self-compacts the state of
/// every earlier epoch. Bursts and the p99 pool every epoch's requests.
/// The p50 is the mean of the epochs' medians: an epoch's requests fall
/// into one of two latency modes (by how the scheduler placed the
/// threads), and the median of the pooled requests jumps from one mode
/// to the other as their shares shift, where the mean moves with the
/// shares.
fn end_to_end(
    spec: &Spec,
    seed: u64,
    measured: Duration,
    scratch: &Scratch,
) -> Result<Report, String> {
    let mut producers = spec.sessions(seed);
    let persist_dir = scratch.path("persist");
    let mut total = WindowStats::default();
    let mut setup_s = Vec::new();
    let mut epoch_p50_us = Vec::new();
    let mut next_id = 1;
    let mut epochs = String::from("epochs:");
    let mut checked = Ok(());
    let mut check_s = 0.0;
    for epoch in 0..epochs_in(measured) {
        reset_logs(&mut producers);
        let (mut live, seconds) = setup(
            spec,
            &mut producers,
            &mut next_id,
            UNTRACED_TRACE_CAPACITY,
            Some(persist_dir.clone()),
        )?;
        setup_s.push(seconds);
        let window = Window::new(EPOCH_WARMUP, EPOCH);
        let stats = run_window(spec, &mut live, &mut producers, window, false)?;
        let latency = &stats.tally.latency;
        epoch_p50_us.push(latency.percentile_us(0.50));
        let _ = write!(
            epochs,
            " [{epoch}] {:.0} bursts/s p50 {:.1} us p99 {:.1} us",
            stats.bursts_per_s(),
            latency.percentile_us(0.50),
            latency.percentile_us(0.99)
        );
        total.absorb(&stats);
        let check_started = Instant::now();
        let outcome = finish(spec, live, &mut producers, &persist_dir)?;
        if checked.is_ok() {
            checked = outcome;
        }
        check_s += check_started.elapsed().as_secs_f64();
    }
    let tally = &total.tally;
    let mut report = Report {
        correct: checked.is_ok(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("bursts_per_s", total.bursts_per_s()),
            ("latency_p50_us", stats::mean(epoch_p50_us.iter().copied())),
            ("latency_p99_us", tally.latency.percentile_us(0.99)),
            ("setup_s", stats::median(&setup_s)),
            ("peak_rss_mb", stats::peak_rss_mb()),
        ],
        info: vec![epochs],
    };
    report.info.push(format!(
        "samples: {} requests over {:.1} s measured ({} beyond p99); {} failed of {} attempted \
         (failed_frac {:.6}); {:.2} s of process CPU time, {:.2} ns per burst",
        tally.latency.count(),
        total.measured_s,
        tally.latency.count() / 100,
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        total.cpu_s,
        total.cpu_s * 1e9 / tally.bursts.max(1) as f64
    ));
    let mut sorted = setup_s.clone();
    sorted.sort_by(f64::total_cmp);
    report.info.push(format!(
        "setup_s: {} set-ups, min {:.6} median {:.6} max {:.6}",
        sorted.len(),
        sorted[0],
        stats::median(&sorted),
        sorted[sorted.len() - 1]
    ));
    report.info.push(match checked {
        Ok(()) => format!(
            "output check: passed in {check_s:.2} s (every session of every epoch matches \
             the serial BusSession reference)"
        ),
        Err(err) => format!("output check: FAILED: {err}"),
    });
    Ok(report)
}

fn latency_delta(after: &LatencyStats, before: &LatencyStats) -> LatencyStats {
    let mut delta = *after;
    for (mine, earlier) in delta.buckets.iter_mut().zip(&before.buckets) {
        *mine -= *earlier;
    }
    delta.count -= before.count;
    delta.sum_ns -= before.sum_ns;
    delta
}

/// Pulls `"key":<number>` out of the connections block of a metrics
/// JSON scrape.
fn connections_field(json: &str, key: &str) -> f64 {
    let Some(block) = json.find("\"connections\":").map(|at| &json[at..]) else {
        return 0.0;
    };
    let tag = format!("\"{key}\":");
    block
        .find(&tag)
        .map(|at| &block[at + tag.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0.0)
}

/// Exact per-request engine spans of the measured window.
struct Spans {
    events: usize,
    queue_wait_p50_us: f64,
    queue_wait_p99_us: f64,
    queue_wait_mean_us: f64,
    encode_mean_us: f64,
    verify_mean_us: f64,
    total_mean_us: f64,
    total_p99_us: f64,
    complete: bool,
}

fn spans(trace: &[TraceEvent], window: &Window, capacity: usize) -> Spans {
    let (from, to) = window.engine_span_ns();
    let inside: Vec<&TraceEvent> = trace
        .iter()
        .filter(|event| event.enqueue_ns >= from && event.enqueue_ns < to)
        .collect();
    // The ring kept every window event if it never filled, or if its
    // oldest surviving event predates the window.
    let on_shard = |shard: usize| {
        trace
            .iter()
            .filter(move |event| usize::from(event.shard) == shard)
    };
    let complete = (0..SHARDS).all(|shard| {
        on_shard(shard).count() < capacity
            || on_shard(shard)
                .next()
                .is_some_and(|event| event.enqueue_ns < from)
    });
    let us = |ns: u32| f64::from(ns) / 1e3;
    let mut queue: Vec<u32> = inside.iter().map(|event| event.queue_wait_ns).collect();
    let mut total: Vec<u32> = inside.iter().map(|event| event.total_ns).collect();
    Spans {
        events: inside.len(),
        queue_wait_mean_us: stats::mean(queue.iter().map(|&ns| us(ns))),
        queue_wait_p50_us: us(stats::percentile(&mut queue, 0.50)),
        queue_wait_p99_us: us(stats::percentile(&mut queue, 0.99)),
        encode_mean_us: stats::mean(inside.iter().map(|event| us(event.encode_ns))),
        verify_mean_us: stats::mean(inside.iter().map(|event| us(event.verify_ns))),
        total_mean_us: stats::mean(total.iter().map(|&ns| us(ns))),
        total_p99_us: us(stats::percentile(&mut total, 0.99)),
        complete,
    }
}

/// The `--trace 1` run: a short sizing pass, whose request rate sizes
/// the trace ring, then the traced pass, then the layer replays.
fn traced(spec: &Spec, seed: u64, measured: Duration, scratch: &Scratch) -> Result<Report, String> {
    let traced_span = measured / 2;
    let mut next_id = 1;

    let mut producers = spec.sessions(seed);
    let dir = scratch.path("persist-sizing");
    let (mut live, _) = setup(
        spec,
        &mut producers,
        &mut next_id,
        UNTRACED_TRACE_CAPACITY,
        Some(dir.clone()),
    )?;
    let window = Window::new(TRACE_WARMUP, SIZING);
    let sizing = run_window(spec, &mut live, &mut producers, window, false)?;
    let mut checked = finish(spec, live, &mut producers, &dir)?;

    // A ring large enough for every request of the traced pass, with
    // room for the rate to double.
    let per_shard_rate = sizing.tally.latency.count() as f64 / sizing.measured_s / SHARDS as f64;
    let capacity =
        (per_shard_rate * (traced_span + TRACE_WARMUP).as_secs_f64() * 2.0) as usize + 4096;
    let mut producers = spec.sessions(seed);
    let dir = scratch.path("persist-traced");
    let (mut live, _) = setup(
        spec,
        &mut producers,
        &mut next_id,
        capacity,
        Some(dir.clone()),
    )?;
    let window = Window::new(TRACE_WARMUP, traced_span);
    let traced = run_window(spec, &mut live, &mut producers, window, true)?;
    let trace = live.engine.trace_dump(capacity);
    let scrape = match &live.server {
        Some(server) => TcpClient::connect(server.addr())
            .map_err(|err| format!("metrics connect: {err}"))?
            .metrics_json()
            .map_err(|err| format!("metrics scrape: {err}"))?,
        None => String::new(),
    };
    let outcome = finish(spec, live, &mut producers, &dir)?;
    if checked.is_ok() {
        checked = outcome;
    }

    let spans = spans(&trace, &window, capacity);
    let (before, after) = traced
        .counters
        .as_ref()
        .ok_or("no engine counters for the traced window")?;
    let (b, a) = (before.totals(), after.totals());
    let passes = (a.passes - b.passes).max(1) as f64;
    let jobs_per_pass = (a.passes - b.passes + a.coalesced - b.coalesced) as f64 / passes;
    let dispatches = (a.dispatches - b.dispatches).max(1) as f64;
    let lane_occupancy = (a.dispatch_chains - b.dispatch_chains) as f64 / dispatches;
    let full_fraction = (a.full_dispatches - b.full_dispatches) as f64 / dispatches;
    let hist_queue_p99 = latency_delta(&a.latency.queue_wait, &b.latency.queue_wait)
        .percentile_ns(0.99) as f64
        / 1e3;
    let hist_total_p99 =
        latency_delta(&a.latency.total, &b.latency.total).percentile_ns(0.99) as f64 / 1e3;

    // Layer replays at the workload's geometry.
    let sessions: Vec<&Session> = producers.iter().flatten().collect();
    let groups = usize::from(spec.groups);
    let sessions_per_round = ((lane_occupancy / groups as f64).round() as usize).clamp(1, 16);
    let sessions_per_shard = sessions.len().div_ceil(SHARDS);
    let sessions_per_pass = (jobs_per_pass.round() as usize).clamp(1, sessions_per_shard);
    let (replays, geometry) = layers::replay(
        spec,
        &sessions,
        sessions_per_round,
        sessions_per_pass,
        &scratch.0,
    )?;

    let mut attributed = spans.total_mean_us;
    if matches!(spec.transport, spec::Transport::Pipelined { .. }) {
        attributed += (replays.submit_ns
            + replays.request_decode_ns
            + replays.response_encode_ns
            + replays.response_decode_ns)
            / 1e3;
    }
    let client_mean_us = traced.tally.latency.mean_us();
    let unattributed = client_mean_us - attributed;

    let mut info = vec![
        format!(
            "traced run: sizing pass {:.0} bursts/s ({} requests), traced pass {:.0} bursts/s \
             ({} requests), client mean {client_mean_us:.2} us, attributed {attributed:.2} us",
            sizing.bursts_per_s(),
            sizing.tally.latency.count(),
            traced.bursts_per_s(),
            traced.tally.latency.count(),
        ),
        format!(
            "engine spans: {} trace events in the window (ring {capacity}/shard, complete: {}); \
             exact p99 queue_wait {:.2} us total {:.2} us; log2-histogram p99 queue_wait \
             {hist_queue_p99:.2} us total {hist_total_p99:.2} us (gap {:+.2} / {:+.2} us)",
            spans.events,
            spans.complete,
            spans.queue_wait_p99_us,
            spans.total_p99_us,
            hist_queue_p99 - spans.queue_wait_p99_us,
            hist_total_p99 - spans.total_p99_us
        ),
        format!(
            "kernel rows: {} chains ({} sessions x {groups} groups) x {} accesses, BL{}, priced, \
             kernel {}; journal pass = {sessions_per_pass} session records",
            geometry.chains,
            geometry.sessions_per_round,
            geometry.accesses,
            geometry.burst_len,
            dbi_core::simd::selected_kernel().name()
        ),
        match &checked {
            Ok(()) if spans.complete => {
                "output check: passed (both passes match the serial BusSession reference)"
                    .to_owned()
            }
            Ok(()) => "output check: passed, but the trace ring dropped window events".to_owned(),
            Err(err) => format!("output check: FAILED: {err}"),
        },
    ];

    let metric_values = vec![
        ("core.dispatch.ns_per_burst", replays.dispatch_ns_per_burst),
        ("core.dispatch.chains", geometry.chains as f64),
        ("mem.pack.ns_per_burst", replays.pack_ns_per_burst),
        ("mem.gather.ns_per_burst", replays.gather_ns_per_burst),
        ("mem.verify.ns_per_burst", replays.verify_ns_per_burst),
        ("engine.savings.ns_per_burst", replays.savings_ns_per_burst),
        ("persist.journal.ns_per_pass", replays.journal_ns_per_pass),
        (
            "persist.journal.bytes_per_pass",
            replays.journal_bytes_per_pass,
        ),
        (
            "wire.request_encode.ns_per_frame",
            replays.request_encode_ns,
        ),
        (
            "wire.request_decode.ns_per_frame",
            replays.request_decode_ns,
        ),
        (
            "wire.response_encode.ns_per_frame",
            replays.response_encode_ns,
        ),
        (
            "wire.response_decode.ns_per_frame",
            replays.response_decode_ns,
        ),
        ("client.submit.ns_per_request", replays.submit_ns),
        ("engine.queue_wait.p50_us", spans.queue_wait_p50_us),
        ("engine.queue_wait.mean_us", spans.queue_wait_mean_us),
        ("engine.queue_depth_peak", a.queue_depth_peak as f64),
        ("engine.encode_stage.mean_us", spans.encode_mean_us),
        ("engine.verify_stage.mean_us", spans.verify_mean_us),
        ("engine.service_total.mean_us", spans.total_mean_us),
        ("engine.jobs_per_pass", jobs_per_pass),
        ("engine.dispatch.lane_occupancy", lane_occupancy),
        ("engine.dispatch.full_fraction", full_fraction),
        ("engine.rejected", a.rejected as f64),
        ("engine.plan_cache.misses", after.plan_cache.misses as f64),
        (
            "conn.read_hwm_bytes",
            connections_field(&scrape, "read_buf_high_watermark"),
        ),
        (
            "conn.write_hwm_bytes",
            connections_field(&scrape, "write_buf_high_watermark"),
        ),
        (
            "conn.dropped_slow",
            connections_field(&scrape, "dropped_slow"),
        ),
        ("telemetry.unattributed_us", unattributed),
    ];
    for metric in &metrics::PER_LAYER {
        let value = metric_values
            .iter()
            .find(|(name, _)| *name == metric.name)
            .map_or(f64::NAN, |(_, value)| *value);
        info.push(format!(
            "layer {}: {value:.4} {} (moves {})",
            metric.name, metric.unit, metric.moves
        ));
    }
    Ok(Report {
        correct: checked.is_ok() && spans.complete,
        attempted: sizing.tally.attempted + traced.tally.attempted,
        failed: sizing.tally.failed + traced.tally.failed,
        metrics: metric_values,
        info,
    })
}

/// Runs every workload briefly through both modes and checks the
/// result shape: every named metric present and finite, the output
/// check passed, nothing failed.
fn self_test() -> Result<(), String> {
    for name in WORKLOADS {
        let spec = Spec::by_name(name).expect("listed workloads exist");
        let scratch = Scratch::new(&format!("self-test-{name}"))?;
        let e2e_names: Vec<&str> = metrics::END_TO_END.iter().map(|(name, _)| *name).collect();
        let layer_names: Vec<&str> = metrics::PER_LAYER
            .iter()
            .map(|metric| metric.name)
            .collect();
        for (trace, table) in [(false, &e2e_names), (true, &layer_names)] {
            let measured = Duration::from_millis(400);
            let report = if trace {
                traced(&spec, 7, measured, &scratch)?
            } else {
                end_to_end(&spec, 7, measured, &scratch)?
            };
            let context = format!("{name} --trace {}", u8::from(trace));
            if !report.correct || report.failed != 0 || report.attempted == 0 {
                return Err(format!("{context}: {:?}", report.info));
            }
            if report.metrics.len() != table.len() {
                return Err(format!(
                    "{context}: {} metrics, table has {}",
                    report.metrics.len(),
                    table.len()
                ));
            }
            for name in table {
                match report.metrics.iter().find(|(metric, _)| metric == name) {
                    Some((_, value)) if value.is_finite() => {}
                    Some((_, value)) => return Err(format!("{context}: {name} = {value}")),
                    None => return Err(format!("{context}: {name} missing")),
                }
            }
            println!("{context}: ok {}", report.result_line());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_runs_every_workload_and_the_traced_run() {
        super::self_test().expect("self-test");
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let json = include_str!("../../BENCHMARK.json");
        let rows = super::metrics::END_TO_END.iter().copied().chain(
            super::metrics::PER_LAYER
                .iter()
                .map(|metric| (metric.name, metric.unit)),
        );
        for (name, unit) in rows {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            super::metrics::END_TO_END.len() + super::metrics::PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not report"
        );
        for name in super::WORKLOADS {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
    }
}
