//! Telemetry probe: drive traffic through the service and read back every
//! observability surface — stage-latency percentiles (JSON + Prometheus),
//! the always-on trace ring, the slowlog, and a chrome://tracing export.
//!
//! Run with `cargo run --example telemetry_probe`.
//!
//! The probe starts a two-shard engine with a deliberately low slowlog
//! threshold, pushes a mixed stream (plain and verify-mode requests over
//! several sessions) through the TCP front end, then drains the
//! `TraceDump` and `SlowlogQuery` frames like an external
//! operator would. CI runs this end to end: if any surface goes dark, the
//! probe exits non-zero.

use dbi::service::telemetry::chrome_trace_json;
use dbi::service::{
    CostModel, EncodeReply, EncodeRequest, Engine, ServiceConfig, TcpClient, TcpServer,
    TraceOutcome, VerifyMode,
};
use dbi::Scheme;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 50 µs threshold: real requests take single-digit microseconds,
    // so only genuinely slow ones (here: big verify-mode payloads) are
    // captured.
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 32,
        slowlog_threshold_ns: 50_000,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0")?;
    let mut tcp = TcpClient::connect(server.addr())?;
    let mut reply = EncodeReply::new();

    // --- Mixed traffic: 4 sessions, verify on for two of them. ----------
    let small: Vec<u8> = (0..256u32).map(|i| (i * 37) as u8).collect();
    let large: Vec<u8> = (0..65_536u32).map(|i| (i * 131) as u8).collect();
    for round in 0..8 {
        for session_id in 1..=4u64 {
            let verify_on = session_id % 2 == 0;
            tcp.encode(
                &EncodeRequest {
                    session_id,
                    scheme: Scheme::OptFixed,
                    cost_model: CostModel::Inline,
                    groups: 4,
                    burst_len: 8,
                    want_masks: false,
                    verify: if verify_on {
                        VerifyMode::RoundTrip
                    } else {
                        VerifyMode::Off
                    },
                    payload: if verify_on && round == 7 {
                        &large
                    } else {
                        &small
                    },
                },
                &mut reply,
            )?;
        }
    }

    // --- Stage latencies: the same numbers in both exposition forms. ----
    let snapshot = engine.metrics();
    let totals = snapshot.totals();
    println!("== stage latency (all shards) ==");
    for (stage, stats) in totals.latency.stages() {
        println!(
            "{stage:>10}: count {:>3}  mean {:>6} ns  p50 {:>6} ns  p99 {:>7} ns  p999 {:>7} ns",
            stats.count,
            stats.mean_ns(),
            stats.percentile_ns(0.50),
            stats.percentile_ns(0.99),
            stats.percentile_ns(0.999),
        );
    }
    assert_eq!(totals.latency.total.count, 32, "every request sampled");
    assert!(totals.latency.encode.percentile_ns(0.99) > 0);
    assert!(
        totals.latency.verify.count == 16,
        "half the traffic verified"
    );

    let prometheus = snapshot.to_prometheus();
    let latency_lines = prometheus
        .lines()
        .filter(|l| l.starts_with("dbi_stage_latency_nanoseconds"))
        .count();
    // 2 shards x 4 stages x (4 quantiles + sum + count).
    assert_eq!(latency_lines, 48);
    println!("\n== prometheus exposition: {latency_lines} stage-latency samples ==");
    for line in prometheus
        .lines()
        .filter(|l| l.contains("quantile=\"0.99\""))
    {
        println!("{line}");
    }

    // --- Trace ring: the last N requests, drained over the wire. --------
    let events = tcp.trace_dump(64)?;
    println!("\n== trace ring: {} events ==", events.len());
    assert_eq!(events.len(), 32);
    for event in events.iter().rev().take(4) {
        println!(
            "request {:>3} session {} shard {}: queue {:>5} ns, encode {:>6} ns, \
             verify {:>6} ns, total {:>7} ns, {} bursts, outcome {:?}",
            event.request_id,
            event.session_id,
            event.shard,
            event.queue_wait_ns,
            event.encode_ns,
            event.verify_ns,
            event.total_ns,
            event.bursts,
            event.outcome,
        );
    }
    assert!(events.iter().all(|e| e.outcome == TraceOutcome::Ok));

    // --- Slowlog: only the big verify-mode requests crossed 50 µs. ------
    let (threshold_ns, slow) = tcp.slowlog(16)?;
    println!(
        "\n== slowlog (threshold {threshold_ns} ns): {} captures ==",
        slow.len()
    );
    for entry in &slow {
        println!(
            "request {:>3} session {}: total {} ns",
            entry.request_id, entry.session_id, entry.total_ns
        );
        assert!(u64::from(entry.total_ns) >= threshold_ns);
    }
    assert!(
        !slow.is_empty(),
        "the large verified payloads must register"
    );

    // --- chrome://tracing export of the drained ring. -------------------
    let trace_json = chrome_trace_json(&events);
    println!(
        "\n== chrome trace: {} bytes, load via chrome://tracing ==",
        trace_json.len()
    );
    assert!(trace_json.contains("\"traceEvents\""));

    drop(tcp);
    server.shutdown();
    engine.shutdown();
    println!("\ntelemetry probe: all surfaces answered");
    Ok(())
}
