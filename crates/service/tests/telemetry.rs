//! End-to-end proof of the telemetry plane over TCP:
//!
//! * A `TraceDump` drained through its wire frame yields one
//!   event per executed request with **consistent spans**: the timeline
//!   is ordered by enqueue time, request ids are unique, and the staged
//!   durations (queue wait + encode + verify) never exceed the total —
//!   nothing is double-counted, nothing happens outside the
//!   enqueue→completion envelope.
//! * A fault-injected slow request crosses the slowlog threshold and is
//!   the thing the `SlowlogQuery` frame returns, threshold included.
//! * The same requests light up the stage-latency surfaces: the JSON
//!   snapshot and the Prometheus exposition both report non-zero
//!   percentiles for every stage that ran.

use dbi_core::Scheme;
use dbi_service::{
    CostModel, EncodeReply, EncodeRequest, Engine, ServiceConfig, TcpClient, TcpServer,
    TraceOutcome, VerifyMode,
};
use std::collections::HashSet;
use std::time::Duration;

fn pseudo_random(len: usize, mut seed: u32) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 24) as u8
        })
        .collect()
}

const SLOW_SESSION: u64 = 99;
const THRESHOLD_NS: u64 = 20_000_000;

#[test]
fn tcp_trace_dump_has_consistent_spans_and_slowlog_catches_the_slow_request() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 32,
        slowlog_threshold_ns: THRESHOLD_NS,
        ..ServiceConfig::default()
    });
    // Make one session deterministically slow: 2.5x the threshold, which
    // sits 5x above the few milliseconds a healthy request can take in a
    // debug build on a loaded two-core machine.
    engine.inject_slowdown_for_tests(SLOW_SESSION, Duration::from_millis(50));
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut tcp = TcpClient::connect(server.addr()).unwrap();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(256, 0xAB);
    let request = |session_id| EncodeRequest {
        session_id,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: false,
        verify: VerifyMode::RoundTrip,
        payload: &payload,
    };
    for session_id in 1..=6u64 {
        for _ in 0..3 {
            tcp.encode(&request(session_id), &mut reply).unwrap();
        }
    }
    tcp.encode(&request(SLOW_SESSION), &mut reply).unwrap();

    // --- TraceDump: every request traced, spans consistent. ---
    let events = tcp.trace_dump(64).unwrap();
    assert_eq!(events.len(), 19, "6 sessions x 3 requests + 1 slow");
    let ids: HashSet<u64> = events.iter().map(|e| e.request_id).collect();
    assert_eq!(ids.len(), events.len(), "request ids must be unique");
    for window in events.windows(2) {
        assert!(
            window[0].enqueue_ns <= window[1].enqueue_ns,
            "dump must be ordered by enqueue time"
        );
    }
    for event in &events {
        assert_eq!(event.outcome, TraceOutcome::Ok);
        assert!(event.bursts > 0);
        assert!(usize::from(event.shard) < engine.shard_count());
        assert!(event.encode_ns > 0, "{event:?}");
        assert!(event.verify_ns > 0, "verify mode was on: {event:?}");
        let staged = u64::from(event.queue_wait_ns)
            + u64::from(event.encode_ns)
            + u64::from(event.verify_ns);
        assert!(
            staged <= u64::from(event.total_ns),
            "stages must partition the total: {event:?}"
        );
    }

    // --- Slowlog: exactly the fault-injected session crossed it. ---
    let (threshold_ns, slow) = tcp.slowlog(16).unwrap();
    assert_eq!(threshold_ns, THRESHOLD_NS);
    assert!(!slow.is_empty(), "the injected request must be captured");
    for entry in &slow {
        assert_eq!(entry.session_id, SLOW_SESSION, "{entry:?}");
        assert!(u64::from(entry.total_ns) >= threshold_ns);
    }

    // --- Exposition: both formats report the latency that was seen. ---
    let json = tcp.metrics_json().unwrap();
    for stage in ["queue_wait", "encode", "verify", "total"] {
        assert!(
            json.contains(&format!("\"{stage}\":{{\"count\":")),
            "{json}"
        );
    }
    assert!(json.contains("\"p999_ns\":"), "{json}");
    let prometheus = engine.metrics().to_prometheus();
    assert!(prometheus.contains("# TYPE dbi_stage_latency_nanoseconds summary"));
    for stage in ["queue_wait", "encode", "verify", "total"] {
        assert!(
            prometheus.contains(&format!("stage=\"{stage}\",quantile=\"0.999\"")),
            "{prometheus}"
        );
    }
    // The stage histograms saw every request on some shard.
    let totals = engine.metrics().totals();
    assert_eq!(totals.latency.total.count, 19);
    assert_eq!(totals.latency.encode.count, 19);
    assert!(totals.latency.total.percentile_ns(0.999) >= THRESHOLD_NS);

    drop(tcp);
    server.shutdown();
    engine.shutdown();
}

#[test]
fn trace_ring_keeps_only_the_most_recent_events() {
    let engine = Engine::start(ServiceConfig {
        shards: 1,
        queue_capacity: 8,
        trace_capacity: 4,
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload = pseudo_random(64, 0xCD);
    for _ in 0..10 {
        client
            .encode(
                &EncodeRequest {
                    session_id: 1,
                    scheme: Scheme::OptFixed,
                    cost_model: CostModel::Inline,
                    groups: 4,
                    burst_len: 8,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    payload: &payload,
                },
                &mut reply,
            )
            .unwrap();
    }
    let events = engine.trace_dump(64);
    assert_eq!(events.len(), 4, "the ring holds only its capacity");
    // The survivors are the newest four, in order.
    for window in events.windows(2) {
        assert!(window[0].request_id < window[1].request_id);
    }
    let oldest_surviving = events[0].request_id;
    assert!(oldest_surviving >= 7, "{events:?}");
    engine.shutdown();
}
