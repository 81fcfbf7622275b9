//! # dbi-service
//!
//! A multi-threaded DBI encoding **service** over the zero-allocation
//! engine of `dbi-core`/`dbi-mem`: the deployment shape the paper's
//! encoder targets, where a DBI encoder sits in the memory-controller
//! datapath and handles sustained write traffic from many concurrent
//! producers. Built entirely on `std` — no async runtime, no network or
//! serialisation crates.
//!
//! ## Architecture
//!
//! ```text
//!                      ┌────── connection plane ──────┐ ┌────────────── Engine ──────────────┐
//!  TcpClient ──────┐    accept ─round-▶ I/O thread 0 ──▶│ shard 0: queue ─ worker ─ {sessions} │
//!  PipelinedClient ┼TCP▶thread  robin   epoll: conns…  │ shard 1: queue ─ worker ─ {sessions} │
//!                  ┘                  ▶ I/O thread 1 ◀──│   ...       bounded     BusSession   │
//!                                       epoll: conns…   └──── completion callbacks (tokens) ──┘
//!  LocalClient ─────────── in-process ──────────────────▶
//! ```
//!
//! * [`wire`] — the length-prefixed binary frame format (one protocol
//!   version, [`wire::VERSION`]) with a zero-copy, `unsafe`-free
//!   decoder. Every encode request and response carries a client-chosen
//!   `u64` request id, so one connection keeps many requests in flight
//!   and matches responses by id — out of order across sessions, FIFO
//!   within one. A request carries a [`CostModel`] on session setup
//!   (inline weights, raw runtime `alpha,beta`, or a named phy operating
//!   point such as `sstl15@6.4` or `pod12@3.2`), either one access or a
//!   whole **batch** of bursts under a single header (u16 burst count +
//!   contiguous payload), and the **verify bit** ([`VerifyMode`]): the
//!   engine decodes its own output through the receiver path
//!   ([`dbi_mem::BusSession::verify_packed_results`]) and answers
//!   [`wire::ErrorCode::VerifyMismatch`] on any encode/decode asymmetry.
//!   Admin frames cover metrics, telemetry and durability (trigger a
//!   snapshot, query durability status, restore from disk).
//! * [`Engine`] — N shard workers, each owning a private map of
//!   [`dbi_mem::BusSession`]s keyed by session id. Routing is *sticky*
//!   (same session id → same shard), so each session's carried bus state
//!   evolves exactly as in a serial run; results are bit-identical to
//!   single-threaded encoding. Workers encode through the slab path
//!   ([`dbi_core::BurstSlab`] + `encode_stream_slab_into`) and
//!   **coalesce** queued same-session requests into one worker pass.
//!   Queues are bounded and overflow is an explicit
//!   [`ServiceError::Overloaded`] response, never silent growth. Cost
//!   models resolve to [`dbi_core::EncodePlan`]s served from one
//!   process-wide [`dbi_core::PlanCache`] shared by every shard, so a
//!   weight pair's cost tables are built at most once per engine.
//! * [`LocalClient`] — the in-process front door: deterministic,
//!   socket-free, and **zero heap allocations per request** once warm
//!   (including requests carrying explicit cost models, and the
//!   [`LocalClient::encode_batch`] batch path).
//! * [`TcpServer`] / [`conn`] — the socket front end: an event-driven
//!   **connection plane**. An accept thread round-robins incoming
//!   connections onto a fixed pool of I/O threads, each multiplexing
//!   thousands of nonblocking connections through its own
//!   `poller` readiness loop (vendored epoll with a poll(2) fallback).
//!   Engine workers hand completed requests back through per-thread
//!   inboxes and wakers, matched by generation-tagged tokens.
//!   Per-connection read/write buffers are sized by actual backlog and
//!   bounded by high-watermarks — a client that stops reading while
//!   responses pile up is dropped as a typed
//!   [`wire::ErrorCode::SlowConsumer`], counted in the metrics
//!   `connections` block. [`TcpServer::shutdown`] deterministically
//!   joins every I/O thread and closes every connection.
//! * [`TcpClient`] / [`PipelinedClient`] — the client sides, both
//!   returning bytes identical to [`LocalClient`]:
//!   [`PipelinedClient::submit`] stages the frame and returns the
//!   assigned request id immediately,
//!   [`PipelinedClient::next_completion`] blocks for the next
//!   completion, [`PipelinedClient::try_next_completion`] polls; staged
//!   frames go out in one write when a poll must read, at
//!   [`PipelinedClient::flush`], or past a 64 KiB bound.
//!   `TcpClient` is the one-at-a-time wrapper over it (submit, then wait
//!   for that completion); [`TcpClient::encode_batch`] ships a whole
//!   batch per round trip.
//! * [`metrics`] — per-shard atomic counters (requests, rejects, bytes,
//!   bursts, transitions saved, queue depth + peak, sessions) plus a
//!   `batch` block (worker passes, coalesced requests, pass-size p50/p99,
//!   bursts/request), a `verify` block (round trips run, mismatches
//!   found), a `rate` block (requests/s, rejects/s over a sliding
//!   window), per-stage latency percentiles and the shared plan-cache
//!   counters (hits, misses, evictions, resident plans), snapshotted as
//!   JSON ([`MetricsSnapshot::to_json`]) or Prometheus text
//!   ([`MetricsSnapshot::to_prometheus`]) on request.
//! * [`telemetry`] — the observability plane behind those latency
//!   numbers: lock-free per-shard stage histograms, an always-on binary
//!   trace ring of recent requests ([`TraceEvent`]), a slowlog of
//!   requests over a configurable threshold, and exports — the
//!   `TraceDump`/`SlowlogQuery` wire frames plus
//!   chrome://tracing JSON ([`telemetry::chrome_trace_json`]).
//! * [`persist`] — the **durable session plane** (opt-in via
//!   [`PersistConfig`]): a DBI memory-based code's decodability lives in
//!   the carried per-session bus state, so losing it breaks every later
//!   decode. Workers append each touched session's state to a per-shard
//!   append-only journal at every burst boundary (buffered writer, zero
//!   allocations once warm); [`Engine::trigger_snapshot`] takes the
//!   shard locks one at a time and compacts each shard's journal with
//!   its live sessions' state (staged, synced, renamed); recovery at
//!   [`Engine::try_start`] folds the journals (newest record wins, torn
//!   tails skipped) and replays **bit-identically** to an uninterrupted
//!   serial run. When a shard's session table fills, the
//!   least-recently-touched idle session is evicted (journal-captured
//!   sessions preferred) rather than rejecting fresh ids forever; a full
//!   table of busy sessions answers
//!   [`wire::ErrorCode::SessionLimit`]. Admin access: the durability
//!   admin wire frames, [`TcpClient::trigger_snapshot`] /
//!   [`TcpClient::snapshot_status`] / [`TcpClient::restore`], and a
//!   `durability` block in the metrics JSON and Prometheus text.
//!
//! ## Example
//!
//! ```
//! use dbi_core::Scheme;
//! use dbi_service::{CostModel, EncodeReply, EncodeRequest, Engine, ServiceConfig, VerifyMode};
//!
//! let engine = Engine::start(ServiceConfig::default());
//! let mut client = engine.local_client();
//! let mut reply = EncodeReply::new();
//! // One x32 BL8 access (4 lane groups × 8 beats), beat-interleaved.
//! let payload = [0x5Au8; 32];
//! client
//!     .encode(
//!         &EncodeRequest {
//!             session_id: 1,
//!             scheme: Scheme::OptFixed,
//!             cost_model: CostModel::Inline,
//!             groups: 4,
//!             burst_len: 8,
//!             want_masks: true,
//!             verify: VerifyMode::Off,
//!             payload: &payload,
//!         },
//!         &mut reply,
//!     )
//!     .unwrap();
//! assert_eq!(reply.bursts, 4);
//! engine.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod client;
pub mod conn;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod persist;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use client::{PipelinedClient, PipelinedCompletion, TcpClient};
pub use conn::ConnConfig;
pub use engine::{
    EncodeBatchRequest, EncodeReply, EncodeRequest, Engine, LocalClient, ServiceConfig,
    MAX_BURST_LEN, MAX_GROUPS,
};
pub use error::{ClientError, ServiceError};
pub use metrics::{MetricsSnapshot, ShardSnapshot, StageLatency};
pub use persist::{PersistConfig, PersistError, RestoredSession};
pub use server::TcpServer;
pub use telemetry::{TelemetryRegistry, TraceEvent, TraceOutcome};
pub use wire::{CostModel, VerifyMode};

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::Scheme;

    #[test]
    fn local_and_tcp_paths_return_identical_results() {
        let engine = Engine::start(ServiceConfig::default());
        let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();

        let payload: Vec<u8> = (0..64u8).collect();
        let request = EncodeRequest {
            session_id: 42,
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Inline,
            groups: 4,
            burst_len: 8,
            want_masks: true,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        // Distinct session ids so each path owns fresh carried state.
        let mut local_reply = EncodeReply::new();
        engine
            .local_client()
            .encode(&request, &mut local_reply)
            .unwrap();

        let mut tcp = TcpClient::connect(server.addr()).unwrap();
        let mut tcp_reply = EncodeReply::new();
        tcp.encode(
            &EncodeRequest {
                session_id: 43,
                ..request
            },
            &mut tcp_reply,
        )
        .unwrap();

        assert_eq!(local_reply, tcp_reply);
        let json = tcp.metrics_json().unwrap();
        assert!(json.contains("\"requests\":2"), "{json}");
        drop(tcp);
        server.shutdown();
        engine.shutdown();
    }

    #[test]
    fn remote_errors_carry_the_service_taxonomy() {
        let engine = Engine::start(ServiceConfig::default());
        let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
        let mut tcp = TcpClient::connect(server.addr()).unwrap();
        let mut reply = EncodeReply::new();
        let err = tcp
            .encode(
                &EncodeRequest {
                    session_id: 1,
                    scheme: Scheme::Dc,
                    cost_model: CostModel::Inline,
                    groups: 4,
                    burst_len: 8,
                    want_masks: false,
                    verify: VerifyMode::Off,
                    payload: &[0u8; 31],
                },
                &mut reply,
            )
            .unwrap_err();
        match err {
            ClientError::Remote { code, message } => {
                assert_eq!(code, wire::ErrorCode::BadPayload);
                assert!(message.contains("31"), "{message}");
            }
            other => panic!("expected a remote error, got {other}"),
        }
        drop(tcp);
        server.shutdown();
        engine.shutdown();
    }
}
