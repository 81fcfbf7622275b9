//! Counting-allocator proof of the service claim: once warm, the
//! `LocalClient` request loop performs **zero heap allocations per
//! request** — across the queue hop, the shard's pass (run inline on the
//! client's own thread when the shard is idle), the encode itself,
//! the metrics updates and the full telemetry path (stage histograms,
//! trace-ring write, slowlog capture — the threshold is pinned to 0 so
//! *every* request takes the capture branch, not just slow ones).
//!
//! Extends the PR 1 zero-alloc pattern (`dbi-mem/tests/session_alloc.rs`):
//! the allocator is global, so the measured window covers the worker
//! thread too. Single `#[test]` so no concurrent test disturbs the
//! counters.
//!
//! Both engines run with **journaling enabled**: the durable session
//! plane appends every touched session's carried state to a per-shard
//! journal at each burst boundary, and that hot path must be as
//! allocation-free as the encode itself (reused state scratch, reused
//! writer buffer, one `write_all` per pass).
//!
//! The last section drives the pipelined TCP path in steady state: a
//! `PipelinedClient` keeping 64 requests in flight through the I/O
//! threads, so the window covers the client's staging and reads, the
//! per-wake flush, the completion inbox and the workers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dbi_core::Scheme;
use dbi_service::{
    CostModel, EncodeBatchRequest, EncodeReply, EncodeRequest, Engine, PersistConfig,
    PipelinedClient, ServiceConfig, TcpServer, VerifyMode,
};

/// A fresh persist directory under the system temp dir, so the
/// journaling hot path is live inside every measured window.
fn persist_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dbi-local-alloc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is the process's main thread, once known.
    static MAIN_THREAD: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Counts one allocation unless it was made on the process's main
/// thread. The test body, the engine and the client all run on spawned
/// threads; the main thread belongs to the test harness, which spawns
/// the test's thread and then does its own allocating bookkeeping. On a
/// loaded machine it can be descheduled between the two for long enough
/// that the bookkeeping lands inside a measured window.
fn count() {
    let main = MAIN_THREAD.with(|main| {
        main.get().unwrap_or_else(|| {
            let is_main = on_main_thread();
            main.set(Some(is_main));
            is_main
        })
    });
    if !main {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(target_os = "linux")]
fn on_main_thread() -> bool {
    extern "C" {
        fn gettid() -> i32;
        fn getpid() -> i32;
    }
    // SAFETY: both calls take no arguments and only read the calling
    // thread's and process's ids.
    unsafe { gettid() == getpid() }
}

/// Elsewhere every thread counts, the main one included.
#[cfg(not(target_os = "linux"))]
fn on_main_thread() -> bool {
    false
}

// SAFETY: delegates directly to `System`, which upholds the `GlobalAlloc`
// contract; the counter increment has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(result);
    after - before
}

#[test]
fn steady_state_requests_are_allocation_free() {
    let serial_dir = persist_dir("serial");
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 8,
        max_payload: 1 << 16,
        // Every request crosses a 0 threshold, so the measured window
        // includes the slowlog capture path, not just the ring write.
        slowlog_threshold_ns: 0,
        persist: Some(PersistConfig {
            dir: serial_dir.clone(),
        }),
        ..ServiceConfig::default()
    });
    let mut client = engine.local_client();
    let mut reply = EncodeReply::new();
    let payload: Vec<u8> = (0..256u32).map(|i| (i * 37) as u8).collect();
    let request = EncodeRequest {
        session_id: 0xA110C,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: true,
        verify: VerifyMode::Off,
        payload: &payload,
    };

    // Warm-up: creates the shard's session entry and sizes every reusable
    // buffer (slot payload, per-group records, mask stream, reply).
    for _ in 0..8 {
        client.encode(&request, &mut reply).unwrap();
    }
    // Every other shard's worker too: its one-time setup and its first
    // journal pass allocate on its own thread, after the reply, so no
    // shard may still be in them when measuring starts.
    for shard in 0..engine.shard_count() {
        let session_id = (1u64..)
            .find(|&id| engine.shard_of(id) == shard)
            .expect("every shard owns some session id");
        for _ in 0..8 {
            let warm = EncodeRequest {
                session_id,
                ..request
            };
            client.encode(&warm, &mut reply).unwrap();
        }
    }

    let inline_before = engine.metrics().totals().inline_passes;
    let one = allocations_during(|| client.encode(&request, &mut reply).unwrap());
    let many = allocations_during(|| {
        for _ in 0..256 {
            client.encode(&request, &mut reply).unwrap();
        }
    });
    // The measured requests ran their passes on this thread: the shard
    // was idle, so the window covers the inline path, not only the
    // worker's.
    let inline_passes = engine.metrics().totals().inline_passes - inline_before;
    assert!(inline_passes > 0, "no measured request ran its pass inline");

    assert_eq!(
        one, 0,
        "a warmed-up LocalClient request must not allocate (observed {one})"
    );
    assert_eq!(
        many, 0,
        "256 steady-state requests must not allocate (observed {many})"
    );

    // Sanity: the requests really executed and were really counted.
    assert_eq!(reply.bursts, 32);
    assert_eq!(reply.masks.len(), 32);
    assert!(engine.metrics().totals().requests >= 265);

    // A session whose plan comes from an explicit cost model rides the
    // same zero-allocation path once its plan is cached: resolving the
    // model and encoding through the shared plan touch no heap.
    let costed = EncodeRequest {
        session_id: 0xC057,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Weights(dbi_core::CostWeights::new(5, 2).unwrap()),
        ..request
    };
    for _ in 0..8 {
        client.encode(&costed, &mut reply).unwrap();
    }
    let costed_steady = allocations_during(|| {
        for _ in 0..256 {
            client.encode(&costed, &mut reply).unwrap();
        }
    });
    assert_eq!(
        costed_steady, 0,
        "cost-model requests must not allocate once warm (observed {costed_steady})"
    );

    // The batch path rides the same slot and the same worker
    // slab, so it keeps the guarantee: a warmed-up encode_batch loop is
    // allocation-free end to end.
    let batch = EncodeBatchRequest {
        session_id: 0xBA7C,
        scheme: Scheme::OptFixed,
        cost_model: CostModel::Inline,
        groups: 4,
        burst_len: 8,
        want_masks: true,
        verify: VerifyMode::Off,
        count: (payload.len() / 8) as u16,
        payload: &payload,
    };
    for _ in 0..8 {
        client.encode_batch(&batch, &mut reply).unwrap();
    }
    let batch_steady = allocations_during(|| {
        for _ in 0..256 {
            client.encode_batch(&batch, &mut reply).unwrap();
        }
    });
    assert_eq!(
        batch_steady, 0,
        "batch requests must not allocate once warm (observed {batch_steady})"
    );
    assert_eq!(reply.bursts, u64::from(batch.count));

    // The telemetry plane really ran inside those measured windows: the
    // rings and slowlogs hold events, and the stage histograms counted
    // every executed request.
    assert!(!engine.trace_dump(16).is_empty());
    assert!(!engine.slowlog(16).is_empty(), "threshold 0 captures all");
    let totals = engine.metrics().totals();
    assert_eq!(totals.latency.total.count, totals.requests);
    assert!(totals.latency.encode.count > 0);
    engine.shutdown();
    // The journaling hot path really ran inside the measured windows
    // (read after shutdown: the workers have joined, so every pass's
    // journal accounting has landed).
    let totals = engine.metrics().totals();
    assert!(
        totals.journal_records >= totals.requests,
        "journaling must capture every pass ({} records, {} requests)",
        totals.journal_records,
        totals.requests
    );
    assert!(totals.journal_bytes > 0);
    let _ = std::fs::remove_dir_all(&serial_dir);

    // ── Packed cross-session path ────────────────────────────────────
    // The worker now packs chains from *multiple queued sessions* into
    // one shared kernel dispatch and the shard queue is a lock-free
    // `eventring` ring with an eventcount parking layer. Both must keep
    // the guarantee: a warm multi-session pass allocates nothing — not
    // in the ring hop, the eventcount wake, round formation, the shared
    // slab dispatch, the per-job gather, or the slab-kernel verify leg.
    let packed_dir = persist_dir("packed");
    let engine = Engine::start(ServiceConfig {
        shards: 1, // every session shares one worker so windows really pack
        queue_capacity: 32,
        max_payload: 1 << 16,
        slowlog_threshold_ns: 0,
        persist: Some(PersistConfig {
            dir: packed_dir.clone(),
        }),
        ..ServiceConfig::default()
    });

    // One oversized request sizes every worker buffer (slab rows, state
    // vectors, verify scratch, decode slab) beyond anything the packed
    // rounds below can reach: 32 chains > 5 sessions x 4 groups.
    let mut sizing_client = engine.local_client();
    let sizing_payload: Vec<u8> = (0..2048u32).map(|i| (i * 11) as u8).collect();
    sizing_client
        .encode(
            &EncodeRequest {
                session_id: 0x512E,
                scheme: Scheme::OptFixed,
                cost_model: CostModel::Inline,
                groups: 32,
                burst_len: 8,
                want_masks: true,
                verify: VerifyMode::RoundTrip,
                payload: &sizing_payload,
            },
            &mut reply,
        )
        .unwrap();

    // Hold the worker inside the stall session's round so the other
    // sessions' requests queue up behind it and drain into one packed
    // window once the stall completes.
    const STALL_SESSION: u64 = 0x57A11;
    engine.inject_slowdown_for_tests(STALL_SESSION, Duration::from_micros(800));

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(6)); // main + stall + 4 packers
    let mut submitters = Vec::new();
    for t in 0..5u64 {
        let mut client = engine.local_client();
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        submitters.push(std::thread::spawn(move || {
            let payload: Vec<u8> = (0..256u32).map(|i| (i * 37) as u8).collect();
            let request = EncodeRequest {
                session_id: if t == 0 { STALL_SESSION } else { 0xCAFE + t },
                scheme: Scheme::OptFixed,
                cost_model: CostModel::Inline,
                groups: 4,
                burst_len: 8,
                want_masks: false,
                // One packer rides with verify on so the measured window
                // covers the packed verify leg too.
                verify: if t == 1 {
                    VerifyMode::RoundTrip
                } else {
                    VerifyMode::Off
                },
                payload: &payload,
            };
            let mut reply = EncodeReply::new();
            loop {
                barrier.wait();
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                if t != 0 {
                    // Let the stall request reach the worker first so this
                    // one lands in the queue behind it.
                    std::thread::sleep(Duration::from_micros(100));
                }
                client.encode(&request, &mut reply).unwrap();
                barrier.wait();
            }
        }));
    }

    let run_rounds = |n: usize| {
        for _ in 0..n {
            barrier.wait(); // release the submitters
            barrier.wait(); // wait until every reply landed
        }
    };
    run_rounds(16); // warm: session entries, slot buffers, ring slots
    let packed_steady = allocations_during(|| run_rounds(48));
    assert_eq!(
        packed_steady, 0,
        "warm multi-session packed passes must not allocate (observed {packed_steady})"
    );

    // The packed path really ran inside those windows: passes served
    // multiple jobs and kernel dispatches carried multiple chains.
    let totals = engine.metrics().totals();
    assert!(
        totals.coalesced > 0,
        "no pass ever packed more than one job"
    );
    assert!(totals.dispatches > 0);
    assert!(
        totals.dispatch_chains > totals.dispatches,
        "kernel dispatches never carried more than one chain"
    );

    stop.store(true, Ordering::Relaxed);
    barrier.wait(); // release the submitters into the stop check
    for submitter in submitters {
        submitter.join().unwrap();
    }
    assert!(engine.metrics().totals().journal_records > 0);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&packed_dir);

    // ── Pipelined TCP path ───────────────────────────────────────────
    // One connection with 64 requests in flight over 16 sessions: every
    // completion is followed by one more submission, so the client
    // stages while it polls and the I/O thread flushes once per wake.
    const IN_FLIGHT: usize = 64;
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 2 * IN_FLIGHT,
        max_payload: 1 << 16,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let mut submitted = 0u64;
    // Tops the window up to IN_FLIGHT, then answers each completion with
    // one more submission.
    let mut drive = |client: &mut PipelinedClient, requests: usize| {
        for round in 0..=requests {
            if round > 0 {
                let done = client.next_completion(&mut reply).unwrap();
                assert!(done.is_ok(), "{:?}", done.error);
            }
            while client.in_flight() < IN_FLIGHT {
                let session_id = 0x919E + submitted % 16;
                submitted += 1;
                client
                    .submit(&EncodeRequest {
                        session_id,
                        ..request
                    })
                    .unwrap();
            }
        }
    };
    drive(&mut client, 4096); // warm: slot pools, buffers, session entries
    let pipelined_steady = allocations_during(|| drive(&mut client, 4096));
    assert_eq!(
        pipelined_steady, 0,
        "a warm pipelined TCP loop must not allocate (observed {pipelined_steady})"
    );
    while client.in_flight() > 0 {
        client.next_completion(&mut reply).unwrap();
    }
    assert_eq!(
        engine.metrics().totals().requests,
        4096 * 2 + IN_FLIGHT as u64
    );
    drop(client);
    server.shutdown();
    engine.shutdown();
}
