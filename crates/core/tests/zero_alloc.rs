//! Proof of the zero-allocation claim: the mask fast path, the reusable
//! `EncodedBurst::assign_from_mask` buffer, the inline-buffer `encode`
//! path, a warm `encode_lanes_into` slab and the toggle count
//! (`simd::xor_popcount`) perform **no** heap allocation for standard
//! 8-byte bursts, measured with a counting global allocator.
//!
//! The allocator counts per thread, and a window counts only the
//! allocations of the thread that runs it: libtest's main thread and any
//! other test's thread can allocate at any moment, and on a loaded
//! machine their bookkeeping would otherwise land inside a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dbi_core::schemes::{
    AcDcEncoder, AcEncoder, DbiEncoder, DcEncoder, GreedyEncoder, OptEncoder, OptFixedEncoder,
    RawEncoder,
};
use dbi_core::{
    Burst, BusState, CostBreakdown, CostWeights, EncodePlan, EncodedBurst, PlanCache, Scheme,
};

/// Wraps the system allocator and counts every allocation on the thread
/// that makes it.
struct CountingAllocator;

thread_local! {
    /// This thread's allocations so far. A `const` cell needs neither
    /// lazy set-up nor a destructor, so the allocator can touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
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

/// Runs `f` and returns how many heap allocations it performed on the
/// calling thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(result);
    after - before
}

#[test]
fn bl8_fast_paths_never_touch_the_heap() {
    let burst = Burst::paper_example();
    let state = BusState::idle();
    let weights = CostWeights::new(3, 2).unwrap();

    // encode_mask: zero allocations for every scheme.
    let encoders: [(&str, &dyn DbiEncoder); 7] = [
        ("RAW", &RawEncoder),
        ("DBI DC", &DcEncoder),
        ("DBI AC", &AcEncoder),
        ("DBI ACDC", &AcDcEncoder),
        ("Greedy", &GreedyEncoder::new(weights)),
        ("DBI OPT", &OptEncoder::new(weights)),
        ("DBI OPT (Fixed)", &OptFixedEncoder::new()),
    ];
    for (name, encoder) in encoders {
        let count = allocations_during(|| {
            let mut masks = 0u32;
            for _ in 0..100 {
                masks ^= encoder.encode_mask(&burst, &state).bits();
            }
            masks
        });
        assert_eq!(count, 0, "{name}: encode_mask allocated {count} times");
    }

    // Mask-based accounting: still zero.
    let opt = OptFixedEncoder::new();
    let count = allocations_during(|| {
        let mut total = CostBreakdown::ZERO;
        let mut carried = state;
        for _ in 0..100 {
            let mask = opt.encode_mask(&burst, &carried);
            total += mask.breakdown(&burst, &carried);
            carried = mask.final_state(&burst, &carried);
        }
        total
    });
    assert_eq!(count, 0, "mask accounting loop allocated {count} times");

    // encode() with the inline symbol buffer: zero for BL8.
    let count = allocations_during(|| {
        let mut zeros = 0u64;
        for _ in 0..100 {
            zeros += opt.encode(&burst, &state).breakdown(&state).zeros;
        }
        zeros
    });
    assert_eq!(count, 0, "encode() allocated {count} times for BL8");

    // assign_from_mask() reusing a caller buffer: zero after construction.
    let mut out = EncodedBurst::empty();
    let count = allocations_during(|| {
        let mut transitions = 0u64;
        for _ in 0..100 {
            let mask = Scheme::OptFixed.encode_mask(&burst, &state);
            out.assign_from_mask(&burst, mask).unwrap();
            transitions += out.breakdown(&state).transitions;
        }
        transitions
    });
    assert_eq!(count, 0, "assign_from_mask allocated {count} times");

    // A resident EncodePlan is as allocation-free as the raw encoder.
    let plan = EncodePlan::new(Scheme::Opt(weights));
    let count = allocations_during(|| {
        let mut masks = 0u32;
        for _ in 0..100 {
            masks ^= plan.encode_mask(&burst, &state).bits();
        }
        masks
    });
    assert_eq!(count, 0, "EncodePlan::encode_mask allocated {count} times");

    // The cached-plan hot path: once a weight pair is resident, fetching
    // its plan and encoding through it never touches the heap — runtime
    // weights cost the same as the compile-time fixed path.
    let cache = PlanCache::new(8);
    let bespoke = Scheme::Opt(CostWeights::new(5, 2).unwrap());
    let warm = cache.get(bespoke); // first touch builds the tables
    drop(warm);
    let count = allocations_during(|| {
        let mut masks = 0u32;
        for _ in 0..100 {
            let plan = cache.get(bespoke);
            masks ^= plan.encode_mask(&burst, &state).bits();
        }
        masks
    });
    assert_eq!(count, 0, "cached-plan hot path allocated {count} times");
    let stats = cache.stats();
    assert_eq!(stats.hits, 100);
    assert_eq!(stats.misses, 1);

    // Scheme dispatch with bespoke weights rides the global plan cache:
    // after first touch it is allocation-free too.
    let _ = bespoke.encode_mask(&burst, &state); // first touch
    let count = allocations_during(|| {
        let mut masks = 0u32;
        for _ in 0..100 {
            masks ^= bespoke.encode_mask(&burst, &state).bits();
        }
        masks
    });
    assert_eq!(
        count, 0,
        "plan-backed Scheme dispatch allocated {count} times after first touch"
    );

    // A warm BurstSlab re-encodes allocation-free through
    // encode_lanes_into, with one chain and with eight — on both the
    // shared per-byte kernel (via a heuristic scheme) and the OPT kernel
    // override, directly and through a plan.
    let mut slab = dbi_core::BurstSlab::with_capacity(8, 64);
    for _ in 0..64 {
        slab.push_bytes(burst.bytes()).unwrap();
    }
    for chains in [1usize, 8] {
        let mut states = vec![state; chains];
        let mut encode_all = |slab: &mut dbi_core::BurstSlab| {
            Scheme::Dc.encode_lanes_into(slab, &mut states);
            opt.encode_lanes_into(slab, &mut states);
            plan.encode_lanes_into(slab, &mut states);
        };
        // Warm the result columns, the gather scratch and the
        // once-per-process kernel probe.
        encode_all(&mut slab);
        let count = allocations_during(|| {
            for _ in 0..10 {
                encode_all(&mut slab);
            }
        });
        assert_eq!(
            count, 0,
            "warm slab encode (chains={chains}) allocated {count} times"
        );
    }

    // The transitions-saved count, warm: the dispatch probe is behind
    // the slab encodes above.
    let stream: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
        .collect();
    let count = allocations_during(|| {
        let mut toggles = 0u64;
        for offset in 1..=8 {
            toggles += dbi_core::simd::xor_popcount(&stream[offset..], &stream[..8192 - offset]);
        }
        toggles
    });
    assert_eq!(count, 0, "xor_popcount allocated {count} times");

    // Sanity check that the counter works at all.
    let count = allocations_during(|| Vec::<u8>::with_capacity(64));
    assert!(
        count >= 1,
        "the counting allocator must observe explicit allocations"
    );
}
