//! Encoder throughput: bursts encoded per second for every scheme, at
//! three levels of the API.
//!
//! This is the software-side counterpart of the paper's hardware timing
//! argument: the optimal encoder must keep up with the memory interface.
//! The benchmark measures
//!
//! * `encode_burst` — the materialising [`DbiEncoder::encode`] path (inline
//!   symbol buffer, heap-free for BL8), plus the Fig. 5 hardware-datapath
//!   simulation,
//! * `encode_mask` — the allocation-free mask-only fast path,
//! * `seed_baseline` — a faithful reimplementation of the original
//!   allocating OPT encoder (per-burst `Vec`s, lane-word reconstruction in
//!   the sweep), kept as the before/after yardstick,
//! * `trace` — whole-trace encoding with carried bus state: a one-group
//!   [`BusSession`] serial stream (`trace_encode`) and the multi-group
//!   one,
//! * `slab` — whole batches as one chain through
//!   [`DbiEncoder::encode_lanes_into`] with a single state: the OPT
//!   carried-state kernel against the serial per-burst chain and the DBI
//!   DC per-byte kernel, every row priced,
//! * `slab_lanes` — the vectorised multi-chain plane
//!   ([`DbiEncoder::encode_lanes_into`]): the same burst set as eight
//!   independent lane-group chains, run as parallel lanes of one
//!   recurrence by whichever SIMD kernel tier dispatch selected
//!   ([`dbi_core::simd::selected_kernel`]; `DBI_FORCE_SCALAR=1` pins the
//!   scalar tier, and the JSON records which kernel produced the numbers),
//!   plus `pack_8_chains`, the chain-major pack
//!   ([`BusSession::append_chains_to_slab`]) that feeds it, and the
//!   priced four-chain BL16 rows of OPT (Fixed), OPT(2,7) (the
//!   `pod12@3.2` weights), DBI DC, DBI AC (the x32 geometry of a
//!   mixed-scheme service session) and DBI ACDC, also recorded in the
//!   JSON, together with the engine's per-job layers at `durable-mixed`'s
//!   geometry (4 groups x BL16 x 32 accesses): the pack, the scatter
//!   back to interleaved order, and the verify replay
//!   ([`BusSession::verify_packed_results`]).
//!
//! After the criterion groups it re-times the key comparison directly and
//! writes `BENCH_encode.json` at the repository root, so the perf
//! trajectory of the encode hot path is tracked from this change on.
//! Every slab row is priced (one cost row per burst). `slab_over_mask`
//! gates the single-chain slab at 1.02x the priced per-burst loop,
//! `lanes_over_chain` gates the 8-chain lanes encode at 0.5x the
//! single chain, and `decode_over_encode` gates the lanes decode at 1.2x
//! the lanes encode.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbi_bench::{random_buffer, random_bursts};
use dbi_core::decode::decode_mask;
use dbi_core::schemes::OptFixedEncoder;
use dbi_core::{
    Burst, BurstSlab, BusState, CostWeights, DbiEncoder, EncodePlan, InversionMask, LaneWord,
    PlanCache, Scheme,
};
use dbi_hw::PipelineEncoder;
use dbi_mem::{BusSession, ChannelConfig, ReplayScratch};
use std::slice;
use std::time::Instant;

/// The original (pre-LUT) optimal encoder, reproduced verbatim as the
/// benchmark baseline: lane words are rebuilt for every trellis edge and
/// the sweep, the decision vector and the symbol buffer each allocate.
mod seed_baseline {
    use super::*;

    pub fn forward_sweep(
        weights: &CostWeights,
        burst: &Burst,
        state: &BusState,
    ) -> (Vec<[bool; 2]>, [u64; 2]) {
        let mut cost = [0u64, 0u64];
        let mut prev_word = [state.last(), state.last()];
        let mut choice: Vec<[bool; 2]> = Vec::with_capacity(burst.len());
        let mut first = true;

        for byte in burst.iter() {
            let words = [
                LaneWord::encode_byte(byte, false),
                LaneWord::encode_byte(byte, true),
            ];
            let mut next_cost = [0u64; 2];
            let mut stage_choice = [false; 2];
            for (s, &word) in words.iter().enumerate() {
                if first {
                    next_cost[s] = weights.symbol_cost(word, prev_word[0]);
                    stage_choice[s] = false;
                } else {
                    let via_plain = cost[0] + weights.symbol_cost(word, prev_word[0]);
                    let via_inverted = cost[1] + weights.symbol_cost(word, prev_word[1]);
                    if via_inverted < via_plain {
                        next_cost[s] = via_inverted;
                        stage_choice[s] = true;
                    } else {
                        next_cost[s] = via_plain;
                        stage_choice[s] = false;
                    }
                }
            }
            cost = next_cost;
            prev_word = words;
            choice.push(stage_choice);
            first = false;
        }
        (choice, cost)
    }

    /// Full allocating encode: sweep, backtrack into a fresh decision
    /// vector, then materialise a fresh symbol vector.
    pub fn encode(weights: &CostWeights, burst: &Burst, state: &BusState) -> (Vec<LaneWord>, u32) {
        let (choice, final_cost) = forward_sweep(weights, burst, state);
        let mut decisions = vec![false; burst.len()];
        let mut current = final_cost[1] < final_cost[0];
        for i in (0..burst.len()).rev() {
            decisions[i] = current;
            current = choice[i][usize::from(current)];
        }
        let mut mask = 0u32;
        let symbols: Vec<LaneWord> = burst
            .iter()
            .zip(decisions.iter())
            .enumerate()
            .map(|(i, (byte, &invert))| {
                if invert {
                    mask |= 1 << i;
                }
                LaneWord::encode_byte(byte, invert)
            })
            .collect();
        (symbols, mask)
    }
}

fn encoder_throughput(c: &mut Criterion) {
    let bursts = random_bursts(1024);
    let state = BusState::idle();

    let schemes = [
        Scheme::Raw,
        Scheme::Dc,
        Scheme::Ac,
        Scheme::AcDc,
        Scheme::Greedy(CostWeights::FIXED),
        Scheme::Opt(CostWeights::FIXED),
        Scheme::OptFixed,
    ];

    let mut group = c.benchmark_group("encode_burst");
    group.throughput(Throughput::Elements(bursts.len() as u64));
    for scheme in schemes {
        group.bench_with_input(
            BenchmarkId::new("scheme", scheme.name()),
            &scheme,
            |b, scheme| {
                b.iter(|| {
                    for burst in &bursts {
                        black_box(scheme.encode(black_box(burst), &state));
                    }
                });
            },
        );
    }
    // The bit-accurate hardware datapath model.
    let hardware = PipelineEncoder::fixed();
    group.bench_function("hardware_datapath_fixed", |b| {
        b.iter(|| {
            for burst in &bursts {
                black_box(hardware.encode(black_box(burst), &state));
            }
        });
    });
    // The original allocating implementation, for the before/after story.
    group.bench_function("seed_baseline_opt_fixed", |b| {
        b.iter(|| {
            for burst in &bursts {
                black_box(seed_baseline::encode(
                    &CostWeights::FIXED,
                    black_box(burst),
                    &state,
                ));
            }
        });
    });
    group.finish();

    let mut group = c.benchmark_group("encode_mask");
    group.throughput(Throughput::Elements(bursts.len() as u64));
    for scheme in schemes {
        group.bench_with_input(
            BenchmarkId::new("scheme", scheme.name()),
            &scheme,
            |b, scheme| {
                b.iter(|| {
                    let mut acc = 0u32;
                    for burst in &bursts {
                        acc ^= scheme.encode_mask(black_box(burst), &state).bits();
                    }
                    acc
                });
            },
        );
    }
    group.finish();

    // The runtime cost-model plane: encoding through a plan fetched from
    // a PlanCache per burst (the service steady state), versus building
    // the plan cold per burst (a worst-case swap storm), versus the
    // compile-time fixed baseline the plans must keep up with.
    let mut group = c.benchmark_group("plan_swap");
    group.throughput(Throughput::Elements(bursts.len() as u64));
    let bespoke = Scheme::Opt(CostWeights::new(3, 2).unwrap());
    group.bench_function("fixed_baseline", |b| {
        let fixed = OptFixedEncoder::new();
        b.iter(|| {
            let mut acc = 0u32;
            for burst in &bursts {
                acc ^= fixed.encode_mask(black_box(burst), &state).bits();
            }
            acc
        });
    });
    group.bench_function("cached_plan", |b| {
        // The service steady state: the session holds the cached plan's
        // Arc and encodes burst after burst through it.
        let cache = PlanCache::new(8);
        let plan = cache.get(bespoke);
        b.iter(|| {
            let mut acc = 0u32;
            for burst in &bursts {
                acc ^= plan.encode_mask(black_box(burst), &state).bits();
            }
            acc
        });
    });
    group.bench_function("cached_plan_refetch", |b| {
        // Pathological re-fetch: one cache lookup per burst (a mutex hop
        // plus an Arc clone). Real sessions amortise this per request.
        let cache = PlanCache::new(8);
        let _ = cache.get(bespoke); // warm
        b.iter(|| {
            let mut acc = 0u32;
            for burst in &bursts {
                let plan = cache.get(bespoke);
                acc ^= plan.encode_mask(black_box(burst), &state).bits();
            }
            acc
        });
    });
    group.bench_function("cold_plan_build", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for burst in &bursts {
                let plan = EncodePlan::new(black_box(bespoke));
                acc ^= plan.encode_mask(black_box(burst), &state).bits();
            }
            acc
        });
    });
    group.finish();

    // Trace-level encoding: carried bus state, one call per trace, on a
    // one-group session (the stream is simply the bursts back to back).
    let trace: Vec<u8> = bursts.iter().flat_map(Burst::bytes).copied().collect();
    let mut group = c.benchmark_group("trace_encode");
    group.throughput(Throughput::Elements(bursts.len() as u64));
    group.bench_function("opt_fixed_carried_state", |b| {
        let mut session = BusSession::with_geometry(1, 8, Scheme::OptFixed);
        let mut per_group = Vec::new();
        b.iter(|| {
            session.reset();
            black_box(session.encode_stream_into(black_box(&trace), &mut per_group, None))
        });
    });
    group.finish();

    // The batched slab plane: the whole burst set as one chain in one
    // encode_lanes_into call — the OPT kernel over contiguous storage vs.
    // the per-byte kernel the heuristics ride, vs. the serial mask chain.
    let mut slab = BurstSlab::with_capacity(8, bursts.len());
    slab.extend_from_bursts(&bursts).expect("uniform bursts");
    let mut group = c.benchmark_group("slab_encode");
    group.throughput(Throughput::Elements(bursts.len() as u64));
    group.bench_function("opt_fixed_kernel", |b| {
        let opt = OptFixedEncoder::new();
        b.iter(|| {
            let mut carried = state;
            opt.encode_lanes_into(black_box(&mut slab), slice::from_mut(&mut carried));
            black_box(slab.total())
        });
    });
    group.bench_function("opt_fixed_serial_chain", |b| {
        let opt = OptFixedEncoder::new();
        b.iter(|| {
            let mut carried = state;
            black_box(&mut slab).encode_chains_with(slice::from_mut(&mut carried), |burst, s| {
                opt.encode_mask(burst, s)
            });
            black_box(slab.total())
        });
    });
    group.bench_function("dc_lanes", |b| {
        b.iter(|| {
            let mut carried = state;
            Scheme::Dc.encode_lanes_into(black_box(&mut slab), slice::from_mut(&mut carried));
            black_box(slab.total())
        });
    });
    group.finish();

    // The vectorised lanes plane: the same 1024 bursts as eight
    // independent lane-group chains of 128 bursts each — the geometry the
    // SIMD kernels run as parallel lanes of one recurrence. Which kernel
    // tier runs is decided by dispatch (AVX2 here unless DBI_FORCE_SCALAR
    // pins the scalar oracle).
    let mut group = c.benchmark_group("slab_lanes");
    group.throughput(Throughput::Elements(bursts.len() as u64));
    group.bench_function("opt_fixed_8_chains_priced", |b| {
        let opt = OptFixedEncoder::new();
        b.iter(|| {
            let mut states = [state; 8];
            opt.encode_lanes_into(black_box(&mut slab), &mut states);
            black_box(slab.total())
        });
    });
    // The pack layer in front of that dispatch: the same bursts read as
    // one x64 stream (8 groups x BL8 x 128 accesses, beat-interleaved) and
    // transposed into the eight chain-major chains the kernel runs.
    group.bench_function("pack_8_chains", |b| {
        let session = BusSession::with_geometry(8, 8, Scheme::OptFixed);
        let stream: Vec<u8> = bursts.iter().flat_map(|burst| burst.iter()).collect();
        let mut packed = BurstSlab::with_capacity(8, bursts.len());
        b.iter(|| {
            packed.reset(8);
            session
                .append_chains_to_slab(black_box(&stream), &mut packed)
                .expect("the stream is whole x64 accesses");
            black_box(packed.burst_count())
        });
    });
    // The same bytes as four chains of 128 BL16 bursts, priced: the x32
    // BL16 geometry of a mixed-scheme service session, where the
    // heuristics' per-byte kernel runs next to the OPT kernel.
    let mut bl16 = BurstSlab::with_capacity(16, bursts.len() / 2);
    let stream: Vec<u8> = bursts.iter().flat_map(|burst| burst.iter()).collect();
    bl16.extend_from_bytes(&stream).expect("whole BL16 bursts");
    group.throughput(Throughput::Elements(bl16.burst_count() as u64));
    for (name, scheme) in bl16_rows() {
        let encoder = scheme.plan();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut states = [state; 4];
                encoder.encode_lanes_into(black_box(&mut bl16), &mut states);
                black_box(bl16.total())
            });
        });
    }
    group.finish();

    // The decode plane: the receiver paths over the pre-driven wire image
    // of the same burst set. Baseline only — decoding is a masked
    // complement plus the activity walk, so it bounds how cheap the
    // service's verify mode can be.
    let (wires, wire_masks) = drive_wire_image(&bursts, &state);
    let mut group = c.benchmark_group("decode");
    group.throughput(Throughput::Elements(bursts.len() as u64));
    group.bench_function("decode_mask_opt_fixed_stream", |b| {
        let mut out = Vec::with_capacity(8);
        b.iter(|| {
            for (wire, mask) in wires.iter().zip(&wire_masks) {
                decode_mask(black_box(wire), *mask, &mut out).expect("bench masks are valid");
                black_box(&out);
            }
        });
    });
    group.bench_function("decode_slab", |b| {
        let mut rx_slab = BurstSlab::with_capacity(8, bursts.len());
        for wire in &wires {
            rx_slab.push_bytes(wire).expect("uniform wire bursts");
        }
        rx_slab.load_masks(&wire_masks).expect("one mask per burst");
        // Masked complementation is an involution, so repeated in-place
        // decodes alternate wire/payload images — identical work per
        // iteration either way.
        b.iter(|| {
            let mut carried = state;
            black_box(&mut rx_slab)
                .decode_in_place(&mut carried)
                .expect("masks stay loaded");
            black_box(carried)
        });
    });
    group.bench_function("decode_lanes_8_chains", |b| {
        // The receiver mirror of the lanes plane: the wire image of the
        // 8-chain encode, decoded and re-priced whole-slab by the SWAR
        // kernel in one decode_in_place_chains call.
        let opt = OptFixedEncoder::new();
        let mut tx = BurstSlab::with_capacity(8, bursts.len());
        tx.extend_from_bursts(&bursts).expect("uniform bursts");
        let mut tx_states = [state; 8];
        opt.encode_lanes_into(&mut tx, &mut tx_states);
        let mut rx_lanes = BurstSlab::with_capacity(8, bursts.len());
        for (index, mask) in tx.masks().iter().enumerate() {
            let mut wire = tx.burst_bytes(index).expect("burst exists").to_vec();
            mask.apply_in_place(&mut wire);
            rx_lanes.push_bytes(&wire).expect("uniform wire bursts");
        }
        rx_lanes.load_masks(tx.masks()).expect("one mask per burst");
        b.iter(|| {
            let mut states = [state; 8];
            black_box(&mut rx_lanes)
                .decode_in_place_chains(&mut states)
                .expect("masks stay loaded");
            black_box(states)
        });
    });
    group.finish();

    // Multi-group channel stream through the serial reference path.
    let config = ChannelConfig::gddr5x();
    let data = random_buffer(256 * 1024);
    let mut group = c.benchmark_group("channel_stream_256KiB");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("session_serial", |b| {
        b.iter(|| {
            let mut session = BusSession::new(&config, Scheme::OptFixed);
            black_box(session.encode_stream(black_box(&data)).unwrap())
        });
    });
    group.finish();

    write_bench_json(&bursts, &state);
}

/// The priced four-chain BL16 rows: OPT (Fixed), OPT at (α, β) = (2, 7)
/// (the weights of the `pod12@3.2` operating point), DBI DC, DBI AC and
/// DBI ACDC — the schemes and geometry of a mixed-scheme x32 service
/// session, plus the last word-wide decision. The criterion row names;
/// `BENCH_encode.json` keys each row as
/// `<scheme>_bl16x4_priced_ns_per_burst`.
fn bl16_rows() -> [(&'static str, Scheme); 5] {
    let pod12 = CostWeights::new(2, 7).expect("(2, 7) are valid weights");
    [
        ("opt_fixed_4_chains_bl16_priced", Scheme::OptFixed),
        ("opt_2_7_4_chains_bl16_priced", Scheme::Opt(pod12)),
        ("dc_4_chains_bl16_priced", Scheme::Dc),
        ("ac_4_chains_bl16_priced", Scheme::Ac),
        ("acdc_4_chains_bl16_priced", Scheme::AcDc),
    ]
}

/// Drives the wire image of a burst set under a carried OptFixed chain:
/// the DQ lane bytes and DBI-lane masks a receiver would see.
fn drive_wire_image(bursts: &[Burst], state: &BusState) -> (Vec<Vec<u8>>, Vec<InversionMask>) {
    let opt = OptFixedEncoder::new();
    let mut carried = *state;
    let mut wires = Vec::with_capacity(bursts.len());
    let mut masks = Vec::with_capacity(bursts.len());
    for burst in bursts {
        let mask = opt.encode_mask(burst, &carried);
        let mut wire = burst.bytes().to_vec();
        mask.apply_in_place(&mut wire);
        carried = mask.final_state(burst, &carried);
        wires.push(wire);
        masks.push(mask);
    }
    (wires, masks)
}

/// The engine's per-job layers around the kernel at `durable-mixed`'s
/// geometry — one x32 session (4 groups x BL16) on the `pod12@3.2`
/// weights, one 32-access request, 128 bursts — in best ns/burst: the
/// pack ([`BusSession::append_chains_to_slab`]), the scatter back to
/// interleaved order ([`BurstSlab::scatter_chains_into`]) and the priced
/// verify replay ([`BusSession::verify_packed_results`]) against the
/// encoded slab.
fn time_bl16x4_job(stream: &[u8], state: &BusState) -> (f64, f64, f64) {
    const ACCESSES: usize = 32;
    let payload = &stream[..4 * 16 * ACCESSES];
    let pod12 = Scheme::Opt(CostWeights::new(2, 7).expect("(2, 7) are valid weights"));
    let mut session = BusSession::with_geometry(4, 16, pod12);
    session.import_states(&[*state; 4]);
    let bursts = (4 * ACCESSES) as f64;
    let best_of = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..30 {
            let start = Instant::now();
            for _ in 0..100 {
                f();
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e9 / (100.0 * bursts));
        }
        best
    };
    let mut slab = BurstSlab::with_capacity(16, 4 * ACCESSES);
    let pack = best_of(&mut || {
        slab.reset(16);
        session
            .append_chains_to_slab(black_box(payload), &mut slab)
            .expect("whole x32 accesses");
    });
    let mut out = vec![0u8; payload.len()];
    let scatter = best_of(&mut || slab.scatter_chains_into(4, black_box(&mut out)));
    assert_eq!(out, payload, "the scatter inverts the pack");

    let mut states = Vec::new();
    session.export_states_into(&mut states);
    session.plan().encode_lanes_into(&mut slab, &mut states);
    let mut per_group = Vec::new();
    session.gather_packed_results(&slab, 4, 0, &mut per_group, None);
    let mut scratch = ReplayScratch::default();
    let verify = best_of(&mut || {
        session
            .verify_packed_results(
                &slab,
                0,
                black_box(payload),
                &per_group,
                &states,
                &mut scratch,
            )
            .expect("the replay matches the encode");
    });
    (pack, scatter, verify)
}

/// Times `f` over the burst set and returns the best ns/burst of several
/// batches (minimum = least scheduler noise).
fn best_ns_per_burst(bursts: &[Burst], mut f: impl FnMut(&Burst)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..30 {
        let start = Instant::now();
        for burst in bursts {
            f(burst);
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / bursts.len() as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Re-times the headline comparison and records it in `BENCH_encode.json`
/// at the repository root: the allocating seed baseline vs. the LUT mask
/// path vs. the materialising encode, all on 8-byte bursts, plus the
/// trace-level rate, the runtime-plan plane (cached-plan hit path and
/// cold plan construction), and the vectorised lanes plane (8-chain
/// encode/decode on the dispatch-selected kernel, with the kernel name
/// and detected CPU features stamped into the JSON).
fn write_bench_json(bursts: &[Burst], state: &BusState) {
    let weights = CostWeights::FIXED;
    let opt = OptFixedEncoder::new();

    let baseline_ns = best_ns_per_burst(bursts, |burst| {
        black_box(seed_baseline::encode(&weights, black_box(burst), state));
    });
    let mask_ns = best_ns_per_burst(bursts, |burst| {
        black_box(opt.encode_mask(black_box(burst), state));
    });
    let encode_ns = best_ns_per_burst(bursts, |burst| {
        black_box(opt.encode(black_box(burst), state));
    });
    // The per-burst priced chain: the work a slab encode replaces — the
    // mask, its cost row and the carried state, one burst at a time.
    let mut carried = *state;
    let encode_priced_ns = best_ns_per_burst(bursts, |burst| {
        let mask = opt.encode_mask(black_box(burst), &carried);
        black_box(mask.breakdown(burst, &carried));
        carried = mask.final_state(burst, &carried);
    });

    // The slab kernel over the same burst set: whole-batch encode as one
    // chain, one call, filling the mask and cost row of every burst.
    let time_slab = |slab: &mut BurstSlab| {
        let mut best = f64::INFINITY;
        for _ in 0..30 {
            let mut carried = *state;
            let start = Instant::now();
            opt.encode_lanes_into(slab, slice::from_mut(&mut carried));
            black_box(carried);
            let ns = start.elapsed().as_secs_f64() * 1e9 / bursts.len() as f64;
            if ns < best {
                best = ns;
            }
        }
        best
    };
    let mut slab = BurstSlab::with_capacity(8, bursts.len());
    slab.extend_from_bursts(bursts).expect("uniform bursts");
    let slab_chain_priced_ns = time_slab(&mut slab);

    // The vectorised lanes plane over the same bytes: eight independent
    // chains of 128 bursts, encoded as parallel lanes of one recurrence
    // by the dispatch-selected kernel. This is the headline slab number —
    // the geometry a real channel (several lane groups per slab) runs.
    let time_lanes = |slab: &mut BurstSlab| {
        let mut best = f64::INFINITY;
        for _ in 0..30 {
            let mut states = [*state; 8];
            let start = Instant::now();
            opt.encode_lanes_into(slab, &mut states);
            black_box(states);
            let ns = start.elapsed().as_secs_f64() * 1e9 / bursts.len() as f64;
            if ns < best {
                best = ns;
            }
        }
        best
    };
    let slab_priced_ns = time_lanes(&mut slab);

    // Runtime cost-model plane: bespoke weights through a held cached
    // plan (the service steady state — sessions keep the Arc and encode
    // burst after burst), through a per-burst cache re-fetch, and through
    // a cold per-burst plan build (worst-case swap storm).
    let bespoke = Scheme::Opt(CostWeights::new(3, 2).unwrap());
    let cache = PlanCache::new(8);
    let held = cache.get(bespoke);
    let plan_cached_ns = best_ns_per_burst(bursts, |burst| {
        black_box(held.encode_mask(black_box(burst), state));
    });
    let plan_refetch_ns = best_ns_per_burst(bursts, |burst| {
        let plan = cache.get(bespoke);
        black_box(plan.encode_mask(black_box(burst), state));
    });
    let plan_cold_ns = best_ns_per_burst(bursts, |burst| {
        let plan = EncodePlan::new(black_box(bespoke));
        black_box(plan.encode_mask(black_box(burst), state));
    });

    // Decode-plane baselines (recorded, no gate yet): the per-burst
    // receiver path and the slab decode kernel over the pre-driven wire
    // image of the same burst set.
    let (wires, wire_masks) = drive_wire_image(bursts, state);
    let mut out = Vec::with_capacity(8);
    let mut decode_mask_ns = f64::INFINITY;
    for _ in 0..30 {
        let start = Instant::now();
        for (wire, mask) in wires.iter().zip(&wire_masks) {
            decode_mask(black_box(wire), *mask, &mut out).expect("bench masks are valid");
            black_box(&out);
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / bursts.len() as f64;
        if ns < decode_mask_ns {
            decode_mask_ns = ns;
        }
    }
    let mut rx_slab = BurstSlab::with_capacity(8, bursts.len());
    for wire in &wires {
        rx_slab.push_bytes(wire).expect("uniform wire bursts");
    }
    rx_slab.load_masks(&wire_masks).expect("one mask per burst");
    let mut decode_chain_ns = f64::INFINITY;
    for _ in 0..30 {
        let mut carried = *state;
        let start = Instant::now();
        rx_slab
            .decode_in_place(&mut carried)
            .expect("masks stay loaded");
        black_box(carried);
        let ns = start.elapsed().as_secs_f64() * 1e9 / bursts.len() as f64;
        if ns < decode_chain_ns {
            decode_chain_ns = ns;
        }
    }

    // The lanes decode: the wire image of the 8-chain encode, decoded and
    // re-priced whole-slab by the SWAR kernel. Priced on both sides, so
    // `decode_over_encode` compares like with like.
    let mut tx = BurstSlab::with_capacity(8, bursts.len());
    tx.extend_from_bursts(bursts).expect("uniform bursts");
    let mut tx_states = [*state; 8];
    opt.encode_lanes_into(&mut tx, &mut tx_states);
    let mut rx_lanes = BurstSlab::with_capacity(8, bursts.len());
    for (index, mask) in tx.masks().iter().enumerate() {
        let mut wire = tx.burst_bytes(index).expect("burst exists").to_vec();
        mask.apply_in_place(&mut wire);
        rx_lanes.push_bytes(&wire).expect("uniform wire bursts");
    }
    rx_lanes.load_masks(tx.masks()).expect("one mask per burst");
    let mut decode_slab_ns = f64::INFINITY;
    for _ in 0..30 {
        let mut states = [*state; 8];
        let start = Instant::now();
        rx_lanes
            .decode_in_place_chains(&mut states)
            .expect("masks stay loaded");
        black_box(states);
        let ns = start.elapsed().as_secs_f64() * 1e9 / bursts.len() as f64;
        if ns < decode_slab_ns {
            decode_slab_ns = ns;
        }
    }

    // The engine's mixed-scheme geometry: the same bytes as four chains
    // of BL16 bursts, priced, one row per scheme.
    let stream: Vec<u8> = bursts.iter().flat_map(Burst::bytes).copied().collect();
    let mut bl16 = BurstSlab::with_capacity(16, bursts.len() / 2);
    bl16.extend_from_bytes(&stream).expect("whole BL16 bursts");
    let mut bl16_json = String::new();
    for (name, scheme) in bl16_rows() {
        let encoder = scheme.plan();
        let mut best = f64::INFINITY;
        for _ in 0..30 {
            let mut states = [*state; 4];
            let start = Instant::now();
            encoder.encode_lanes_into(&mut bl16, &mut states);
            black_box(states);
            let ns = start.elapsed().as_secs_f64() * 1e9 / bl16.burst_count() as f64;
            best = best.min(ns);
        }
        let key = name.replace("_4_chains_bl16_priced", "_bl16x4_priced_ns_per_burst");
        bl16_json.push_str(&format!("  \"{key}\": {best:.1},\n"));
    }

    let (pack_ns, scatter_ns, verify_ns) = time_bl16x4_job(&stream, state);

    let trace = stream;
    let mut session = BusSession::with_geometry(1, 8, Scheme::OptFixed);
    let mut per_group = Vec::new();
    let mut trace_best = f64::INFINITY;
    for _ in 0..30 {
        let start = Instant::now();
        black_box(session.encode_stream_into(&trace, &mut per_group, None)).expect("whole bursts");
        let ns = start.elapsed().as_secs_f64() * 1e9 / bursts.len() as f64;
        if ns < trace_best {
            trace_best = ns;
        }
    }

    let speedup = baseline_ns / mask_ns;
    let plan_overhead = plan_cached_ns / mask_ns;
    let slab_over_mask = slab_chain_priced_ns / encode_priced_ns;
    let lanes_over_chain = slab_priced_ns / slab_chain_priced_ns;
    let decode_over_encode = decode_slab_ns / slab_priced_ns;
    let kernel = dbi_core::simd::selected_kernel().name();
    let cpu_features = dbi_core::simd::cpu_features();
    let json = format!(
        "{{\n  \"benchmark\": \"OptFixed encode, 8-byte bursts, {} bursts \
         (lanes rows: 8 chains x 128 bursts; bl16x4 rows: 4 chains x 128 BL16 bursts)\",\n  \
         \"kernel\": \"{kernel}\",\n  \
         \"cpu_features\": \"{cpu_features}\",\n  \
         \"seed_baseline_ns_per_burst\": {baseline_ns:.1},\n  \
         \"encode_mask_ns_per_burst\": {mask_ns:.1},\n  \
         \"encode_priced_ns_per_burst\": {encode_priced_ns:.1},\n  \
         \"slab_priced_ns_per_burst\": {slab_priced_ns:.1},\n  \
         \"slab_chain_priced_ns_per_burst\": {slab_chain_priced_ns:.1},\n\
         {bl16_json}  \
         \"pack_bl16x4_ns_per_burst\": {pack_ns:.2},\n  \
         \"scatter_bl16x4_ns_per_burst\": {scatter_ns:.2},\n  \
         \"verify_bl16x4_ns_per_burst\": {verify_ns:.2},\n  \
         \"encode_ns_per_burst\": {encode_ns:.1},\n  \
         \"decode_mask_ns_per_burst\": {decode_mask_ns:.1},\n  \
         \"decode_slab_ns_per_burst\": {decode_slab_ns:.1},\n  \
         \"decode_chain_ns_per_burst\": {decode_chain_ns:.1},\n  \
         \"trace_encode_ns_per_burst\": {trace_best:.1},\n  \
         \"plan_cached_ns_per_burst\": {plan_cached_ns:.1},\n  \
         \"plan_refetch_ns_per_burst\": {plan_refetch_ns:.1},\n  \
         \"plan_cold_build_ns_per_burst\": {plan_cold_ns:.1},\n  \
         \"plan_cached_over_fixed\": {plan_overhead:.2},\n  \
         \"slab_over_mask\": {slab_over_mask:.2},\n  \
         \"lanes_over_chain\": {lanes_over_chain:.2},\n  \
         \"decode_over_encode\": {decode_over_encode:.2},\n  \
         \"mask_speedup_over_seed_baseline\": {speedup:.2}\n}}\n",
        bursts.len()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_encode.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
    // Wall-clock ratios are machine-dependent, so the 5x gate only aborts
    // when explicitly enforced (DBI_ENFORCE_SPEEDUP=1, e.g. on a known-quiet
    // perf box); elsewhere a shortfall is a loud warning, not a panic.
    if speedup < 5.0 {
        let message = format!(
            "mask-only encode should be at least 5x the allocating baseline, measured {speedup:.2}x"
        );
        if std::env::var_os("DBI_ENFORCE_SPEEDUP").is_some() {
            panic!("{message}");
        }
        eprintln!("WARNING: {message} (set DBI_ENFORCE_SPEEDUP=1 to make this fatal)");
    }
    // The priced slab chain must not be slower than the priced per-burst
    // loop it replaces — the whole point of the batched plane is
    // amortising per-burst overhead away (small tolerance for timer
    // noise, same warn/enforce policy as the other gates).
    if slab_over_mask > 1.02 {
        let message = format!(
            "priced slab encode should be at most the priced per-burst cost, \
             measured {slab_over_mask:.2}x"
        );
        if std::env::var_os("DBI_ENFORCE_SPEEDUP").is_some() {
            panic!("{message}");
        }
        eprintln!("WARNING: {message} (set DBI_ENFORCE_SPEEDUP=1 to make this fatal)");
    }
    // The vectorised lanes plane (8 chains x 128 BL8 bursts) must at
    // least halve the priced single chain over the same bytes — the
    // reason the SIMD kernels exist. Under DBI_FORCE_SCALAR the gate is
    // skipped: pinning the scalar oracle is an escape hatch, not a perf
    // claim.
    if lanes_over_chain > 0.5 && !dbi_core::simd::forced_scalar() {
        let message = format!(
            "lanes slab encode should run at most 0.5x the single chain on kernel {kernel}, \
             measured {lanes_over_chain:.2}x"
        );
        if std::env::var_os("DBI_ENFORCE_SPEEDUP").is_some() {
            panic!("{message}");
        }
        eprintln!("WARNING: {message} (set DBI_ENFORCE_SPEEDUP=1 to make this fatal)");
    }
    // Decode parity: re-pricing the wire image whole-slab must stay
    // within 1.2x of the lanes encode — the SWAR decode kernel's
    // reason to exist (the old per-beat walk sat well above the encode).
    if decode_over_encode > 1.2 {
        let message = format!(
            "lanes decode should stay within 1.2x of the priced lanes encode, \
             measured {decode_over_encode:.2}x"
        );
        if std::env::var_os("DBI_ENFORCE_SPEEDUP").is_some() {
            panic!("{message}");
        }
        eprintln!("WARNING: {message} (set DBI_ENFORCE_SPEEDUP=1 to make this fatal)");
    }
    // Same policy for the plan-plane gate: a cached plan must stay within
    // 1.2x of the compile-time fixed path.
    if plan_overhead > 1.2 {
        let message = format!(
            "cached-plan encode should stay within 1.2x of the fixed path, measured {plan_overhead:.2}x"
        );
        if std::env::var_os("DBI_ENFORCE_SPEEDUP").is_some() {
            panic!("{message}");
        }
        eprintln!("WARNING: {message} (set DBI_ENFORCE_SPEEDUP=1 to make this fatal)");
    }
}

criterion_group!(benches, encoder_throughput);
criterion_main!(benches);
