//! Seeded structure-aware fuzzing of the encode→decode chain.
//!
//! Deterministic (vendored [`rand::rngs::StdRng`], no crates.io, no OS
//! entropy): a given seed and case count always exercises the identical
//! inputs, so a CI failure is reproducible locally by seed alone. The
//! fuzzer is **structure-aware** rather than byte-blind: cases draw from
//! the payload families DBI exists for — uniform noise, the
//! [`dbi_workloads::LoadProfile`] traffic mixes (GPU, server, stress),
//! sparse `00`/`FF` runs, checkerboards and walking bits, and bit-flip
//! mutations of the previous burst — across random geometries, carried
//! chains, and mid-stream plan swaps.
//!
//! Every case asserts, for a panel of schemes over the same chain:
//!
//! * **oracle equality** — the production mask equals the
//!   [`reference`](mod@crate::reference) implementation's, burst for burst
//!   (carried state included), and the priced activity matches;
//! * **encode→decode identity** — the wire image decodes back to the
//!   payload at the mask level, the [`dbi_core::EncodedBurst`] level and the slab
//!   level, with the receiver's carried state tracking the
//!   transmitter's;
//! * **cost-model invariants** — the optimal scheme's weighted cost never
//!   exceeds any other scheme's for the same burst and entry state, and
//!   (on small bursts) equals the exhaustive 2ⁿ minimum;
//! * **plan-swap coherence** — a [`BusSession`] whose plan is swapped at
//!   a burst boundary stays bit-identical to the hand-stitched chain;
//! * **kernel-tier equality** — every available slab encode kernel
//!   ([`dbi_core::simd::available_kernels`]: scalar, and AVX2 where the
//!   CPU has it)
//!   produces bit-identical masks, cost rows and carried chain states to
//!   the serial reference on multi-chain lane sweeps, and the slab
//!   decode (one kernel on every tier) matches the per-beat oracle
//!   decode, payload, wire re-pricing and receiver states included.

use crate::corpus::ref_scheme;
use crate::reference;
use dbi_core::decode::decode_mask;
use dbi_core::{
    Burst, BurstSlab, BusState, CostBreakdown, CostWeights, DbiEncoder, InversionMask, LaneWord,
    Scheme,
};
use dbi_mem::BusSession;
use dbi_workloads::LoadProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one fuzz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Seed of the deterministic case stream.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
}

impl Default for FuzzConfig {
    /// The CI smoke configuration: 10 000 cases on a fixed seed.
    fn default() -> Self {
        FuzzConfig {
            seed: 0xF0_55ED,
            cases: 10_000,
        }
    }
}

/// What a completed fuzz run covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Scheme × burst encode/decode round trips checked.
    pub bursts: usize,
    /// Mid-stream plan swaps exercised.
    pub swaps: usize,
    /// Bursts certified against the exhaustive 2ⁿ oracle.
    pub exhaustive: usize,
    /// Multi-chain kernel-tier sweeps (every available kernel checked
    /// bit-identical to the serial reference, encode and decode).
    pub lanes: usize,
}

/// Runs the fuzzer.
///
/// # Errors
///
/// Returns a description of the first violated invariant, including the
/// case number and enough context (scheme, bytes, entry state) to
/// reproduce it from the seed.
pub fn run(config: &FuzzConfig) -> Result<FuzzReport, String> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut profiles = LoadProfile::standard_profiles(config.seed ^ 0x10AD);
    let mut report = FuzzReport::default();
    let mut scratch = Scratch::default();
    for case in 0..config.cases {
        run_case(case, &mut rng, &mut profiles, &mut scratch, &mut report)
            .map_err(|err| format!("case {case} (seed {:#x}): {err}", config.seed))?;
        report.cases += 1;
    }
    Ok(report)
}

/// Reusable buffers across cases.
#[derive(Default)]
struct Scratch {
    chain: Vec<Vec<u8>>,
    wire: Vec<u8>,
    decoded: Vec<u8>,
}

/// Draws one chain of bursts from a randomly chosen payload family.
fn draw_chain(
    rng: &mut StdRng,
    profiles: &mut [LoadProfile],
    burst_len: usize,
    bursts: usize,
    chain: &mut Vec<Vec<u8>>,
) {
    chain.clear();
    let family = rng.gen_range(0u32..5);
    for index in 0..bursts {
        let mut bytes = Vec::with_capacity(burst_len);
        match family {
            // Uniform noise.
            0 => bytes.extend((0..burst_len).map(|_| rng.gen::<u8>())),
            // A real traffic mix (GPU / server / stress / uniform).
            1 => {
                let at = rng.gen_range(0..profiles.len());
                profiles[at].fill_burst(burst_len, &mut bytes);
            }
            // Sparse runs: long stretches of 0x00 / 0xFF with rare noise.
            2 => bytes.extend((0..burst_len).map(|_| match rng.gen_range(0u32..10) {
                0 => rng.gen::<u8>(),
                n if n < 6 => 0x00,
                _ => 0xFF,
            })),
            // Checkerboards and walking bits.
            3 => {
                let walking = rng.gen::<bool>();
                let phase = rng.gen_range(0u32..8);
                bytes.extend((0..burst_len).map(|beat| {
                    if walking {
                        1u8 << ((beat as u32 + phase) % 8)
                    } else if beat % 2 == 0 {
                        0x55
                    } else {
                        0xAA
                    }
                }));
            }
            // Bit-flip mutations of the previous burst (or noise first).
            _ => match chain.last() {
                Some(prev) => {
                    bytes.extend_from_slice(prev);
                    for _ in 0..rng.gen_range(1..5) {
                        let at = rng.gen_range(0..burst_len);
                        bytes[at] ^= 1 << rng.gen_range(0u32..8);
                    }
                }
                None => bytes.extend((0..burst_len).map(|_| rng.gen::<u8>())),
            },
        }
        debug_assert_eq!(bytes.len(), burst_len, "family {family} burst {index}");
        chain.push(bytes);
    }
}

fn run_case(
    case: usize,
    rng: &mut StdRng,
    profiles: &mut [LoadProfile],
    scratch: &mut Scratch,
    report: &mut FuzzReport,
) -> Result<(), String> {
    let burst_len = rng.gen_range(1..33usize);
    let bursts = rng.gen_range(1..9usize);
    draw_chain(rng, profiles, burst_len, bursts, &mut scratch.chain);

    // A fresh operating point per case, plus the fixed panel.
    let alpha = rng.gen_range(1..10u32);
    let beta = rng.gen_range(1..10u32);
    let weights = CostWeights::new(alpha, beta).map_err(|err| err.to_string())?;
    let panel: [Scheme; 7] = [
        Scheme::Raw,
        Scheme::Dc,
        Scheme::Ac,
        Scheme::AcDc,
        Scheme::Greedy(weights),
        Scheme::Opt(weights),
        Scheme::OptFixed,
    ];

    // A random (valid) entry state shared by every scheme's chain.
    let entry = BusState::new(LaneWord::encode_byte(rng.gen(), rng.gen()));

    // Per-burst masks of each scheme, for the cost invariant below.
    let mut opt_entry_words: Vec<u16> = Vec::with_capacity(bursts);
    let mut masks_by_scheme: Vec<Vec<InversionMask>> = Vec::with_capacity(panel.len());

    for scheme in panel {
        let oracle = ref_scheme(scheme);
        let mut state = entry;
        let mut masks = Vec::with_capacity(bursts);
        if scheme == Scheme::Opt(weights) {
            opt_entry_words.clear();
        }
        for bytes in &scratch.chain {
            if scheme == Scheme::Opt(weights) {
                opt_entry_words.push(state.last().bits());
            }
            let burst = Burst::from_slice(bytes).expect("chains are non-empty");
            let mask = scheme.encode_mask(&burst, &state);

            // Oracle equality, burst for burst.
            let expected = reference::encode(oracle, bytes, state.last().bits());
            if mask.bits() != expected.mask {
                return Err(format!(
                    "{scheme}: mask {:#b} != reference {:#b} on {bytes:02x?} from {}",
                    mask.bits(),
                    expected.mask,
                    state.last()
                ));
            }
            let priced = mask.breakdown(&burst, &state);
            if (priced.zeros, priced.transitions) != (expected.zeros, expected.transitions) {
                return Err(format!(
                    "{scheme}: activity {priced} != reference ({}, {}) on {bytes:02x?}",
                    expected.zeros, expected.transitions
                ));
            }

            // Encode→decode identity at the mask and symbol levels.
            scratch.wire.clear();
            scratch.wire.extend_from_slice(bytes);
            mask.apply_in_place(&mut scratch.wire);
            decode_mask(&scratch.wire, mask, &mut scratch.decoded)
                .map_err(|err| format!("{scheme}: decode_mask: {err}"))?;
            if &scratch.decoded != bytes {
                return Err(format!("{scheme}: decode_mask lost {bytes:02x?}"));
            }
            let encoded = scheme.encode(&burst, &state);
            if encoded.decode() != burst {
                return Err(format!("{scheme}: EncodedBurst::decode lost {bytes:02x?}"));
            }

            let next = mask.final_state(&burst, &state);
            if next.last().bits() != expected.final_word {
                return Err(format!("{scheme}: carried state diverges on {bytes:02x?}"));
            }
            state = next;
            masks.push(mask);
            report.bursts += 1;
        }

        // Slab chain: bit-identical to the per-burst chain, and the wire
        // image decodes back with matching receiver state.
        let mut slab = BurstSlab::new(burst_len);
        for bytes in &scratch.chain {
            slab.push_bytes(bytes).expect("chain bursts fit the slab");
        }
        let mut slab_state = entry;
        scheme.encode_lanes_into(&mut slab, core::slice::from_mut(&mut slab_state));
        if slab.masks() != masks {
            return Err(format!("{scheme}: slab masks diverge from the chain"));
        }
        if slab_state != state {
            return Err(format!("{scheme}: slab carried state diverges"));
        }
        // Rebuild the slab's payload area as the wire image and decode it.
        let mut rx_wire = BurstSlab::new(burst_len);
        for (bytes, mask) in scratch.chain.iter().zip(slab.masks()) {
            scratch.wire.clear();
            scratch.wire.extend_from_slice(bytes);
            mask.apply_in_place(&mut scratch.wire);
            rx_wire.push_bytes(&scratch.wire).expect("wire bursts fit");
        }
        rx_wire
            .load_masks(slab.masks())
            .map_err(|err| format!("{scheme}: load_masks: {err}"))?;
        let mut rx_state = entry;
        rx_wire
            .decode_in_place(&mut rx_state)
            .map_err(|err| format!("{scheme}: slab decode: {err}"))?;
        if rx_wire.bytes() != slab.bytes() {
            return Err(format!("{scheme}: slab decode lost the payload"));
        }
        if rx_state != state {
            return Err(format!("{scheme}: slab receiver state diverges"));
        }

        masks_by_scheme.push(masks);
    }

    // Cost-model invariant: under (α, β), OPT's cost never exceeds any
    // other scheme's for the same burst and OPT-chain entry state.
    let opt_at = 5; // index of Scheme::Opt(weights) in the panel
    for (burst_at, bytes) in scratch.chain.iter().enumerate() {
        let prev = opt_entry_words[burst_at];
        let opt_cost = reference::cost(
            bytes,
            masks_by_scheme[opt_at][burst_at].bits(),
            prev,
            u64::from(alpha),
            u64::from(beta),
        );
        for (scheme_at, scheme) in panel.iter().enumerate() {
            let rival = reference::encode(ref_scheme(*scheme), bytes, prev);
            let rival_cost = u64::from(alpha) * rival.transitions + u64::from(beta) * rival.zeros;
            if opt_cost > rival_cost {
                return Err(format!(
                    "OPT({alpha},{beta}) cost {opt_cost} exceeds {scheme} cost {rival_cost} \
                     on {bytes:02x?} (scheme {scheme_at})"
                ));
            }
        }
        // Exhaustive certification on small bursts, occasionally.
        if bytes.len() <= 10 && case.is_multiple_of(97) {
            let floor =
                reference::exhaustive_min_cost(bytes, prev, u64::from(alpha), u64::from(beta));
            if opt_cost != floor {
                return Err(format!(
                    "OPT({alpha},{beta}) cost {opt_cost} != exhaustive minimum {floor} \
                     on {bytes:02x?}"
                ));
            }
            report.exhaustive += 1;
        }
    }

    // Mid-stream plan swap under a session: swapping at a burst boundary
    // equals hand-stitching the two chains, encode and decode.
    if bursts >= 2 && case.is_multiple_of(7) {
        let first = panel[rng.gen_range(0..panel.len())];
        let second = panel[rng.gen_range(0..panel.len())];
        let boundary = rng.gen_range(1..bursts);
        let data: Vec<u8> = scratch.chain.concat();
        let split = boundary * burst_len;

        let mut swapped = BusSession::with_geometry(1, burst_len, first);
        let mut per_group = Vec::new();
        let mut masks_a = Vec::new();
        let mut masks_b = Vec::new();
        swapped
            .encode_stream_into(&data[..split], &mut per_group, Some(&mut masks_a))
            .map_err(|err| format!("swap encode: {err}"))?;
        swapped.swap_plan(second.plan());
        swapped
            .encode_stream_into(&data[split..], &mut per_group, Some(&mut masks_b))
            .map_err(|err| format!("swap encode: {err}"))?;

        // Hand-stitched reference chain.
        let mut state = BusState::idle();
        for (burst_at, bytes) in scratch.chain.iter().enumerate() {
            let scheme = if burst_at < boundary { first } else { second };
            let burst = Burst::from_slice(bytes).expect("non-empty");
            let mask = scheme.encode_mask(&burst, &state);
            let recorded = if burst_at < boundary {
                masks_a[burst_at]
            } else {
                masks_b[burst_at - boundary]
            };
            if mask != recorded {
                return Err(format!(
                    "plan swap {first}->{second} at {boundary}: burst {burst_at} diverges"
                ));
            }
            state = mask.final_state(&burst, &state);
        }
        if swapped.group_state(0) != Some(state) {
            return Err(format!(
                "plan swap {first}->{second} at {boundary}: carried state diverges"
            ));
        }

        // And the swapped stream still decodes.
        let all_masks: Vec<InversionMask> = masks_a.iter().chain(masks_b.iter()).copied().collect();
        let mut wire = Vec::new();
        swapped
            .transmit_stream_into(&data, &all_masks, &mut wire)
            .map_err(|err| format!("swap transmit: {err}"))?;
        let mut receiver = BusSession::with_geometry(1, burst_len, first);
        let (_, decoded) = receiver
            .decode_stream(&wire, &all_masks)
            .map_err(|err| format!("swap decode: {err}"))?;
        if decoded != data {
            return Err(format!(
                "plan swap {first}->{second} at {boundary}: decode lost the stream"
            ));
        }
        report.swaps += 1;
    }

    // Kernel-tier differential: the multi-chain lanes encode must be
    // bit-identical to the serial per-chain reference on EVERY available
    // kernel (scalar, and AVX2 where the CPU offers it), cost rows
    // included, whatever the geometry. This is what lets
    // `DBI_FORCE_SCALAR` be an escape hatch rather than a different codec.
    // Decode has one kernel on every tier, checked once per case.
    if case.is_multiple_of(3) {
        let chains = rng.gen_range(1..10usize);
        // Discarded draw: it holds the seeded case stream fixed, so every
        // later case keeps its inputs.
        let _ = rng.gen::<bool>();
        let encoder = dbi_core::schemes::OptEncoder::new(weights);

        // Chain 0 replays the structured chain; the rest are fresh draws
        // so neighbouring lanes carry uncorrelated survivor masks.
        let mut slab = BurstSlab::with_capacity(burst_len, chains * bursts);
        for bytes in &scratch.chain {
            slab.push_bytes(bytes).expect("chain bursts fit the slab");
        }
        let mut extra = Vec::new();
        for _ in 1..chains {
            draw_chain(rng, profiles, burst_len, bursts, &mut extra);
            for bytes in &extra {
                slab.push_bytes(bytes).expect("chain bursts fit the slab");
            }
        }
        let initial: Vec<BusState> = (0..chains)
            .map(|_| BusState::new(LaneWord::encode_byte(rng.gen(), rng.gen())))
            .collect();

        let mut reference = slab.clone();
        let mut reference_states = initial.clone();
        reference.encode_chains_with(&mut reference_states, |burst, state| {
            encoder.encode_mask(burst, state)
        });

        for &kernel in dbi_core::simd::available_kernels() {
            let mut lanes = slab.clone();
            let mut states = initial.clone();
            encoder.encode_lanes_into_with(kernel, &mut lanes, &mut states);
            if lanes.masks() != reference.masks()
                || lanes.costs() != reference.costs()
                || states != reference_states
            {
                return Err(format!(
                    "lanes kernel {kernel} diverges from the serial reference \
                     (len {burst_len}, {chains}x{bursts})"
                ));
            }
        }

        // Decode arm: the production decode (one SWAR kernel on every
        // tier) against the per-beat oracle walk, chain by chain. Both
        // must recover the payload and the transmitter's states, and
        // re-price the wire exactly as the serial reference priced it.
        let mut rx = BurstSlab::with_capacity(burst_len, chains * bursts);
        for (index, mask) in reference.masks().iter().enumerate() {
            let bytes = reference
                .burst_bytes(index)
                .expect("burst was pushed above");
            scratch.wire.clear();
            scratch.wire.extend_from_slice(bytes);
            mask.apply_in_place(&mut scratch.wire);
            rx.push_bytes(&scratch.wire).expect("wire bursts fit");
        }
        rx.load_masks(reference.masks())
            .map_err(|err| format!("lanes load_masks: {err}"))?;
        let mut oracle_bytes = rx.bytes().to_vec();
        let mut oracle_costs = vec![CostBreakdown::ZERO; chains * bursts];
        let mut oracle_states = initial.clone();
        for (chain, state) in oracle_states.iter_mut().enumerate() {
            let rows = chain * bursts..(chain + 1) * bursts;
            dbi_core::oracle::decode_chain(
                burst_len,
                &mut oracle_bytes[rows.start * burst_len..rows.end * burst_len],
                &reference.masks()[rows.clone()],
                &mut oracle_costs[rows],
                state,
            );
        }
        let mut rx_states = initial.clone();
        rx.decode_in_place_chains(&mut rx_states)
            .map_err(|err| format!("lanes decode: {err}"))?;
        if rx.bytes() != oracle_bytes.as_slice() || rx_states != oracle_states {
            return Err(format!(
                "lanes decode diverges from the oracle (len {burst_len}, {chains}x{bursts})"
            ));
        }
        if rx.bytes() != slab.bytes() || rx_states != reference_states {
            return Err(format!(
                "lanes decode loses the stream (len {burst_len}, {chains}x{bursts})"
            ));
        }
        if rx.costs() != oracle_costs.as_slice() || rx.costs() != reference.costs() {
            return Err(format!(
                "lanes wire re-pricing diverges (len {burst_len}, {chains}x{bursts})"
            ));
        }
        report.lanes += 1;
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_is_deterministic_and_clean() {
        let config = FuzzConfig {
            seed: 0xBEEF,
            cases: 100,
        };
        let a = run(&config).unwrap();
        let b = run(&config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cases, 100);
        assert!(a.bursts > 0);
        assert!(a.swaps > 0);
        assert!(a.lanes > 0);
    }
}
