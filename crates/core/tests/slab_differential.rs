//! Differential proof of the slab contract: for **every** scheme,
//! [`DbiEncoder::encode_lanes_into`] — including the optimal encoders'
//! carried-state LUT and SIMD kernels — is bit-identical to the serial
//! per-burst `encode_mask` chain of each lane group: same masks, same
//! per-burst cost rows, same carried final states. Swept over every burst
//! length a mask covers (1..=32), at one chain (the single-stream case),
//! at the four- and eight-chain geometries of the SIMD blocks and at chain
//! counts that leave remainders after them, through [`Scheme`] dispatch,
//! an [`EncodePlan`] and the concrete encoder, and for the optimal
//! encoder through every available kernel tier.

use dbi_core::decode::decode_mask;
use dbi_core::oracle;
use dbi_core::{
    Burst, BurstSlab, BusState, CostBreakdown, CostWeights, DbiEncoder, EncodePlan, InversionMask,
    LaneWord, Scheme,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The chain counts every all-scheme differential runs at: one chain,
/// the four- and eight-chain block geometries, and the counts that leave
/// a remainder after them.
const CHAINS: [usize; 7] = [1, 2, 3, 4, 5, 8, 9];

fn all_schemes() -> Vec<Scheme> {
    let mut schemes: Vec<Scheme> = Scheme::paper_set().to_vec();
    schemes.extend_from_slice(Scheme::conventional_set());
    schemes.push(Scheme::Greedy(CostWeights::new(3, 1).unwrap()));
    schemes.push(Scheme::Greedy(CostWeights::new(1, 5).unwrap()));
    schemes.push(Scheme::Opt(CostWeights::new(1, 5).unwrap()));
    schemes.push(Scheme::Opt(CostWeights::new(7, 2).unwrap()));
    schemes.dedup();
    schemes
}

/// Runs `check` against the three ways of reaching a scheme's encoder:
/// [`Scheme`] dispatch, a freshly built [`EncodePlan`] and the concrete
/// encoder type behind [`Scheme::boxed`].
fn for_each_encoder(scheme: Scheme, mut check: impl FnMut(&str, &dyn DbiEncoder)) {
    let plan = EncodePlan::new(scheme);
    let concrete = scheme.boxed();
    check("scheme", &scheme);
    check("plan", &plan);
    check("concrete", &*concrete);
}

fn random_slab(rng: &mut StdRng, burst_len: usize, bursts: usize) -> BurstSlab {
    let mut slab = BurstSlab::with_capacity(burst_len, bursts);
    for _ in 0..bursts {
        slab.push_with(|out| out.extend((0..burst_len).map(|_| rng.gen::<u8>())));
    }
    slab
}

fn random_states(rng: &mut StdRng, chains: usize) -> Vec<BusState> {
    (0..chains)
        .map(|_| BusState::new(LaneWord::encode_byte(rng.gen(), rng.gen())))
        .collect()
}

/// The slab's result contract after any encode or decode: exactly one
/// mask and one cost row per burst.
fn assert_one_row_per_burst(slab: &BurstSlab, label: &str) {
    assert_eq!(slab.masks().len(), slab.burst_count(), "{label}: mask rows");
    assert_eq!(slab.costs().len(), slab.burst_count(), "{label}: cost rows");
}

/// The wire image a transmitter drives for an encoded slab: each burst's
/// payload with its mask's inversions applied.
fn wire_image(slab: &BurstSlab) -> Vec<u8> {
    let burst_len = slab.burst_len();
    let mut wire = slab.bytes().to_vec();
    for (burst, mask) in wire.chunks_exact_mut(burst_len).zip(slab.masks()) {
        mask.apply_in_place(burst);
    }
    wire
}

/// The reference, spelled out independently of the slab's own serial
/// helper: per-burst `encode_mask` through fresh `Burst` values, one
/// chain-major run per carried state.
fn reference_chains(
    scheme: Scheme,
    slab: &BurstSlab,
    states: &[BusState],
) -> (Vec<InversionMask>, Vec<CostBreakdown>, Vec<BusState>) {
    let per_chain = slab.burst_count() / states.len();
    let mut masks = Vec::new();
    let mut costs = Vec::new();
    let mut finals = Vec::new();
    for (chain, &initial) in states.iter().enumerate() {
        let mut state = initial;
        for index in chain * per_chain..(chain + 1) * per_chain {
            let burst = Burst::from_slice(slab.burst_bytes(index).unwrap()).unwrap();
            let mask = scheme.encode_mask(&burst, &state);
            costs.push(mask.breakdown(&burst, &state));
            state = mask.final_state(&burst, &state);
            masks.push(mask);
        }
        finals.push(state);
    }
    (masks, costs, finals)
}

#[test]
fn slab_encode_is_bit_identical_to_the_per_burst_chain() {
    let mut rng = StdRng::seed_from_u64(0x51AB);
    for scheme in all_schemes() {
        for burst_len in 1usize..=32 {
            for chains in CHAINS {
                for per_chain in [1usize, 2, 17] {
                    let slab = random_slab(&mut rng, burst_len, chains * per_chain);
                    let initial = random_states(&mut rng, chains);
                    let (expected_masks, expected_costs, expected_states) =
                        reference_chains(scheme, &slab, &initial);

                    for_each_encoder(scheme, |via, encoder| {
                        let mut lanes = slab.clone();
                        let mut states = initial.clone();
                        encoder.encode_lanes_into(&mut lanes, &mut states);
                        let label = format!(
                            "{scheme} via {via} len={burst_len} chains={chains} per={per_chain}"
                        );
                        assert_one_row_per_burst(&lanes, &label);
                        assert_eq!(lanes.masks(), &expected_masks[..], "{label}: masks");
                        assert_eq!(lanes.costs(), &expected_costs[..], "{label}: costs");
                        assert_eq!(states, expected_states, "{label}: final states");
                        assert_eq!(
                            lanes.total(),
                            expected_costs.iter().copied().sum(),
                            "{label}: total"
                        );
                    });
                }
            }
        }
    }
}

#[test]
fn plan_slab_encode_matches_scheme_slab_encode() {
    let mut rng = StdRng::seed_from_u64(0x9A17);
    for scheme in all_schemes() {
        for chains in CHAINS {
            let slab = random_slab(&mut rng, 8, chains * 12);
            let initial = random_states(&mut rng, chains);

            let mut by_scheme = slab.clone();
            let mut scheme_states = initial.clone();
            scheme.encode_lanes_into(&mut by_scheme, &mut scheme_states);

            for_each_encoder(scheme, |via, encoder| {
                let mut lanes = slab.clone();
                let mut states = initial.clone();
                encoder.encode_lanes_into(&mut lanes, &mut states);
                let label = format!("{scheme} via {via} chains={chains}");
                assert_eq!(by_scheme.masks(), lanes.masks(), "{label}");
                assert_eq!(by_scheme.costs(), lanes.costs(), "{label}");
                assert_eq!(scheme_states, states, "{label}");
            });
        }
    }
}

#[test]
fn serial_helper_matches_the_override_for_opt() {
    // `encode_chains_with` runs the serial per-burst chain and bypasses
    // every override; the optimal encoder's kernels must agree with it on
    // the same slab.
    let mut rng = StdRng::seed_from_u64(0x0457);
    let encoder = dbi_core::schemes::OptEncoder::new(CostWeights::new(2, 3).unwrap());
    for chains in CHAINS {
        let mut serial = random_slab(&mut rng, 8, chains * 24);
        let mut kernel = serial.clone();

        let mut serial_states = vec![BusState::idle(); chains];
        serial.encode_chains_with(&mut serial_states, |burst, state| {
            encoder.encode_mask(burst, state)
        });
        let mut kernel_states = vec![BusState::idle(); chains];
        encoder.encode_lanes_into(&mut kernel, &mut kernel_states);

        assert_eq!(serial.masks(), kernel.masks(), "chains={chains}");
        assert_eq!(serial.costs(), kernel.costs(), "chains={chains}");
        assert_eq!(serial_states, kernel_states, "chains={chains}");
    }
}

/// Splits a chain-major slab into the first `head` bursts of every chain
/// and the rest of every chain, keeping the chain-major layout.
fn split_chains(slab: &BurstSlab, chains: usize, head: usize) -> (BurstSlab, BurstSlab) {
    let per_chain = slab.burst_count() / chains;
    let burst_len = slab.burst_len();
    let mut first = BurstSlab::new(burst_len);
    let mut second = BurstSlab::new(burst_len);
    for chain in 0..chains {
        let view = slab.chain_view(chain, chains);
        first
            .extend_from_bytes(&view.bytes()[..head * burst_len])
            .unwrap();
        second
            .extend_from_bytes(&view.bytes()[head * burst_len..per_chain * burst_len])
            .unwrap();
    }
    (first, second)
}

#[test]
fn slab_state_carries_across_successive_slabs() {
    // Feeding each chain as two slabs must equal feeding it as one — the
    // property session layers rely on.
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for scheme in all_schemes() {
        for chains in CHAINS {
            let whole = random_slab(&mut rng, 8, chains * 32);
            let initial = random_states(&mut rng, chains);
            let (head, tail) = split_chains(&whole, chains, 16);

            for_each_encoder(scheme, |via, encoder| {
                let mut one = whole.clone();
                let mut one_states = initial.clone();
                encoder.encode_lanes_into(&mut one, &mut one_states);

                let (mut head, mut tail) = (head.clone(), tail.clone());
                let mut split_states = initial.clone();
                encoder.encode_lanes_into(&mut head, &mut split_states);
                encoder.encode_lanes_into(&mut tail, &mut split_states);

                let label = format!("{scheme} via {via} chains={chains}");
                for chain in 0..chains {
                    let one = one.chain_view(chain, chains);
                    let (head, tail) = (
                        head.chain_view(chain, chains),
                        tail.chain_view(chain, chains),
                    );
                    assert_eq!(one.masks()[..16], *head.masks(), "{label}: chain {chain}");
                    assert_eq!(one.masks()[16..], *tail.masks(), "{label}: chain {chain}");
                    assert_eq!(one.costs()[..16], *head.costs(), "{label}: chain {chain}");
                    assert_eq!(one.costs()[16..], *tail.costs(), "{label}: chain {chain}");
                }
                assert_eq!(one_states, split_states, "{label}: states");
            });
        }
    }
}

#[test]
fn one_scratch_slab_prices_every_burst_across_geometries() {
    // One slab reused the way the engine reuses its scratch slab: every
    // scheme re-encodes it at a new geometry, then it is re-primed with the
    // wire image and decoded in place. Each encode and each decode must
    // leave exactly one mask and one cost row per burst, whatever the
    // previous geometry left behind, and the receiver's re-pricing must
    // agree with the transmitter's.
    let mut rng = StdRng::seed_from_u64(0x90FF);
    let mut slab = BurstSlab::new(1);
    for scheme in all_schemes() {
        for burst_len in 1usize..=32 {
            for chains in CHAINS {
                for per_chain in [1usize, 2, 17] {
                    let payload = random_slab(&mut rng, burst_len, chains * per_chain);
                    let initial = random_states(&mut rng, chains);

                    for_each_encoder(scheme, |via, encoder| {
                        let label = format!(
                            "{scheme} via {via} len={burst_len} chains={chains} per={per_chain}"
                        );
                        slab.reset(burst_len);
                        slab.extend_from_bytes(payload.bytes()).unwrap();
                        let mut states = initial.clone();
                        encoder.encode_lanes_into(&mut slab, &mut states);
                        assert_one_row_per_burst(&slab, &format!("{label} encode"));
                        let (masks, tx_costs) = (slab.masks().to_vec(), slab.costs().to_vec());

                        let wire = wire_image(&slab);
                        slab.clear();
                        slab.extend_from_bytes(&wire).unwrap();
                        slab.load_masks(&masks).unwrap();
                        let mut rx_states = initial.clone();
                        slab.decode_in_place_chains(&mut rx_states).unwrap();
                        assert_one_row_per_burst(&slab, &format!("{label} decode"));
                        assert_eq!(slab.costs(), &tx_costs[..], "{label}: wire pricing");
                        assert_eq!(rx_states, states, "{label}: receiver states");
                    });
                }
            }
        }
    }
}

#[test]
fn slab_decode_is_bit_identical_to_the_per_burst_decode_chain() {
    let mut rng = StdRng::seed_from_u64(0xDEC0);
    for scheme in all_schemes() {
        for burst_len in [1usize, 8, 32] {
            let mut slab = random_slab(&mut rng, burst_len, 24);
            let payload = slab.bytes().to_vec();
            let initial = BusState::new(LaneWord::encode_byte(rng.gen(), rng.gen()));
            let mut tx_state = initial;
            scheme.encode_lanes_into(&mut slab, core::slice::from_mut(&mut tx_state));
            let masks = slab.masks().to_vec();
            let tx_costs = slab.costs().to_vec();

            // Drive the wire image burst by burst.
            let wire = wire_image(&slab);

            // Slab decode...
            let mut rx_slab = BurstSlab::new(burst_len);
            rx_slab.extend_from_bytes(&wire).unwrap();
            rx_slab.load_masks(&masks).unwrap();
            let mut rx_state = initial;
            rx_slab.decode_in_place(&mut rx_state).unwrap();
            assert_one_row_per_burst(&rx_slab, &format!("{scheme} len={burst_len}"));

            // ...against the per-burst decode chain.
            let mut out = Vec::new();
            let mut decoded = Vec::new();
            for (index, mask) in masks.iter().enumerate() {
                decode_mask(
                    &wire[index * burst_len..(index + 1) * burst_len],
                    *mask,
                    &mut out,
                )
                .unwrap();
                decoded.extend_from_slice(&out);
            }

            assert_eq!(rx_slab.bytes(), &decoded[..], "{scheme}: per-burst chain");
            assert_eq!(rx_slab.bytes(), &payload[..], "{scheme}: round trip");
            assert_eq!(rx_state, tx_state, "{scheme}: receiver state");
            assert_eq!(rx_slab.costs(), &tx_costs[..], "{scheme}: wire pricing");
        }
    }
}

#[test]
#[should_panic(expected = "always price")]
fn the_pricing_shim_refuses_masks_only_mode() {
    let mut slab = random_slab(&mut StdRng::seed_from_u64(0x3A5C), 8, 10);
    slab.set_pricing(true);
    let mut state = BusState::idle();
    Scheme::OptFixed.encode_lanes_into(&mut slab, core::slice::from_mut(&mut state));
    assert_one_row_per_burst(&slab, "after set_pricing(true)");
    slab.set_pricing(false);
}

#[test]
fn re_encoding_a_slab_with_another_scheme_overwrites_results() {
    let mut rng = StdRng::seed_from_u64(0x0DD);
    let mut slab = random_slab(&mut rng, 8, 8);
    let mut state = BusState::idle();
    Scheme::Dc.encode_lanes_into(&mut slab, core::slice::from_mut(&mut state));
    let dc_masks = slab.masks().to_vec();

    let mut state = BusState::idle();
    Scheme::Ac.encode_lanes_into(&mut slab, core::slice::from_mut(&mut state));
    assert_ne!(slab.masks(), dc_masks.as_slice());
    assert_eq!(slab.masks().len(), 8);
}

// ---------------------------------------------------------------------------
// Kernel-tier sweeps: every encode tier vs the serial reference, and the
// one decode kernel vs the per-beat oracle
// ---------------------------------------------------------------------------

/// Every available kernel tier must produce bit-identical masks, cost
/// rows and carried chain states to the serial per-burst reference, at
/// every burst length and chain count (including the AVX2 eight- and
/// four-chain geometries and their odd remainders), under fixed and
/// skewed weights and at the weight cap, where the kernels' signed dword
/// path costs come closest to overflowing.
///
/// Besides random payloads from random entry states, each geometry runs
/// the payload corners of the per-beat price (all `0x00`, all `0xFF`, and
/// `0x00`/`0xFF` alternating per beat, where every beat toggles all
/// eight lanes and a row's byte sums reach their maximum) from every
/// entry state: last byte `0x00` or `0xFF`, DBI level high or low.
#[test]
fn lane_kernels_are_bit_identical_to_the_serial_chain_reference() {
    let mut rng = StdRng::seed_from_u64(0x51D3);
    let cap = dbi_core::cost::MAX_WEIGHT;
    for weights in [
        CostWeights::FIXED,
        CostWeights::new(2, 3).unwrap(),
        CostWeights::new(cap, cap - 1).unwrap(),
    ] {
        for family in FAMILIES {
            // Random payloads also run from random entry states.
            let random_entry = family.is_none().then_some(None);
            for shift in random_entry.into_iter().chain((0..4).map(Some)) {
                lane_kernels_match_the_serial_chain(&mut rng, weights, family, shift);
            }
        }
    }
}

/// A payload family of the kernel sweep: `None` for random bytes, or the
/// byte beat `b` carries.
type Family = Option<fn(usize) -> u8>;

const FAMILIES: [Family; 4] = [
    None,
    Some(|_| 0x00),
    Some(|_| 0xFF),
    Some(|beat| if beat % 2 == 0 { 0x00 } else { 0xFF }),
];

/// Chain `c` enters from corner `(c + shift) % 4` of the entry states:
/// last byte `0x00` or `0xFF`, DBI level high or low.
fn corner_states(chains: usize, shift: usize) -> Vec<BusState> {
    const CORNERS: [(u8, bool); 4] = [(0x00, false), (0x00, true), (0xFF, false), (0xFF, true)];
    (0..chains)
        .map(|c| {
            let (byte, low) = CORNERS[(c + shift) % 4];
            BusState::new(LaneWord::encode_byte(byte, low))
        })
        .collect()
}

/// One sweep of every geometry: payloads from `family`, entry states
/// from [`corner_states`] at `shift`, or random ones for `None`.
fn lane_kernels_match_the_serial_chain(
    rng: &mut StdRng,
    weights: CostWeights,
    family: Family,
    shift: Option<usize>,
) {
    let encoder = dbi_core::schemes::OptEncoder::new(weights);
    for burst_len in 1usize..=32 {
        for chains in CHAINS {
            for per_chain in [1usize, 2, 17] {
                let slab = match family {
                    None => random_slab(rng, burst_len, chains * per_chain),
                    Some(byte) => {
                        let mut slab = BurstSlab::with_capacity(burst_len, chains * per_chain);
                        for _ in 0..chains * per_chain {
                            slab.push_with(|out| out.extend((0..burst_len).map(byte)));
                        }
                        slab
                    }
                };
                let initial = match shift {
                    None => random_states(rng, chains),
                    Some(shift) => corner_states(chains, shift),
                };

                let mut reference = slab.clone();
                let mut reference_states = initial.clone();
                reference.encode_chains_with(&mut reference_states, |burst, state| {
                    encoder.encode_mask(burst, state)
                });
                assert_one_row_per_burst(&reference, "serial reference");

                for &kernel in dbi_core::simd::available_kernels() {
                    let mut lanes = slab.clone();
                    let mut states = initial.clone();
                    encoder.encode_lanes_into_with(kernel, &mut lanes, &mut states);
                    let label = format!(
                        "{kernel} {weights:?} len={burst_len} chains={chains} per={per_chain} \
                         constant={} corners={shift:?}",
                        family.is_some()
                    );
                    assert_one_row_per_burst(&lanes, &label);
                    assert_eq!(lanes.masks(), reference.masks(), "{label}: masks");
                    assert_eq!(lanes.costs(), reference.costs(), "{label}: costs");
                    assert_eq!(states, reference_states, "{label}: states");
                }
            }
        }
    }
}

/// The production decode ([`BurstSlab::decode_in_place_chains`], one SWAR
/// kernel on every dispatch tier) must agree with the per-beat oracle
/// decode ([`oracle::decode_chain`], one lane word per beat) — payload
/// bytes, wire re-pricing and carried receiver states — and both must
/// round-trip the transmitter exactly, across the same geometry sweep.
#[test]
fn lane_decode_kernels_match_the_scalar_decode_oracle() {
    let mut rng = StdRng::seed_from_u64(0xDE5A);
    let encoder = dbi_core::schemes::OptEncoder::new(CostWeights::new(3, 1).unwrap());
    for burst_len in [1usize, 3, 8, 16, 32] {
        for chains in [1usize, 2, 5, 8] {
            for per_chain in [1usize, 2, 17] {
                let bursts = chains * per_chain;
                let mut tx = random_slab(&mut rng, burst_len, bursts);
                let payload = tx.bytes().to_vec();
                let initial = random_states(&mut rng, chains);
                let mut tx_states = initial.clone();
                encoder.encode_lanes_into(&mut tx, &mut tx_states);
                let masks = tx.masks().to_vec();
                let tx_costs = tx.costs().to_vec();
                let wire = wire_image(&tx);
                let label = format!("len={burst_len} chains={chains} per={per_chain}");

                // The oracle walks each chain's run of bursts on its own.
                let mut oracle_bytes = wire.clone();
                let mut oracle_costs = vec![CostBreakdown::ZERO; bursts];
                let mut oracle_states = initial.clone();
                for (c, state) in oracle_states.iter_mut().enumerate() {
                    let rows = c * per_chain..(c + 1) * per_chain;
                    oracle::decode_chain(
                        burst_len,
                        &mut oracle_bytes[rows.start * burst_len..rows.end * burst_len],
                        &masks[rows.clone()],
                        &mut oracle_costs[rows],
                        state,
                    );
                }
                assert_eq!(oracle_bytes, payload, "{label}: oracle round trip");
                assert_eq!(oracle_states, tx_states, "{label}: oracle receiver states");
                assert_eq!(oracle_costs, tx_costs, "{label}: oracle wire pricing");

                let mut rx = BurstSlab::new(burst_len);
                rx.extend_from_bytes(&wire).unwrap();
                rx.load_masks(&masks).unwrap();
                let mut states = initial.clone();
                rx.decode_in_place_chains(&mut states).unwrap();
                assert_one_row_per_burst(&rx, &label);
                assert_eq!(rx.bytes(), &oracle_bytes[..], "{label}: payload");
                assert_eq!(rx.costs(), &oracle_costs[..], "{label}: costs");
                assert_eq!(states, oracle_states, "{label}: states");
            }
        }
    }
}

/// The per-burst reference fill the interleaved append replaces: chain `c`
/// gathers beat `b` of access `a` from `data[(a·burst_len + b)·chains + c]`,
/// one [`BurstSlab::push_with`] per burst.
fn push_chains_per_burst(slab: &mut BurstSlab, data: &[u8], chains: usize) {
    let burst_len = slab.burst_len();
    let accesses = data.len() / (chains * burst_len);
    for chain in 0..chains {
        for access in 0..accesses {
            let base = access * chains * burst_len;
            slab.push_with(|out| {
                out.extend((0..burst_len).map(|beat| data[base + beat * chains + chain]));
            });
        }
    }
}

/// The one-transpose interleaved append equals the per-burst fill byte for
/// byte — onto an empty slab and after another stream's chains (the
/// packed multi-session case) — and the inverse scatter round-trips, over
/// every chain count 1..=9, burst length 1..=32 and access count 1..=5
/// (which covers the 8×8-tile path at eight chains).
#[test]
fn interleaved_append_matches_the_per_burst_fill_and_scatter_inverts_it() {
    let mut rng = StdRng::seed_from_u64(0x7A45);
    for chains in 1usize..=9 {
        for burst_len in 1usize..=32 {
            for accesses in 1usize..=5 {
                let label = format!("chains={chains} len={burst_len} accesses={accesses}");
                let data: Vec<u8> = (0..chains * burst_len * accesses)
                    .map(|_| rng.gen())
                    .collect();

                let mut reference = BurstSlab::new(burst_len);
                push_chains_per_burst(&mut reference, &data, chains);
                let mut slab = BurstSlab::new(burst_len);
                slab.extend_chains_from_interleaved(&data, chains);
                assert_eq!(slab.bytes(), reference.bytes(), "{label}: empty slab");

                let mut out = vec![0u8; data.len()];
                slab.scatter_chains_into(chains, &mut out);
                assert_eq!(out, data, "{label}: scatter round trip");

                // A second stream of another width packed behind the first.
                let other_chains = rng.gen_range(1..10usize);
                let other: Vec<u8> = (0..other_chains * burst_len * rng.gen_range(1..6usize))
                    .map(|_| rng.gen())
                    .collect();
                push_chains_per_burst(&mut reference, &other, other_chains);
                slab.extend_chains_from_interleaved(&other, other_chains);
                assert_eq!(slab.bytes(), reference.bytes(), "{label}: packed behind");
            }
        }
    }
}

/// The tiled transposes (two, four and eight chains, both directions)
/// against the byte-loop reference, on long chains whose beat counts are
/// rarely a whole number of tiles (32, 16 and 8 beats for two, four and
/// eight chains): de-interleave equals the per-burst fill, and the
/// re-interleave writes beat `r` of chain `c` to `r·chains + c`.
#[test]
fn tiled_transposes_match_the_byte_loop_at_ragged_lengths() {
    let mut rng = StdRng::seed_from_u64(0x71E5);
    for chains in 1usize..=9 {
        for _ in 0..60 {
            let burst_len = rng.gen_range(1..33usize);
            let accesses = rng.gen_range(1..25usize);
            let label = format!("chains={chains} len={burst_len} accesses={accesses}");
            let data: Vec<u8> = (0..chains * burst_len * accesses)
                .map(|_| rng.gen())
                .collect();

            let mut reference = BurstSlab::new(burst_len);
            push_chains_per_burst(&mut reference, &data, chains);
            let mut slab = BurstSlab::new(burst_len);
            slab.extend_chains_from_interleaved(&data, chains);
            assert_eq!(slab.bytes(), reference.bytes(), "{label}: de-interleave");

            let beats = burst_len * accesses;
            let mut expected = vec![0u8; data.len()];
            for (c, chain) in reference.bytes().chunks_exact(beats).enumerate() {
                for (r, &byte) in chain.iter().enumerate() {
                    expected[r * chains + c] = byte;
                }
            }
            let mut out = vec![0u8; data.len()];
            slab.scatter_chains_into(chains, &mut out);
            assert_eq!(out, expected, "{label}: re-interleave");
        }
    }
}

#[test]
#[should_panic(expected = "whole")]
fn interleaved_append_rejects_partial_bursts() {
    let mut slab = BurstSlab::new(8);
    slab.extend_chains_from_interleaved(&[0u8; 24], 2);
}
