//! Differential tests of the encode fast paths, driven by a seeded
//! deterministic RNG:
//!
//! * `encode_mask` must equal `encode().mask()` for every scheme, burst
//!   lengths 1..=16 and arbitrary bus states,
//! * `EncodedBurst::assign_from_mask` must reproduce `encode`
//!   bit-for-bit through a reused buffer,
//! * the LUT-based DP must match the explicit trellis solved with
//!   Dijkstra's algorithm (`graph::Trellis`), an implementation with no
//!   shared code path.

use dbi_core::graph::Trellis;
use dbi_core::oracle;
use dbi_core::schemes::{
    AcDcEncoder, AcEncoder, DbiEncoder, DcEncoder, ExhaustiveEncoder, GreedyEncoder, OptEncoder,
    RawEncoder,
};
use dbi_core::{Burst, BusState, CostWeights, EncodedBurst, LaneWord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Cases {
    rng: StdRng,
}

impl Cases {
    fn new(seed: u64) -> Self {
        Cases {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    fn burst_of_len(&mut self, len: usize) -> Burst {
        let bytes: Vec<u8> = (0..len).map(|_| (self.next_u64() >> 56) as u8).collect();
        Burst::new(bytes).expect("length is at least one")
    }

    fn state(&mut self) -> BusState {
        let raw = (self.next_u64() % 512) as u16;
        BusState::new(LaneWord::new(raw).expect("raw is below 512"))
    }

    fn weights(&mut self) -> CostWeights {
        loop {
            let alpha = (self.next_u64() % 8) as u32;
            let beta = (self.next_u64() % 8) as u32;
            if alpha != 0 || beta != 0 {
                return CostWeights::new(alpha, beta).expect("at least one is non-zero");
            }
        }
    }
}

/// For every scheme: `encode_mask` == `encode().mask()`,
/// `assign_from_mask` == `encode`, and both pricing paths equal the
/// per-beat lane-word walk, across burst lengths 1..=16 and random bus
/// states.
#[test]
fn encode_mask_matches_encode_for_every_scheme_and_length() {
    let mut cases = Cases::new(0xD1FF_0001);
    let mut reused = EncodedBurst::empty();
    for len in 1..=16usize {
        for _ in 0..24 {
            let burst = cases.burst_of_len(len);
            let state = cases.state();
            let weights = cases.weights();
            let encoders: [(&str, &dyn DbiEncoder); 6] = [
                ("RAW", &RawEncoder),
                ("DBI DC", &DcEncoder),
                ("DBI AC", &AcEncoder),
                ("DBI ACDC", &AcDcEncoder),
                ("Greedy", &GreedyEncoder::new(weights)),
                ("DBI OPT", &OptEncoder::new(weights)),
            ];
            for (name, encoder) in encoders {
                let full = encoder.encode(&burst, &state);
                let mask = encoder.encode_mask(&burst, &state);
                assert_eq!(
                    full.mask(),
                    mask,
                    "{name}: encode vs encode_mask, len {len}, state {state}, {weights}"
                );
                reused.assign_from_mask(&burst, mask).unwrap();
                assert_eq!(
                    full, reused,
                    "{name}: encode vs assign_from_mask, len {len}"
                );
                assert_eq!(full.decode(), burst, "{name}: losslessness, len {len}");
                // The serial reference prices word-wide; the per-beat
                // lane-word walk is its oracle.
                let walked = oracle::price_symbols(full.symbols(), &state);
                assert_eq!(
                    mask.breakdown(&burst, &state),
                    walked,
                    "{name}: mask pricing, len {len}, state {state}"
                );
                assert_eq!(
                    full.breakdown(&state),
                    walked,
                    "{name}: encoded pricing, len {len}"
                );
            }
        }
    }
}

/// The exhaustive oracle's fast path agrees with its enumerate-and-pick
/// implementation, including tie-breaking (kept to short bursts: 2^n).
#[test]
fn exhaustive_mask_matches_enumeration() {
    let mut cases = Cases::new(0xD1FF_0002);
    for len in 1..=10usize {
        for _ in 0..8 {
            let burst = cases.burst_of_len(len);
            let state = cases.state();
            let oracle = ExhaustiveEncoder::new(cases.weights());
            let via_enumeration = oracle
                .enumerate_costs(&burst, &state)
                .into_iter()
                .min_by_key(|&(mask, cost)| (cost, mask.bits()))
                .expect("at least one mask exists")
                .0;
            assert_eq!(
                oracle.encode_mask(&burst, &state),
                via_enumeration,
                "len {len}"
            );
        }
    }
}

/// Cross-implementation check: the table-driven DP against the explicit
/// trellis graph solved with Dijkstra — independent data structures,
/// independent algorithm, same optimum.
#[test]
fn lut_dp_matches_dijkstra_on_the_explicit_trellis() {
    let mut cases = Cases::new(0xD1FF_0003);
    for _ in 0..128 {
        let len = 1 + (cases.next_u64() as usize) % 12;
        let burst = cases.burst_of_len(len);
        let state = cases.state();
        let weights = cases.weights();

        let trellis = Trellis::build(&burst, &state, weights);
        let dijkstra = trellis.shortest_path();
        let encoder = OptEncoder::new(weights);
        let mask = encoder.encode_mask(&burst, &state);

        assert_eq!(
            mask.cost(&burst, &state, &weights),
            dijkstra.cost,
            "DP cost must equal Dijkstra's shortest path for {burst} from {state} with {weights}"
        );
        // The DP's own final cost agrees as well.
        let (_, final_cost) = encoder.forward_sweep(&burst, &state);
        assert_eq!(final_cost.into_iter().min().unwrap(), dijkstra.cost);
    }
}

/// The paper's worked example end to end through the fast path: Fig. 2
/// costs for DC, AC and OPT.
#[test]
fn fig2_costs_via_the_mask_path() {
    let burst = Burst::paper_example();
    let state = BusState::idle();
    let weights = CostWeights::FIXED;
    let cost = |encoder: &dyn DbiEncoder| {
        encoder
            .encode_mask(&burst, &state)
            .cost(&burst, &state, &weights)
    };
    assert_eq!(cost(&DcEncoder), 68);
    assert_eq!(cost(&AcEncoder), 65);
    assert_eq!(cost(&OptEncoder::new(weights)), 52);
}
