//! Property-based tests for the core DBI invariants, driven by a seeded
//! deterministic RNG so every run checks the identical case set.
//!
//! These cover the claims the paper's argument rests on:
//! * every scheme is lossless (the receiver recovers the payload),
//! * the DP optimal encoder equals the brute-force oracle for any burst and
//!   any coefficients,
//! * DBI DC bounds the zeros per word, DBI AC never increases transitions,
//! * DBI ACDC equals DBI AC under the idle boundary condition,
//! * the optimal encoder is never worse than any other scheme.

use dbi_core::oracle;
use dbi_core::schemes::{
    AcDcEncoder, AcEncoder, DbiEncoder, DcEncoder, ExhaustiveEncoder, GreedyEncoder, OptEncoder,
    RawEncoder,
};
use dbi_core::{Burst, BusState, CostWeights, LaneWord, ParetoFront};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic seeded case stream; the same seed always produces the same
/// sequence of test cases (backed by the workspace's vendored `rand`).
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

    fn byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// A burst of `1..=max_len` random bytes.
    fn burst(&mut self, max_len: usize) -> Burst {
        let len = 1 + (self.next_u64() as usize) % max_len;
        let bytes: Vec<u8> = (0..len).map(|_| self.byte()).collect();
        Burst::new(bytes).expect("length is at least one")
    }

    /// An arbitrary 9-bit previous bus state.
    fn state(&mut self) -> BusState {
        let raw = (self.next_u64() % 512) as u16;
        BusState::new(LaneWord::new(raw).expect("raw is below 512"))
    }

    /// Valid, non-degenerate cost weights with 3-bit coefficients.
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

const CASES: usize = 256;

#[test]
fn every_scheme_is_lossless() {
    let mut cases = Cases::new(0xD0B1_0001);
    for _ in 0..CASES {
        let (burst, state, weights) = (cases.burst(10), cases.state(), cases.weights());
        let encoders: Vec<Box<dyn DbiEncoder>> = vec![
            Box::new(RawEncoder::new()),
            Box::new(DcEncoder::new()),
            Box::new(AcEncoder::new()),
            Box::new(AcDcEncoder::new()),
            Box::new(GreedyEncoder::new(weights)),
            Box::new(OptEncoder::new(weights)),
        ];
        for encoder in &encoders {
            let encoded = encoder.encode(&burst, &state);
            assert_eq!(
                encoded.decode(),
                burst,
                "{} must be lossless",
                encoder.name()
            );
            assert_eq!(encoded.len(), burst.len());
        }
    }
}

#[test]
fn optimal_equals_exhaustive() {
    let mut cases = Cases::new(0xD0B1_0002);
    for _ in 0..CASES {
        let (burst, state, weights) = (cases.burst(10), cases.state(), cases.weights());
        let opt = OptEncoder::new(weights).encode(&burst, &state);
        let oracle = ExhaustiveEncoder::new(weights).encode(&burst, &state);
        assert_eq!(
            opt.cost(&state, &weights),
            oracle.cost(&state, &weights),
            "DP optimum must match brute force for {burst} with {weights}"
        );
    }
}

#[test]
fn optimal_never_worse_than_any_other_scheme() {
    let mut cases = Cases::new(0xD0B1_0003);
    for _ in 0..CASES {
        let (burst, state, weights) = (cases.burst(10), cases.state(), cases.weights());
        let opt_cost = OptEncoder::new(weights)
            .encode(&burst, &state)
            .cost(&state, &weights);
        let others: Vec<Box<dyn DbiEncoder>> = vec![
            Box::new(RawEncoder::new()),
            Box::new(DcEncoder::new()),
            Box::new(AcEncoder::new()),
            Box::new(AcDcEncoder::new()),
            Box::new(GreedyEncoder::new(weights)),
        ];
        for other in &others {
            let cost = other.encode(&burst, &state).cost(&state, &weights);
            assert!(
                opt_cost <= cost,
                "OPT ({opt_cost}) worse than {} ({cost})",
                other.name()
            );
        }
    }
}

#[test]
fn dc_bounds_zeros_per_word() {
    let mut cases = Cases::new(0xD0B1_0004);
    for _ in 0..CASES {
        let (burst, state) = (cases.burst(10), cases.state());
        let encoded = DcEncoder::new().encode(&burst, &state);
        for word in encoded.symbols() {
            assert!(
                word.zeros() <= 4,
                "DBI DC transmitted {} zeros in one interval",
                word.zeros()
            );
        }
    }
}

#[test]
fn ac_never_increases_transitions() {
    let mut cases = Cases::new(0xD0B1_0005);
    for _ in 0..CASES {
        let (burst, state) = (cases.burst(10), cases.state());
        let ac = AcEncoder::new().encode(&burst, &state).breakdown(&state);
        let raw = RawEncoder::new().encode(&burst, &state).breakdown(&state);
        assert!(ac.transitions <= raw.transitions);
    }
}

#[test]
fn ac_is_transition_optimal() {
    // DBI AC minimises transitions globally (the reason its curve touches
    // DBI OPT at DC cost 0 in Fig. 3).
    let mut cases = Cases::new(0xD0B1_0006);
    let weights = CostWeights::AC_ONLY;
    for _ in 0..CASES {
        let (burst, state) = (cases.burst(10), cases.state());
        let ac = AcEncoder::new()
            .encode(&burst, &state)
            .cost(&state, &weights);
        let oracle = ExhaustiveEncoder::new(weights)
            .encode(&burst, &state)
            .cost(&state, &weights);
        assert_eq!(ac, oracle);
    }
}

#[test]
fn dc_is_zero_optimal() {
    let mut cases = Cases::new(0xD0B1_0007);
    let weights = CostWeights::DC_ONLY;
    for _ in 0..CASES {
        let (burst, state) = (cases.burst(10), cases.state());
        let dc = DcEncoder::new()
            .encode(&burst, &state)
            .cost(&state, &weights);
        let oracle = ExhaustiveEncoder::new(weights)
            .encode(&burst, &state)
            .cost(&state, &weights);
        assert_eq!(dc, oracle);
    }
}

#[test]
fn acdc_equals_ac_from_idle() {
    // Section II: with all lanes idle high before the burst, DBI ACDC and
    // DBI AC make identical decisions.
    let mut cases = Cases::new(0xD0B1_0008);
    let state = BusState::idle();
    for _ in 0..CASES {
        let burst = cases.burst(10);
        let acdc = AcDcEncoder::new().encode(&burst, &state);
        let ac = AcEncoder::new().encode(&burst, &state);
        assert_eq!(acdc.mask(), ac.mask());
    }
}

#[test]
fn opt_lands_on_the_pareto_front() {
    let mut cases = Cases::new(0xD0B1_0009);
    let state = BusState::idle();
    for _ in 0..CASES {
        let (burst, weights) = (cases.burst(8), cases.weights());
        let front = ParetoFront::of_burst(&burst, &state).unwrap();
        let breakdown = OptEncoder::new(weights)
            .encode(&burst, &state)
            .breakdown(&state);
        assert!(front.contains(breakdown));
    }
}

#[test]
fn breakdown_of_concatenated_bursts_is_additive() {
    // Encoding a stream burst-by-burst while carrying the bus state is
    // energy-consistent: the totals add up across the boundary.
    let mut cases = Cases::new(0xD0B1_000A);
    for _ in 0..CASES {
        let (first, second) = (cases.burst(10), cases.burst(10));
        let (state, weights) = (cases.state(), cases.weights());
        let opt = OptEncoder::new(weights);
        let enc1 = opt.encode(&first, &state);
        let mid = enc1.final_state(&state);
        let enc2 = opt.encode(&second, &mid);
        let total = enc1.breakdown(&state) + enc2.breakdown(&mid);
        let recomputed = oracle::price_symbols(&[enc1.symbols(), enc2.symbols()].concat(), &state);
        assert_eq!(total, recomputed);
    }
}

#[test]
fn lane_word_complement_relationship() {
    // The inverted and non-inverted transmissions of a byte are exact
    // 9-bit complements, which is why zeros(plain) + zeros(inverted) = 9.
    for byte in 0..=255u8 {
        let plain = LaneWord::encode_byte(byte, false);
        let inverted = LaneWord::encode_byte(byte, true);
        assert_eq!(plain.bits() ^ inverted.bits(), 0x1FF);
        assert_eq!(plain.zeros() + inverted.zeros(), 9);
    }
}

#[test]
fn transitions_metric_is_a_valid_distance() {
    let mut cases = Cases::new(0xD0B1_000B);
    for _ in 0..CASES {
        let wa = LaneWord::new((cases.next_u64() % 512) as u16).unwrap();
        let wb = LaneWord::new((cases.next_u64() % 512) as u16).unwrap();
        let wc = LaneWord::new((cases.next_u64() % 512) as u16).unwrap();
        // Symmetry, identity and the triangle inequality of the Hamming metric.
        assert_eq!(wa.transitions_from(wb), wb.transitions_from(wa));
        assert_eq!(wa.transitions_from(wa), 0);
        assert!(wa.transitions_from(wc) <= wa.transitions_from(wb) + wb.transitions_from(wc));
    }
}
