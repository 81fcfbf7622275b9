//! Greedy weighted heuristic (Chang-style baseline).

use crate::burst::{Burst, BusState};
use crate::cost::CostWeights;
use crate::encoding::InversionMask;
use crate::schemes::per_byte::{decide_per_byte, encode_lanes_by_burst, ones};
use crate::schemes::DbiEncoder;
use crate::slab::BurstSlab;
use crate::word::LaneWord;

/// A greedy per-byte heuristic that weighs both zeros and transitions.
///
/// For every byte it evaluates the weighted cost α·transitions + β·zeros of
/// the inverted and the non-inverted candidate against the word currently
/// on the lanes, and keeps the cheaper one (ties towards non-inverted). It
/// has no look-ahead, so unlike [`OptEncoder`](crate::schemes::OptEncoder)
/// it can make a locally cheap choice that forces expensive transitions
/// later in the burst.
///
/// This models the class of heuristics discussed in the related work
/// (Chang et al., "Bus encoding for low-power high-performance memory
/// systems"): good, but not necessarily optimal, joint DC/AC encodings.
///
/// ```
/// # fn main() -> Result<(), dbi_core::DbiError> {
/// use dbi_core::{Burst, BusState, CostWeights};
/// use dbi_core::schemes::{DbiEncoder, GreedyEncoder, OptEncoder};
///
/// let weights = CostWeights::new(1, 1)?;
/// let burst = Burst::paper_example();
/// let state = BusState::idle();
/// let greedy = GreedyEncoder::new(weights).encode(&burst, &state).cost(&state, &weights);
/// let optimal = OptEncoder::new(weights).encode(&burst, &state).cost(&state, &weights);
/// assert!(optimal <= greedy);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyEncoder {
    weights: CostWeights,
}

impl GreedyEncoder {
    /// Creates a greedy encoder with the given coefficients.
    #[must_use]
    pub const fn new(weights: CostWeights) -> Self {
        GreedyEncoder { weights }
    }

    /// The coefficients used by this encoder.
    #[must_use]
    pub const fn weights(&self) -> CostWeights {
        self.weights
    }
}

impl Default for GreedyEncoder {
    fn default() -> Self {
        GreedyEncoder::new(CostWeights::FIXED)
    }
}

impl DbiEncoder for GreedyEncoder {
    fn name(&self) -> &str {
        "Greedy"
    }

    /// Allocation-free fast path: two candidate costs per byte, keep the
    /// cheaper word as the next comparison point.
    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        let mut prev = state.last();
        let mut mask = InversionMask::NONE;
        for (i, byte) in burst.iter().enumerate() {
            let plain = LaneWord::encode_byte(byte, false);
            let inverted = LaneWord::encode_byte(byte, true);
            let plain_cost = self.weights.symbol_cost(plain, prev);
            let inverted_cost = self.weights.symbol_cost(inverted, prev);
            let invert = inverted_cost < plain_cost;
            if invert {
                mask = mask.with_inverted(i);
            }
            prev = if invert { inverted } else { plain };
        }
        mask
    }

    /// The shared slab loop, deciding beat by beat and weighing both
    /// candidates with the popcount identities instead of lane words.
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        let (alpha, beta) = (self.weights.alpha(), self.weights.beta());
        encode_lanes_by_burst(slab, states, |burst, entry| {
            decide_per_byte(burst, entry, |_, byte, last, low| {
                let p = ones(byte);
                let d = ones(last ^ byte);
                let (plain_trans, inverted_trans) = if low { (9 - d, d) } else { (d, 9 - d) };
                alpha * inverted_trans + beta * (p + 1) < alpha * plain_trans + beta * (8 - p)
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{AcEncoder, DcEncoder, OptEncoder};

    #[test]
    fn degenerates_to_dc_for_beta_only_weights() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let greedy = GreedyEncoder::new(CostWeights::DC_ONLY).encode(&burst, &state);
        let dc = DcEncoder::new().encode(&burst, &state);
        assert_eq!(greedy.mask(), dc.mask());
    }

    #[test]
    fn degenerates_to_ac_for_alpha_only_weights() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let greedy = GreedyEncoder::new(CostWeights::AC_ONLY).encode(&burst, &state);
        let ac = AcEncoder::new().encode(&burst, &state);
        assert_eq!(greedy.mask(), ac.mask());
    }

    #[test]
    fn never_beats_the_optimal_encoder() {
        let state = BusState::idle();
        let bursts = [
            Burst::paper_example(),
            Burst::from_array([0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF]),
            Burst::from_array([0xF8, 0x07, 0xE0, 0x1F, 0xC0, 0x3F, 0x80, 0x7F]),
        ];
        for (alpha, beta) in [(1u32, 1u32), (1, 3), (3, 1), (5, 2)] {
            let weights = CostWeights::new(alpha, beta).unwrap();
            let greedy = GreedyEncoder::new(weights);
            let opt = OptEncoder::new(weights);
            for burst in &bursts {
                let g = greedy.encode(burst, &state).cost(&state, &weights);
                let o = opt.encode(burst, &state).cost(&state, &weights);
                assert!(o <= g, "optimal {o} must not exceed greedy {g}");
            }
        }
    }

    #[test]
    fn accessors_and_default() {
        let w = CostWeights::new(2, 5).unwrap();
        assert_eq!(GreedyEncoder::new(w).weights(), w);
        assert_eq!(GreedyEncoder::default().weights(), CostWeights::FIXED);
        assert_eq!(GreedyEncoder::default().name(), "Greedy");
    }
}
