//! Brute-force oracle encoder.

use crate::burst::{Burst, BusState, MAX_EXHAUSTIVE_LEN};
use crate::cost::CostWeights;
use crate::encoding::{EncodedBurst, InversionMask};
use crate::schemes::DbiEncoder;

/// The naive encoder sketched at the start of Section III: enumerate all
/// 2ⁿ inversion masks of an *n*-byte burst and keep the cheapest.
///
/// It exists purely as a correctness oracle for
/// [`OptEncoder`](crate::schemes::OptEncoder) (and for the Pareto analysis);
/// it is exponential in the burst length and therefore restricted to bursts
/// of at most [`MAX_EXHAUSTIVE_LEN`] bytes.
///
/// Ties between equally cheap masks are resolved towards the numerically
/// smallest mask, i.e. towards fewer / later inversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveEncoder {
    weights: CostWeights,
}

impl ExhaustiveEncoder {
    /// Creates an exhaustive-search encoder with the given coefficients.
    #[must_use]
    pub const fn new(weights: CostWeights) -> Self {
        ExhaustiveEncoder { weights }
    }

    /// The coefficients used by this encoder.
    #[must_use]
    pub const fn weights(&self) -> CostWeights {
        self.weights
    }

    /// Returns every `(mask, cost)` pair for the burst, in mask order.
    ///
    /// # Panics
    ///
    /// Panics if the burst is longer than [`MAX_EXHAUSTIVE_LEN`] bytes.
    #[must_use]
    pub fn enumerate_costs(&self, burst: &Burst, state: &BusState) -> Vec<(InversionMask, u64)> {
        assert!(
            burst.len() <= MAX_EXHAUSTIVE_LEN,
            "exhaustive enumeration is limited to {MAX_EXHAUSTIVE_LEN} bytes, got {}",
            burst.len()
        );
        let count = 1u64 << burst.len();
        (0..count)
            .map(|bits| {
                let mask = InversionMask::from_bits(bits as u32);
                let encoded = EncodedBurst::from_mask(burst, mask)
                    .expect("mask bits are bounded by the burst length");
                (mask, encoded.cost(state, &self.weights))
            })
            .collect()
    }
}

impl Default for ExhaustiveEncoder {
    fn default() -> Self {
        ExhaustiveEncoder::new(CostWeights::FIXED)
    }
}

impl DbiEncoder for ExhaustiveEncoder {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    /// Allocation-free fast path: walks the 2ⁿ masks in ascending order and
    /// keeps the first minimum, pricing each candidate directly from the
    /// payload bytes ([`InversionMask::cost`]) instead of materialising an
    /// [`EncodedBurst`] per candidate as [`ExhaustiveEncoder::enumerate_costs`]
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if the burst is longer than [`MAX_EXHAUSTIVE_LEN`] bytes.
    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        assert!(
            burst.len() <= MAX_EXHAUSTIVE_LEN,
            "exhaustive enumeration is limited to {MAX_EXHAUSTIVE_LEN} bytes, got {}",
            burst.len()
        );
        let count = 1u64 << burst.len();
        let mut best_mask = InversionMask::NONE;
        let mut best_cost = u64::MAX;
        for bits in 0..count {
            let mask = InversionMask::from_bits(bits as u32);
            let cost = mask.cost(burst, state, &self.weights);
            // Strict `<` keeps the numerically smallest mask among ties,
            // matching `enumerate_costs` + `min_by_key((cost, bits))`.
            if cost < best_cost {
                best_cost = cost;
                best_mask = mask;
            }
        }
        best_mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_all_masks() {
        let burst = Burst::from_slice(&[0xAB, 0xCD, 0xEF]).unwrap();
        let all = ExhaustiveEncoder::default().enumerate_costs(&burst, &BusState::idle());
        assert_eq!(all.len(), 8);
        // Masks are enumerated in order.
        assert_eq!(all[0].0, InversionMask::from_bits(0));
        assert_eq!(all[7].0, InversionMask::from_bits(7));
    }

    #[test]
    fn picks_the_minimum_cost_mask() {
        let burst = Burst::from_slice(&[0x00, 0x00]).unwrap();
        let state = BusState::idle();
        let weights = CostWeights::FIXED;
        let encoded = ExhaustiveEncoder::new(weights).encode(&burst, &state);
        // Inverting both bytes transmits 0xFF twice with a low DBI lane:
        // 2 zeros and 1 transition, clearly the cheapest.
        assert_eq!(encoded.mask(), InversionMask::from_bits(0b11));
        assert_eq!(encoded.cost(&state, &weights), 3);
    }

    #[test]
    #[should_panic(expected = "exhaustive enumeration is limited")]
    fn rejects_oversized_bursts() {
        let burst = Burst::new(vec![0u8; MAX_EXHAUSTIVE_LEN + 1]).unwrap();
        let _ = ExhaustiveEncoder::default().encode(&burst, &BusState::idle());
    }

    #[test]
    fn accessors() {
        let w = CostWeights::new(2, 3).unwrap();
        assert_eq!(ExhaustiveEncoder::new(w).weights(), w);
        assert_eq!(ExhaustiveEncoder::default().name(), "Exhaustive");
    }

    #[test]
    fn paper_example_minimum_is_52() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let weights = CostWeights::FIXED;
        let encoded = ExhaustiveEncoder::new(weights).encode(&burst, &state);
        assert_eq!(encoded.cost(&state, &weights), 52);
    }
}
