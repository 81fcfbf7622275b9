//! DBI DC: per-byte zero minimisation.

use crate::burst::{Burst, BusState};
use crate::encoding::InversionMask;
use crate::schemes::per_byte::{dc_bits, encode_lanes_by_burst};
use crate::schemes::DbiEncoder;
use crate::slab::BurstSlab;
use crate::word::byte_zeros;

/// Threshold of the DBI DC rule: a byte with this many zeros or more is
/// transmitted inverted.
pub const DC_INVERSION_THRESHOLD: u32 = 5;

/// The DBI DC scheme used by GDDR4/GDDR5/DDR4.
///
/// Each byte is examined in isolation: if it contains five or more zeros it
/// is transmitted inverted (the inverted payload then has at most three
/// zeros, plus the low DBI lane, for a worst case of four transmitted
/// zeros). Bytes with four or fewer zeros are transmitted unchanged. The
/// scheme therefore guarantees that **no unit interval ever drives more
/// than four of the nine lanes low**, which bounds both the termination
/// current and the simultaneous-switching-output noise.
///
/// ```
/// use dbi_core::{Burst, BusState};
/// use dbi_core::schemes::{DbiEncoder, DcEncoder};
///
/// let burst = Burst::from_array([0x01, 0xFF, 0x00, 0x3C, 0x80, 0x07, 0xF8, 0xAA]);
/// let encoded = DcEncoder::new().encode(&burst, &BusState::idle());
/// for symbol in encoded.symbols() {
///     assert!(symbol.zeros() <= 4);
/// }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DcEncoder;

impl DcEncoder {
    /// Creates a DBI DC encoder.
    #[must_use]
    pub const fn new() -> Self {
        DcEncoder
    }

    /// The DC inversion decision for a single byte: `true` when the byte
    /// contains `DC_INVERSION_THRESHOLD` (five) or more zeros.
    #[must_use]
    pub const fn should_invert(byte: u8) -> bool {
        byte_zeros(byte) >= DC_INVERSION_THRESHOLD
    }
}

impl DbiEncoder for DcEncoder {
    fn name(&self) -> &str {
        "DBI DC"
    }

    /// Allocation-free fast path: one popcount threshold per byte.
    fn encode_mask(&self, burst: &Burst, _state: &BusState) -> InversionMask {
        let mut mask = InversionMask::NONE;
        for (i, byte) in burst.iter().enumerate() {
            if DcEncoder::should_invert(byte) {
                mask = mask.with_inverted(i);
            }
        }
        mask
    }

    /// The shared slab loop under the word-wide popcount form of the
    /// rule.
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        encode_lanes_by_burst(slab, states, |burst, _| dc_bits(burst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostBreakdown, CostWeights};
    use crate::schemes::ExhaustiveEncoder;

    #[test]
    fn threshold_is_five_zeros() {
        // Exactly four zeros: keep.
        assert!(!DcEncoder::should_invert(0x0F));
        // Five zeros: invert.
        assert!(DcEncoder::should_invert(0x07));
        // All zeros: invert.
        assert!(DcEncoder::should_invert(0x00));
        // No zeros: keep.
        assert!(!DcEncoder::should_invert(0xFF));
    }

    #[test]
    fn no_symbol_ever_has_more_than_four_zeros() {
        let encoder = DcEncoder::new();
        // Walk a spread of bytes covering every popcount.
        for base in 0..=255u8 {
            let burst = Burst::from_slice(&[base]).unwrap();
            let encoded = encoder.encode(&burst, &BusState::idle());
            assert!(
                encoded.symbols()[0].zeros() <= 4,
                "byte {base:#04x} transmitted with more than four zeros"
            );
        }
    }

    #[test]
    fn dc_is_independent_of_bus_state() {
        let burst = Burst::from_array([0x12, 0x00, 0xFF, 0x55, 0xAA, 0x0F, 0xF0, 0x81]);
        let encoder = DcEncoder::new();
        let idle = encoder.encode(&burst, &BusState::idle());
        let other = encoder.encode(&burst, &BusState::new(crate::word::LaneWord::ALL_ZEROS));
        assert_eq!(idle.mask(), other.mask());
    }

    #[test]
    fn dc_matches_exhaustive_search_under_pure_dc_weights() {
        // With beta-only weights, per-byte zero minimisation is globally
        // optimal, so DBI DC must equal the brute-force oracle cost.
        let weights = CostWeights::DC_ONLY;
        let oracle = ExhaustiveEncoder::new(weights);
        let dc = DcEncoder::new();
        let state = BusState::idle();
        let bursts = [
            Burst::paper_example(),
            Burst::from_array([0x00, 0xFF, 0x07, 0xE0, 0x55, 0xAA, 0x13, 0xFE]),
            Burst::from_array([0x80; 8]),
        ];
        for burst in bursts {
            let dc_cost = dc.encode(&burst, &state).cost(&state, &weights);
            let opt_cost = oracle.encode(&burst, &state).cost(&state, &weights);
            assert_eq!(
                dc_cost, opt_cost,
                "DBI DC must be optimal for beta-only weights"
            );
        }
    }

    #[test]
    fn paper_example_dc_counts() {
        // Fig. 2: DBI DC yields 26 zeros and 42 transitions on the example burst.
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let encoded = DcEncoder::new().encode(&burst, &state);
        assert_eq!(encoded.breakdown(&state), CostBreakdown::new(26, 42));
    }

    #[test]
    fn name() {
        assert_eq!(DcEncoder::new().name(), "DBI DC");
    }
}
