//! DBI AC: per-byte transition minimisation.

use crate::burst::{Burst, BusState};
use crate::encoding::InversionMask;
use crate::schemes::per_byte::{ac_bits, encode_lanes_by_burst};
use crate::schemes::DbiEncoder;
use crate::slab::BurstSlab;
use crate::word::LaneWord;

/// The DBI AC scheme.
///
/// Each byte is compared against the word currently on the lanes: it is
/// transmitted inverted exactly when inversion (including the toggle the
/// DBI lane itself may incur) results in fewer lane transitions. Ties are
/// resolved towards the non-inverted representation, which keeps the DBI
/// lane high during idle-like traffic.
///
/// Unlike [`DcEncoder`](crate::schemes::DcEncoder), DBI AC is stateful
/// across bytes: the decision for byte *i* depends on what was actually
/// driven for byte *i − 1*.
///
/// ```
/// use dbi_core::{Burst, BusState};
/// use dbi_core::schemes::{AcEncoder, DbiEncoder, RawEncoder};
///
/// let burst = Burst::from_array([0xFF, 0x00, 0xFF, 0x00, 0xFF, 0x00, 0xFF, 0x00]);
/// let state = BusState::idle();
/// let ac = AcEncoder::new().encode(&burst, &state);
/// let raw = RawEncoder::new().encode(&burst, &state);
/// assert!(ac.breakdown(&state).transitions < raw.breakdown(&state).transitions);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcEncoder;

impl AcEncoder {
    /// Creates a DBI AC encoder.
    #[must_use]
    pub const fn new() -> Self {
        AcEncoder
    }

    /// The AC inversion decision for one byte given the previous lane word:
    /// `true` when transmitting the byte inverted produces strictly fewer
    /// lane transitions than transmitting it as-is.
    #[must_use]
    pub fn should_invert(byte: u8, prev: LaneWord) -> bool {
        let plain = LaneWord::encode_byte(byte, false);
        let inverted = LaneWord::encode_byte(byte, true);
        inverted.transitions_from(prev) < plain.transitions_from(prev)
    }
}

impl DbiEncoder for AcEncoder {
    fn name(&self) -> &str {
        "DBI AC"
    }

    /// Allocation-free fast path: the per-byte comparison carries only the
    /// previously transmitted lane word.
    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        let mut prev = state.last();
        let mut mask = InversionMask::NONE;
        for (i, byte) in burst.iter().enumerate() {
            let invert = AcEncoder::should_invert(byte, prev);
            if invert {
                mask = mask.with_inverted(i);
            }
            prev = LaneWord::encode_byte(byte, invert);
        }
        mask
    }

    /// The shared slab loop under the word-wide XOR-popcount form of
    /// the rule.
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        encode_lanes_by_burst(slab, states, ac_bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostBreakdown, CostWeights};
    use crate::schemes::{ExhaustiveEncoder, RawEncoder};

    #[test]
    fn invert_decision_prefers_fewer_transitions() {
        // Previous word all ones; transmitting 0x00 as-is toggles all eight
        // DQ lanes, inverted only toggles the DBI lane.
        assert!(AcEncoder::should_invert(0x00, LaneWord::ALL_ONES));
        // Transmitting 0xFF as-is toggles nothing.
        assert!(!AcEncoder::should_invert(0xFF, LaneWord::ALL_ONES));
    }

    #[test]
    fn ties_keep_the_non_inverted_form() {
        // From all-ones, a byte with four zeros costs 4 transitions either
        // way (4 data toggles vs. 4 complemented toggles + DBI toggle = 5);
        // check an exact tie case instead: from a previous word that makes
        // both candidates equal.
        let prev = LaneWord::encode_byte(0x0F, false);
        // Byte 0xF0: plain differs from prev in 8 data bits (0 DBI toggles) = 8;
        // inverted (0x0F payload, DBI low) differs in 0 data bits + 1 DBI = 1.
        assert!(AcEncoder::should_invert(0xF0, prev));
        // Byte 0x5A vs prev 0x0F: plain = 0x55 diff -> popcount(0x5A^0x0F)=popcount(0x55)=4;
        // inverted payload 0xA5: popcount(0xA5^0x0F)=popcount(0xAA)=4, plus DBI toggle = 5.
        assert!(!AcEncoder::should_invert(0x5A, prev));
    }

    #[test]
    fn ac_never_produces_more_transitions_than_raw() {
        let state = BusState::idle();
        let ac = AcEncoder::new();
        let raw = RawEncoder::new();
        let bursts = [
            Burst::paper_example(),
            Burst::from_array([0x00, 0xFF, 0x00, 0xFF, 0x12, 0xED, 0x34, 0xCB]),
            Burst::from_array([0xA5; 8]),
        ];
        for burst in bursts {
            let ac_t = ac.encode(&burst, &state).breakdown(&state).transitions;
            let raw_t = raw.encode(&burst, &state).breakdown(&state).transitions;
            assert!(ac_t <= raw_t, "DBI AC must never increase transitions");
        }
    }

    #[test]
    fn ac_matches_exhaustive_search_under_pure_ac_weights() {
        // With alpha-only weights, greedy per-byte transition minimisation is
        // globally optimal (the per-byte decision only influences the next
        // byte through the chosen word, and the trellis is a chain whose
        // stage costs are minimised independently by the greedy choice; this
        // is the reason the paper's DBI AC curve touches DBI OPT at DC cost 0).
        let weights = CostWeights::AC_ONLY;
        let oracle = ExhaustiveEncoder::new(weights);
        let ac = AcEncoder::new();
        let state = BusState::idle();
        let bursts = [
            Burst::paper_example(),
            Burst::from_array([0x10, 0x2F, 0x3E, 0x4D, 0x5C, 0x6B, 0x7A, 0x89]),
        ];
        for burst in bursts {
            let ac_cost = ac.encode(&burst, &state).cost(&state, &weights);
            let opt_cost = oracle.encode(&burst, &state).cost(&state, &weights);
            assert_eq!(
                ac_cost, opt_cost,
                "DBI AC must be optimal for alpha-only weights"
            );
        }
    }

    #[test]
    fn paper_example_ac_counts() {
        // Fig. 2: DBI AC yields 43 zeros and 22 transitions on the example burst.
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let encoded = AcEncoder::new().encode(&burst, &state);
        assert_eq!(encoded.breakdown(&state), CostBreakdown::new(43, 22));
    }

    #[test]
    fn encoding_depends_on_bus_state() {
        let burst = Burst::from_slice(&[0x0F]).unwrap();
        let from_ones = AcEncoder::new().encode(&burst, &BusState::idle());
        let from_zeros = AcEncoder::new().encode(&burst, &BusState::new(LaneWord::ALL_ZEROS));
        assert_ne!(from_ones.mask(), from_zeros.mask());
    }

    #[test]
    fn name() {
        assert_eq!(AcEncoder::new().name(), "DBI AC");
    }
}
