//! Unencoded transmission (the paper's "RAW" baseline).

use crate::burst::{Burst, BusState};
use crate::encoding::InversionMask;
use crate::schemes::per_byte::encode_lanes_by_burst;
use crate::schemes::DbiEncoder;
use crate::slab::BurstSlab;

/// Transmits every byte as-is with the DBI lane held high.
///
/// Because an idle-high DBI lane contributes neither zeros nor transitions,
/// the activity of a RAW-encoded burst equals the activity of transmitting
/// the payload over eight plain DQ lanes with no DBI lane at all — which is
/// exactly the "unencoded" baseline the paper normalises Fig. 7 against.
///
/// ```
/// use dbi_core::{Burst, BusState};
/// use dbi_core::schemes::{DbiEncoder, RawEncoder};
///
/// let burst = Burst::from_array([0xAA; 8]);
/// let encoded = RawEncoder::new().encode(&burst, &BusState::idle());
/// assert_eq!(encoded.mask().count_inverted(), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RawEncoder;

impl RawEncoder {
    /// Creates the RAW baseline encoder.
    #[must_use]
    pub const fn new() -> Self {
        RawEncoder
    }
}

impl DbiEncoder for RawEncoder {
    fn name(&self) -> &str {
        "RAW"
    }

    /// RAW never inverts, so the fast path is a constant.
    fn encode_mask(&self, _burst: &Burst, _state: &BusState) -> InversionMask {
        InversionMask::NONE
    }

    /// The shared slab loop with a decision that never inverts; only
    /// the pricing does work.
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        encode_lanes_by_burst(slab, states, |_, _| 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostBreakdown;

    #[test]
    fn raw_never_inverts() {
        let burst = Burst::from_array([0x00; 8]);
        let encoded = RawEncoder::new().encode(&burst, &BusState::idle());
        assert_eq!(encoded.mask(), InversionMask::NONE);
        for symbol in encoded.symbols() {
            assert_eq!(symbol.dbi().line_level(), 1);
        }
    }

    #[test]
    fn raw_activity_equals_eight_lane_activity() {
        // With the DBI lane pinned high, zeros and transitions are exactly
        // those of the payload bits alone.
        let burst = Burst::from_slice(&[0x0F, 0xF0, 0x0F]).unwrap();
        let encoded = RawEncoder::new().encode(&burst, &BusState::idle());
        let b = encoded.breakdown(&BusState::idle());
        // zeros: 4 + 4 + 4; transitions: 4 (from all-ones) + 8 + 8.
        assert_eq!(b, CostBreakdown::new(12, 20));
    }

    #[test]
    fn raw_name() {
        assert_eq!(RawEncoder::new().name(), "RAW");
        assert_eq!(RawEncoder, RawEncoder::new());
    }
}
