//! DBI ACDC: Hollis' combined mode-switching scheme.

use crate::burst::{Burst, BusState};
use crate::encoding::InversionMask;
use crate::schemes::per_byte::{acdc_bits, encode_lanes_by_burst};
use crate::schemes::{AcEncoder, DbiEncoder, DcEncoder};
use crate::slab::BurstSlab;
use crate::word::LaneWord;

/// The DBI ACDC scheme proposed by Hollis (related work, reference \[8\] of
/// the paper).
///
/// The first byte of a burst is encoded with the DC rule (bounding the
/// number of zeros it transmits regardless of the unknown previous bus
/// state), and every subsequent byte with the AC rule (minimising toggles
/// relative to the previous word of the same burst).
///
/// Under the boundary condition the paper uses — all lanes idle high before
/// the burst — DBI ACDC produces exactly the same encodings as plain DBI AC,
/// because for the first byte "fewer zeros" and "fewer toggles from
/// all-ones" are the same criterion. The property tests in this crate check
/// that equivalence; it is the reason the ACDC curve is not plotted
/// separately in Figs. 3 and 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcDcEncoder;

impl AcDcEncoder {
    /// Creates a DBI ACDC encoder.
    #[must_use]
    pub const fn new() -> Self {
        AcDcEncoder
    }
}

impl DbiEncoder for AcDcEncoder {
    fn name(&self) -> &str {
        "DBI ACDC"
    }

    /// Allocation-free fast path: DC rule for byte 0, AC rule after.
    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        let mut prev = state.last();
        let mut mask = InversionMask::NONE;
        for (i, byte) in burst.iter().enumerate() {
            let invert = if i == 0 {
                DcEncoder::should_invert(byte)
            } else {
                AcEncoder::should_invert(byte, prev)
            };
            if invert {
                mask = mask.with_inverted(i);
            }
            prev = LaneWord::encode_byte(byte, invert);
        }
        mask
    }

    /// The shared slab loop under the word-wide rules: DC at beat 0,
    /// AC after it.
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        encode_lanes_by_burst(slab, states, |burst, _| acdc_bits(burst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::AcEncoder;

    #[test]
    fn first_byte_follows_the_dc_rule() {
        // A byte with five zeros must be inverted even if that costs
        // transitions from an all-zero previous state.
        let burst = Burst::from_slice(&[0x07, 0xFF]).unwrap();
        let state = BusState::new(LaneWord::ALL_ZEROS);
        let encoded = AcDcEncoder::new().encode(&burst, &state);
        assert!(encoded.mask().is_inverted(0));
    }

    #[test]
    fn remaining_bytes_follow_the_ac_rule() {
        // Second byte 0x00 after a transmitted 0xFF: AC inverts it (only the
        // DBI lane toggles), although DC would also invert it; use 0x0F as a
        // discriminating case instead: DC keeps it (4 zeros), AC after 0xF0
        // inverts it (payload 0xF0 matches the wire, only DBI toggles).
        let burst = Burst::from_slice(&[0xF0, 0x0F]).unwrap();
        let state = BusState::idle();
        let encoded = AcDcEncoder::new().encode(&burst, &state);
        assert!(
            !encoded.mask().is_inverted(0),
            "0xF0 has four zeros, DC keeps it"
        );
        assert!(
            encoded.mask().is_inverted(1),
            "AC rule inverts 0x0F after 0xF0"
        );
    }

    #[test]
    fn equals_dbi_ac_under_the_idle_boundary_condition() {
        // Section II: "Due to this boundary condition DBI AC performs
        // identical to DBI ACDC."
        let state = BusState::idle();
        let bursts = [
            Burst::paper_example(),
            Burst::from_array([0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77]),
            Burst::from_array([0xFE, 0x01, 0x80, 0x7F, 0xC3, 0x3C, 0x0F, 0xF0]),
        ];
        for burst in bursts {
            let acdc = AcDcEncoder::new().encode(&burst, &state);
            let ac = AcEncoder::new().encode(&burst, &state);
            assert_eq!(
                acdc.mask(),
                ac.mask(),
                "ACDC must match AC from the idle state"
            );
        }
    }

    #[test]
    fn differs_from_ac_when_the_bus_is_not_idle() {
        // From an all-zero bus, AC keeps 0x07 (transmitting it as-is toggles
        // three lanes, inverted toggles DBI + five data lanes), while the DC
        // rule used by ACDC for the first byte inverts it.
        let burst = Burst::from_slice(&[0x07]).unwrap();
        let state = BusState::new(LaneWord::ALL_ZEROS);
        let ac = AcEncoder::new().encode(&burst, &state);
        let acdc = AcDcEncoder::new().encode(&burst, &state);
        assert_ne!(ac.mask(), acdc.mask());
    }

    #[test]
    fn name() {
        assert_eq!(AcDcEncoder::new().name(), "DBI ACDC");
    }
}
