//! The decode plane: receiver-side recovery of DBI-encoded bursts.
//!
//! Everything else in this crate is the **transmitter**: given payload
//! bytes, choose inversion decisions. This module is the matching
//! **receiver**, the piece of the coding chain the paper's implementation
//! work (Valentini & Chiani) stresses as the actual deliverable — an
//! encoder is only correct relative to the decoder that inverts it
//! exactly.
//!
//! What arrives at a DBI receiver is, per beat, the nine lane levels: the
//! eight DQ lanes carrying the possibly-complemented payload (the *wire
//! byte*) and the DBI lane carrying the inversion decision. Decoding is
//! therefore scheme-independent — the receiver never needs to know *why*
//! a byte was inverted, only *that* it was — which is what lets one
//! hardware receiver serve every encoding scheme. The decode surface is
//! accordingly plain functions of the wire image, not a per-scheme trait:
//!
//! | encode | decode | granularity |
//! |--------|--------|-------------|
//! | [`DbiEncoder::encode_mask`](crate::DbiEncoder::encode_mask) | [`decode_mask`] | one burst, caller-owned buffer |
//! | [`DbiEncoder::encode`](crate::DbiEncoder::encode) | [`EncodedBurst::decode`](crate::EncodedBurst::decode) | one materialised burst |
//! | [`DbiEncoder::encode_lanes_into`](crate::DbiEncoder::encode_lanes_into) | [`BurstSlab::decode_in_place_chains`](crate::BurstSlab::decode_in_place_chains) | a [`BurstSlab`](crate::BurstSlab) of independent chains, carried state |
//!
//! A single chain decodes with
//! [`BurstSlab::decode_in_place`](crate::BurstSlab::decode_in_place). The
//! buffer-reusing forms are allocation-free once their buffers are warm.
//! The slab forms, one SWAR kernel on every dispatch tier, also carry the
//! **receiver's** lane state across bursts and re-price the wire activity
//! of the recovered payload. That re-pricing runs the same word-wide pass
//! as the scalar OPT sweep, the AVX2 four-chain block and the per-byte
//! kernel, so against those encoders it is not a cross-check; it is
//! independent only of the AVX2 eight-chain block's in-register counts.
//! What a decode checks against every encoder is the recovered payload
//! and the carried end state: the service's verify mode and the
//! conformance suite build on those.
//!
//! ```
//! # fn main() -> Result<(), dbi_core::DbiError> {
//! use dbi_core::decode::decode_mask;
//! use dbi_core::{Burst, BusState, DbiEncoder, Scheme};
//!
//! let payload = Burst::paper_example();
//! let state = BusState::idle();
//! let mask = Scheme::OptFixed.encode_mask(&payload, &state);
//!
//! // The transmitter drives the wire bytes (masked complement)...
//! let mut wire = payload.bytes().to_vec();
//! mask.apply_in_place(&mut wire);
//!
//! // ...and the receiver recovers the payload from wire bytes + DBI lane.
//! let mut recovered = Vec::new();
//! decode_mask(&wire, mask, &mut recovered)?;
//! assert_eq!(recovered, payload.bytes());
//! # Ok(())
//! # }
//! ```

use crate::encoding::InversionMask;
use crate::error::{DbiError, Result};

/// Recovers one burst's payload bytes from its wire bytes (the DQ lane
/// levels as received) and the mask signalled on the DBI lane, into a
/// caller-owned buffer that is cleared and refilled — allocation-free once
/// `out` has the capacity. The receiver-side mirror of
/// [`DbiEncoder::encode_mask`](crate::DbiEncoder::encode_mask).
///
/// # Errors
///
/// Returns [`DbiError::EmptyBurst`] for an empty wire slice,
/// [`DbiError::BurstTooLong`] beyond the 32-byte mask limit, or
/// [`DbiError::MaskTooWide`] when the mask references beats the burst
/// does not have. `out` is cleared but otherwise untouched on error.
pub fn decode_mask(wire: &[u8], mask: InversionMask, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    if wire.is_empty() {
        return Err(DbiError::EmptyBurst);
    }
    if wire.len() > 32 {
        return Err(DbiError::BurstTooLong {
            len: wire.len(),
            max: 32,
        });
    }
    mask.validate_for_len(wire.len())?;
    out.extend_from_slice(wire);
    mask.apply_in_place(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::{Burst, BusState};
    use crate::cost::CostWeights;
    use crate::schemes::{DbiEncoder, ExhaustiveEncoder, Scheme};
    use crate::slab::BurstSlab;

    fn all_schemes() -> Vec<Scheme> {
        let mut all: Vec<Scheme> = Scheme::paper_set().to_vec();
        all.extend_from_slice(Scheme::conventional_set());
        all.push(Scheme::Greedy(CostWeights::new(2, 3).unwrap()));
        all.push(Scheme::Opt(CostWeights::new(3, 1).unwrap()));
        all
    }

    #[test]
    fn decode_mask_undoes_every_scheme() {
        let payload = Burst::paper_example();
        let state = BusState::idle();
        let mut recovered = Vec::new();
        for scheme in all_schemes() {
            let mask = scheme.encode_mask(&payload, &state);
            let mut wire = payload.bytes().to_vec();
            mask.apply_in_place(&mut wire);
            decode_mask(&wire, mask, &mut recovered).unwrap();
            assert_eq!(recovered, payload.bytes(), "{scheme}");
        }
    }

    #[test]
    fn decode_works_through_plans_boxes_and_the_oracle() {
        let payload = Burst::paper_example();
        let state = BusState::idle();
        let plan = Scheme::Opt(CostWeights::new(2, 5).unwrap()).plan();
        let boxed = Scheme::Ac.boxed();
        let oracle = ExhaustiveEncoder::new(CostWeights::FIXED);
        let mut out = Vec::new();
        for (name, mask) in [
            ("plan", plan.encode_mask(&payload, &state)),
            ("boxed", boxed.encode_mask(&payload, &state)),
            ("oracle", oracle.encode_mask(&payload, &state)),
        ] {
            let mut wire = payload.bytes().to_vec();
            mask.apply_in_place(&mut wire);
            decode_mask(&wire, mask, &mut out).unwrap();
            assert_eq!(out, payload.bytes(), "{name}");
        }
    }

    #[test]
    fn decode_into_mirrors_encoded_burst_decode() {
        let payload = Burst::from_slice(&[0x00, 0xFF, 0xA5, 0x5A]).unwrap();
        let encoded = Scheme::Dc.encode(&payload, &BusState::idle());
        assert_eq!(encoded.decode(), payload);
    }

    #[test]
    fn decode_mask_rejects_malformed_input_and_clears_out() {
        let mut out = vec![1u8, 2, 3];
        assert_eq!(
            decode_mask(&[], InversionMask::NONE, &mut out),
            Err(DbiError::EmptyBurst)
        );
        assert!(out.is_empty());
        out.push(7);
        assert!(matches!(
            decode_mask(&[0u8; 33], InversionMask::NONE, &mut out),
            Err(DbiError::BurstTooLong { len: 33, max: 32 })
        ));
        assert!(out.is_empty());
        assert!(matches!(
            decode_mask(&[0u8; 2], InversionMask::from_bits(0b100), &mut out),
            Err(DbiError::MaskTooWide { .. })
        ));
    }

    #[test]
    fn slab_decode_round_trips_with_carried_state_and_reprices_the_wire() {
        let burst_len = 8;
        let payloads: Vec<u8> = (0..8 * burst_len)
            .map(|i| (i as u8).wrapping_mul(73).wrapping_add(11))
            .collect();
        for scheme in all_schemes() {
            // Transmit: encode the payload slab, then drive the wire image.
            let mut tx_slab = BurstSlab::new(burst_len);
            tx_slab.extend_from_bytes(&payloads).unwrap();
            let mut tx_state = BusState::idle();
            scheme.encode_lanes_into(&mut tx_slab, core::slice::from_mut(&mut tx_state));

            let mut wire = payloads.clone();
            for (index, mask) in tx_slab.masks().iter().enumerate() {
                mask.apply_in_place(&mut wire[index * burst_len..(index + 1) * burst_len]);
            }

            // Receive: prime a slab with wire bytes + masks and decode.
            let mut rx_slab = BurstSlab::new(burst_len);
            rx_slab.extend_from_bytes(&wire).unwrap();
            rx_slab.load_masks(tx_slab.masks()).unwrap();
            let mut rx_state = BusState::idle();
            rx_slab.decode_in_place(&mut rx_state).unwrap();

            assert_eq!(rx_slab.bytes(), &payloads[..], "{scheme}: payload");
            assert_eq!(rx_state, tx_state, "{scheme}: carried receiver state");
            // The receiver's wire pricing agrees with the transmitter's.
            assert_eq!(rx_slab.costs(), tx_slab.costs(), "{scheme}: activity");
            assert_eq!(rx_slab.total(), tx_slab.total(), "{scheme}: totals");
        }
    }

    #[test]
    fn slab_decode_requires_one_mask_per_burst() {
        let mut slab = BurstSlab::new(4);
        slab.extend_from_bytes(&[0u8; 12]).unwrap();
        assert_eq!(
            slab.load_masks(&[InversionMask::NONE; 2]),
            Err(DbiError::MaskCountMismatch {
                got: 2,
                expected: 3
            })
        );
        assert!(matches!(
            slab.load_masks(&[InversionMask::from_bits(1 << 5); 3]),
            Err(DbiError::MaskTooWide { .. })
        ));
        let before = slab.bytes().to_vec();
        let mut state = BusState::idle();
        assert!(matches!(
            slab.decode_in_place(&mut state),
            Err(DbiError::MaskCountMismatch { .. })
        ));
        assert_eq!(slab.bytes(), &before[..], "slab unchanged on error");
        assert_eq!(state, BusState::idle());
    }
}
