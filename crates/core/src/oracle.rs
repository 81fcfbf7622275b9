//! Reference walks the production kernels are differential-tested
//! against: one lane word per beat, no word-wide tricks, no shared code
//! with the kernels they check.
//!
//! Nothing on a production path calls into this module; it is public
//! (and hidden from the docs) only so the integration suites and the
//! conformance harness can name it. Production decode is
//! [`BurstSlab::decode_in_place_chains`](crate::BurstSlab::decode_in_place_chains)
//! on every dispatch tier, and production pricing is the word-wide pass
//! (or, in the AVX2 eight-chain block, counts kept in registers).

use crate::burst::BusState;
use crate::cost::CostBreakdown;
use crate::encoding::InversionMask;
use crate::word::LaneWord;

/// Total activity of driving `symbols` in order from `state`: each lane
/// word's zeros, plus its toggles against the word before it.
#[must_use]
pub fn price_symbols(symbols: &[LaneWord], state: &BusState) -> CostBreakdown {
    let mut prev = state.last();
    let mut total = CostBreakdown::ZERO;
    for &word in symbols {
        total += CostBreakdown::new(
            u64::from(word.zeros()),
            u64::from(word.transitions_from(prev)),
        );
        prev = word;
    }
    total
}

/// The beat-by-beat receiver over one chain's run of bursts: each wire
/// byte and its DBI-lane bit reassemble into a [`LaneWord`]
/// ([`LaneWord::from_wire`]), which is priced against the beat before it
/// and decoded in place. `bytes` holds the chain's wire image burst-major,
/// `masks` and `costs` one row per burst; `state` carries the receiver's
/// lane state in and out, exactly as the slab decode does.
///
/// # Panics
///
/// Panics when `masks` or `costs` hold fewer rows than `bytes` has bursts.
pub fn decode_chain(
    burst_len: usize,
    bytes: &mut [u8],
    masks: &[InversionMask],
    costs: &mut [CostBreakdown],
    state: &mut BusState,
) {
    let mut prev = state.last();
    for (index, chunk) in bytes.chunks_exact_mut(burst_len).enumerate() {
        let mask = masks[index];
        let mut zeros = 0u64;
        let mut transitions = 0u64;
        for (beat, byte) in chunk.iter_mut().enumerate() {
            let word = LaneWord::from_wire(*byte, mask.is_inverted(beat));
            zeros += u64::from(word.zeros());
            transitions += u64::from(word.transitions_from(prev));
            prev = word;
            *byte = word.decode();
        }
        costs[index] = CostBreakdown::new(zeros, transitions);
    }
    *state = BusState::new(prev);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_symbols_accumulates_sequentially() {
        let state = BusState::idle();
        let symbols = [
            LaneWord::encode_byte(0x00, false), // 8 zeros + 8 transitions from all-ones
            LaneWord::encode_byte(0x00, false), // 8 zeros, 0 transitions
        ];
        assert_eq!(price_symbols(&symbols, &state), CostBreakdown::new(16, 8));
    }
}
