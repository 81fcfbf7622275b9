//! The shared slab kernel of the per-byte schemes: RAW, DBI DC, DBI AC,
//! DBI ACDC and Greedy.
//!
//! Each of those schemes decides every byte on its own, from the byte, its
//! beat index and the lane state the previous beat left — no look-ahead.
//! [`encode_lanes_per_byte`] runs such a rule over a whole [`BurstSlab`]
//! in one pass per chain, carrying the chain as the data byte the wires
//! last carried plus the DBI level (the way
//! [`OptEncoder`](crate::schemes::OptEncoder)'s slab kernels do), so no
//! [`Burst`](crate::Burst) or [`LaneWord`] is built per byte. Each burst
//! is priced in the same pass, right after its decisions, eight beats per
//! 64-bit word ([`price_burst`]) instead of a per-byte walk.
//!
//! The rules use the popcount identities of [`crate::lut`]: a byte of
//! popcount *p* drives `8 − p` zeros plain and `p + 1` inverted, and a
//! beat whose data differs from the previous one in *d* bits toggles `d`
//! lanes when the DBI level holds and `9 − d` when it flips. The schemes'
//! [`DbiEncoder::encode_mask`](crate::DbiEncoder::encode_mask)
//! implementations, written over lane words, stay the independent
//! per-burst reference the kernel is differential-tested against
//! (`tests/slab_differential.rs`).

use crate::burst::BusState;
use crate::cost::CostBreakdown;
use crate::encoding::InversionMask;
use crate::simd::SPREAD_FLIP;
use crate::slab::BurstSlab;
use crate::word::LaneWord;

/// `ones(b)`, the popcount of `b`, from a 256-entry table: one load where
/// `u8::count_ones` compiles to a dozen bit-twiddling instructions on the
/// x86-64 baseline, which has no popcount instruction.
#[inline(always)]
pub(crate) fn ones(byte: u8) -> u32 {
    static POPCOUNT: [u8; 256] = {
        let mut table = [0u8; 256];
        let mut b = 0;
        while b < 256 {
            table[b] = (b as u8).count_ones() as u8;
            b += 1;
        }
        table
    };
    u32::from(POPCOUNT[usize::from(byte)])
}

/// The DBI DC rule over the raw byte: invert when the byte has five or
/// more zeros, i.e. at most three ones.
#[inline(always)]
pub(crate) fn dc_rule(byte: u8) -> bool {
    ones(byte) <= 3
}

/// The DBI AC rule over the carried chain: with the DBI level holding,
/// the plain word toggles `d` lanes and the inverted one `9 − d`, so
/// inversion wins when `d ≥ 5`; after an inverted beat the two swap.
#[inline(always)]
pub(crate) fn ac_rule(byte: u8, last: u8, low: bool) -> bool {
    (ones(last ^ byte) >= 5) != low
}

/// Encodes `slab` as `states.len()` chain-major chains under the per-byte
/// rule `invert(beat, byte, last, low)`: `beat` is the byte's index in its
/// burst, `last` the data byte driven on the previous beat and `low`
/// whether that beat went out inverted. Fills masks and cost rows and
/// leaves each state at its chain's last driven word —
/// the [`DbiEncoder::encode_lanes_into`](crate::DbiEncoder::encode_lanes_into)
/// contract.
///
/// # Panics
///
/// Panics when `states` is empty or the slab's burst count is not a whole
/// number of chains.
#[inline(always)]
pub(crate) fn encode_lanes_per_byte<F>(slab: &mut BurstSlab, states: &mut [BusState], invert: F)
where
    F: Fn(usize, u8, u8, bool) -> bool + Copy,
{
    let chains = states.len();
    assert!(
        chains > 0,
        "lane-group encode needs at least one chain state"
    );
    let burst_len = slab.burst_len();
    let (bytes, masks, costs) = slab.encode_parts_mut();
    let count = masks.len();
    assert!(
        count.is_multiple_of(chains),
        "slab burst count ({count}) must be a whole number of {chains}-chain columns"
    );
    if bytes.is_empty() {
        return;
    }
    let per_chain = count / chains;
    for (c, state) in states.iter_mut().enumerate() {
        let rows = c * per_chain..(c + 1) * per_chain;
        let chain = &bytes[rows.start * burst_len..rows.end * burst_len];
        let masks = &mut masks[rows.clone()];
        let costs = &mut costs[rows];
        let entry = state.last();
        let mut carried = (entry.decode(), entry.dbi().is_inverted());
        // A literal burst length on the standard geometries lets the
        // always-inlined copies unroll their beat loops.
        match burst_len {
            8 => encode_chain(8, chain, masks, costs, &mut carried, invert),
            16 => encode_chain(16, chain, masks, costs, &mut carried, invert),
            _ => encode_chain(burst_len, chain, masks, costs, &mut carried, invert),
        }
        *state = BusState::new(LaneWord::encode_byte(carried.0, carried.1));
    }
}

/// One burst's decision bits under `invert`, advancing the carried
/// (last data byte, DBI low) state beat by beat.
#[inline(always)]
fn decide_burst<F>(burst: &[u8], carried: &mut (u8, bool), invert: F) -> u32
where
    F: Fn(usize, u8, u8, bool) -> bool,
{
    let (mut last, mut low) = *carried;
    let mut bits = 0u32;
    for (beat, &byte) in burst.iter().enumerate() {
        let inv = invert(beat, byte, last, low);
        bits |= u32::from(inv) << beat;
        last = byte;
        low = inv;
    }
    *carried = (last, low);
    bits
}

/// One chain, decisions and cost rows: each burst is priced by
/// [`price_burst`] right after its decisions, from its bytes, its mask
/// and the state it entered from.
#[inline(always)]
fn encode_chain<F>(
    burst_len: usize,
    chain: &[u8],
    masks: &mut [InversionMask],
    costs: &mut [CostBreakdown],
    carried: &mut (u8, bool),
    invert: F,
) where
    F: Fn(usize, u8, u8, bool) -> bool + Copy,
{
    for ((burst, mask), cost) in chain
        .chunks_exact(burst_len)
        .zip(masks.iter_mut())
        .zip(costs.iter_mut())
    {
        let entry = *carried;
        let bits = decide_burst(burst, carried, invert);
        *mask = InversionMask::from_bits(bits);
        *cost = price_burst(burst, bits, entry);
    }
}

/// The activity of one burst driven under `bits`, entered from the data
/// byte `entry.0` at DBI level low = `entry.1`, counted eight beats per
/// word: the DQ lanes drive `8·n − ones(driven)` zeros and toggle
/// `ones(driven ^ previous driven)`; the DBI lane adds one zero per
/// inverted beat and one toggle per level change.
#[inline(always)]
fn price_burst(burst: &[u8], bits: u32, entry: (u8, bool)) -> CostBreakdown {
    let n = burst.len();
    let live_beats = u32::MAX >> (32 - n);
    let low = u32::from(entry.1);
    let mut zeros = 8 * n as u32 + bits.count_ones();
    let mut transitions = ((bits ^ ((bits << 1) | low)) & live_beats).count_ones();
    // The DQ levels of the beat before the current word, starting from
    // the entry state.
    let mut prev = u64::from(entry.0 ^ u8::from(entry.1).wrapping_neg());
    for (k, word) in burst.chunks(8).enumerate() {
        let mut lanes = [0u8; 8];
        lanes[..word.len()].copy_from_slice(word);
        let live = u64::MAX >> (64 - 8 * word.len());
        // Beats past the burst hold zero data and zero decisions, so
        // they drive nothing; only their toggles need masking.
        let driven = u64::from_le_bytes(lanes) ^ SPREAD_FLIP[((bits >> (8 * k)) & 0xFF) as usize];
        zeros -= driven.count_ones();
        transitions += ((driven ^ ((driven << 8) | prev)) & live).count_ones();
        prev = (driven >> (8 * (word.len() - 1))) & 0xFF;
    }
    CostBreakdown::new(u64::from(zeros), u64::from(transitions))
}
