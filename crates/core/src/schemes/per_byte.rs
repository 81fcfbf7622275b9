//! The shared slab kernel of the per-byte schemes: RAW, DBI DC, DBI AC,
//! DBI ACDC and Greedy.
//!
//! Each of those schemes decides every byte on its own, from the byte, its
//! beat index and the lane state the previous beat left — no look-ahead.
//! [`encode_lanes_per_byte`] runs such a rule over a whole [`BurstSlab`]
//! in one pass per chain, carrying the chain as the data byte the wires
//! last carried plus the DBI level (the way
//! [`OptEncoder`](crate::schemes::OptEncoder)'s slab kernels do), so no
//! [`Burst`](crate::Burst) or [`LaneWord`](crate::LaneWord) is built per
//! byte. Each burst is priced in the same pass, right after its
//! decisions, by the shared word-wide pricing pass
//! (`encoding::price_burst_body`), compiled with hardware `popcnt` when
//! the CPU has it.
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
use crate::encoding::{price_burst_body, InversionMask};
use crate::simd::{encode_chains, ChainKernel};
use crate::slab::BurstSlab;

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
    encode_chains(&PerByte(invert), burst_len, bytes, masks, costs, states);
}

/// A per-byte rule as a [`ChainKernel`].
struct PerByte<F>(F);

impl<F> ChainKernel for PerByte<F>
where
    F: Fn(usize, u8, u8, bool) -> bool + Copy,
{
    #[inline(always)]
    fn encode_chain(
        &self,
        burst_len: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        entry: &mut (u8, bool),
    ) {
        // A literal burst length on the standard geometries lets the
        // always-inlined copies unroll their beat loops.
        match burst_len {
            8 => encode_runs(8, bytes, masks, costs, entry, self.0),
            16 => encode_runs(16, bytes, masks, costs, entry, self.0),
            _ => encode_runs(burst_len, bytes, masks, costs, entry, self.0),
        }
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
/// [`price_burst_body`] right after its decisions, from its bytes, its
/// mask and the state it entered from.
#[inline(always)]
fn encode_runs<F>(
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
        *cost = price_burst_body(burst, bits, entry);
    }
}
