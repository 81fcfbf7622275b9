//! The shared slab loop of the non-optimal schemes: RAW, DBI DC, DBI
//! AC, DBI ACDC and Greedy.
//!
//! Each of those schemes decides every byte without look-ahead, from the
//! byte, its beat index and the lane state the previous beat left.
//! [`encode_lanes_by_burst`] runs such a decision over a whole
//! [`BurstSlab`] in one pass per chain, carrying the chain as the data
//! byte the wires last carried plus the DBI level (the way
//! [`OptEncoder`](crate::schemes::OptEncoder)'s slab kernels do), so no
//! [`Burst`](crate::Burst) or [`LaneWord`](crate::LaneWord) is built per
//! byte. Each burst is priced right after its decisions by the shared
//! word-wide pricing pass (`encoding::price_burst_body`), compiled with
//! hardware `popcnt` when the CPU has it.
//!
//! DC, AC and ACDC decide a whole burst **word-wide**, eight beats per
//! `u64` and with no `unsafe` ([`dc_bits`], [`ac_bits`], [`acdc_bits`]):
//! per-byte popcounts come from the SWAR ladder, a threshold becomes
//! bit 7 of each byte, and one multiply gathers the eight flags into a
//! byte of the mask. AC's carried dependency `inv_i = t_i ⊕ inv_{i−1}`
//! is a prefix XOR of the threshold bits. Greedy's weighted rule and
//! RAW's constant still walk beat by beat ([`decide_per_byte`]).
//!
//! The rules use the popcount identities of [`crate::lut`]: a byte of
//! popcount *p* drives `8 − p` zeros plain and `p + 1` inverted, and a
//! beat whose data differs from the previous one in *d* bits toggles `d`
//! lanes when the DBI level holds and `9 − d` when it flips. The schemes'
//! [`DbiEncoder::encode_mask`](crate::DbiEncoder::encode_mask)
//! implementations, written over lane words, stay the independent
//! per-burst reference the slab loop is differential-tested against
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
/// more zeros, i.e. at most three ones. The per-byte oracle of
/// [`dc_bits`].
#[cfg(test)]
fn dc_rule(byte: u8) -> bool {
    ones(byte) <= 3
}

/// The DBI AC rule over the carried chain: with the DBI level holding,
/// the plain word toggles `d` lanes and the inverted one `9 − d`, so
/// inversion wins when `d ≥ 5`; after an inverted beat the two swap. The
/// per-byte oracle of [`ac_bits`].
#[cfg(test)]
fn ac_rule(byte: u8, last: u8, low: bool) -> bool {
    (ones(last ^ byte) >= 5) != low
}

const LSB: u64 = 0x0101_0101_0101_0101;
const MSB: u64 = 0x8080_8080_8080_8080;

/// Per-byte popcounts of a word: the SWAR ladder without its final
/// multiply, so each byte holds its own count (0..=8).
#[inline(always)]
fn byte_ones(x: u64) -> u64 {
    let x = x - ((x >> 1) & 0x5555_5555_5555_5555);
    let x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F
}

/// Bit 7 of each byte set where that byte's count (at most 8) is at least
/// `k`: adding `0x80 − k` carries into bit 7 exactly then, and never out
/// of the byte.
#[inline(always)]
fn at_least(counts: u64, k: u8) -> u64 {
    (counts + LSB * u64::from(0x80 - k)) & MSB
}

/// Gathers the bit-7 flags of a word's eight bytes into one byte, byte
/// `i`'s flag at bit `i`: each flag moves to bit `56 + i` of the product
/// and no two partial products overlap.
#[inline(always)]
fn gather_flags(flags: u64) -> u32 {
    ((flags >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

/// Prefix XOR over the mask: bit `i` becomes the XOR of bits `0..=i`.
#[inline(always)]
fn prefix_xor(mut t: u32) -> u32 {
    t ^= t << 1;
    t ^= t << 2;
    t ^= t << 4;
    t ^= t << 8;
    t ^= t << 16;
    t
}

/// The mask bits of a burst's live beats.
#[inline(always)]
fn live_bits(burst_len: usize) -> u32 {
    u32::MAX >> (32 - burst_len)
}

/// A burst's per-beat flags, eight beats per word:
/// `flag(data, previous)` sees a word of data bytes and the same word
/// shifted one beat later, `previous` starting from `last` (the data
/// byte of the beat before the burst). Beats past a short tail word get
/// flags the caller masks off.
#[inline(always)]
fn burst_flags(burst: &[u8], last: u8, flag: impl Fn(u64, u64) -> u64) -> u32 {
    let mut bits = 0u32;
    let mut prev = u64::from(last);
    let mut words = burst.chunks_exact(8);
    let mut shift = 0;
    for word in &mut words {
        let data = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        bits |= gather_flags(flag(data, (data << 8) | prev)) << shift;
        prev = data >> 56;
        shift += 8;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut lanes = [0u8; 8];
        lanes[..tail.len()].copy_from_slice(tail);
        let data = u64::from_le_bytes(lanes);
        bits |= gather_flags(flag(data, (data << 8) | prev)) << shift;
    }
    bits
}

/// DBI DC's decisions for a burst of 1..=32 bytes: invert every byte
/// with fewer than four ones.
#[inline(always)]
pub(crate) fn dc_bits(burst: &[u8]) -> u32 {
    !burst_flags(burst, 0, |data, _| at_least(byte_ones(data), 4)) & live_bits(burst.len())
}

/// DBI AC's decisions for a burst of 1..=32 bytes entered from
/// `entry = (last data byte, DBI low)`: with `t_i` = "beat `i` differs
/// from beat `i − 1` in five or more bits", `inv_i = t_i ⊕ inv_{i−1}`, so
/// the mask is the prefix XOR of `t` flipped by the entry level.
#[inline(always)]
pub(crate) fn ac_bits(burst: &[u8], entry: (u8, bool)) -> u32 {
    let toggles = burst_flags(burst, entry.0, |data, prev| {
        at_least(byte_ones(data ^ prev), 5)
    });
    (prefix_xor(toggles) ^ u32::from(entry.1).wrapping_neg()) & live_bits(burst.len())
}

/// DBI ACDC's decisions for a burst of 1..=32 bytes: [`ac_bits`] with
/// beat 0's bit taken from the DC rule instead of the carried state.
#[inline(always)]
pub(crate) fn acdc_bits(burst: &[u8]) -> u32 {
    let toggles = burst_flags(burst, 0, |data, prev| at_least(byte_ones(data ^ prev), 5));
    let first = u32::from(ones(burst[0]) <= 3);
    prefix_xor((toggles & !1) | first) & live_bits(burst.len())
}

/// A burst's decisions under the per-byte rule
/// `invert(beat, byte, last, low)`, beat by beat from the entry: `last`
/// is the data byte driven on the previous beat and `low` whether that
/// beat went out inverted.
#[inline(always)]
pub(crate) fn decide_per_byte<F>(burst: &[u8], entry: (u8, bool), invert: F) -> u32
where
    F: Fn(usize, u8, u8, bool) -> bool,
{
    let (mut last, mut low) = entry;
    let mut bits = 0u32;
    for (beat, &byte) in burst.iter().enumerate() {
        let inv = invert(beat, byte, last, low);
        bits |= u32::from(inv) << beat;
        last = byte;
        low = inv;
    }
    bits
}

/// Encodes `slab` as `states.len()` chain-major chains under the burst
/// decision `decide(burst, entry)`, which returns the burst's mask bits
/// from the entry (the data byte driven on the beat before the burst and
/// whether it went out inverted). Fills masks and cost rows and leaves
/// each state at its chain's last driven word — the
/// [`DbiEncoder::encode_lanes_into`](crate::DbiEncoder::encode_lanes_into)
/// contract.
///
/// # Panics
///
/// Panics when `states` is empty or the slab's burst count is not a whole
/// number of chains.
#[inline(always)]
pub(crate) fn encode_lanes_by_burst<F>(slab: &mut BurstSlab, states: &mut [BusState], decide: F)
where
    F: Fn(&[u8], (u8, bool)) -> u32 + Copy,
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
    encode_chains(&ByBurst(decide), burst_len, bytes, masks, costs, states);
}

/// A burst decision as a [`ChainKernel`].
struct ByBurst<F>(F);

impl<F> ChainKernel for ByBurst<F>
where
    F: Fn(&[u8], (u8, bool)) -> u32 + Copy,
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
        // always-inlined copies unroll their word and beat loops.
        match burst_len {
            8 => encode_runs(8, bytes, masks, costs, entry, self.0),
            16 => encode_runs(16, bytes, masks, costs, entry, self.0),
            _ => encode_runs(burst_len, bytes, masks, costs, entry, self.0),
        }
    }
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
    decide: F,
) where
    F: Fn(&[u8], (u8, bool)) -> u32,
{
    for ((burst, mask), cost) in chain
        .chunks_exact(burst_len)
        .zip(masks.iter_mut())
        .zip(costs.iter_mut())
    {
        let entry = *carried;
        let bits = decide(burst, entry);
        *mask = InversionMask::from_bits(bits);
        *cost = price_burst_body(burst, bits, entry);
        *carried = (burst[burst_len - 1], (bits >> (burst_len - 1)) & 1 == 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The beat-by-beat oracles of the word-wide decisions.
    fn dc_oracle(burst: &[u8]) -> u32 {
        decide_per_byte(burst, (0, false), |_, byte, _, _| dc_rule(byte))
    }

    fn ac_oracle(burst: &[u8], entry: (u8, bool)) -> u32 {
        decide_per_byte(burst, entry, |_, byte, last, low| ac_rule(byte, last, low))
    }

    fn acdc_oracle(burst: &[u8], entry: (u8, bool)) -> u32 {
        decide_per_byte(burst, entry, |beat, byte, last, low| {
            if beat == 0 {
                dc_rule(byte)
            } else {
                ac_rule(byte, last, low)
            }
        })
    }

    /// Every (previous byte, byte) pair from both entry levels, as a
    /// one-beat burst entered from the pair's first byte, and inside
    /// 32-beat bursts that alternate the previous byte with every byte
    /// value, so each pair lands in both orders at every beat of a word.
    #[test]
    fn word_wide_decisions_match_the_per_byte_rules_on_every_byte_pair() {
        for last in 0..=255u8 {
            for low in [false, true] {
                let entry = (last, low);
                for byte in 0..=255u8 {
                    let one = [byte];
                    assert_eq!(dc_bits(&one), u32::from(dc_rule(byte)), "dc {byte:#04x}");
                    assert_eq!(
                        ac_bits(&one, entry),
                        u32::from(ac_rule(byte, last, low)),
                        "ac {byte:#04x} after {last:#04x}, low {low}"
                    );
                    assert_eq!(
                        acdc_bits(&one),
                        u32::from(dc_rule(byte)),
                        "acdc {byte:#04x}"
                    );
                }
                for shift in [0usize, 1] {
                    for bytes in (0..=255u8).collect::<Vec<_>>().chunks(16) {
                        let mut burst = Vec::with_capacity(32);
                        for &byte in bytes {
                            if shift == 0 {
                                burst.extend([last, byte]);
                            } else {
                                burst.extend([byte, last]);
                            }
                        }
                        let label = format!("after {last:#04x}, low {low}, {burst:02x?}");
                        assert_eq!(dc_bits(&burst), dc_oracle(&burst), "dc {label}");
                        assert_eq!(
                            ac_bits(&burst, entry),
                            ac_oracle(&burst, entry),
                            "ac {label}"
                        );
                        assert_eq!(
                            acdc_bits(&burst),
                            acdc_oracle(&burst, entry),
                            "acdc {label}"
                        );
                    }
                }
            }
        }
    }

    /// Every burst length 1..=32 on pseudo-random bytes and entries: the
    /// tail words and the bits past the burst.
    #[test]
    fn word_wide_decisions_match_the_per_byte_rules_at_every_length() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for len in 1..=32usize {
            for _ in 0..200 {
                let burst: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                let entry = (next() as u8, next() & 1 == 1);
                assert_eq!(dc_bits(&burst), dc_oracle(&burst), "dc len {len}");
                assert_eq!(
                    ac_bits(&burst, entry),
                    ac_oracle(&burst, entry),
                    "ac len {len}"
                );
                assert_eq!(
                    acdc_bits(&burst),
                    acdc_oracle(&burst, entry),
                    "acdc len {len}"
                );
            }
        }
    }

    #[test]
    fn prefix_xor_and_flag_gather_match_their_bit_loops_at_every_width() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for width in 1..=32usize {
            let live = live_bits(width);
            assert_eq!(live.count_ones() as usize, width);
            for _ in 0..200 {
                let t = next() as u32 & live;
                let mut expected = 0u32;
                let mut acc = 0u32;
                for i in 0..width {
                    acc ^= (t >> i) & 1;
                    expected |= acc << i;
                }
                assert_eq!(prefix_xor(t) & live, expected, "prefix xor, width {width}");

                // Flags for the beats of a `width`-byte burst, gathered
                // word by word into the mask.
                let flags: Vec<bool> = (0..width).map(|_| next() & 1 == 1).collect();
                let mut gathered = 0u32;
                for (w, word) in flags.chunks(8).enumerate() {
                    let bytes: u64 = word
                        .iter()
                        .enumerate()
                        .map(|(i, &f)| (u64::from(f) << 7 | (next() & 0x7F)) << (8 * i))
                        .sum();
                    gathered |= gather_flags(bytes & MSB) << (8 * w);
                }
                let expected = flags
                    .iter()
                    .enumerate()
                    .fold(0u32, |acc, (i, &f)| acc | u32::from(f) << i);
                assert_eq!(gathered, expected, "gather, width {width}");
            }
        }
    }

    #[test]
    fn byte_counts_and_thresholds_are_per_byte() {
        for byte in 0..=255u8 {
            let word = u64::from_le_bytes([byte, !byte, byte, 0, 0xFF, byte, 1, byte]);
            let counts = byte_ones(word).to_le_bytes();
            for (lane, &b) in word.to_le_bytes().iter().enumerate() {
                assert_eq!(u32::from(counts[lane]), ones(b));
                for k in 0..=8u8 {
                    let flag = at_least(byte_ones(word), k).to_le_bytes()[lane];
                    assert_eq!(flag == 0x80, ones(b) >= u32::from(k), "{b:#04x} >= {k}");
                }
            }
        }
    }
}
