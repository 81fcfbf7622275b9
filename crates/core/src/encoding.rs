//! Encoded bursts and inversion masks.
//!
//! The result of any DBI scheme is, per byte, a single decision: transmit
//! the byte as-is or inverted. [`InversionMask`] records those decisions
//! compactly, and [`EncodedBurst`] pairs the mask with the resulting lane
//! words so that activity counts, energy, decoding and bus-state updates
//! can all be derived from one value.
//!
//! Two levels of the API matter for throughput:
//!
//! * A mask alone is enough for accounting: [`InversionMask::breakdown`]
//!   and [`InversionMask::final_state`] compute wire activity and the
//!   post-burst lane state straight from the payload bytes and the mask,
//!   without materialising any symbols. This is what the streaming
//!   encoders ([`DbiEncoder::encode_mask`](crate::schemes::DbiEncoder))
//!   build on.
//! * When symbols are needed, [`EncodedBurst`] stores them in an inline
//!   small buffer ([`INLINE_SYMBOLS`] words): bursts up to BL16 — in
//!   particular the standard BL8 — never touch the heap, and
//!   [`EncodedBurst::assign_from_mask`] refills an existing value without
//!   reallocating.

use crate::burst::{Burst, BusState};
use crate::cost::{CostBreakdown, CostWeights};
use crate::error::{DbiError, Result};
use crate::simd::SPREAD_FLIP;
use crate::word::LaneWord;
use core::fmt;
use core::hash::{Hash, Hasher};

/// Number of lane words an [`EncodedBurst`] stores inline before spilling
/// to the heap. Covers BL8 and BL16, the burst lengths the standards
/// define.
pub const INLINE_SYMBOLS: usize = 16;

/// Per-byte inversion decisions for a burst, stored as a bit mask.
///
/// Bit *i* set means byte *i* of the burst is transmitted inverted (DBI
/// lane low during that unit interval). Masks for bursts longer than 32
/// bytes are not representable; every burst the standards define (BL8,
/// BL16) fits comfortably.
///
/// ```
/// use dbi_core::InversionMask;
///
/// let mask = InversionMask::from_bits(0b0000_0101);
/// assert!(mask.is_inverted(0));
/// assert!(!mask.is_inverted(1));
/// assert_eq!(mask.count_inverted(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct InversionMask(u32);

impl InversionMask {
    /// The mask in which no byte is inverted (what the RAW baseline and an
    /// all-cheap burst produce).
    pub const NONE: InversionMask = InversionMask(0);

    /// Creates a mask from raw bits (bit *i* = invert byte *i*).
    #[must_use]
    pub const fn from_bits(bits: u32) -> Self {
        InversionMask(bits)
    }

    /// Raw bit representation.
    #[must_use]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Size of the little-endian wire encoding produced by
    /// [`InversionMask::to_le_bytes`].
    pub const WIRE_BYTES: usize = 4;

    /// The mask as fixed-width little-endian bytes, for binary wire
    /// protocols and on-disk formats.
    #[must_use]
    pub const fn to_le_bytes(self) -> [u8; Self::WIRE_BYTES] {
        self.0.to_le_bytes()
    }

    /// Reconstructs a mask from its [`InversionMask::to_le_bytes`] form.
    /// Every bit pattern is a structurally valid mask; width checks against
    /// a specific burst remain the caller's job
    /// ([`InversionMask::validate_for_len`]).
    #[must_use]
    pub const fn from_le_bytes(bytes: [u8; Self::WIRE_BYTES]) -> Self {
        InversionMask(u32::from_le_bytes(bytes))
    }

    /// `true` when byte `index` is transmitted inverted.
    #[must_use]
    pub const fn is_inverted(self, index: usize) -> bool {
        index < 32 && (self.0 >> index) & 1 == 1
    }

    /// Returns a copy of the mask with byte `index` marked as inverted.
    #[must_use]
    pub const fn with_inverted(self, index: usize) -> Self {
        InversionMask(self.0 | (1 << index))
    }

    /// Number of inverted bytes.
    #[must_use]
    pub const fn count_inverted(self) -> u32 {
        self.0.count_ones()
    }

    /// Checks that the mask does not reference bytes beyond `burst_len`.
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::MaskTooWide`] when a bit at or above `burst_len`
    /// is set.
    pub fn validate_for_len(self, burst_len: usize) -> Result<()> {
        if burst_len >= 32 || self.0 >> burst_len == 0 {
            Ok(())
        } else {
            let highest_bit = 31 - self.0.leading_zeros() as usize;
            Err(DbiError::MaskTooWide {
                burst_len,
                highest_bit,
            })
        }
    }

    /// Iterates over the per-byte decisions for a burst of `len` bytes.
    pub fn iter(self, len: usize) -> impl Iterator<Item = bool> {
        (0..len).map(move |i| self.is_inverted(i))
    }

    /// The lane word transmitted for byte `index` of `burst` under this
    /// mask, without materialising the rest of the encoding.
    #[inline]
    #[must_use]
    pub fn symbol_at(self, burst: &Burst, index: usize) -> Option<LaneWord> {
        burst
            .get(index)
            .map(|byte| LaneWord::encode_byte(byte, self.is_inverted(index)))
    }

    /// Zero and transition counts of transmitting `burst` under this mask,
    /// starting from `state` — computed directly from the payload bytes,
    /// eight beats per 64-bit word, no symbol buffer and no heap
    /// allocation. Beats past bit 31 (bursts longer than the mask) go out
    /// plain.
    ///
    /// Equivalent to `EncodedBurst::from_mask(burst, mask)?.breakdown(state)`.
    #[must_use]
    pub fn breakdown(self, burst: &Burst, state: &BusState) -> CostBreakdown {
        price_burst(burst.bytes(), self.0, entry_of(state))
    }

    /// Weighted integer cost of transmitting `burst` under this mask from
    /// `state`, allocation-free.
    #[must_use]
    pub fn cost(self, burst: &Burst, state: &BusState, weights: &CostWeights) -> u64 {
        self.breakdown(burst, state).weighted(weights)
    }

    /// Complements every byte this mask marks as inverted, in place.
    ///
    /// This single operation is both halves of the DBI data path, because
    /// masked complementation is an **involution**: applied to payload
    /// bytes it produces the DQ lane levels a transmitter drives (the
    /// *wire bytes*), and applied to wire bytes it recovers the payload —
    /// exactly what the receiver in the DRAM (for writes) or the memory
    /// controller (for reads) does with the DBI lane. The decode plane
    /// ([`crate::decode`]) builds on this.
    ///
    /// Mask bits at or beyond `bytes.len()` are ignored; callers that
    /// need strict width checking validate first with
    /// [`InversionMask::validate_for_len`].
    pub fn apply_in_place(self, bytes: &mut [u8]) {
        for (i, byte) in bytes.iter_mut().enumerate() {
            if self.is_inverted(i) {
                *byte = !*byte;
            }
        }
    }

    /// The bus state after `burst` has been driven under this mask —
    /// derived from the last byte alone, allocation-free.
    #[must_use]
    pub fn final_state(self, burst: &Burst, initial: &BusState) -> BusState {
        match burst.len().checked_sub(1) {
            Some(last) => BusState::new(
                self.symbol_at(burst, last)
                    .expect("index is within the burst"),
            ),
            None => *initial,
        }
    }
}

impl fmt::Display for InversionMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:b}", self.0)
    }
}

impl fmt::Binary for InversionMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u32> for InversionMask {
    fn from(bits: u32) -> Self {
        InversionMask(bits)
    }
}

impl From<InversionMask> for u32 {
    fn from(mask: InversionMask) -> u32 {
        mask.bits()
    }
}

/// Symbol storage of an [`EncodedBurst`]: an inline array for the standard
/// burst lengths, a heap vector beyond that.
///
/// Equality and hashing are defined over the logical slice, so an inline
/// buffer and a heap buffer holding the same words compare equal.
#[derive(Debug, Clone)]
enum SymbolBuf {
    Inline {
        len: u8,
        words: [LaneWord; INLINE_SYMBOLS],
    },
    Heap(Vec<LaneWord>),
}

impl SymbolBuf {
    const fn empty() -> Self {
        SymbolBuf::Inline {
            len: 0,
            words: [LaneWord::ALL_ONES; INLINE_SYMBOLS],
        }
    }

    fn as_slice(&self) -> &[LaneWord] {
        match self {
            SymbolBuf::Inline { len, words } => &words[..usize::from(*len)],
            SymbolBuf::Heap(vec) => vec,
        }
    }

    /// Clears and refills the buffer from an iterator of known length,
    /// reusing existing heap capacity and never allocating for bursts of at
    /// most [`INLINE_SYMBOLS`] words (unless already spilled, in which case
    /// the existing heap buffer is reused anyway).
    fn refill<I: Iterator<Item = LaneWord>>(&mut self, len: usize, mut items: I) {
        match self {
            SymbolBuf::Heap(vec) => {
                vec.clear();
                vec.extend(items);
            }
            SymbolBuf::Inline { len: stored, words } if len <= INLINE_SYMBOLS => {
                for slot in words.iter_mut().take(len) {
                    *slot = items.next().expect("iterator yields `len` items");
                }
                *stored = len as u8;
            }
            SymbolBuf::Inline { .. } => {
                *self = SymbolBuf::Heap(items.collect());
            }
        }
    }
}

impl PartialEq for SymbolBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SymbolBuf {}

impl Hash for SymbolBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

/// A burst together with the inversion decisions applied to it — the value
/// driven onto the nine lanes of one DBI group.
///
/// Symbols are stored inline for bursts up to [`INLINE_SYMBOLS`] words, so
/// constructing (or [reusing](EncodedBurst::assign_from_mask)) an encoded
/// BL8/BL16 burst performs no heap allocation.
///
/// ```
/// # fn main() -> Result<(), dbi_core::DbiError> {
/// use dbi_core::{Burst, BusState, EncodedBurst, InversionMask};
///
/// let burst = Burst::from_slice(&[0x00, 0xFF])?;
/// let encoded = EncodedBurst::from_mask(&burst, InversionMask::from_bits(0b01))?;
/// assert_eq!(encoded.decode(), burst);
/// let activity = encoded.breakdown(&BusState::idle());
/// assert_eq!(activity.zeros, 1); // inverted 0x00 transmits 0xFF + a low DBI lane
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EncodedBurst {
    symbols: SymbolBuf,
    mask: InversionMask,
}

impl EncodedBurst {
    /// Creates an empty reusable buffer for
    /// [`EncodedBurst::assign_from_mask`].
    /// The only way to obtain an [`EncodedBurst::is_empty`] value.
    #[must_use]
    pub const fn empty() -> Self {
        EncodedBurst {
            symbols: SymbolBuf::empty(),
            mask: InversionMask::NONE,
        }
    }

    /// Applies an inversion mask to a burst.
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::MaskTooWide`] when the mask references bytes the
    /// burst does not have, or [`DbiError::BurstTooLong`] when the burst has
    /// more than 32 bytes (masks are 32 bits wide).
    pub fn from_mask(burst: &Burst, mask: InversionMask) -> Result<Self> {
        let mut encoded = EncodedBurst::empty();
        encoded.assign_from_mask(burst, mask)?;
        Ok(encoded)
    }

    /// Refills `self` with the encoding of `burst` under `mask`, reusing
    /// the existing symbol storage. The allocation-free way to encode a
    /// stream of bursts through one buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EncodedBurst::from_mask`]; on error `self` is
    /// left unchanged.
    pub fn assign_from_mask(&mut self, burst: &Burst, mask: InversionMask) -> Result<()> {
        if burst.len() > 32 {
            return Err(DbiError::BurstTooLong {
                len: burst.len(),
                max: 32,
            });
        }
        mask.validate_for_len(burst.len())?;
        self.symbols.refill(
            burst.len(),
            burst
                .iter()
                .enumerate()
                .map(|(i, byte)| LaneWord::encode_byte(byte, mask.is_inverted(i))),
        );
        self.mask = mask;
        Ok(())
    }

    /// The lane words in transmission order.
    #[must_use]
    pub fn symbols(&self) -> &[LaneWord] {
        self.symbols.as_slice()
    }

    /// The per-byte inversion decisions.
    #[must_use]
    pub const fn mask(&self) -> InversionMask {
        self.mask
    }

    /// Number of unit intervals in the encoded burst.
    #[must_use]
    pub fn len(&self) -> usize {
        self.symbols.as_slice().len()
    }

    /// `true` when the burst contains no symbols — only the case for a
    /// fresh [`EncodedBurst::empty`] buffer that has not been assigned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.symbols.as_slice().is_empty()
    }

    /// Zero and transition counts of transmitting this burst starting from
    /// `state`.
    #[must_use]
    pub fn breakdown(&self, state: &BusState) -> CostBreakdown {
        // At most 32 symbols: `assign_from_mask` refuses longer bursts.
        let symbols = self.symbols.as_slice();
        let mut bytes = [0u8; 32];
        for (byte, word) in bytes.iter_mut().zip(symbols) {
            *byte = word.decode();
        }
        price_burst(&bytes[..symbols.len()], self.mask.bits(), entry_of(state))
    }

    /// Weighted integer cost of transmitting this burst starting from
    /// `state`.
    #[must_use]
    pub fn cost(&self, state: &BusState, weights: &CostWeights) -> u64 {
        self.breakdown(state).weighted(weights)
    }

    /// Recovers the original payload bytes, as the receiver does by undoing
    /// the inversion signalled on the DBI lane.
    ///
    /// # Panics
    ///
    /// Panics on an unassigned [`EncodedBurst::empty`] buffer, which holds
    /// no symbols and therefore no payload.
    #[must_use]
    pub fn decode(&self) -> Burst {
        let bytes: Vec<u8> = self.symbols.as_slice().iter().map(|w| w.decode()).collect();
        Burst::new(bytes).expect("assigned encoded bursts are never empty")
    }

    /// The bus state after the last symbol of this burst has been driven.
    #[must_use]
    pub fn final_state(&self, initial: &BusState) -> BusState {
        match self.symbols.as_slice().last() {
            Some(&word) => BusState::new(word),
            None => *initial,
        }
    }
}

impl fmt::Display for EncodedBurst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mask={:08b} [", self.mask.bits())?;
        for (i, word) in self.symbols.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{word}")?;
        }
        write!(f, "]")
    }
}

/// A carried lane state in the entry form [`price_burst`] takes: the data
/// byte the wires last carried and whether that beat went out inverted.
pub(crate) fn entry_of(state: &BusState) -> (u8, bool) {
    let last = state.last();
    (last.decode(), last.dbi().is_inverted())
}

/// The activity of one burst driven under the inversion decisions `bits`
/// (bit *i* = beat *i* inverted), entered from the data byte `entry.0` at
/// DBI level low = `entry.1` — the one pricing function every encoder,
/// the serial reference and the SWAR decode share.
///
/// Counted eight beats per 64-bit word: the DQ lanes drive
/// `8·n − ones(driven)` zeros and toggle `ones(driven ^ previous driven)`;
/// the DBI lane adds one zero per inverted beat and one toggle per level
/// change. Mask bits at or past the burst length are ignored, and beats
/// past bit 31 go out plain. Bit-identical to the per-beat
/// [`LaneWord`] walk, which the tests keep as its oracle
/// (`price_symbols` in the doc-hidden `oracle` module).
///
/// Picks the hardware-popcount build once per call; slab kernels inline
/// [`price_burst_body`] into their own popcount build instead.
#[must_use]
pub(crate) fn price_burst(bytes: &[u8], bits: u32, entry: (u8, bool)) -> CostBreakdown {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: guarded by the runtime `popcnt` detection above.
        #[allow(unsafe_code)]
        unsafe {
            return price_burst_popcnt(bytes, bits, entry);
        }
    }
    price_burst_body(bytes, bits, entry)
}

/// [`price_burst_body`] compiled with hardware popcount: the x86-64
/// baseline has no `popcnt`, so `count_ones` otherwise lowers to a
/// multi-op SWAR sequence per word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
pub(crate) fn price_burst_popcnt(bytes: &[u8], bits: u32, entry: (u8, bool)) -> CostBreakdown {
    price_burst_body(bytes, bits, entry)
}

/// The portable body of [`price_burst`], always inlined so each caller's
/// build (baseline or `popcnt`) decides how `count_ones` lowers.
#[inline(always)]
pub(crate) fn price_burst_body(bytes: &[u8], bits: u32, entry: (u8, bool)) -> CostBreakdown {
    let n = bytes.len();
    let live_beats = if n < 64 { (1u64 << n) - 1 } else { u64::MAX };
    let bits = u64::from(bits) & live_beats;
    let mut zeros = 8 * n as u64 + u64::from(bits.count_ones());
    let mut transitions =
        u64::from(((bits ^ ((bits << 1) | u64::from(entry.1))) & live_beats).count_ones());
    // The DQ levels of the beat before the current word, starting from
    // the entry state.
    let mut prev = u64::from(entry.0 ^ u8::from(entry.1).wrapping_neg());
    let mut rest = bits;
    let mut account = |data: u64, beats: usize| {
        let driven = data ^ SPREAD_FLIP[(rest & 0xFF) as usize];
        rest >>= 8;
        zeros -= u64::from(driven.count_ones());
        // Beats past the burst hold zero data and zero decisions, so they
        // drive nothing; only their toggles need masking.
        let live = u64::MAX >> (64 - 8 * beats);
        transitions += u64::from(((driven ^ ((driven << 8) | prev)) & live).count_ones());
        prev = (driven >> (8 * (beats - 1))) & 0xFF;
    };
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        account(u64::from_le_bytes(word.try_into().expect("8-byte word")), 8);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut lanes = [0u8; 8];
        lanes[..tail.len()].copy_from_slice(tail);
        account(u64::from_le_bytes(lanes), tail.len());
    }
    CostBreakdown::new(zeros, transitions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_bit_operations() {
        let mask = InversionMask::NONE.with_inverted(0).with_inverted(5);
        assert!(mask.is_inverted(0));
        assert!(mask.is_inverted(5));
        assert!(!mask.is_inverted(1));
        assert!(!mask.is_inverted(40));
        assert_eq!(mask.count_inverted(), 2);
        assert_eq!(mask.bits(), 0b10_0001);
        let decisions: Vec<bool> = mask.iter(6).collect();
        assert_eq!(decisions, vec![true, false, false, false, false, true]);
    }

    #[test]
    fn mask_validation() {
        let mask = InversionMask::from_bits(0b1_0000);
        assert!(mask.validate_for_len(5).is_ok());
        assert_eq!(
            mask.validate_for_len(4),
            Err(DbiError::MaskTooWide {
                burst_len: 4,
                highest_bit: 4
            })
        );
        assert!(InversionMask::NONE.validate_for_len(0).is_ok());
    }

    #[test]
    fn mask_wire_bytes_roundtrip() {
        for bits in [0u32, 1, 0xFFFF_FFFF, 0b1010_1010] {
            let mask = InversionMask::from_bits(bits);
            assert_eq!(InversionMask::from_le_bytes(mask.to_le_bytes()), mask);
        }
        assert_eq!(InversionMask::from_bits(0x0102_0304).to_le_bytes()[0], 4);
    }

    #[test]
    fn mask_conversions_and_display() {
        let mask: InversionMask = 0b101u32.into();
        let raw: u32 = mask.into();
        assert_eq!(raw, 0b101);
        assert_eq!(format!("{mask:b}"), "101");
        assert_eq!(mask.to_string(), "101");
    }

    #[test]
    fn mask_breakdown_matches_the_symbol_buffer_path() {
        let burst = Burst::from_slice(&[0x10, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4]).unwrap();
        for bits in [0u32, 0b1, 0b1010_1010, 0xFF, 0b0110_0101] {
            let mask = InversionMask::from_bits(bits);
            let encoded = EncodedBurst::from_mask(&burst, mask).unwrap();
            for state in [BusState::idle(), BusState::new(LaneWord::ALL_ZEROS)] {
                // Both price word-wide; the per-beat lane-word walk is
                // the oracle.
                let oracle = crate::oracle::price_symbols(encoded.symbols(), &state);
                assert_eq!(mask.breakdown(&burst, &state), oracle);
                assert_eq!(encoded.breakdown(&state), oracle);
                assert_eq!(
                    mask.cost(&burst, &state, &CostWeights::FIXED),
                    encoded.cost(&state, &CostWeights::FIXED)
                );
                assert_eq!(
                    mask.final_state(&burst, &state),
                    encoded.final_state(&state)
                );
            }
        }
    }

    #[test]
    fn mask_breakdown_prices_beats_past_the_mask_as_plain() {
        // 40 beats: bits 0..32 come from the mask, beats 32..40 go out
        // plain, and mask bits past a short burst are ignored.
        let long = Burst::new((0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect()).unwrap();
        let short = Burst::from_slice(&[0x00, 0xFF, 0x0F]).unwrap();
        for bits in [0u32, u32::MAX, 0x8000_0001, 0xDEAD_BEEF] {
            let mask = InversionMask::from_bits(bits);
            for burst in [&long, &short] {
                for state in [
                    BusState::idle(),
                    BusState::new(LaneWord::encode_byte(0x3C, true)),
                ] {
                    let symbols: Vec<LaneWord> = (0..burst.len())
                        .map(|i| mask.symbol_at(burst, i).unwrap())
                        .collect();
                    assert_eq!(
                        mask.breakdown(burst, &state),
                        crate::oracle::price_symbols(&symbols, &state),
                        "mask {bits:#x}, {} beats",
                        burst.len()
                    );
                }
            }
        }
    }

    #[test]
    fn apply_in_place_is_an_involution_matching_the_lane_words() {
        let burst = Burst::from_slice(&[0x10, 0x86, 0x96, 0xE9, 0x7D, 0xB7, 0x57, 0xC4]).unwrap();
        for bits in [0u32, 0b1, 0b1010_1010, 0xFF, 0b0110_0101] {
            let mask = InversionMask::from_bits(bits);
            let mut wire = burst.bytes().to_vec();
            mask.apply_in_place(&mut wire);
            // Driving: the wire bytes are exactly the DQ levels of the
            // encoded lane words.
            let encoded = EncodedBurst::from_mask(&burst, mask).unwrap();
            let dq: Vec<u8> = encoded.symbols().iter().map(|w| w.dq_levels()).collect();
            assert_eq!(wire, dq);
            // Receiving: a second application recovers the payload.
            mask.apply_in_place(&mut wire);
            assert_eq!(wire, burst.bytes());
        }
        // Out-of-range bits are ignored.
        let mut short = [0xABu8];
        InversionMask::from_bits(0b10).apply_in_place(&mut short);
        assert_eq!(short, [0xAB]);
    }

    #[test]
    fn mask_symbol_at_matches_the_buffer() {
        let burst = Burst::from_slice(&[0x0F, 0xF0, 0xAA]).unwrap();
        let mask = InversionMask::from_bits(0b010);
        let encoded = EncodedBurst::from_mask(&burst, mask).unwrap();
        for i in 0..burst.len() {
            assert_eq!(mask.symbol_at(&burst, i), Some(encoded.symbols()[i]));
        }
        assert_eq!(mask.symbol_at(&burst, 3), None);
    }

    #[test]
    fn from_mask_applies_inversion() {
        let burst = Burst::from_slice(&[0x0F, 0xF0]).unwrap();
        let encoded = EncodedBurst::from_mask(&burst, InversionMask::from_bits(0b10)).unwrap();
        assert_eq!(encoded.symbols()[0].dq_levels(), 0x0F);
        assert_eq!(encoded.symbols()[1].dq_levels(), 0x0F); // inverted 0xF0
        assert_eq!(encoded.decode(), burst);
        assert_eq!(encoded.len(), 2);
        assert!(!encoded.is_empty());
    }

    #[test]
    fn from_mask_rejects_wide_masks_and_long_bursts() {
        let burst = Burst::from_slice(&[0x00]).unwrap();
        assert!(matches!(
            EncodedBurst::from_mask(&burst, InversionMask::from_bits(0b10)),
            Err(DbiError::MaskTooWide { .. })
        ));
        let long = Burst::new(vec![0u8; 33]).unwrap();
        assert!(matches!(
            EncodedBurst::from_mask(&long, InversionMask::NONE),
            Err(DbiError::BurstTooLong { .. })
        ));
    }

    #[test]
    fn assign_reuses_the_buffer_across_lengths() {
        let mut encoded = EncodedBurst::empty();
        assert!(encoded.is_empty());

        let short = Burst::from_slice(&[0xAB, 0xCD]).unwrap();
        encoded
            .assign_from_mask(&short, InversionMask::from_bits(0b01))
            .unwrap();
        assert_eq!(encoded.len(), 2);
        assert_eq!(encoded.decode(), short);

        // Spill to the heap...
        let long = Burst::new((0..20u8).collect()).unwrap();
        encoded
            .assign_from_mask(&long, InversionMask::NONE)
            .unwrap();
        assert_eq!(encoded.len(), 20);
        assert_eq!(encoded.decode(), long);

        // ...and back to a short burst, still comparing equal to a fresh value.
        encoded
            .assign_from_mask(&short, InversionMask::from_bits(0b01))
            .unwrap();
        let fresh = EncodedBurst::from_mask(&short, InversionMask::from_bits(0b01)).unwrap();
        assert_eq!(
            encoded, fresh,
            "heap-backed and inline-backed values compare equal"
        );
    }

    #[test]
    fn assign_errors_leave_the_buffer_unchanged() {
        let burst = Burst::from_slice(&[1, 2, 3]).unwrap();
        let mut encoded = EncodedBurst::from_mask(&burst, InversionMask::from_bits(0b111)).unwrap();
        let before = encoded.clone();
        let narrow = Burst::from_slice(&[9]).unwrap();
        assert!(encoded
            .assign_from_mask(&narrow, InversionMask::from_bits(0b10))
            .is_err());
        assert_eq!(encoded, before);
    }

    #[test]
    fn standard_bursts_compare_and_hash_by_content() {
        use std::collections::hash_map::DefaultHasher;
        let burst = Burst::from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        let a = EncodedBurst::from_mask(&burst, InversionMask::from_bits(0b1001)).unwrap();
        let mut b = EncodedBurst::from_mask(
            &Burst::new((0..24u8).collect()).unwrap(),
            InversionMask::NONE,
        )
        .unwrap();
        b.assign_from_mask(&burst, InversionMask::from_bits(0b1001))
            .unwrap();
        assert_eq!(a, b);
        let hash = |e: &EncodedBurst| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn breakdown_and_cost() {
        let burst = Burst::from_slice(&[0x00, 0x00]).unwrap();
        let idle = BusState::idle();
        // Not inverted: each word is 0x00 + DBI high -> 8 zeros each,
        // 8 transitions for the first word, none for the second.
        let plain = EncodedBurst::from_mask(&burst, InversionMask::NONE).unwrap();
        assert_eq!(plain.breakdown(&idle), CostBreakdown::new(16, 8));
        // Inverted: each word is 0xFF + DBI low -> 1 zero each,
        // 1 transition for the first word (DBI lane), none for the second.
        let inverted = EncodedBurst::from_mask(&burst, InversionMask::from_bits(0b11)).unwrap();
        assert_eq!(inverted.breakdown(&idle), CostBreakdown::new(2, 1));
        let weights = CostWeights::FIXED;
        assert!(inverted.cost(&idle, &weights) < plain.cost(&idle, &weights));
    }

    #[test]
    fn final_state_tracks_last_symbol() {
        let burst = Burst::from_slice(&[0xAB, 0xCD]).unwrap();
        let encoded = EncodedBurst::from_mask(&burst, InversionMask::from_bits(0b10)).unwrap();
        let state = encoded.final_state(&BusState::idle());
        assert_eq!(state.last(), LaneWord::encode_byte(0xCD, true));
    }

    #[test]
    fn display_contains_mask_and_symbols() {
        let burst = Burst::from_slice(&[0xFF]).unwrap();
        let encoded = EncodedBurst::from_mask(&burst, InversionMask::NONE).unwrap();
        let text = encoded.to_string();
        assert!(text.contains("mask="));
        assert!(text.contains("111111111"));
    }
}
