//! Batched burst slabs: structure-of-arrays storage for whole encode
//! batches.
//!
//! The per-burst API ([`DbiEncoder::encode_mask`](crate::DbiEncoder::encode_mask)) is allocation-free but
//! still pays per call: a [`Burst`] to construct, a dispatch to resolve,
//! bounds checks to re-establish. Real DDR4/GDDR traffic arrives as long
//! write streams, so the batched layers of this workspace move **slabs**
//! instead: a [`BurstSlab`] holds many fixed-length bursts in one
//! contiguous, caller-owned buffer, laid out structure-of-arrays —
//! payload bytes burst-major in one `Vec<u8>`, one [`InversionMask`] word
//! per burst, one [`CostBreakdown`] row per burst.
//!
//! [`DbiEncoder::encode_lanes_into`](crate::DbiEncoder::encode_lanes_into) encodes a whole slab of one or more
//! independent chains in one call, carrying a [`BusState`] per chain
//! across its bursts exactly as a serial `encode_mask` chain would. Every
//! shipped scheme overrides it with a kernel that walks the contiguous
//! payload directly — carried-state LUT and SIMD trellis kernels for the
//! optimal encoders, one shared per-byte kernel for the heuristics — no
//! `Burst` values, one dispatch per slab, bounds checks amortised by
//! `chunks_exact`. The default implementation, which loops the per-burst
//! path through the slab's reusable scratch buffer, remains for the
//! brute-force oracle. Every path is **bit-identical** to the serial
//! per-burst chain (differential-tested in `tests/slab_differential.rs`)
//! and performs no heap allocation once the slab's buffers are warm.
//!
//! ```
//! use dbi_core::{BurstSlab, BusState, DbiEncoder, Scheme};
//!
//! let mut slab = BurstSlab::new(8);
//! slab.extend_from_bytes(&[0x5A; 32]).unwrap(); // four BL8 bursts
//! let mut state = BusState::idle();
//! Scheme::OptFixed.encode_lanes_into(&mut slab, core::slice::from_mut(&mut state));
//! assert_eq!(slab.masks().len(), 4);
//! assert_eq!(slab.total(), slab.costs().iter().copied().sum());
//! ```

use crate::burst::{Burst, BusState};
use crate::cost::CostBreakdown;
use crate::encoding::InversionMask;
use crate::error::{DbiError, Result};
use core::fmt;

/// A caller-owned batch of fixed-length bursts plus their per-burst encode
/// results, stored structure-of-arrays.
///
/// * `bytes` — the payload bytes of every burst, contiguous and
///   burst-major (burst *i* occupies `bytes[i·len .. (i+1)·len]`),
/// * `masks` — one inversion-decision word per burst,
/// * `costs` — one zero/transition cost row per burst.
///
/// The result arrays are filled by [`DbiEncoder::encode_lanes_into`](crate::DbiEncoder::encode_lanes_into); until
/// a slab has been encoded they read as [`InversionMask::NONE`] /
/// [`CostBreakdown::ZERO`]. All buffers retain their capacity across
/// [`BurstSlab::clear`] / [`BurstSlab::reset`], so a slab reused across
/// batches allocates nothing in steady state.
#[derive(Clone, Default)]
pub struct BurstSlab {
    burst_len: usize,
    bytes: Vec<u8>,
    masks: Vec<InversionMask>,
    costs: Vec<CostBreakdown>,
    /// Gather buffer for the default (per-burst) encode path; moved into a
    /// [`Burst`] and recovered so no per-burst allocation occurs.
    scratch: Vec<u8>,
}

impl fmt::Debug for BurstSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BurstSlab")
            .field("burst_len", &self.burst_len)
            .field("bursts", &self.burst_count())
            .finish_non_exhaustive()
    }
}

impl BurstSlab {
    /// Creates an empty slab for bursts of `burst_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `burst_len` is zero or exceeds the 32-byte
    /// [`InversionMask`] limit.
    #[must_use]
    pub fn new(burst_len: usize) -> Self {
        let mut slab = BurstSlab::default();
        slab.reset(burst_len);
        slab
    }

    /// Creates an empty slab with room for `bursts` bursts preallocated.
    ///
    /// # Panics
    ///
    /// Same conditions as [`BurstSlab::new`].
    #[must_use]
    pub fn with_capacity(burst_len: usize, bursts: usize) -> Self {
        let mut slab = BurstSlab::new(burst_len);
        slab.bytes.reserve(bursts * burst_len);
        slab.masks.reserve(bursts);
        slab.costs.reserve(bursts);
        slab
    }

    /// Clears the slab and re-targets it at a (possibly different) burst
    /// length, keeping every buffer's capacity. The way one scratch slab
    /// serves sessions of mixed geometry.
    ///
    /// # Panics
    ///
    /// Panics if `burst_len` is zero or exceeds the 32-byte
    /// [`InversionMask`] limit.
    pub fn reset(&mut self, burst_len: usize) {
        assert!(
            (1..=32).contains(&burst_len),
            "slab burst length must be within the inversion-mask limit of 32 bytes"
        );
        self.burst_len = burst_len;
        self.clear();
    }

    /// Removes every burst (and its results), keeping capacity and the
    /// configured burst length.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.masks.clear();
        self.costs.clear();
    }

    /// Every encode and decode prices its bursts; `true` is the only
    /// accepted argument. Kept so callers written against the retired
    /// masks-only switch still build.
    ///
    /// # Panics
    ///
    /// Panics if `enabled` is `false`.
    #[doc(hidden)]
    pub fn set_pricing(&mut self, enabled: bool) {
        assert!(
            enabled,
            "slab encodes always price; masks-only mode is gone"
        );
    }

    /// Burst length in bytes; every burst in the slab has exactly this
    /// length.
    #[must_use]
    pub const fn burst_len(&self) -> usize {
        self.burst_len
    }

    /// Number of bursts currently in the slab.
    #[must_use]
    pub fn burst_count(&self) -> usize {
        self.bytes.len().checked_div(self.burst_len).unwrap_or(0)
    }

    /// `true` when the slab holds no bursts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Appends one burst.
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::BurstTooLong`] when `bytes` is not exactly
    /// [`BurstSlab::burst_len`] bytes (reported against the slab's
    /// configured length).
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.len() != self.burst_len {
            return Err(DbiError::BurstTooLong {
                len: bytes.len(),
                max: self.burst_len,
            });
        }
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    /// Appends one burst whose bytes are produced in place by `fill` —
    /// the gather-free way to load generated data (the traffic generators
    /// in `dbi-workloads` use this). Beat-interleaved streams go through
    /// [`BurstSlab::extend_chains_from_interleaved`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `fill` does not append exactly [`BurstSlab::burst_len`]
    /// bytes.
    pub fn push_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let before = self.bytes.len();
        fill(&mut self.bytes);
        assert_eq!(
            self.bytes.len() - before,
            self.burst_len,
            "a slab fill must append exactly one burst"
        );
    }

    /// Appends a contiguous run of bursts.
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::BurstTooLong`] when `bytes` is empty or not a
    /// whole number of bursts.
    pub fn extend_from_bytes(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.is_empty() || !bytes.len().is_multiple_of(self.burst_len) {
            return Err(DbiError::BurstTooLong {
                len: bytes.len(),
                max: self.burst_len,
            });
        }
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    /// Appends every burst of a slice of [`Burst`]s.
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::BurstTooLong`] on the first burst whose length
    /// differs from the slab's.
    pub fn extend_from_bursts(&mut self, bursts: &[Burst]) -> Result<()> {
        for burst in bursts {
            self.push_bytes(burst.bytes())?;
        }
        Ok(())
    }

    /// Appends `chains` chain-major chains de-interleaved from a
    /// **beat-interleaved** stream, without clearing the slab: beat `r` of
    /// chain `c`, byte `r·chains + c` of `data`, lands at position `r` of
    /// chain `c`'s run, chains in ascending order. This is the multi-group
    /// memory layout — every beat drives one byte per lane group — turned
    /// into the chain-major layout the lanes dispatches encode, as one
    /// transpose with a single buffer growth.
    ///
    /// Appending onto a non-empty slab places the new chains after the
    /// existing rows, which is how several streams pack into one shared
    /// dispatch. [`BurstSlab::scatter_chains_into`] is the inverse.
    ///
    /// # Panics
    ///
    /// Panics when `chains` is zero or `data` is not a whole number of
    /// `chains`-wide beats forming whole bursts per chain.
    pub fn extend_chains_from_interleaved(&mut self, data: &[u8], chains: usize) {
        assert!(chains > 0, "an interleaved stream needs at least one chain");
        assert!(
            data.len().is_multiple_of(chains * self.burst_len),
            "interleaved stream ({} bytes) must be whole {chains}-chain bursts",
            data.len()
        );
        let start = self.bytes.len();
        self.bytes.resize(start + data.len(), 0);
        transpose(data, &mut self.bytes[start..], chains);
    }

    /// Writes the whole slab, read as `chains` chain-major chains, back out
    /// in **beat-interleaved** order: position `r` of chain `c` lands at
    /// `out[r·chains + c]`. The inverse of
    /// [`BurstSlab::extend_chains_from_interleaved`] — how a decoded
    /// chain-major slab returns to the memory layout.
    ///
    /// # Panics
    ///
    /// Panics when `chains` is zero, the burst count is not a whole number
    /// of chains, or `out` is not exactly as long as the slab's payload.
    pub fn scatter_chains_into(&self, chains: usize, out: &mut [u8]) {
        assert!(chains > 0, "a chain scatter needs at least one chain");
        let count = self.burst_count();
        assert!(
            count.is_multiple_of(chains),
            "slab burst count ({count}) must be a whole number of {chains}-chain columns"
        );
        assert_eq!(
            out.len(),
            self.bytes.len(),
            "scatter target must match the slab payload"
        );
        transpose(&self.bytes, out, self.bytes.len() / chains);
    }

    /// The payload bytes of burst `index`, if it exists.
    #[must_use]
    pub fn burst_bytes(&self, index: usize) -> Option<&[u8]> {
        let start = index.checked_mul(self.burst_len)?;
        self.bytes.get(start..start + self.burst_len)
    }

    /// All payload bytes, burst-major.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The per-burst inversion decisions of the last encode (empty or
    /// shorter than [`BurstSlab::burst_count`] before the first encode).
    #[must_use]
    pub fn masks(&self) -> &[InversionMask] {
        &self.masks
    }

    /// The per-burst activity rows of the last encode or decode: one row
    /// per burst, in the same order as [`BurstSlab::masks`].
    #[must_use]
    pub fn costs(&self) -> &[CostBreakdown] {
        &self.costs
    }

    /// Total activity across every burst of the last encode.
    #[must_use]
    pub fn total(&self) -> CostBreakdown {
        self.costs.iter().copied().sum()
    }

    /// A read-only view of one **chain** of a multi-chain slab — the
    /// columns of rows `chain·per_chain .. (chain+1)·per_chain` under the
    /// chain-major layout [`encode_chains_with`](BurstSlab::encode_chains_with)
    /// and the lanes dispatches use. This is how a caller that packed
    /// chains from *several* independent streams (the service packs lane
    /// groups of several sessions into one kernel dispatch) carves its own
    /// slice of the shared results back out: masks and cost rows come back
    /// per chain without copying or re-walking the whole slab.
    ///
    /// The mask and cost slices are empty before the first encode.
    ///
    /// # Panics
    ///
    /// Panics when `chains` is zero, `chain` is out of range, or the
    /// slab's burst count is not a whole number of chains.
    #[must_use]
    pub fn chain_view(&self, chain: usize, chains: usize) -> ChainView<'_> {
        assert!(chains > 0, "a chain view needs at least one chain");
        assert!(chain < chains, "chain {chain} out of range for {chains}");
        let count = self.burst_count();
        assert!(
            count.is_multiple_of(chains),
            "slab burst count ({count}) must be a whole number of {chains}-chain columns"
        );
        let per_chain = count / chains;
        let rows = chain * per_chain..(chain + 1) * per_chain;
        let bytes = rows.start * self.burst_len..rows.end * self.burst_len;
        ChainView {
            bytes: &self.bytes[bytes],
            masks: self.masks.get(rows.clone()).unwrap_or(&[]),
            costs: self.costs.get(rows).unwrap_or(&[]),
            burst_len: self.burst_len,
        }
    }

    /// Sizes the result arrays to the burst count (zeroing them) and hands
    /// out the three column views an encoder kernel writes through:
    /// `(payload bytes, masks, cost rows)`. For [`DbiEncoder`](crate::DbiEncoder)
    /// implementations that override [`DbiEncoder::encode_lanes_into`](crate::DbiEncoder::encode_lanes_into)
    /// with a direct kernel. Both result columns hold one entry per burst,
    /// and a kernel must fill every cost row.
    pub fn encode_parts_mut(&mut self) -> (&[u8], &mut [InversionMask], &mut [CostBreakdown]) {
        self.prepare_results();
        (&self.bytes, &mut self.masks, &mut self.costs)
    }

    fn prepare_results(&mut self) {
        let count = self.burst_count();
        self.masks.clear();
        self.masks.resize(count, InversionMask::NONE);
        self.costs.clear();
        self.costs.resize(count, CostBreakdown::ZERO);
    }

    /// Loads a caller-supplied mask column, one mask per burst — how a
    /// **receiver** primes a slab whose payload area holds *wire* bytes
    /// before [`BurstSlab::decode_in_place`]. Any cost rows from a
    /// previous encode are cleared (they priced different bytes).
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::MaskCountMismatch`] when `masks` does not hold
    /// exactly one mask per burst, or [`DbiError::MaskTooWide`] when any
    /// mask references beats beyond the slab's burst length. The slab is
    /// unchanged on error.
    pub fn load_masks(&mut self, masks: &[InversionMask]) -> Result<()> {
        if masks.len() != self.burst_count() {
            return Err(DbiError::MaskCountMismatch {
                got: masks.len(),
                expected: self.burst_count(),
            });
        }
        for mask in masks {
            mask.validate_for_len(self.burst_len)?;
        }
        self.masks.clear();
        self.masks.extend_from_slice(masks);
        self.costs.clear();
        Ok(())
    }

    /// [`BurstSlab::load_masks`] from a mask stream in **transmission
    /// order** — `chains` chains interleaved, so mask `a·chains + c` is
    /// access `a` of chain `c` — loaded into the chain-major rows that
    /// [`BurstSlab::extend_chains_from_interleaved`] fills: how a receiver
    /// primes a slab from the DBI lanes of an interleaved stream. One
    /// strided pass checks each mask's width as it stores it.
    ///
    /// # Errors
    ///
    /// Returns the transmission-order index of the first mask that
    /// references beats beyond the slab's burst length; the mask column
    /// is then left **cleared** (never partially stale), so a subsequent
    /// decode fails with [`DbiError::MaskCountMismatch`] rather than
    /// decoding with the wrong masks. Cost rows are cleared either way.
    ///
    /// # Panics
    ///
    /// Panics when `chains` is zero or `masks` does not hold exactly one
    /// mask per burst in the slab.
    pub fn load_masks_interleaved(
        &mut self,
        masks: &[InversionMask],
        chains: usize,
    ) -> core::result::Result<(), usize> {
        let count = self.burst_count();
        assert!(
            chains > 0 && count.is_multiple_of(chains) && masks.len() == count,
            "need one mask per burst of {count} bursts in whole {chains}-chain accesses, got {}",
            masks.len()
        );
        let accesses = count / chains;
        self.costs.clear();
        self.masks.clear();
        self.masks.resize(count, InversionMask::NONE);
        for (access, row) in masks.chunks_exact(chains).enumerate() {
            for (chain, &mask) in row.iter().enumerate() {
                if mask.validate_for_len(self.burst_len).is_err() {
                    self.masks.clear();
                    return Err(access * chains + chain);
                }
                self.masks[chain * accesses + access] = mask;
            }
        }
        Ok(())
    }

    /// Fills the slab with the **wire image** of rows `rows` of `src`: the
    /// DQ lane levels a transmitter drives for those bursts — each
    /// burst's bytes with every beat its mask inverts complemented —
    /// plus a copy of their masks, so [`BurstSlab::decode_in_place_chains`]
    /// recovers exactly `src`'s rows. How a receiver replay starts from
    /// the rows an encode kernel actually read, not from a fresh pack of
    /// the payload. One word-wide pass, branch-free: eight beats XOR
    /// against one widened mask word, and each mask's width is checked
    /// as its burst is written. The slab takes `src`'s burst length; cost
    /// rows are cleared (they priced different bytes).
    ///
    /// # Errors
    ///
    /// Returns the index, counted from `rows.start`, of the first mask
    /// that references beats beyond the burst length; the mask column is
    /// then left **cleared**, so a later decode fails with
    /// [`DbiError::MaskCountMismatch`] rather than decoding with the
    /// wrong masks.
    ///
    /// # Panics
    ///
    /// Panics when `rows` does not lie inside `src`'s mask column.
    pub fn load_wire_image(
        &mut self,
        src: &BurstSlab,
        rows: core::ops::Range<usize>,
    ) -> core::result::Result<(), usize> {
        let burst_len = src.burst_len;
        self.reset(burst_len);
        let masks = &src.masks[rows.clone()];
        let bytes = &src.bytes[rows.start * burst_len..rows.end * burst_len];
        self.bytes.resize(bytes.len(), 0);
        self.masks.extend_from_slice(masks);
        // A literal burst length on the standard geometries lets the
        // always-inlined copies unroll their word loops.
        let stray = match burst_len {
            8 => wire_image(8, bytes, &mut self.bytes, masks),
            16 => wire_image(16, bytes, &mut self.bytes, masks),
            _ => wire_image(burst_len, bytes, &mut self.bytes, masks),
        };
        if stray != 0 {
            self.masks.clear();
            return Err(masks
                .iter()
                .position(|mask| mask.validate_for_len(burst_len).is_err())
                .expect("a stray mask bit belongs to some mask"));
        }
        Ok(())
    }

    /// Decodes the slab **in place**: the payload area, currently holding
    /// the DQ lane levels as received off the wire, is rewritten to the
    /// original payload bytes by undoing the per-beat inversions recorded
    /// in the mask column (loaded via [`BurstSlab::load_masks`] or left
    /// over from an encode of the same wire image). `state` carries the
    /// **receiver's** lane state across bursts exactly as the encode side
    /// carries the transmitter's, and holds the post-slab state on return.
    ///
    /// The per-burst cost rows are filled with the wire activity *as
    /// observed by the receiver*, re-priced from the recovered payload and
    /// the mask column through the word-wide pass
    /// (`encoding::price_burst_body`) that the scalar OPT sweep, the AVX2
    /// four-chain block and the per-byte kernel price through too. Against
    /// those encoders the rows are the same computation, not a cross-check;
    /// they are independent only of the AVX2 eight-chain block, which
    /// counts its rows in registers. The recovered payload and the carried
    /// end state are independent of every encoder.
    ///
    /// Performs no heap allocation once the slab's buffers are warm.
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::MaskCountMismatch`] when the mask column does
    /// not cover every burst. The slab is unchanged on error.
    pub fn decode_in_place(&mut self, state: &mut BusState) -> Result<()> {
        self.decode_in_place_chains(core::slice::from_mut(state))
    }

    /// [`BurstSlab::decode_in_place`] over multiple independent chains:
    /// the slab's bursts are split chain-major into `states.len()` runs
    /// (chain `c` owns rows `c·per_chain .. (c+1)·per_chain`), each
    /// decoded with its own carried receiver state — the layout
    /// [`DbiEncoder::encode_lanes_into`](crate::DbiEncoder::encode_lanes_into) encodes. Every chain runs
    /// the SWAR kernel on every dispatch tier: decode has no cross-chain
    /// recurrence to vectorise further, so there is nothing for a tier to
    /// choose.
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::MaskCountMismatch`] when the mask column does
    /// not cover every burst. The slab is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty or the burst count is not a whole
    /// number of chains.
    pub fn decode_in_place_chains(&mut self, states: &mut [BusState]) -> Result<()> {
        let chains = states.len();
        assert!(
            chains > 0,
            "lane-group decode needs at least one chain state"
        );
        let count = self.burst_count();
        if self.masks.len() != count {
            return Err(DbiError::MaskCountMismatch {
                got: self.masks.len(),
                expected: count,
            });
        }
        assert!(
            count.is_multiple_of(chains),
            "slab burst count ({count}) must be a whole number of {chains}-chain columns"
        );
        self.costs.clear();
        if self.is_empty() {
            return Ok(());
        }
        self.costs.resize(count, CostBreakdown::ZERO);
        let per_chain = count / chains;
        let burst_len = self.burst_len;
        for (c, state) in states.iter_mut().enumerate() {
            let rows = c * per_chain..(c + 1) * per_chain;
            let bytes = &mut self.bytes[rows.start * burst_len..rows.end * burst_len];
            let masks = &self.masks[rows.clone()];
            let costs = &mut self.costs[rows];
            crate::simd::decode_chain_swar(burst_len, bytes, masks, costs, state);
        }
        Ok(())
    }

    /// Runs the per-burst closure over every burst of `states.len()`
    /// independent chains: the bursts are split chain-major into
    /// `states.len()` runs (chain `c` owns rows `c·per_chain ..
    /// (c+1)·per_chain`), each encoded as its own serial per-burst chain
    /// with its own carried state, recording each burst's mask and
    /// activity. This is the default of [`DbiEncoder::encode_lanes_into`](crate::DbiEncoder::encode_lanes_into)
    /// (which only the brute-force oracle still runs) and the oracle the
    /// lockstep SIMD kernels are differential-tested against. Reuses the slab's internal gather buffer, so a warm slab
    /// performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty or the burst count is not a whole
    /// number of chains.
    pub fn encode_chains_with(
        &mut self,
        states: &mut [BusState],
        mut encode: impl FnMut(&Burst, &BusState) -> InversionMask,
    ) {
        let chains = states.len();
        assert!(
            chains > 0,
            "lane-group encode needs at least one chain state"
        );
        let count = self.burst_count();
        assert!(
            count.is_multiple_of(chains),
            "slab burst count ({count}) must be a whole number of {chains}-chain columns"
        );
        self.prepare_results();
        if self.is_empty() {
            return;
        }
        let per_chain = count / chains;
        let burst_len = self.burst_len;
        let mut scratch = core::mem::take(&mut self.scratch);
        for (c, state) in states.iter_mut().enumerate() {
            for index in c * per_chain..(c + 1) * per_chain {
                let start = index * burst_len;
                scratch.clear();
                scratch.extend_from_slice(&self.bytes[start..start + burst_len]);
                // Move the gather buffer into the burst and recover it
                // after: no allocation per burst.
                let burst = Burst::new(scratch).expect("slab bursts are never empty");
                let mask = encode(&burst, state);
                self.costs[index] = mask.breakdown(&burst, state);
                *state = mask.final_state(&burst, state);
                self.masks[index] = mask;
                scratch = burst.into_bytes();
            }
        }
        self.scratch = scratch;
    }
}

/// Transposes the row-major `rows × cols` byte matrix `src` into `dst`
/// (row-major `cols × rows`): `dst[c·rows + r] = src[r·cols + c]`. The
/// chain-major ⇄ beat-interleaved conversion of the slab plane.
///
/// One chain is a copy. Two, four and eight chains — the x16, x32 and
/// x64 channels — go through [`transpose_narrow_cols`] (de-interleave)
/// and [`transpose_narrow_rows`] (re-interleave): sixteen beats per SSSE3
/// step on the AVX2 dispatch tier, 8×8-byte SWAR tiles otherwise. The
/// beats left over past the last whole step or tile, and every other
/// chain count, run a byte loop whose inner loop walks the longer
/// dimension.
fn transpose(src: &[u8], dst: &mut [u8], cols: usize) {
    debug_assert_eq!(src.len(), dst.len());
    if src.is_empty() {
        return;
    }
    let rows = src.len() / cols;
    match (rows, cols) {
        (1, _) | (_, 1) => dst.copy_from_slice(src),
        (_, 2) => transpose_narrow_cols::<2>(src, dst),
        (_, 4) => transpose_narrow_cols::<4>(src, dst),
        (_, 8) => transpose_narrow_cols::<8>(src, dst),
        (2, _) => transpose_narrow_rows::<2>(src, dst),
        (4, _) => transpose_narrow_rows::<4>(src, dst),
        (8, _) => transpose_narrow_rows::<8>(src, dst),
        _ if rows >= cols => transpose_rows_from(src, dst, cols, 0),
        _ => transpose_cols_from(src, dst, cols, 0),
    }
}

/// Byte-loop [`transpose`] of source rows `from..`, every column; the
/// inner loop walks the rows.
fn transpose_rows_from(src: &[u8], dst: &mut [u8], cols: usize, from: usize) {
    let rows = src.len() / cols;
    for (c, column) in dst.chunks_exact_mut(rows).enumerate() {
        for (out, row) in column[from..]
            .iter_mut()
            .zip(src[from * cols..].chunks_exact(cols))
        {
            *out = row[c];
        }
    }
}

/// Byte-loop [`transpose`] of source columns `from..`, every row; the
/// inner loop walks the columns.
fn transpose_cols_from(src: &[u8], dst: &mut [u8], cols: usize, from: usize) {
    let rows = src.len() / cols;
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &byte) in row.iter().enumerate().skip(from) {
            dst[c * rows + r] = byte;
        }
    }
}

/// [`transpose`] of a `rows × N` matrix, `N` dividing 8 (de-interleaving
/// `N` chains): the SIMD tier when dispatch selected it
/// ([`crate::simd::transpose_cols_simd`]), else [`transpose_tiled_cols`];
/// the byte loop finishes the rows either leaves.
fn transpose_narrow_cols<const N: usize>(src: &[u8], dst: &mut [u8]) {
    let done = crate::simd::transpose_cols_simd::<N>(src, dst)
        .unwrap_or_else(|| transpose_tiled_cols::<N>(src, dst));
    transpose_rows_from(src, dst, N, done);
}

/// [`transpose`] of an `N × cols` matrix, `N` dividing 8 (re-interleaving
/// `N` chains): the mirror of [`transpose_narrow_cols`].
fn transpose_narrow_rows<const N: usize>(src: &[u8], dst: &mut [u8]) {
    let done = crate::simd::transpose_rows_simd::<N>(src, dst)
        .unwrap_or_else(|| transpose_tiled_rows::<N>(src, dst));
    transpose_cols_from(src, dst, src.len() / N, done);
}

/// Tiled SWAR body of [`transpose_narrow_cols`]. An 8×8 tile stacks
/// `8 / N` blocks of eight consecutive rows side by side — word `i`
/// holds rows `i`, `8 + i`, … of the tile's `64 / N` rows — so after
/// [`transpose_8x8`] word `k·N + c` is column `c` of block `k`: eight
/// consecutive output bytes. Returns the rows done (whole tiles).
fn transpose_tiled_cols<const N: usize>(src: &[u8], dst: &mut [u8]) -> usize {
    let rows = src.len() / N;
    let blocks = 8 / N;
    for (tile, chunk) in src.chunks_exact(64).enumerate() {
        let chunk: &[u8; 64] = chunk.try_into().expect("64-byte tile");
        let mut words = [0u64; 8];
        for (i, word) in words.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            for k in 0..blocks {
                let at = (8 * k + i) * N;
                bytes[k * N..(k + 1) * N].copy_from_slice(&chunk[at..at + N]);
            }
            *word = u64::from_le_bytes(bytes);
        }
        transpose_8x8(&mut words);
        for (j, word) in words.iter().enumerate() {
            let (k, c) = (j / N, j % N);
            let at = c * rows + tile * (64 / N) + 8 * k;
            dst[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
    }
    src.len() / 64 * 64 / N
}

/// Tiled SWAR body of [`transpose_narrow_rows`], the mirror of
/// [`transpose_tiled_cols`]. Word `k·N + r` of a tile holds eight
/// consecutive bytes of row `r`, block `k`, so after [`transpose_8x8`]
/// bytes `k·N .. (k+1)·N` of word `j` are one whole output row. Returns
/// the columns done (whole tiles).
fn transpose_tiled_rows<const N: usize>(src: &[u8], dst: &mut [u8]) -> usize {
    let cols = src.len() / N;
    let span = 64 / N;
    let blocks = 8 / N;
    for tile in 0..cols / span {
        let mut words = [0u64; 8];
        for (i, word) in words.iter_mut().enumerate() {
            let (k, r) = (i / N, i % N);
            let at = r * cols + tile * span + 8 * k;
            *word = u64::from_le_bytes(src[at..at + 8].try_into().expect("8-byte run"));
        }
        transpose_8x8(&mut words);
        for (j, word) in words.iter().enumerate() {
            let bytes = word.to_le_bytes();
            for k in 0..blocks {
                let at = (tile * span + 8 * k + j) * N;
                dst[at..at + N].copy_from_slice(&bytes[k * N..(k + 1) * N]);
            }
        }
    }
    cols / span * span
}

/// Transposes an 8×8 byte matrix held as eight little-endian row words
/// in place (byte `j` of word `i` ⇄ byte `i` of word `j`): three rounds of
/// masked swaps, of 4×4, 2×2 and 1×1 blocks.
fn transpose_8x8(words: &mut [u64; 8]) {
    for i in 0..4 {
        let t = ((words[i] >> 32) ^ words[i + 4]) & 0x0000_0000_FFFF_FFFF;
        words[i] ^= t << 32;
        words[i + 4] ^= t;
    }
    for i in [0, 1, 4, 5] {
        let t = ((words[i] >> 16) ^ words[i + 2]) & 0x0000_FFFF_0000_FFFF;
        words[i] ^= t << 16;
        words[i + 2] ^= t;
    }
    for i in [0, 2, 4, 6] {
        let t = ((words[i] >> 8) ^ words[i + 1]) & 0x00FF_00FF_00FF_00FF;
        words[i] ^= t << 8;
        words[i + 1] ^= t;
    }
}

/// The body of [`BurstSlab::load_wire_image`]: writes each burst of
/// `src` XORed with its widened mask into `dst`, eight beats per word,
/// and returns the OR of every mask bit beyond the burst length (zero
/// when every mask fits).
#[inline(always)]
fn wire_image(burst_len: usize, src: &[u8], dst: &mut [u8], masks: &[InversionMask]) -> u32 {
    let spread = |bits: u32| crate::simd::SPREAD_FLIP[(bits & 0xFF) as usize];
    let beyond = u32::MAX.checked_shl(burst_len as u32).unwrap_or(0);
    let mut stray = 0;
    for ((out, burst), mask) in dst
        .chunks_exact_mut(burst_len)
        .zip(src.chunks_exact(burst_len))
        .zip(masks)
    {
        let mut bits = mask.bits();
        stray |= bits & beyond;
        let mut outs = out.chunks_exact_mut(8);
        let mut ins = burst.chunks_exact(8);
        for (out, word) in (&mut outs).zip(&mut ins) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            out.copy_from_slice(&(word ^ spread(bits)).to_le_bytes());
            bits >>= 8;
        }
        let flip = spread(bits).to_le_bytes();
        for ((out, &byte), flip) in outs
            .into_remainder()
            .iter_mut()
            .zip(ins.remainder())
            .zip(flip)
        {
            *out = byte ^ flip;
        }
    }
    stray
}

/// One chain's slice of a multi-chain slab, as carved out by
/// [`BurstSlab::chain_view`]: the payload bytes, inversion decisions and
/// cost rows of the bursts that chain owns, in chain order. Borrowed, so
/// reading a packed dispatch back costs no allocation.
#[derive(Debug, Clone, Copy)]
pub struct ChainView<'a> {
    bytes: &'a [u8],
    masks: &'a [InversionMask],
    costs: &'a [CostBreakdown],
    burst_len: usize,
}

impl<'a> ChainView<'a> {
    /// The chain's payload bytes, burst-major.
    #[must_use]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The payload bytes of burst `index` within the chain, if it exists.
    #[must_use]
    pub fn burst_bytes(&self, index: usize) -> Option<&'a [u8]> {
        let start = index.checked_mul(self.burst_len)?;
        self.bytes.get(start..start + self.burst_len)
    }

    /// The chain's per-burst inversion decisions (empty before the first
    /// encode).
    #[must_use]
    pub fn masks(&self) -> &'a [InversionMask] {
        self.masks
    }

    /// The chain's per-burst activity rows (empty before the first
    /// encode).
    #[must_use]
    pub fn costs(&self) -> &'a [CostBreakdown] {
        self.costs
    }

    /// Total activity across the chain's bursts.
    #[must_use]
    pub fn total(&self) -> CostBreakdown {
        self.costs.iter().copied().sum()
    }

    /// Bursts in the chain.
    #[must_use]
    pub fn burst_count(&self) -> usize {
        self.bytes.len() / self.burst_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{DbiEncoder, Scheme};

    #[test]
    fn geometry_and_push_rules() {
        let mut slab = BurstSlab::with_capacity(4, 8);
        assert_eq!(slab.burst_len(), 4);
        assert!(slab.is_empty());
        slab.push_bytes(&[1, 2, 3, 4]).unwrap();
        assert_eq!(slab.burst_count(), 1);
        assert_eq!(slab.burst_bytes(0), Some(&[1u8, 2, 3, 4][..]));
        assert_eq!(slab.burst_bytes(1), None);
        assert!(matches!(
            slab.push_bytes(&[1, 2, 3]),
            Err(DbiError::BurstTooLong { len: 3, max: 4 })
        ));
        assert!(slab.extend_from_bytes(&[0; 6]).is_err());
        assert!(slab.extend_from_bytes(&[]).is_err());
        slab.extend_from_bytes(&[0; 8]).unwrap();
        assert_eq!(slab.burst_count(), 3);
        slab.push_with(|out| out.extend_from_slice(&[9, 9, 9, 9]));
        assert_eq!(slab.burst_count(), 4);

        slab.reset(8);
        assert!(slab.is_empty());
        assert_eq!(slab.burst_len(), 8);
        slab.extend_from_bursts(&[Burst::paper_example()]).unwrap();
        assert_eq!(slab.burst_count(), 1);
        assert!(slab
            .extend_from_bursts(&[Burst::from_slice(&[1, 2]).unwrap()])
            .is_err());
        assert!(format!("{slab:?}").contains("BurstSlab"));
    }

    #[test]
    #[should_panic(expected = "inversion-mask limit")]
    fn zero_burst_len_panics() {
        let _ = BurstSlab::new(0);
    }

    #[test]
    #[should_panic(expected = "exactly one burst")]
    fn short_fill_panics() {
        let mut slab = BurstSlab::new(8);
        slab.push_with(|out| out.push(1));
    }

    #[test]
    fn empty_slab_encodes_to_nothing_and_keeps_state() {
        let mut slab = BurstSlab::new(8);
        let mut state = BusState::new(crate::word::LaneWord::ALL_ZEROS);
        let before = state;
        Scheme::OptFixed.encode_lanes_into(&mut slab, core::slice::from_mut(&mut state));
        assert_eq!(state, before);
        assert!(slab.masks().is_empty());
        assert_eq!(slab.total(), CostBreakdown::ZERO);
    }

    #[test]
    fn chain_views_carve_a_packed_encode_back_apart() {
        // Three independent 4-burst chains in one slab: the per-chain
        // views must return exactly the rows a per-chain encode of the
        // same bytes would have produced.
        let mut slab = BurstSlab::new(8);
        let bytes: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        slab.extend_from_bytes(&bytes).unwrap();
        let mut states = [BusState::idle(); 3];
        Scheme::OptFixed.encode_lanes_into(&mut slab, &mut states);

        for chain in 0..3 {
            let view = slab.chain_view(chain, 3);
            assert_eq!(view.burst_count(), 4);
            assert_eq!(view.bytes(), &bytes[chain * 32..(chain + 1) * 32]);
            assert_eq!(
                view.burst_bytes(0),
                Some(&bytes[chain * 32..chain * 32 + 8])
            );
            assert_eq!(view.burst_bytes(4), None);

            let mut solo = BurstSlab::new(8);
            solo.extend_from_bytes(view.bytes()).unwrap();
            let mut state = BusState::idle();
            Scheme::OptFixed.encode_lanes_into(&mut solo, core::slice::from_mut(&mut state));
            assert_eq!(view.masks(), solo.masks());
            assert_eq!(view.costs(), solo.costs());
            assert_eq!(view.total(), solo.total());
            assert_eq!(states[chain], state);
        }
    }

    #[test]
    fn wire_image_matches_the_per_burst_complement_at_every_length() {
        for burst_len in 1..=32usize {
            let mut src = BurstSlab::new(burst_len);
            let bytes: Vec<u8> = (0..burst_len * 7)
                .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).to_le_bytes()[3])
                .collect();
            src.extend_from_bytes(&bytes).unwrap();
            let width = u32::MAX >> (32 - burst_len);
            let masks: Vec<InversionMask> = (0..7u32)
                .map(|i| InversionMask::from_bits(i.wrapping_mul(0x2545_F491) & width))
                .collect();
            src.load_masks(&masks).unwrap();

            // Rows 2..6 of the source, into a slab primed for another
            // length: it takes the source's.
            let mut wire = BurstSlab::new(if burst_len == 8 { 16 } else { 8 });
            wire.load_wire_image(&src, 2..6).unwrap();
            assert_eq!(wire.burst_len(), burst_len);
            let mut expected = bytes[2 * burst_len..6 * burst_len].to_vec();
            for (burst, mask) in expected.chunks_exact_mut(burst_len).zip(&masks[2..6]) {
                mask.apply_in_place(burst);
            }
            assert_eq!(wire.bytes(), &expected[..], "len={burst_len}");
            assert_eq!(wire.masks(), &masks[2..6], "len={burst_len}");
            assert!(wire.costs().is_empty());
            let mut state = BusState::idle();
            wire.decode_in_place(&mut state).unwrap();
            assert_eq!(wire.bytes(), &bytes[2 * burst_len..6 * burst_len]);

            if burst_len == 32 {
                continue;
            }
            // A mask wider than the burst at source row 4: reported as
            // row 2 of the range, with the mask column left cleared.
            let (_, raw, _) = src.encode_parts_mut();
            raw.copy_from_slice(&masks);
            raw[4] = InversionMask::from_bits(masks[4].bits() | 1 << burst_len);
            raw[5] = InversionMask::from_bits(1 << 31);
            assert_eq!(wire.load_wire_image(&src, 2..6), Err(2), "len={burst_len}");
            assert!(wire.masks().is_empty());
            assert!(matches!(
                wire.decode_in_place(&mut state),
                Err(DbiError::MaskCountMismatch {
                    got: 0,
                    expected: 4
                })
            ));
            assert_eq!(wire.load_wire_image(&src, 0..4), Ok(()));
        }
    }

    /// Both builds of the two-, four- and eight-chain transposes, called
    /// directly — the SSSE3 steps where the CPU has them and the tiled
    /// SWAR path — in both directions, finished by the byte loop and
    /// compared against the byte loop alone, at beat counts straddling
    /// the 16-beat SIMD step and the SWAR tile. Dispatch runs only one
    /// build per process, so this is where the other one is checked.
    #[test]
    fn both_transpose_builds_match_the_byte_loop() {
        type Build = fn(&[u8], &mut [u8]) -> Option<usize>;
        fn run<const N: usize>() {
            #[allow(unused_mut)]
            let mut builds: Vec<(&str, usize, Build, Build)> = vec![(
                "tiled",
                64 / N,
                |src, dst| Some(transpose_tiled_cols::<N>(src, dst)),
                |src, dst| Some(transpose_tiled_rows::<N>(src, dst)),
            )];
            #[cfg(target_arch = "x86_64")]
            builds.push((
                "ssse3",
                16,
                crate::simd::transpose_cols_ssse3::<N>,
                crate::simd::transpose_rows_ssse3::<N>,
            ));
            for beats in [1usize, 15, 16, 17, 31, 32, 33, 512] {
                let src: Vec<u8> = (0..beats * N)
                    .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).to_le_bytes()[3])
                    .collect();
                let mut cols_ref = vec![0u8; src.len()];
                transpose_rows_from(&src, &mut cols_ref, N, 0);
                let mut rows_ref = vec![0u8; src.len()];
                transpose_cols_from(&src, &mut rows_ref, beats, 0);
                for &(name, step, cols, rows) in &builds {
                    let label = format!("{name}, {N} chains, {beats} beats");
                    let mut out = vec![0xEEu8; src.len()];
                    let Some(done) = cols(&src, &mut out) else {
                        continue;
                    };
                    assert_eq!(done, beats / step * step, "{label}: de-interleave steps");
                    transpose_rows_from(&src, &mut out, N, done);
                    assert_eq!(out, cols_ref, "{label}: de-interleave");

                    let mut out = vec![0xEEu8; src.len()];
                    let done = rows(&src, &mut out).expect("the same build ran above");
                    assert_eq!(done, beats / step * step, "{label}: re-interleave steps");
                    transpose_cols_from(&src, &mut out, beats, done);
                    assert_eq!(out, rows_ref, "{label}: re-interleave");
                }
            }
        }
        run::<2>();
        run::<4>();
        run::<8>();
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn chain_view_rejects_ragged_chains() {
        let mut slab = BurstSlab::new(8);
        slab.extend_from_bytes(&[0u8; 24]).unwrap();
        let _ = slab.chain_view(0, 2);
    }
}
