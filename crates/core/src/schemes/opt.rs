//! DBI OPT: the optimal shortest-path encoder (the paper's contribution).

use crate::burst::{Burst, BusState};
use crate::cost::{CostBreakdown, CostWeights};
use crate::encoding::InversionMask;
use crate::lut::CostLut;
use crate::schemes::DbiEncoder;
use crate::simd::KernelKind;
use crate::slab::BurstSlab;
use crate::word::LaneWord;

/// The optimal DC/AC DBI encoder of Section III of the paper.
///
/// Finding the minimum-energy inversion pattern for a whole burst is a
/// shortest-path problem on a trellis with two nodes per byte (transmit
/// inverted / not inverted). Because every node has exactly two incoming
/// edges, the shortest path is computed with a single forward
/// dynamic-programming sweep (Viterbi-style) followed by a backtrack — the
/// same structure the paper's hardware pipeline in Fig. 5 implements with
/// one processing block per byte.
///
/// Edge weights are `alpha · transitions + beta · zeros`. They are not
/// recomputed from lane words: the encoder carries a precomputed
/// [`CostLut`] (built once in [`OptEncoder::new`], at compile time for the
/// fixed-coefficient variant), so each trellis stage is a byte XOR, four
/// table lookups and a pair of compare/adds.
///
/// The fast path, [`DbiEncoder::encode_mask`], runs the sweep with its
/// per-stage predecessor choices packed into two `u32` bit sets and
/// performs **no heap allocation at all**; [`DbiEncoder::encode`] merely
/// applies the resulting mask to an [`EncodedBurst`](crate::EncodedBurst)
/// whose inline symbol buffer keeps standard bursts off the heap as well.
/// This is the software counterpart of the paper's line-rate hardware
/// claim, and the reference model the `dbi-hw` crate checks its
/// cycle-accurate datapath against.
///
/// ```
/// # fn main() -> Result<(), dbi_core::DbiError> {
/// use dbi_core::{Burst, BusState, CostWeights};
/// use dbi_core::schemes::{DbiEncoder, OptEncoder};
///
/// let weights = CostWeights::new(1, 1)?;
/// let burst = Burst::paper_example();
/// let state = BusState::idle();
/// let encoded = OptEncoder::new(weights).encode(&burst, &state);
/// // Fig. 2: the optimal encoding costs 28 zeros + 24 transitions = 52.
/// assert_eq!(encoded.cost(&state, &weights), 52);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptEncoder {
    lut: CostLut,
}

impl OptEncoder {
    /// Creates an optimal encoder with the given coefficients, precomputing
    /// the edge-cost tables. `const`, so fixed-weight encoders can live in
    /// `static`s with their tables baked at compile time.
    #[must_use]
    pub const fn new(weights: CostWeights) -> Self {
        OptEncoder {
            lut: CostLut::new(weights),
        }
    }

    /// The coefficients used by this encoder.
    #[must_use]
    pub const fn weights(&self) -> CostWeights {
        self.lut.weights()
    }

    /// The precomputed edge-cost tables used by this encoder.
    #[must_use]
    pub const fn lut(&self) -> &CostLut {
        &self.lut
    }

    /// Runs the forward Viterbi sweep and returns, per byte, the cheaper
    /// predecessor decision for each of the two states, plus the final
    /// per-state path costs. Exposed for the hardware model, which mirrors
    /// exactly this structure.
    ///
    /// Unlike [`DbiEncoder::encode_mask`], this works for bursts of any
    /// length (the returned vector grows with the burst).
    #[must_use]
    pub fn forward_sweep(&self, burst: &Burst, state: &BusState) -> (Vec<[bool; 2]>, [u64; 2]) {
        // cost[s] = minimum cost of transmitting bytes 0..=i with byte i in
        // state s (0 = not inverted, 1 = inverted).
        let mut choice: Vec<[bool; 2]> = Vec::with_capacity(burst.len());
        let bytes = burst.bytes();

        let (plain, inverted) = self.lut.first_step(bytes[0], state.last());
        let mut cost = [plain, inverted];
        choice.push([false; 2]);
        let mut prev_byte = bytes[0];

        for &byte in &bytes[1..] {
            let (next_cost, stage_choice) = self.step(cost, prev_byte, byte);
            cost = next_cost;
            choice.push(stage_choice);
            prev_byte = byte;
        }
        (choice, cost)
    }

    /// One trellis stage: given the path costs of the previous byte's two
    /// states, returns the costs for the current byte and which predecessor
    /// realised each (ties towards the non-inverted predecessor, mirroring
    /// the hardware comparator's default).
    ///
    /// This is the single definition of the DP recurrence, generic over the
    /// cost accumulator: [`OptEncoder::forward_sweep`] instantiates it with
    /// `u64` (bursts of any length), [`DbiEncoder::encode_mask`] with `u32`
    /// (mask-sized bursts stay far below `u32::MAX` because
    /// [`crate::cost::MAX_WEIGHT`] caps the coefficients). Monomorphisation
    /// plus `#[inline]` keeps the fast path as tight as a hand-inlined
    /// copy.
    #[inline]
    fn step<T>(&self, cost: [T; 2], prev_byte: u8, byte: u8) -> ([T; 2], [bool; 2])
    where
        T: Copy + Ord + core::ops::Add<Output = T> + From<u32>,
    {
        let xor = prev_byte ^ byte;
        let [same, cross] = self.lut.transitions(xor);
        let (same, cross) = (T::from(same), T::from(cross));
        let [zeros_plain, zeros_inv] = self.lut.zeros(byte);
        let (zeros_plain, zeros_inv) = (T::from(zeros_plain), T::from(zeros_inv));

        // Current byte transmitted plain: predecessors are plain (same
        // state) or inverted (state change).
        let via_plain = cost[0] + same;
        let via_inverted = cost[1] + cross;
        let (cost_plain, from_inv_plain) = if via_inverted < via_plain {
            (via_inverted + zeros_plain, true)
        } else {
            (via_plain + zeros_plain, false)
        };

        // Current byte transmitted inverted: the roles swap.
        let via_plain = cost[0] + cross;
        let via_inverted = cost[1] + same;
        let (cost_inv, from_inv_inv) = if via_inverted < via_plain {
            (via_inverted + zeros_inv, true)
        } else {
            (via_plain + zeros_inv, false)
        };

        ([cost_plain, cost_inv], [from_inv_plain, from_inv_inv])
    }

    /// The weighted costs of the first trellis stage, entered from the
    /// previous burst's *decoded data byte* and DBI lane level instead of
    /// a materialised [`LaneWord`]. Algebraically identical to
    /// [`CostLut::first_step`] by the lane identities of [`crate::lut`]
    /// plus one complement symmetry: with `x = last_data ^ first`,
    /// `transition_same(!x) = transition_cross(x) − α` and
    /// `transition_cross(!x) = transition_same(x) + α`, so folding in the
    /// DBI-lane toggle (`± α·prev_low`) collapses both possible previous
    /// lane states onto the *same two table loads* with their roles
    /// swapped. The entire inter-burst dependency of a slab chain is
    /// therefore the one `prev_low` bit steering two conditional moves —
    /// every load and popcount is indexed by pure input data, which is
    /// what lets consecutive bursts' sweeps overlap in the pipeline.
    #[inline]
    pub(crate) fn entry_costs(&self, first: u8, last_data: u8, prev_low: bool) -> (u32, u32) {
        let x = last_data ^ first;
        let same = self.lut.transition_same(x);
        let cross = self.lut.transition_cross(x);
        // Branchless conditional swap: `prev_low` is a data-dependent
        // coin flip in a stream, so a branch here would mispredict every
        // other burst.
        let swap = (same ^ cross) & u32::from(prev_low).wrapping_neg();
        (
            (same ^ swap) + self.lut.zeros_plain(first),
            (cross ^ swap) + self.lut.zeros_inverted(first),
        )
    }

    /// The bit-packed survivor-mask Viterbi sweep over raw payload bytes:
    /// the body of [`DbiEncoder::encode_mask`], entered from an arbitrary
    /// 9-bit lane state — any [`LaneWord`] is its decoded byte plus its
    /// DBI level, which is the chained entry form of
    /// [`OptEncoder::entry_costs`].
    ///
    /// `bytes` must be non-empty and at most 32 bytes (the mask width);
    /// both invariants are upheld by every caller's geometry checks.
    #[inline]
    fn mask_kernel(&self, bytes: &[u8], prev: LaneWord) -> InversionMask {
        let (last_data, prev_low) = (prev.decode(), prev.dbi().is_inverted());
        // mask_plain/mask_inv: the inversion decisions of the cheapest path
        // that reaches the current byte in state plain/inverted — the
        // survivor paths, updated in registers instead of backtracked.
        let mut mask_plain = 0u32;
        let mut mask_inv = 1u32;

        let (mut cost_plain, mut cost_inv) = self.entry_costs(bytes[0], last_data, prev_low);
        let mut prev_byte = bytes[0];

        for (i, &byte) in bytes.iter().enumerate().skip(1) {
            let ([next_plain, next_inv], [from_inv_plain, from_inv_inv]) =
                self.step([cost_plain, cost_inv], prev_byte, byte);
            let next_plain_mask = if from_inv_plain { mask_inv } else { mask_plain };
            let next_inv_mask = (if from_inv_inv { mask_inv } else { mask_plain }) | (1 << i);
            cost_plain = next_plain;
            cost_inv = next_inv;
            mask_plain = next_plain_mask;
            mask_inv = next_inv_mask;
            prev_byte = byte;
        }

        // The cheaper end state wins (ties towards non-inverted, as in the
        // hardware's final comparator).
        InversionMask::from_bits(if cost_inv < cost_plain {
            mask_inv
        } else {
            mask_plain
        })
    }

    /// One fused trellis sweep over a single burst's raw bytes: the
    /// survivor-mask Viterbi of [`OptEncoder::mask_kernel`] with each
    /// survivor path's **raw** zero and transition counts carried along
    /// through the same predecessor selects. The accumulators hang off
    /// the decision flags but never feed the cost-compare chain, so on a
    /// superscalar core they ride in otherwise-idle ports — pricing the
    /// winning path costs almost nothing over the sweep itself, where a
    /// separate [`InversionMask::breakdown`] walk would rebuild a
    /// [`LaneWord`] per byte.
    ///
    /// Raw increments use the identities of [`crate::lut`] (exhaustively
    /// proven against the lane-word arithmetic there): a byte of
    /// popcount *p* transmits `8 − p` zeros plain and `p + 1` inverted,
    /// and a step of XOR-popcount *d* toggles `d` lanes when the state
    /// holds and `9 − d` when it flips. Returns the winning mask and its
    /// breakdown; it enters from the previous driven payload byte and DBI
    /// level, so slab chains never materialise a [`LaneWord`].
    #[inline]
    fn slab_burst_kernel(
        &self,
        bytes: &[u8],
        last_data: u8,
        prev_low: bool,
    ) -> (InversionMask, CostBreakdown) {
        let mut mask_plain = 0u32;
        let mut mask_inv = 1u32;

        let first = bytes[0];
        let (mut cost_plain, mut cost_inv) = self.entry_costs(first, last_data, prev_low);
        let first_ones = first.count_ones();
        let mut zeros_plain = 8 - first_ones;
        let mut zeros_inv = first_ones + 1;
        // Raw entry transitions, by the same complement symmetry as
        // `entry_costs`: with p = popcount(last_data ^ first), the plain
        // word toggles p lanes after a high DBI (9 − p after a low one)
        // and the inverted word the complement — one popcount on pure
        // input data plus a conditional swap.
        let p = (last_data ^ first).count_ones();
        let anti = 9 - p;
        let swap = (p ^ anti) & u32::from(prev_low).wrapping_neg();
        let mut trans_plain = p ^ swap;
        let mut trans_inv = anti ^ swap;
        let mut prev_byte = first;

        for (i, &byte) in bytes.iter().enumerate().skip(1) {
            let ([next_plain, next_inv], [from_inv_plain, from_inv_inv]) =
                self.step([cost_plain, cost_inv], prev_byte, byte);
            let same = (prev_byte ^ byte).count_ones();
            let cross = 9 - same;
            let ones = byte.count_ones();

            // Branchless predecessor selects: the flags are data-dependent
            // coin flips, so a compare-and-branch would mispredict every
            // other byte; all-ones masks keep the updates in straight-line
            // ALU code off the cost chain's critical path.
            let sel_plain = (from_inv_plain as u32).wrapping_neg();
            let sel_inv = (from_inv_inv as u32).wrapping_neg();

            // Current byte plain: an inverted predecessor flips the state.
            let next_mask_plain = (mask_inv & sel_plain) | (mask_plain & !sel_plain);
            let next_zeros_plain =
                ((zeros_inv & sel_plain) | (zeros_plain & !sel_plain)) + (8 - ones);
            let next_trans_plain = ((trans_inv & sel_plain) | (trans_plain & !sel_plain))
                + ((cross & sel_plain) | (same & !sel_plain));

            // Current byte inverted: an inverted predecessor keeps it.
            let next_mask_inv = ((mask_inv & sel_inv) | (mask_plain & !sel_inv)) | (1 << i);
            let next_zeros_inv = ((zeros_inv & sel_inv) | (zeros_plain & !sel_inv)) + (ones + 1);
            let next_trans_inv = ((trans_inv & sel_inv) | (trans_plain & !sel_inv))
                + ((same & sel_inv) | (cross & !sel_inv));

            cost_plain = next_plain;
            cost_inv = next_inv;
            mask_plain = next_mask_plain;
            mask_inv = next_mask_inv;
            zeros_plain = next_zeros_plain;
            zeros_inv = next_zeros_inv;
            trans_plain = next_trans_plain;
            trans_inv = next_trans_inv;
            prev_byte = byte;
        }

        // The cheaper end state wins (ties towards non-inverted, as in
        // the hardware's final comparator and in `encode_mask`).
        let (mask, zeros, transitions) = if cost_inv < cost_plain {
            (mask_inv, zeros_inv, trans_inv)
        } else {
            (mask_plain, zeros_plain, trans_plain)
        };
        (
            InversionMask::from_bits(mask),
            CostBreakdown::new(u64::from(zeros), u64::from(transitions)),
        )
    }

    /// The slab burst loop. Always inlined so the standard-length call
    /// sites in [`OptEncoder::encode_chain_scalar`] propagate their
    /// literal `burst_len` into the chunking and the kernel's sweep.
    #[inline(always)]
    fn slab_runs(
        &self,
        burst_len: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        last_data: &mut u8,
        prev_low: &mut bool,
    ) {
        for ((chunk, mask_slot), cost_slot) in bytes
            .chunks_exact(burst_len)
            .zip(masks.iter_mut())
            .zip(costs.iter_mut())
        {
            let (mask, breakdown) = self.slab_burst_kernel(chunk, *last_data, *prev_low);
            *mask_slot = mask;
            *cost_slot = breakdown;
            *last_data = chunk[burst_len - 1];
            *prev_low = mask.is_inverted(burst_len - 1);
        }
    }

    /// One chain through the scalar oracle: one fused pass per burst over
    /// the chain's contiguous payload — no [`Burst`] construction, no
    /// per-burst dispatch, no separate pricing walk, and `chunks_exact`
    /// hoists the bounds checks out of the burst loop. Bit-identical to
    /// the serial per-burst chain: the sweep is the `encode_mask`
    /// recurrence and the fused accumulators reproduce
    /// [`InversionMask::breakdown`] exactly (`tests/slab_differential.rs`).
    fn encode_chain_scalar(
        &self,
        burst_len: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        state: &mut BusState,
    ) {
        // The inter-burst chain is two scalars: the data byte the wires
        // last carried and the DBI lane level — and of the two, only the
        // one-bit level is a *computed* value (the byte comes straight
        // from the input), so consecutive bursts' sweeps overlap in the
        // pipeline. A LaneWord is rebuilt exactly once, at the end, for
        // the reported state.
        let entry = state.last();
        let mut last_data = entry.decode();
        let mut prev_low = entry.dbi().is_inverted();
        let (last, low) = (&mut last_data, &mut prev_low);
        // Dispatching on the standard burst lengths hands `slab_runs` a
        // literal trip count: the always-inlined copies get their sweeps
        // fully unrolled — the geometry of a slab is fixed, which is an
        // edge the per-burst entry point can never exploit.
        match burst_len {
            8 => self.slab_runs(8, bytes, masks, costs, last, low),
            16 => self.slab_runs(16, bytes, masks, costs, last, low),
            _ => self.slab_runs(burst_len, bytes, masks, costs, last, low),
        }
        *state = BusState::new(LaneWord::encode_byte(last_data, prev_low));
    }

    /// [`DbiEncoder::encode_lanes_into`] with an explicit kernel tier —
    /// the differential-test surface: every [`KernelKind`] must produce
    /// bit-identical masks, cost rows and carried states.
    ///
    /// The slab is treated as `states.len()` independent chains laid out
    /// chain-major (chain `c`'s bursts occupy rows `c·per_chain ..
    /// (c+1)·per_chain`), each carrying its own [`BusState`] — the shape
    /// of a multi-lane-group channel. Chains are swept in lockstep
    /// blocks: eight at a time on the AVX2 BL8 kernel, four at a time on
    /// the SSE2/NEON tiers, scalar for the remainder (and for
    /// [`KernelKind::Scalar`], which runs every chain through the scalar
    /// oracle). Arch kernels requested on an architecture where they are
    /// not compiled fall back to the scalar oracle.
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty or the slab's burst count is not a
    /// whole number of chains.
    pub fn encode_lanes_into_with(
        &self,
        kernel: KernelKind,
        slab: &mut BurstSlab,
        states: &mut [BusState],
    ) {
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

        let mut c = 0usize;
        #[cfg(target_arch = "x86_64")]
        if kernel == KernelKind::Avx2 && burst_len == 8 {
            while c + 8 <= chains {
                let mut chain_data = [0u8; 8];
                let mut chain_low = [false; 8];
                for (k, state) in states[c..c + 8].iter().enumerate() {
                    let entry = state.last();
                    chain_data[k] = entry.decode();
                    chain_low[k] = entry.dbi().is_inverted();
                }
                let rows = c * per_chain..(c + 8) * per_chain;
                // SAFETY: `Avx2` is only selected or listed as available
                // after runtime AVX2 detection succeeded.
                #[allow(unsafe_code)]
                unsafe {
                    crate::simd::encode_block8_avx2(
                        self,
                        per_chain,
                        &bytes[rows.start * burst_len..rows.end * burst_len],
                        &mut masks[rows.clone()],
                        &mut costs[rows],
                        &mut chain_data,
                        &mut chain_low,
                    );
                }
                for (k, state) in states[c..c + 8].iter_mut().enumerate() {
                    *state = BusState::new(LaneWord::encode_byte(chain_data[k], chain_low[k]));
                }
                c += 8;
            }
        }
        if has_block4(kernel) {
            while c + 4 <= chains {
                let mut chain_data = [0u8; 4];
                let mut chain_low = [false; 4];
                for (k, state) in states[c..c + 4].iter().enumerate() {
                    let entry = state.last();
                    chain_data[k] = entry.decode();
                    chain_low[k] = entry.dbi().is_inverted();
                }
                let rows = c * per_chain..(c + 4) * per_chain;
                self.encode_block4(
                    kernel,
                    burst_len,
                    per_chain,
                    &bytes[rows.start * burst_len..rows.end * burst_len],
                    &mut masks[rows.clone()],
                    &mut costs[rows],
                    &mut chain_data,
                    &mut chain_low,
                );
                for (k, state) in states[c..c + 4].iter_mut().enumerate() {
                    *state = BusState::new(LaneWord::encode_byte(chain_data[k], chain_low[k]));
                }
                c += 4;
            }
        }
        for state in states[c..].iter_mut() {
            let rows = c * per_chain..(c + 1) * per_chain;
            self.encode_chain_scalar(
                burst_len,
                &bytes[rows.start * burst_len..rows.end * burst_len],
                &mut masks[rows.clone()],
                &mut costs[rows],
                state,
            );
            c += 1;
        }
    }

    /// Routes a four-chain block to the requested tier's kernel; only
    /// called for tiers [`has_block4`] reports as compiled on this target
    /// (the SSE2 kernel also carries [`KernelKind::Avx2`]'s non-BL8
    /// geometries).
    #[allow(clippy::too_many_arguments)]
    fn encode_block4(
        &self,
        kernel: KernelKind,
        burst_len: usize,
        per_chain: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        last_data: &mut [u8; 4],
        prev_low: &mut [bool; 4],
    ) {
        match kernel {
            // SAFETY: SSE2 is unconditionally part of the x86-64
            // baseline; the kernel's `#[target_feature]` annotation only
            // exists to satisfy the safe-intrinsics rules.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            KernelKind::Sse2 | KernelKind::Avx2 => unsafe {
                crate::simd::encode_block4_sse2(
                    self, burst_len, per_chain, bytes, masks, costs, last_data, prev_low,
                );
            },
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => crate::simd::encode_block4_neon(
                self, burst_len, per_chain, bytes, masks, costs, last_data, prev_low,
            ),
            _ => unreachable!("{kernel} has no four-chain kernel on this target"),
        }
    }
}

/// Whether `kernel` has a four-chain block kernel compiled for this
/// target; tiers that do not fall back to the scalar oracle.
const fn has_block4(kernel: KernelKind) -> bool {
    match kernel {
        KernelKind::Sse2 | KernelKind::Avx2 => cfg!(target_arch = "x86_64"),
        KernelKind::Neon => cfg!(target_arch = "aarch64"),
        KernelKind::Scalar => false,
    }
}

impl Default for OptEncoder {
    /// Defaults to the fixed coefficients α = β = 1.
    fn default() -> Self {
        OptEncoder::new(CostWeights::FIXED)
    }
}

impl DbiEncoder for OptEncoder {
    fn name(&self) -> &str {
        "DBI OPT"
    }

    /// The allocation-free fast path: the full Viterbi sweep with the two
    /// survivor paths carried as `u32` bit masks — pure table lookups, adds
    /// and register-to-register selects; no backtrack pass is needed
    /// because each state's optimal decision history rides along with its
    /// cost.
    ///
    /// Path costs are accumulated in `u32`: a mask-sized burst has at most
    /// 32 stages of at most `9 · MAX_WEIGHT` each, which stays far below
    /// `u32::MAX` ([`crate::cost::MAX_WEIGHT`] is capped for exactly this
    /// reason).
    ///
    /// # Panics
    ///
    /// Panics if the burst is longer than 32 bytes (the mask width).
    #[inline]
    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        let bytes = burst.bytes();
        assert!(
            bytes.len() <= 32,
            "inversion masks cover at most 32 bytes, got {}",
            bytes.len()
        );
        self.mask_kernel(bytes, state.last())
    }

    /// The multi-chain slab encode rides the runtime-selected kernel
    /// tier ([`crate::simd::selected_kernel`]): lockstep SIMD sweeps
    /// across the chains, scalar when pinned via
    /// `DBI_FORCE_SCALAR`. See [`OptEncoder::encode_lanes_into_with`].
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        self.encode_lanes_into_with(crate::simd::selected_kernel(), slab, states);
    }
}

/// The paper's "DBI OPT (Fixed)" variant: the optimal encoder hard-wired to
/// α = β = 1.
///
/// Fixing the coefficients removes the multipliers from the hardware
/// datapath and shrinks its adders, which is what makes the encoder meet
/// the 1.5 GHz timing required for a 12 Gbps GDDR5X interface (Table I)
/// while giving up only a fraction of the achievable energy reduction
/// (Fig. 4). In this software model the fixed variant's cost tables are
/// computed at compile time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptFixedEncoder {
    inner: OptEncoder,
}

impl OptFixedEncoder {
    /// Creates the fixed-coefficient optimal encoder.
    #[must_use]
    pub const fn new() -> Self {
        OptFixedEncoder {
            inner: OptEncoder::new(CostWeights::FIXED),
        }
    }

    /// The fixed coefficients (always α = β = 1).
    #[must_use]
    pub const fn weights(&self) -> CostWeights {
        CostWeights::FIXED
    }

    /// [`OptEncoder::encode_lanes_into_with`] with the fixed
    /// coefficients.
    pub fn encode_lanes_into_with(
        &self,
        kernel: KernelKind,
        slab: &mut BurstSlab,
        states: &mut [BusState],
    ) {
        self.inner.encode_lanes_into_with(kernel, slab, states);
    }
}

impl DbiEncoder for OptFixedEncoder {
    fn name(&self) -> &str {
        "DBI OPT (Fixed)"
    }

    #[inline]
    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        self.inner.encode_mask(burst, state)
    }

    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        self.inner.encode_lanes_into(slab, states);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostBreakdown;
    use crate::schemes::{AcEncoder, DcEncoder, ExhaustiveEncoder};
    use crate::word::LaneWord;

    #[test]
    fn paper_example_optimal_cost_is_52() {
        let weights = CostWeights::FIXED;
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let encoded = OptEncoder::new(weights).encode(&burst, &state);
        let breakdown = encoded.breakdown(&state);
        assert_eq!(breakdown.weighted(&weights), 52);
        // With alpha = beta = 1 two Pareto points of Fig. 2 are tied at 52:
        // (28 zeros, 24 transitions) — the one quoted in Section III — and
        // (29 zeros, 23 transitions). Either is a valid optimum.
        assert!(
            breakdown == CostBreakdown::new(28, 24) || breakdown == CostBreakdown::new(29, 23),
            "unexpected optimal breakdown {breakdown}"
        );
    }

    #[test]
    fn matches_exhaustive_oracle_on_fixed_weights() {
        let weights = CostWeights::FIXED;
        let opt = OptEncoder::new(weights);
        let oracle = ExhaustiveEncoder::new(weights);
        let state = BusState::idle();
        let bursts = [
            Burst::paper_example(),
            Burst::from_array([0x00, 0xFF, 0x0F, 0xF0, 0x55, 0xAA, 0x3C, 0xC3]),
            Burst::from_array([0x11, 0x22, 0x44, 0x88, 0x10, 0x20, 0x40, 0x80]),
            Burst::from_array([0u8; 8]),
            Burst::from_array([0xFFu8; 8]),
        ];
        for burst in bursts {
            let a = opt.encode(&burst, &state).cost(&state, &weights);
            let b = oracle.encode(&burst, &state).cost(&state, &weights);
            assert_eq!(
                a, b,
                "DP optimum must equal brute-force optimum for {burst}"
            );
        }
    }

    #[test]
    fn matches_exhaustive_oracle_on_skewed_weights() {
        let state = BusState::idle();
        let burst = Burst::from_array([0x9E, 0x01, 0x7C, 0xE3, 0x55, 0x0A, 0xB0, 0x4F]);
        for (alpha, beta) in [(0u32, 1u32), (1, 0), (1, 7), (7, 1), (3, 5), (2, 2)] {
            let weights = CostWeights::new(alpha, beta).unwrap();
            let a = OptEncoder::new(weights)
                .encode(&burst, &state)
                .cost(&state, &weights);
            let b = ExhaustiveEncoder::new(weights)
                .encode(&burst, &state)
                .cost(&state, &weights);
            assert_eq!(a, b, "weights ({alpha},{beta})");
        }
    }

    #[test]
    fn degenerates_to_dc_cost_with_beta_only_weights() {
        // Section V: "DBI OPT with alpha = 0 and beta = 1 is identical to DBI DC."
        let weights = CostWeights::DC_ONLY;
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let opt_cost = OptEncoder::new(weights)
            .encode(&burst, &state)
            .cost(&state, &weights);
        let dc_cost = DcEncoder::new()
            .encode(&burst, &state)
            .cost(&state, &weights);
        assert_eq!(opt_cost, dc_cost);
    }

    #[test]
    fn degenerates_to_ac_cost_with_alpha_only_weights() {
        let weights = CostWeights::AC_ONLY;
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let opt_cost = OptEncoder::new(weights)
            .encode(&burst, &state)
            .cost(&state, &weights);
        let ac_cost = AcEncoder::new()
            .encode(&burst, &state)
            .cost(&state, &weights);
        assert_eq!(opt_cost, ac_cost);
    }

    #[test]
    fn never_worse_than_dc_ac_or_raw() {
        use crate::schemes::{RawEncoder, Scheme};
        let state = BusState::idle();
        let bursts = [
            Burst::paper_example(),
            Burst::from_array([0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67]),
            Burst::from_array([0x00, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0xFF, 0xFF]),
        ];
        for (alpha, beta) in [(1u32, 1u32), (1, 4), (4, 1)] {
            let weights = CostWeights::new(alpha, beta).unwrap();
            let opt = OptEncoder::new(weights);
            for burst in &bursts {
                let o = opt.encode(burst, &state).cost(&state, &weights);
                for other in [
                    Scheme::Dc.encode(burst, &state),
                    Scheme::Ac.encode(burst, &state),
                    RawEncoder::new().encode(burst, &state),
                ] {
                    assert!(o <= other.cost(&state, &weights));
                }
            }
        }
    }

    #[test]
    fn works_for_non_standard_burst_lengths() {
        let weights = CostWeights::FIXED;
        let state = BusState::idle();
        for len in [1usize, 2, 3, 5, 13, 16] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let burst = Burst::new(bytes).unwrap();
            let opt = OptEncoder::new(weights).encode(&burst, &state);
            let oracle = ExhaustiveEncoder::new(weights).encode(&burst, &state);
            assert_eq!(
                opt.cost(&state, &weights),
                oracle.cost(&state, &weights),
                "len {len}"
            );
            assert_eq!(opt.decode(), burst);
        }
    }

    #[test]
    fn respects_the_initial_bus_state() {
        // Whatever the previous lane levels are, the DP result must match
        // the brute-force optimum computed from that same state.
        let weights = CostWeights::FIXED;
        let burst = Burst::from_array([0x0F, 0xF0, 0x00, 0xFF, 0x3C, 0xC3, 0x81, 0x7E]);
        for prev in [
            LaneWord::ALL_ONES,
            LaneWord::ALL_ZEROS,
            LaneWord::encode_byte(0x5A, true),
            LaneWord::encode_byte(0x0F, false),
        ] {
            let state = BusState::new(prev);
            let opt = OptEncoder::new(weights).encode(&burst, &state);
            let oracle = ExhaustiveEncoder::new(weights).encode(&burst, &state);
            assert_eq!(opt.cost(&state, &weights), oracle.cost(&state, &weights));
            assert_eq!(opt.decode(), burst);
        }
    }

    #[test]
    fn forward_sweep_shapes() {
        let burst = Burst::paper_example();
        let (choice, final_cost) = OptEncoder::default().forward_sweep(&burst, &BusState::idle());
        assert_eq!(choice.len(), burst.len());
        assert_eq!(final_cost.iter().min().copied().unwrap(), 52);
    }

    #[test]
    fn forward_sweep_agrees_with_encode_mask_backtrack() {
        // The Vec-based sweep (any length) and the bit-packed sweep (mask
        // lengths) are two implementations of the same recurrence; their
        // final costs and backtracked decisions must agree.
        let state = BusState::new(LaneWord::encode_byte(0x3C, true));
        let encoder = OptEncoder::new(CostWeights::new(2, 3).unwrap());
        let burst = Burst::from_array([0x12, 0xEF, 0x00, 0xFF, 0x55, 0xAA, 0x77, 0x88]);
        let (choice, final_cost) = encoder.forward_sweep(&burst, &state);
        let mask = encoder.encode_mask(&burst, &state);

        let mut current = final_cost[1] < final_cost[0];
        for i in (0..burst.len()).rev() {
            assert_eq!(mask.is_inverted(i), current, "byte {i}");
            current = choice[i][usize::from(current)];
        }
    }

    #[test]
    fn fixed_variant_matches_opt_with_unit_weights() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let fixed = OptFixedEncoder::new().encode(&burst, &state);
        let opt = OptEncoder::new(CostWeights::FIXED).encode(&burst, &state);
        assert_eq!(fixed, opt);
        assert_eq!(OptFixedEncoder::new().weights(), CostWeights::FIXED);
        assert_eq!(OptFixedEncoder::new().name(), "DBI OPT (Fixed)");
        assert_eq!(OptEncoder::default().weights(), CostWeights::FIXED);
    }

    #[test]
    #[should_panic(expected = "at most 32 bytes")]
    fn encode_mask_rejects_bursts_wider_than_the_mask() {
        let burst = Burst::new(vec![0u8; 33]).unwrap();
        let _ = OptEncoder::default().encode_mask(&burst, &BusState::idle());
    }
}
