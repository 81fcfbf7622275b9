//! DBI OPT: the optimal shortest-path encoder (the paper's contribution).
//!
//! One decision recurrence, three ways to run it over a slab: the scalar
//! sweep (one chain at a time; also the per-burst
//! [`DbiEncoder::encode_mask`]), and on AVX2 an eight-chain BL8 block and
//! a four-chain block at BL16 and BL8 (`crate::simd`).
//! [`OptEncoder::encode_lanes_into_with`] routes each group of chains to
//! the widest block that takes it and the rest to the scalar sweep; every
//! route is differential-tested bit-identical to the scalar sweep.

use crate::burst::{Burst, BusState};
use crate::cost::{CostBreakdown, CostWeights};
use crate::encoding::{entry_of, price_burst_body, InversionMask};
use crate::lut::CostLut;
use crate::schemes::DbiEncoder;
use crate::simd::{encode_chains, ChainKernel, KernelKind};
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
    /// the one decision kernel behind both [`DbiEncoder::encode_mask`]
    /// and the scalar slab chain. It enters from the previous beat's data
    /// byte and DBI level (the entry form of
    /// [`OptEncoder::entry_costs`]; any [`LaneWord`] is its decoded byte
    /// plus its DBI level) and carries only path costs and survivor
    /// masks — pricing the winner is [`price_burst_body`]'s job.
    ///
    /// `bytes` must be non-empty and at most 32 bytes (the mask width);
    /// both invariants are upheld by every caller's geometry checks.
    #[inline]
    fn mask_kernel(&self, bytes: &[u8], last_data: u8, prev_low: bool) -> u32 {
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
        if cost_inv < cost_plain {
            mask_inv
        } else {
            mask_plain
        }
    }

    /// One chain's bursts: decide each with [`OptEncoder::mask_kernel`],
    /// then price it with [`price_burst_body`] from the entry it was
    /// decided from. The pricing hangs off the mask but never feeds the
    /// next burst's entry (only the last decision bit does), so it fills
    /// issue slots the latency-bound sweep leaves idle. Always inlined so
    /// the standard-length call sites in [`ChainKernel::encode_chain`]
    /// propagate their literal `burst_len` into the chunking, the sweep
    /// and the pricing.
    #[inline(always)]
    fn slab_runs(
        &self,
        burst_len: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        entry: &mut (u8, bool),
    ) {
        for ((chunk, mask_slot), cost_slot) in bytes
            .chunks_exact(burst_len)
            .zip(masks.iter_mut())
            .zip(costs.iter_mut())
        {
            let bits = self.mask_kernel(chunk, entry.0, entry.1);
            *mask_slot = InversionMask::from_bits(bits);
            *cost_slot = price_burst_body(chunk, bits, *entry);
            *entry = (chunk[burst_len - 1], (bits >> (burst_len - 1)) & 1 == 1);
        }
    }

    /// [`DbiEncoder::encode_lanes_into`] with an explicit kernel tier —
    /// the differential-test surface: every [`KernelKind`] must produce
    /// bit-identical masks, cost rows and carried states.
    ///
    /// The slab is treated as `states.len()` independent chains laid out
    /// chain-major (chain `c`'s bursts occupy rows `c·per_chain ..
    /// (c+1)·per_chain`), each carrying its own [`BusState`] — the shape
    /// of a multi-lane-group channel. On [`KernelKind::Avx2`], chains are
    /// swept in lockstep: eight at a time at BL8 (for plans with α and β
    /// up to 1024, the eight-chain block's `i16` bound), then four at a
    /// time at BL8 and BL16. The chains left over, every other geometry, and
    /// every chain under [`KernelKind::Scalar`] run the scalar sweep. The
    /// AVX2 tier requested where it is not compiled, or on a CPU without
    /// AVX2 and `popcnt`, falls back to the scalar sweep.
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
        // The tier is checked against the CPU, not just requested: this
        // is a safe function and the blocks run AVX2 instructions.
        #[cfg(target_arch = "x86_64")]
        if kernel == KernelKind::Avx2
            && crate::simd::available_kernels().contains(&KernelKind::Avx2)
        {
            use crate::simd::{encode_block4_avx2, encode_block8_avx2, BLOCK8_MAX_WEIGHT};
            // Sweeps chains `c..` in lockstep blocks of `W` while a whole
            // block remains, each from and back to its carried states.
            macro_rules! sweep {
                ($w:literal, $kernel:expr) => {
                    while c + $w <= chains {
                        let mut data = [0u8; $w];
                        let mut low = [false; $w];
                        for (k, state) in states[c..c + $w].iter().enumerate() {
                            (data[k], low[k]) = entry_of(state);
                        }
                        let rows = c * per_chain..(c + $w) * per_chain;
                        // SAFETY: `Avx2` is listed as available only after
                        // runtime AVX2 and `popcnt` detection succeeded.
                        #[allow(unsafe_code)]
                        unsafe {
                            $kernel(
                                self,
                                per_chain,
                                &bytes[rows.start * burst_len..rows.end * burst_len],
                                &mut masks[rows.clone()],
                                &mut costs[rows],
                                &mut data,
                                &mut low,
                            );
                        }
                        for (k, state) in states[c..c + $w].iter_mut().enumerate() {
                            *state = BusState::new(LaneWord::encode_byte(data[k], low[k]));
                        }
                        c += $w;
                    }
                };
            }
            // The four-chain block takes the chains the eight-chain one
            // leaves at BL8, and every BL8 chain of a plan too heavy for
            // the eight-chain block's `i16` costs: it beats the scalar
            // sweep there too.
            let weights = self.weights();
            match burst_len {
                8 => {
                    if weights.alpha().max(weights.beta()) <= BLOCK8_MAX_WEIGHT {
                        sweep!(8, encode_block8_avx2);
                    }
                    sweep!(4, encode_block4_avx2::<8>);
                }
                16 => sweep!(4, encode_block4_avx2::<16>),
                _ => {}
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        if c < chains {
            let rows = c * per_chain..count;
            encode_chains(
                self,
                burst_len,
                &bytes[rows.start * burst_len..],
                &mut masks[rows.clone()],
                &mut costs[rows],
                &mut states[c..],
            );
        }
    }
}

/// The scalar sweep, one chain at a time: no [`Burst`] construction, no
/// per-burst dispatch, and `chunks_exact` hoists the bounds checks out of
/// the burst loop. Bit-identical to the serial per-burst chain
/// (`tests/slab_differential.rs`).
impl ChainKernel for OptEncoder {
    #[inline(always)]
    fn encode_chain(
        &self,
        burst_len: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        entry: &mut (u8, bool),
    ) {
        // The inter-burst chain is two scalars: the data byte the wires
        // last carried and the DBI lane level — and of the two, only the
        // one-bit level is a *computed* value (the byte comes straight
        // from the input), so consecutive bursts' sweeps overlap in the
        // pipeline. Dispatching on the standard burst lengths hands
        // `slab_runs` a literal trip count: the always-inlined copies get
        // their sweeps fully unrolled — the geometry of a slab is fixed,
        // which is an edge the per-burst entry point can never exploit.
        match burst_len {
            8 => self.slab_runs(8, bytes, masks, costs, entry),
            16 => self.slab_runs(16, bytes, masks, costs, entry),
            _ => self.slab_runs(burst_len, bytes, masks, costs, entry),
        }
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
        let (last_data, prev_low) = entry_of(state);
        InversionMask::from_bits(self.mask_kernel(bytes, last_data, prev_low))
    }

    /// The multi-chain slab encode rides the runtime-selected kernel
    /// tier ([`crate::simd::selected_kernel`]): the AVX2 lockstep blocks
    /// across eight BL8 or four BL8/BL16 chains, scalar otherwise or when
    /// pinned via `DBI_FORCE_SCALAR`. See
    /// [`OptEncoder::encode_lanes_into_with`].
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
