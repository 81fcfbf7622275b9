//! Bit-accurate simulation of the Fig. 5 encoder datapath.
//!
//! The paper's hardware finds the shortest path through the encoding
//! trellis with one processing block per burst byte. Each block receives
//! the running minimum costs `cost(i)` / `cost_inv(i)`, the byte itself and
//! its XOR with the previous byte, computes the four candidate costs with
//! two POPCNT units and four adders, keeps the cheaper predecessor per node
//! and forwards the result. After the last block a comparator picks the
//! cheaper end node and the decision is backtracked through the mux chain
//! of Fig. 6.
//!
//! [`PipelineEncoder`] simulates that structure operation-for-operation —
//! 8-bit popcounts, the `α·x`, `α·(9−x)`, `β·(8−y)`, `β·(y+1)` cost terms,
//! saturating adders, comparators and the backtrack muxes — and is checked
//! against the software reference ([`dbi_core::schemes::OptEncoder`]) in
//! the test-suite. This is the evidence behind the paper's claim that the
//! optimal encoding "can be done at the required data rates": the hardware
//! structure computes exactly the same encodings as the algorithm.

use core::fmt;
use dbi_core::schemes::DbiEncoder;
use dbi_core::{Burst, BusState, CostWeights, DbiBit, InversionMask};

/// Number of pipeline stages the paper adds to the design (one per burst
/// byte; the synthesis tool retimes them into the block chain).
pub const PIPELINE_STAGES: usize = 8;

/// Saturation limit used for the "infinite" initial cost of the unreachable
/// start node (the `∞` input of Fig. 5).
const COST_INFINITY: u32 = u32::MAX / 4;

/// Everything one processing block computes for one byte — useful for
/// debugging the datapath and for asserting intermediate values in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTrace {
    /// POPCNT of `Byte(i−1) ⊕ Byte(i)`: data-lane transitions if both bytes
    /// use the same inversion state.
    pub transition_popcount: u32,
    /// POPCNT of `Byte(i)`: the number of ones in the payload.
    pub ones_popcount: u32,
    /// `α · x` — AC cost when the inversion state does not change.
    pub ac_cost0: u32,
    /// `α · (9 − x)` — AC cost when the inversion state changes (the DBI
    /// lane toggles too).
    pub ac_cost1: u32,
    /// `β · (8 − y)` — DC cost of the non-inverted byte.
    pub dc_cost0: u32,
    /// `β · (y + 1)` — DC cost of the inverted byte (the DBI lane adds one
    /// zero).
    pub dc_cost1: u32,
    /// Running minimum cost of ending this byte non-inverted.
    pub cost: u32,
    /// Running minimum cost of ending this byte inverted.
    pub cost_inv: u32,
    /// Stored decision `m0`: `true` when the cheaper predecessor of the
    /// non-inverted node was the inverted one.
    pub select_for_plain: bool,
    /// Stored decision `m1`: `true` when the cheaper predecessor of the
    /// inverted node was the inverted one.
    pub select_for_inverted: bool,
}

/// The complete record of one burst flowing through the datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeTrace {
    /// Per-byte block outputs in burst order.
    pub blocks: Vec<BlockTrace>,
    /// `true` when the final comparator picked the inverted end node.
    pub final_inverted: bool,
    /// The backtracked per-byte inversion decisions.
    pub decisions: Vec<bool>,
    /// The winning end-node cost (the weighted cost of the chosen encoding).
    pub total_cost: u32,
}

/// The hardware encoder of Fig. 5, with either fixed or 3-bit programmable
/// coefficients.
///
/// ```
/// use dbi_core::schemes::{DbiEncoder, OptFixedEncoder};
/// use dbi_core::{Burst, BusState};
/// use dbi_hw::PipelineEncoder;
///
/// let burst = Burst::paper_example();
/// let state = BusState::idle();
/// let hardware = PipelineEncoder::fixed().encode(&burst, &state);
/// let software = OptFixedEncoder::new().encode(&burst, &state);
/// assert_eq!(hardware, software);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineEncoder {
    alpha: u8,
    beta: u8,
}

impl PipelineEncoder {
    /// Maximum coefficient value of the configurable design (3-bit fields).
    pub const MAX_COEFFICIENT: u8 = 7;

    /// The fixed-coefficient design (α = β = 1): no multipliers, narrow
    /// datapath, meets 1.5 GHz in Table I.
    #[must_use]
    pub const fn fixed() -> Self {
        PipelineEncoder { alpha: 1, beta: 1 }
    }

    /// The configurable design with programmable 3-bit coefficients.
    ///
    /// # Panics
    ///
    /// Panics if either coefficient exceeds [`Self::MAX_COEFFICIENT`] or if
    /// both are zero — the register fields are 3 bits wide and an all-zero
    /// configuration would make every encoding equally "optimal".
    #[must_use]
    pub fn with_coefficients(alpha: u8, beta: u8) -> Self {
        assert!(
            alpha <= Self::MAX_COEFFICIENT && beta <= Self::MAX_COEFFICIENT,
            "coefficients are 3-bit fields (0..=7), got alpha={alpha} beta={beta}"
        );
        assert!(
            alpha != 0 || beta != 0,
            "at least one coefficient must be non-zero"
        );
        PipelineEncoder { alpha, beta }
    }

    /// The α coefficient (cost per lane transition).
    #[must_use]
    pub const fn alpha(&self) -> u8 {
        self.alpha
    }

    /// The β coefficient (cost per transmitted zero).
    #[must_use]
    pub const fn beta(&self) -> u8 {
        self.beta
    }

    /// The equivalent software cost weights.
    #[must_use]
    pub fn weights(&self) -> CostWeights {
        CostWeights::new(u32::from(self.alpha), u32::from(self.beta))
            .expect("constructors guarantee at least one non-zero coefficient")
    }

    /// Latency of the pipelined implementation in encoder clock cycles.
    #[must_use]
    pub const fn latency_cycles(&self) -> usize {
        PIPELINE_STAGES
    }

    /// Throughput of the pipelined implementation: one full burst per clock
    /// cycle once the pipeline is primed.
    #[must_use]
    pub const fn bursts_per_cycle(&self) -> usize {
        1
    }

    /// Runs the burst through the datapath and returns every intermediate
    /// signal — the forward sweep of the processing blocks and the
    /// backtracked decisions.
    #[must_use]
    pub fn encode_trace(&self, burst: &Burst, state: &BusState) -> EncodeTrace {
        // The Fig. 5 boundary condition generalised to an arbitrary previous
        // lane word: the virtual byte −1 is the *decoded* previous payload,
        // and the reachable start node is the one matching the previous
        // word's DBI level (cost 0 for it, ∞ for the other).
        let prev_word = state.last();
        let prev_data_byte = prev_word.decode();
        let (mut cost, mut cost_inv) = match prev_word.dbi() {
            DbiBit::NotInverted => (0u32, COST_INFINITY),
            DbiBit::Inverted => (COST_INFINITY, 0u32),
        };

        let alpha = u32::from(self.alpha);
        let beta = u32::from(self.beta);
        let mut previous_byte = prev_data_byte;
        let mut blocks = Vec::with_capacity(burst.len());

        for byte in burst.iter() {
            // The two POPCNT units of the block.
            let transition_popcount = (previous_byte ^ byte).count_ones();
            let ones_popcount = byte.count_ones();

            // The four cost terms.
            let ac_cost0 = alpha * transition_popcount;
            let ac_cost1 = alpha * (9 - transition_popcount);
            let dc_cost0 = beta * (8 - ones_popcount);
            let dc_cost1 = beta * (ones_popcount + 1);

            // The four candidate adders (saturating — the ∞ input must not
            // wrap) and the two comparators. Ties resolve towards the
            // non-inverted predecessor, matching the software reference.
            let via_plain_to_plain = cost.saturating_add(ac_cost0).saturating_add(dc_cost0);
            let via_inv_to_plain = cost_inv.saturating_add(ac_cost1).saturating_add(dc_cost0);
            let via_plain_to_inv = cost.saturating_add(ac_cost1).saturating_add(dc_cost1);
            let via_inv_to_inv = cost_inv.saturating_add(ac_cost0).saturating_add(dc_cost1);

            let select_for_plain = via_inv_to_plain < via_plain_to_plain;
            let next_cost = if select_for_plain {
                via_inv_to_plain
            } else {
                via_plain_to_plain
            };
            let select_for_inverted = via_inv_to_inv < via_plain_to_inv;
            let next_cost_inv = if select_for_inverted {
                via_inv_to_inv
            } else {
                via_plain_to_inv
            };

            blocks.push(BlockTrace {
                transition_popcount,
                ones_popcount,
                ac_cost0,
                ac_cost1,
                dc_cost0,
                dc_cost1,
                cost: next_cost,
                cost_inv: next_cost_inv,
                select_for_plain,
                select_for_inverted,
            });

            cost = next_cost;
            cost_inv = next_cost_inv;
            previous_byte = byte;
        }

        // Final comparator and the Fig. 6 backtrack mux chain.
        let final_inverted = cost_inv < cost;
        let total_cost = if final_inverted { cost_inv } else { cost };
        let mut decisions = vec![false; burst.len()];
        let mut current = final_inverted;
        for (i, block) in blocks.iter().enumerate().rev() {
            decisions[i] = current;
            current = if current {
                block.select_for_inverted
            } else {
                block.select_for_plain
            };
        }

        EncodeTrace {
            blocks,
            final_inverted,
            decisions,
            total_cost,
        }
    }
}

impl Default for PipelineEncoder {
    fn default() -> Self {
        PipelineEncoder::fixed()
    }
}

impl DbiEncoder for PipelineEncoder {
    fn name(&self) -> &str {
        if self.alpha == 1 && self.beta == 1 {
            "HW DBI OPT (Fixed)"
        } else {
            "HW DBI OPT (3-Bit)"
        }
    }

    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        let trace = self.encode_trace(burst, state);
        trace
            .decisions
            .iter()
            .enumerate()
            .filter(|&(_, &invert)| invert)
            .fold(InversionMask::NONE, |mask, (i, _)| mask.with_inverted(i))
    }
}

impl fmt::Display for PipelineEncoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline encoder alpha={} beta={}",
            self.alpha, self.beta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::schemes::OptEncoder;
    use dbi_core::LaneWord;

    #[test]
    fn paper_example_cost_is_52() {
        let trace =
            PipelineEncoder::fixed().encode_trace(&Burst::paper_example(), &BusState::idle());
        assert_eq!(trace.total_cost, 52);
        assert_eq!(trace.blocks.len(), 8);
        assert_eq!(trace.decisions.len(), 8);
    }

    #[test]
    fn first_block_matches_the_fig2_edge_weights() {
        // Byte 0 of the example, starting from all-ones: 8 for the
        // non-inverted node, 10 for the inverted one.
        let trace =
            PipelineEncoder::fixed().encode_trace(&Burst::paper_example(), &BusState::idle());
        assert_eq!(trace.blocks[0].cost, 8);
        assert_eq!(trace.blocks[0].cost_inv, 10);
        // The block-internal terms: byte 0b1000_1110 has 4 ones, and differs
        // from the idle 0xFF in 4 positions.
        assert_eq!(trace.blocks[0].transition_popcount, 4);
        assert_eq!(trace.blocks[0].ones_popcount, 4);
        assert_eq!(trace.blocks[0].ac_cost0, 4);
        assert_eq!(trace.blocks[0].ac_cost1, 5);
        assert_eq!(trace.blocks[0].dc_cost0, 4);
        assert_eq!(trace.blocks[0].dc_cost1, 5);
    }

    #[test]
    fn hardware_matches_the_software_reference_exactly() {
        let state = BusState::idle();
        let bursts = [
            Burst::paper_example(),
            Burst::from_array([0x00, 0xFF, 0x0F, 0xF0, 0x55, 0xAA, 0x3C, 0xC3]),
            Burst::from_array([0x13, 0x37, 0xBE, 0xEF, 0xCA, 0xFE, 0xBA, 0xBE]),
            Burst::from_array([0u8; 8]),
            Burst::from_array([0xFFu8; 8]),
        ];
        for (alpha, beta) in [(1u8, 1u8), (0, 1), (1, 0), (3, 5), (7, 1), (7, 7)] {
            let hw = PipelineEncoder::with_coefficients(alpha, beta);
            let sw = OptEncoder::new(hw.weights());
            for burst in &bursts {
                assert_eq!(
                    hw.encode(burst, &state),
                    sw.encode(burst, &state),
                    "alpha={alpha} beta={beta} burst={burst}"
                );
            }
        }
    }

    #[test]
    fn hardware_handles_non_idle_bus_states() {
        let burst = Burst::from_array([0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0]);
        for prev in [
            LaneWord::ALL_ONES,
            LaneWord::ALL_ZEROS,
            LaneWord::encode_byte(0xA5, true),
            LaneWord::encode_byte(0x0F, false),
        ] {
            let state = BusState::new(prev);
            let hw = PipelineEncoder::fixed().encode(&burst, &state);
            let sw = OptEncoder::new(CostWeights::FIXED).encode(&burst, &state);
            assert_eq!(hw, sw, "previous word {prev}");
        }
    }

    #[test]
    fn trace_total_cost_equals_the_encoded_burst_cost() {
        let state = BusState::idle();
        let burst = Burst::from_array([0x9E, 0x01, 0x7C, 0xE3, 0x55, 0x0A, 0xB0, 0x4F]);
        let hw = PipelineEncoder::with_coefficients(2, 3);
        let trace = hw.encode_trace(&burst, &state);
        let encoded = hw.encode(&burst, &state);
        assert_eq!(
            u64::from(trace.total_cost),
            encoded.cost(&state, &hw.weights())
        );
    }

    #[test]
    fn decisions_are_lossless() {
        let burst = Burst::from_array([0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF, 0x55, 0xAA]);
        let encoded = PipelineEncoder::fixed().encode(&burst, &BusState::idle());
        assert_eq!(encoded.decode(), burst);
    }

    #[test]
    fn constructor_validation_and_accessors() {
        let enc = PipelineEncoder::with_coefficients(3, 5);
        assert_eq!(enc.alpha(), 3);
        assert_eq!(enc.beta(), 5);
        assert_eq!(enc.weights().alpha(), 3);
        assert_eq!(enc.latency_cycles(), PIPELINE_STAGES);
        assert_eq!(enc.bursts_per_cycle(), 1);
        assert_eq!(PipelineEncoder::default(), PipelineEncoder::fixed());
        assert_eq!(PipelineEncoder::fixed().name(), "HW DBI OPT (Fixed)");
        assert_eq!(enc.name(), "HW DBI OPT (3-Bit)");
        assert!(enc.to_string().contains("alpha=3"));
    }

    #[test]
    #[should_panic(expected = "3-bit fields")]
    fn coefficients_above_seven_panic() {
        let _ = PipelineEncoder::with_coefficients(8, 1);
    }

    #[test]
    #[should_panic(expected = "at least one coefficient")]
    fn all_zero_coefficients_panic() {
        let _ = PipelineEncoder::with_coefficients(0, 0);
    }
}
