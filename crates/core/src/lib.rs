//! # dbi-core
//!
//! Data bus inversion (DBI) encoding schemes, including the **optimal
//! DC/AC encoder** from *"Optimal DC/AC Data Bus Inversion Coding"*
//! (Lucas, Lal, Juurlink — DATE 2018).
//!
//! GDDR5/GDDR5X and DDR4 memories use a pseudo-open-drain (POD) interface
//! in which transmitting a **zero** draws DC termination current and every
//! lane **transition** burns switching energy. DBI adds one lane per byte
//! so the transmitter can send each byte inverted when that is cheaper.
//! The classic schemes optimise only one of the two cost components:
//!
//! * **DBI DC** ([`schemes::DcEncoder`]) minimises transmitted zeros,
//! * **DBI AC** ([`schemes::AcEncoder`]) minimises lane transitions.
//!
//! The paper's contribution — [`schemes::OptEncoder`] — finds the
//! minimum of `α·transitions + β·zeros` over the whole burst by solving a
//! shortest-path problem on a two-state trellis, and a fixed-coefficient
//! variant ([`schemes::OptFixedEncoder`], α = β = 1) does so cheaply enough
//! for a 1.5 GHz hardware encoder.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), dbi_core::DbiError> {
//! use dbi_core::{Burst, BusState, CostWeights};
//! use dbi_core::schemes::{DbiEncoder, DcEncoder, AcEncoder, OptEncoder};
//!
//! let burst = Burst::paper_example();
//! let state = BusState::idle();
//! let weights = CostWeights::new(1, 1)?;
//!
//! let dc = DcEncoder::new().encode(&burst, &state);
//! let ac = AcEncoder::new().encode(&burst, &state);
//! let opt = OptEncoder::new(weights).encode(&burst, &state);
//!
//! // Fig. 2 of the paper: 68 vs 65 vs 52 cost units.
//! assert_eq!(dc.cost(&state, &weights), 68);
//! assert_eq!(ac.cost(&state, &weights), 65);
//! assert_eq!(opt.cost(&state, &weights), 52);
//!
//! // Every scheme is lossless: the receiver recovers the original bytes.
//! assert_eq!(opt.decode(), burst);
//! # Ok(())
//! # }
//! ```
//!
//! ## Streaming fast path
//!
//! Every scheme also offers an allocation-free API for line-rate use:
//! [`schemes::DbiEncoder::encode_mask`] returns only the per-byte
//! decisions (no symbol materialisation),
//! [`encoding::InversionMask::breakdown`] prices a mask straight from the
//! payload bytes, and [`EncodedBurst::assign_from_mask`] refills a
//! caller-owned [`EncodedBurst`] whose inline buffer keeps standard
//! bursts off the heap. Whole batches go through
//! [`schemes::DbiEncoder::encode_lanes_into`], which encodes a
//! [`BurstSlab`] of one or more independent chains in one call. The
//! optimal encoder backs both with precomputed edge-cost tables
//! ([`lut::CostLut`]), making its forward sweep pure table lookups and
//! adds.
//!
//! ## Module overview
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`word`] | 9-lane words (8 DQ + DBI), zero/transition counting |
//! | [`clock`] | process-global monotonic timestamps ([`clock::now_nanos`]) for telemetry |
//! | [`burst`] | burst payloads and bus state |
//! | [`cost`] | α/β cost weights and activity breakdowns |
//! | [`lut`] | precomputed trellis edge-cost tables (the encode hot path) |
//! | [`plan`] | runtime encode plans ([`EncodePlan`]) and the bounded [`PlanCache`] |
//! | [`encoding`] | inversion masks, encoded bursts (inline small-buffer storage), decoding |
//! | [`decode`] | the receiver: [`decode::decode_mask`] and the slab decode API table |
//! | [`slab`] | batched burst slabs ([`BurstSlab`]) and whole-slab encoding |
//! | [`simd`] | vectorised slab kernels ([`simd::KernelKind`]), runtime dispatch |
//! | [`schemes`] | RAW, DC, AC, ACDC, greedy, OPT, OPT(Fixed), exhaustive oracle |
//! | [`graph`] | explicit trellis + Dijkstra (Fig. 2 cross-check) |
//! | [`pareto`] | Pareto front of the zero/transition trade-off |
//! | [`persist`] | CRC-guarded binary records of carried session state |
//! | [`stats`] | per-scheme statistics over burst streams |
//! | [`analysis`] | coefficient sweeps and relative savings (Figs. 3/4) |

// `deny` rather than `forbid`: the `simd` module's runtime-dispatched
// `core::arch` kernels need narrowly scoped `#[allow(unsafe_code)]` items
// (each an `unsafe` call into a `#[target_feature]` function, guarded by
// the matching CPU-feature detection). Everything else stays safe.
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod burst;
pub mod clock;
pub mod cost;
pub mod decode;
pub mod encoding;
pub mod error;
pub mod graph;
pub mod lut;
#[doc(hidden)]
pub mod oracle;
pub mod pareto;
pub mod persist;
pub mod plan;
pub mod schemes;
pub mod simd;
pub mod slab;
pub mod stats;
pub mod word;

pub use burst::{Burst, BusState, MAX_EXHAUSTIVE_LEN, STANDARD_BURST_LEN};
pub use cost::{CostBreakdown, CostWeights};
pub use encoding::{EncodedBurst, InversionMask, INLINE_SYMBOLS};
pub use error::{DbiError, Result};
pub use lut::CostLut;
pub use pareto::{ParetoFront, ParetoPoint};
pub use plan::{EncodePlan, PlanCache, PlanCacheStats};
pub use schemes::{DbiEncoder, Scheme};
pub use simd::KernelKind;
pub use slab::{BurstSlab, ChainView};
pub use stats::{SchemeComparison, SchemeStats};
pub use word::{DbiBit, LaneWord};

#[cfg(test)]
mod tests {
    //! Crate-level smoke tests exercising the re-exported API surface.

    use super::*;
    use crate::schemes::{AcEncoder, DcEncoder, OptEncoder};

    #[test]
    fn public_api_reproduces_the_fig2_story() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let weights = CostWeights::FIXED;

        let dc = DcEncoder::new().encode(&burst, &state).breakdown(&state);
        let ac = AcEncoder::new().encode(&burst, &state).breakdown(&state);
        let opt = OptEncoder::new(weights)
            .encode(&burst, &state)
            .breakdown(&state);

        assert_eq!((dc.zeros, dc.transitions), (26, 42));
        assert_eq!((ac.zeros, ac.transitions), (43, 22));
        assert_eq!(opt.weighted(&weights), 52);

        let front = ParetoFront::of_burst(&burst, &state).unwrap();
        assert!(front.contains(opt));
    }

    #[test]
    fn reexports_are_usable_without_module_paths() {
        let _ = Scheme::paper_set();
        let _ = InversionMask::NONE;
        let _ = LaneWord::ALL_ONES;
        let _ = DbiBit::Inverted;
        let _: CostBreakdown = CostBreakdown::ZERO;
        assert_eq!(STANDARD_BURST_LEN, 8);
        const { assert!(MAX_EXHAUSTIVE_LEN >= 16) };
    }
}
