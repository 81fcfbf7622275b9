//! # dbi-workloads
//!
//! Workload generators and traces for evaluating data bus inversion
//! schemes.
//!
//! The paper's figures are computed over 10 000 uniformly random bursts
//! ([`UniformRandomBursts`], [`random::PAPER_BURST_COUNT`]). This crate
//! additionally provides deterministic stress patterns
//! ([`patterns::PatternBursts`]) and structured synthetic data
//! ([`synthetic`]) that stand in for proprietary application traces, plus a
//! plain-text [`Trace`] format so burst streams can be captured and
//! replayed. Encoding with carried bus state lives in `dbi-mem`'s
//! `BusSession`.
//!
//! ```
//! use dbi_workloads::{BurstSource, UniformRandomBursts};
//!
//! let mut source = UniformRandomBursts::with_seed(1);
//! let bursts = source.take_bursts(100);
//! assert_eq!(bursts.len(), 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod load;
pub mod patterns;
pub mod random;
pub mod synthetic;
pub mod trace;
#[cfg(test)]
mod trace_encoder;

pub use generator::{BurstSource, IterSource};
pub use load::LoadProfile;
pub use patterns::{Pattern, PatternBursts};
pub use random::UniformRandomBursts;
pub use synthetic::{
    standard_suite, FloatArrayBursts, FramebufferBursts, MarkovBursts, TextBursts, ZeroHeavyBursts,
};
pub use trace::{ParseTraceError, Trace};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_produces_standard_bursts() {
        let mut sources: Vec<Box<dyn BurstSource>> = vec![
            Box::new(UniformRandomBursts::with_seed(1)),
            Box::new(PatternBursts::new(Pattern::Checkerboard)),
            Box::new(ZeroHeavyBursts::new(1, 0.5)),
            Box::new(FloatArrayBursts::new(1)),
            Box::new(TextBursts::new(1)),
            Box::new(FramebufferBursts::new(1)),
            Box::new(MarkovBursts::new(1, 0.8)),
        ];
        for source in &mut sources {
            let burst = source.next_burst();
            assert_eq!(
                burst.len(),
                dbi_core::STANDARD_BURST_LEN,
                "{}",
                source.name()
            );
        }
    }
}
