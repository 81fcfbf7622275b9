//! Streaming trace encoding: whole traces in one call, bus state carried
//! across bursts, no per-burst allocation.
//!
//! The paper evaluates encoders on isolated bursts with the bus reset to
//! idle in between; a real interface carries the lane levels of one burst
//! into the next. [`TraceEncoder`] models that: it owns a
//! [`BusState`], encodes each burst through the allocation-free
//! [`DbiEncoder::encode_mask`] fast path, prices it with
//! [`InversionMask::breakdown`] and chains the final lane state into the
//! next burst — so encoding a million-burst trace performs no heap
//! allocation at all beyond the trace itself.
//!
//! ```
//! use dbi_core::schemes::OptFixedEncoder;
//! use dbi_workloads::{BurstSource, Trace, TraceEncoder, UniformRandomBursts};
//!
//! let trace = Trace::record(&mut UniformRandomBursts::with_seed(7), 100);
//! let mut encoder = TraceEncoder::new(OptFixedEncoder::new());
//! let summary = encoder.encode_trace(&trace);
//! assert_eq!(summary.bursts, 100);
//! assert!(summary.activity.zeros > 0);
//! ```

use crate::trace::Trace;
use core::fmt;
use dbi_core::{
    Burst, BurstSlab, BusState, CostBreakdown, CostWeights, DbiEncoder, EncodePlan, InversionMask,
    Scheme,
};
use std::sync::Arc;

/// Aggregate result of encoding a burst stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Number of bursts encoded.
    pub bursts: u64,
    /// Total wire activity (zeros driven, lanes toggled).
    pub activity: CostBreakdown,
}

impl TraceSummary {
    /// Weighted integer cost of the whole stream.
    #[must_use]
    pub fn cost(&self, weights: &CostWeights) -> u64 {
        self.activity.weighted(weights)
    }

    /// Mean weighted cost per burst (0 for an empty summary).
    #[must_use]
    pub fn mean_cost(&self, weights: &CostWeights) -> f64 {
        if self.bursts == 0 {
            0.0
        } else {
            self.cost(weights) as f64 / self.bursts as f64
        }
    }

    /// Folds another summary into this one.
    pub fn merge(&mut self, other: &TraceSummary) {
        self.bursts += other.bursts;
        self.activity += other.activity;
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bursts, {}", self.bursts, self.activity)
    }
}

/// A stateful streaming encoder: one DBI group, bus state carried across
/// bursts, allocation-free per burst.
#[derive(Debug, Clone)]
pub struct TraceEncoder<E> {
    encoder: E,
    state: BusState,
}

impl<E: DbiEncoder> TraceEncoder<E> {
    /// Creates a trace encoder starting from the idle bus (all lanes high).
    #[must_use]
    pub fn new(encoder: E) -> Self {
        Self::with_state(encoder, BusState::idle())
    }

    /// Creates a trace encoder with an explicit initial bus state.
    #[must_use]
    pub fn with_state(encoder: E, state: BusState) -> Self {
        TraceEncoder { encoder, state }
    }

    /// The wrapped encoder.
    #[must_use]
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// Replaces the encoder at a burst boundary, returning the previous
    /// one. The carried [`BusState`] is **preserved**: the lane levels on
    /// the wires are a physical fact independent of which encoder chose
    /// them, so the next burst continues from the true state under the
    /// new encoder.
    pub fn swap_encoder(&mut self, encoder: E) -> E {
        core::mem::replace(&mut self.encoder, encoder)
    }

    /// The lane levels currently on the bus.
    #[must_use]
    pub const fn state(&self) -> BusState {
        self.state
    }

    /// Forces the bus back to idle (e.g. between independent traces).
    pub fn reset(&mut self) {
        self.state = BusState::idle();
    }

    /// Encodes one burst from the current bus state, advances the state and
    /// returns the decisions plus the activity the burst added. The
    /// building block of the trace loops; performs no heap allocation.
    pub fn encode_burst(&mut self, burst: &Burst) -> (InversionMask, CostBreakdown) {
        let mask = self.encoder.encode_mask(burst, &self.state);
        let breakdown = mask.breakdown(burst, &self.state);
        self.state = mask.final_state(burst, &self.state);
        (mask, breakdown)
    }

    /// Encodes every burst of `trace` in order, carrying the bus state
    /// across burst boundaries, and returns the aggregate activity.
    pub fn encode_trace(&mut self, trace: &Trace) -> TraceSummary {
        self.encode_bursts(trace.bursts())
    }

    /// Encodes a plain burst slice the same way.
    pub fn encode_bursts(&mut self, bursts: &[Burst]) -> TraceSummary {
        let mut summary = TraceSummary::default();
        for burst in bursts {
            let (_, breakdown) = self.encode_burst(burst);
            summary.bursts += 1;
            summary.activity += breakdown;
        }
        summary
    }

    /// Encodes every burst currently loaded in `slab` in **one** call
    /// through [`DbiEncoder::encode_lanes_into`] (as a single chain),
    /// carrying the bus state
    /// exactly as the per-burst loops do, and returns the aggregate
    /// activity. The slab's mask and cost rows are left filled, so callers
    /// get the per-burst decisions for free. Bit-identical to
    /// [`TraceEncoder::encode_bursts`] over the same bursts.
    pub fn encode_slab(&mut self, slab: &mut BurstSlab) -> TraceSummary {
        self.encoder
            .encode_lanes_into(slab, core::slice::from_mut(&mut self.state));
        TraceSummary {
            bursts: slab.burst_count() as u64,
            activity: slab.total(),
        }
    }

    /// Loads `bursts` into `slab` (reset to the first burst's length) and
    /// encodes them in one slab pass — the batched counterpart of
    /// [`TraceEncoder::encode_bursts`].
    ///
    /// # Errors
    ///
    /// Returns [`dbi_core::DbiError::BurstTooLong`] when the bursts do not
    /// all share one length, or [`dbi_core::DbiError::EmptyBurst`] when
    /// `bursts` is empty; the carried state is untouched on error.
    pub fn encode_bursts_slab(
        &mut self,
        bursts: &[Burst],
        slab: &mut BurstSlab,
    ) -> dbi_core::Result<TraceSummary> {
        let first = bursts.first().ok_or(dbi_core::DbiError::EmptyBurst)?;
        slab.reset(first.len());
        slab.extend_from_bursts(bursts)?;
        Ok(self.encode_slab(slab))
    }

    /// Encodes `trace` and appends each burst's mask to `masks` (cleared
    /// first), for callers that need the decisions as well as the totals.
    /// Reuses the vector's capacity across calls.
    pub fn encode_trace_masks(
        &mut self,
        trace: &Trace,
        masks: &mut Vec<InversionMask>,
    ) -> TraceSummary {
        masks.clear();
        masks.reserve(trace.len());
        let mut summary = TraceSummary::default();
        for burst in trace.bursts() {
            let (mask, breakdown) = self.encode_burst(burst);
            masks.push(mask);
            summary.bursts += 1;
            summary.activity += breakdown;
        }
        summary
    }
}

/// A trace encoder driven by a shared runtime [`EncodePlan`] — the form
/// the streaming layers hold when the operating point is chosen (and
/// re-chosen) at runtime.
pub type PlanTraceEncoder = TraceEncoder<Arc<EncodePlan>>;

impl PlanTraceEncoder {
    /// Creates a plan-driven trace encoder starting from the idle bus.
    #[must_use]
    pub fn with_plan(plan: Arc<EncodePlan>) -> PlanTraceEncoder {
        TraceEncoder::new(plan)
    }

    /// Creates a plan-driven trace encoder for a scheme, with the plan
    /// served from the process-wide plan cache.
    #[must_use]
    pub fn for_scheme(scheme: Scheme) -> PlanTraceEncoder {
        TraceEncoder::new(scheme.plan())
    }

    /// The current plan.
    #[must_use]
    pub fn plan(&self) -> &Arc<EncodePlan> {
        self.encoder()
    }

    /// Replaces the plan at a burst boundary, preserving the carried bus
    /// state (see [`TraceEncoder::swap_encoder`]). Returns the previous
    /// plan.
    pub fn swap_plan(&mut self, plan: Arc<EncodePlan>) -> Arc<EncodePlan> {
        self.swap_encoder(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::UniformRandomBursts;
    use dbi_core::schemes::{AcEncoder, OptFixedEncoder};
    use dbi_core::Scheme;

    #[test]
    fn carried_state_matches_a_manual_chain() {
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(21), 64);
        let mut streaming = TraceEncoder::new(OptFixedEncoder::new());
        let summary = streaming.encode_trace(&trace);

        // Reference: chain encode() calls by hand.
        let encoder = OptFixedEncoder::new();
        let mut state = BusState::idle();
        let mut expected = CostBreakdown::ZERO;
        for burst in trace.bursts() {
            let encoded = encoder.encode(burst, &state);
            expected += encoded.breakdown(&state);
            state = encoded.final_state(&state);
        }
        assert_eq!(summary.activity, expected);
        assert_eq!(summary.bursts, 64);
        assert_eq!(streaming.state(), state);
    }

    #[test]
    fn carrying_state_is_never_pricier_than_it_reports() {
        // The reported activity must equal re-pricing the mask stream.
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(5), 32);
        let mut encoder = TraceEncoder::new(Scheme::OptFixed);
        let mut masks = Vec::new();
        let summary = encoder.encode_trace_masks(&trace, &mut masks);
        assert_eq!(masks.len(), trace.len());

        let mut state = BusState::idle();
        let mut repriced = CostBreakdown::ZERO;
        for (burst, mask) in trace.bursts().iter().zip(&masks) {
            repriced += mask.breakdown(burst, &state);
            state = mask.final_state(burst, &state);
        }
        assert_eq!(summary.activity, repriced);
    }

    #[test]
    fn reset_restores_the_idle_boundary_condition() {
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(9), 16);
        let mut encoder = TraceEncoder::new(AcEncoder::new());
        let first = encoder.encode_trace(&trace);
        assert_ne!(encoder.state(), BusState::idle());
        encoder.reset();
        let second = encoder.encode_trace(&trace);
        assert_eq!(first, second, "idle start makes identical traces identical");
    }

    #[test]
    fn summary_arithmetic() {
        let mut a = TraceSummary {
            bursts: 2,
            activity: CostBreakdown::new(10, 6),
        };
        let b = TraceSummary {
            bursts: 1,
            activity: CostBreakdown::new(5, 4),
        };
        a.merge(&b);
        assert_eq!(a.bursts, 3);
        assert_eq!(a.activity, CostBreakdown::new(15, 10));
        assert_eq!(a.cost(&CostWeights::FIXED), 25);
        assert!((a.mean_cost(&CostWeights::FIXED) - 25.0 / 3.0).abs() < 1e-12);
        assert_eq!(TraceSummary::default().mean_cost(&CostWeights::FIXED), 0.0);
        assert!(a.to_string().contains("3 bursts"));
    }

    #[test]
    fn plan_trace_encoder_matches_scheme_dispatch_and_swaps_mid_stream() {
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(33), 48);
        let first = Scheme::Dc;
        let second = Scheme::Opt(dbi_core::CostWeights::new(3, 1).unwrap());

        // Plan-driven encoding equals scheme dispatch burst for burst.
        let mut by_plan = PlanTraceEncoder::for_scheme(first);
        let mut by_scheme = TraceEncoder::new(first);
        assert_eq!(by_plan.plan().scheme(), first);
        assert_eq!(by_plan.encode_trace(&trace), by_scheme.encode_trace(&trace));
        assert_eq!(by_plan.state(), by_scheme.state());

        // Swap at a burst boundary: the carried state survives, and the
        // tail is what a second-scheme encoder seeded with that state
        // would produce.
        by_plan.reset();
        let (head, tail) = trace.bursts().split_at(trace.len() / 2);
        let head_summary = by_plan.encode_bursts(head);
        let old = by_plan.swap_plan(second.plan());
        assert_eq!(old.scheme(), first);
        let tail_summary = by_plan.encode_bursts(tail);

        let mut reference = TraceEncoder::new(first);
        let expected_head = reference.encode_bursts(head);
        let mut continued = TraceEncoder::with_state(second.plan(), reference.state());
        let expected_tail = continued.encode_bursts(tail);
        assert_eq!(head_summary, expected_head);
        assert_eq!(tail_summary, expected_tail);
        assert_eq!(by_plan.state(), continued.state());
    }

    #[test]
    fn slab_encoding_matches_the_per_burst_loop() {
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(61), 80);
        for scheme in Scheme::paper_set().iter().copied() {
            let mut per_burst = TraceEncoder::new(scheme);
            let expected = per_burst.encode_trace(&trace);

            let mut slabbed = TraceEncoder::new(scheme);
            let mut slab = BurstSlab::new(8);
            let summary = slabbed
                .encode_bursts_slab(trace.bursts(), &mut slab)
                .unwrap();
            assert_eq!(summary, expected, "{scheme}");
            assert_eq!(slabbed.state(), per_burst.state(), "{scheme}");
            assert_eq!(slab.masks().len(), trace.len());

            // The slab rows are exactly the per-burst decisions.
            let mut reference = TraceEncoder::new(scheme);
            let mut masks = Vec::new();
            reference.encode_trace_masks(&trace, &mut masks);
            assert_eq!(slab.masks(), masks.as_slice(), "{scheme}");
        }

        // Errors: empty input, mixed lengths; state untouched.
        let mut encoder = TraceEncoder::new(Scheme::Dc);
        let mut slab = BurstSlab::new(8);
        assert!(encoder.encode_bursts_slab(&[], &mut slab).is_err());
        let mixed = [
            Burst::paper_example(),
            Burst::from_slice(&[1, 2, 3]).unwrap(),
        ];
        assert!(encoder.encode_bursts_slab(&mixed, &mut slab).is_err());
        assert_eq!(encoder.state(), BusState::idle());
    }

    #[test]
    fn swap_encoder_returns_the_previous_encoder() {
        let mut encoder = TraceEncoder::new(Scheme::Ac);
        let old = encoder.swap_encoder(Scheme::Dc);
        assert_eq!(old, Scheme::Ac);
        assert_eq!(encoder.encoder().name(), "DBI DC");
    }

    #[test]
    fn empty_trace_reports_zero_and_keeps_state() {
        let empty = Trace::new("empty", vec![]);
        let mut encoder = TraceEncoder::new(Scheme::Dc);
        let summary = encoder.encode_trace(&empty);
        assert_eq!(summary, TraceSummary::default());
        assert_eq!(encoder.state(), BusState::idle());
        assert_eq!(encoder.encoder().name(), "DBI DC");
    }
}
