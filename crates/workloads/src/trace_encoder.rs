//! Tests of trace encoding with carried bus state.
//!
//! A [`Trace`](crate::Trace) is one 8-lane group's burst stream, so a
//! one-group `dbi_mem::BusSession` encodes it with the lane levels carried
//! from burst to burst (the `trace_encode` row of the
//! `encoder_throughput` bench times that same session). These tests pin
//! the streamed result to a hand-built chain of per-burst encodes.

#[cfg(test)]
mod tests {
    use crate::random::UniformRandomBursts;
    use crate::trace::Trace;
    use dbi_core::{BurstSlab, BusState, CostBreakdown, CostWeights, DbiEncoder, Scheme};
    use dbi_mem::{BusSession, ChannelActivity};

    /// A one-group session, so the trace's bursts are its accesses.
    fn encoder(scheme: Scheme) -> BusSession {
        BusSession::with_geometry(1, 8, scheme)
    }

    fn stream(trace: &Trace) -> Vec<u8> {
        trace
            .bursts()
            .iter()
            .flat_map(|burst| burst.bytes().iter().copied())
            .collect()
    }

    #[test]
    fn carried_state_matches_a_manual_chain() {
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(21), 64);
        let mut streaming = encoder(Scheme::OptFixed);
        let summary = streaming.encode_stream(&stream(&trace)).unwrap();

        // Reference: chain encode() calls by hand.
        let mut state = BusState::idle();
        let mut expected = CostBreakdown::ZERO;
        for burst in trace.bursts() {
            let encoded = Scheme::OptFixed.encode(burst, &state);
            expected += encoded.breakdown(&state);
            state = encoded.final_state(&state);
        }
        assert_eq!(summary.total(), expected);
        assert_eq!(summary.bursts, 64);
        assert_eq!(streaming.group_state(0), Some(state));
    }

    #[test]
    fn carrying_state_is_never_pricier_than_it_reports() {
        // The reported activity must equal re-pricing the mask stream.
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(5), 32);
        let mut encoder = encoder(Scheme::OptFixed);
        let mut per_group = Vec::new();
        let mut masks = Vec::new();
        encoder
            .encode_stream_into(&stream(&trace), &mut per_group, Some(&mut masks))
            .unwrap();
        assert_eq!(masks.len(), trace.len());

        let mut state = BusState::idle();
        let mut repriced = CostBreakdown::ZERO;
        for (burst, mask) in trace.bursts().iter().zip(&masks) {
            repriced += mask.breakdown(burst, &state);
            state = mask.final_state(burst, &state);
        }
        assert_eq!(per_group, [repriced]);
    }

    #[test]
    fn reset_restores_the_idle_boundary_condition() {
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(9), 16);
        let mut encoder = encoder(Scheme::Ac);
        let first = encoder.encode_stream(&stream(&trace)).unwrap();
        assert_ne!(encoder.group_state(0), Some(BusState::idle()));
        encoder.reset();
        let second = encoder.encode_stream(&stream(&trace)).unwrap();
        assert_eq!(first, second, "idle start makes identical traces identical");
    }

    #[test]
    fn summary_arithmetic() {
        // A trace fed in two slices adds up to the whole trace.
        let bytes = stream(&Trace::record(&mut UniformRandomBursts::with_seed(13), 3));
        let whole = encoder(Scheme::OptFixed).encode_stream(&bytes).unwrap();
        let mut sliced = encoder(Scheme::OptFixed);
        let a = sliced.encode_stream(&bytes[..16]).unwrap();
        let b = sliced.encode_stream(&bytes[16..]).unwrap();
        assert_eq!(a.bursts + b.bursts, 3);
        assert_eq!(a.total() + b.total(), whole.total());
        let weights = CostWeights::FIXED;
        assert_eq!(a.cost(&weights) + b.cost(&weights), whole.cost(&weights));
        assert!(whole.to_string().contains("3 bursts"));
        assert_eq!(ChannelActivity::default().cost(&weights), 0);
    }

    #[test]
    fn plan_trace_encoder_matches_scheme_dispatch_and_swaps_mid_stream() {
        let bytes = stream(&Trace::record(&mut UniformRandomBursts::with_seed(33), 48));
        let first = Scheme::Dc;
        let second = Scheme::Opt(CostWeights::new(3, 1).unwrap());

        // Plan-driven encoding equals scheme dispatch burst for burst.
        let mut by_plan = BusSession::with_plan_geometry(1, 8, first.plan());
        let mut by_scheme = encoder(first);
        assert_eq!(by_plan.plan().scheme(), first);
        assert_eq!(
            by_plan.encode_stream(&bytes).unwrap(),
            by_scheme.encode_stream(&bytes).unwrap()
        );
        assert_eq!(by_plan.group_state(0), by_scheme.group_state(0));

        // Swap at a burst boundary: the carried state survives, and the
        // tail is what a second-scheme encoder seeded with that state
        // would produce.
        by_plan.reset();
        let (head, tail) = bytes.split_at(bytes.len() / 2);
        let head_summary = by_plan.encode_stream(head).unwrap();
        let old = by_plan.swap_plan(second.plan());
        assert_eq!(old.scheme(), first);
        let tail_summary = by_plan.encode_stream(tail).unwrap();

        let mut reference = encoder(first);
        let expected_head = reference.encode_stream(head).unwrap();
        let mut continued = encoder(second);
        let mut carried = Vec::new();
        reference.export_states_into(&mut carried);
        continued.import_states(&carried);
        let expected_tail = continued.encode_stream(tail).unwrap();
        assert_eq!(head_summary, expected_head);
        assert_eq!(tail_summary, expected_tail);
        assert_eq!(by_plan.group_state(0), continued.group_state(0));
    }

    #[test]
    fn slab_encoding_matches_the_per_burst_loop() {
        let trace = Trace::record(&mut UniformRandomBursts::with_seed(61), 80);
        let bytes = stream(&trace);
        for scheme in Scheme::paper_set().iter().copied() {
            let mut per_burst = encoder(scheme);
            let mut expected = Vec::new();
            let mut masks = Vec::new();
            per_burst
                .encode_stream_into(&bytes, &mut expected, Some(&mut masks))
                .unwrap();

            let mut slabbed = encoder(scheme);
            let mut slab = BurstSlab::new(8);
            let mut per_group = Vec::new();
            let bursts = slabbed
                .encode_stream_slab_into(&bytes, &mut per_group, None, &mut slab)
                .unwrap();
            assert_eq!(bursts, 80, "{scheme}");
            assert_eq!(per_group, expected, "{scheme}");
            assert_eq!(slabbed.group_state(0), per_burst.group_state(0), "{scheme}");

            // The slab rows are exactly the per-burst decisions.
            assert_eq!(slab.masks(), masks.as_slice(), "{scheme}");
        }

        // Errors: empty input, a partial burst; state untouched.
        let mut encoder = encoder(Scheme::Dc);
        let mut slab = BurstSlab::new(8);
        let mut per_group = Vec::new();
        assert!(encoder
            .encode_stream_slab_into(&[], &mut per_group, None, &mut slab)
            .is_err());
        assert!(encoder
            .encode_stream_slab_into(&bytes[..11], &mut per_group, None, &mut slab)
            .is_err());
        assert_eq!(encoder.group_state(0), Some(BusState::idle()));
    }

    #[test]
    fn swap_encoder_returns_the_previous_encoder() {
        let mut encoder = encoder(Scheme::Ac);
        let old = encoder.swap_plan(Scheme::Dc.plan());
        assert_eq!(old.scheme(), Scheme::Ac);
        assert_eq!(encoder.scheme().name(), "DBI DC");
    }

    #[test]
    fn empty_trace_reports_zero_and_keeps_state() {
        let empty = Trace::new("empty", vec![]);
        let mut encoder = encoder(Scheme::Dc);
        let mut per_group = vec![CostBreakdown::new(1, 1)];
        let mut masks = Vec::new();
        // An empty stream is rejected, and leaves no stale activity behind.
        assert!(encoder
            .encode_stream_into(&stream(&empty), &mut per_group, Some(&mut masks))
            .is_err());
        assert!(per_group.is_empty() && masks.is_empty());
        assert_eq!(encoder.group_state(0), Some(BusState::idle()));
        assert_eq!(encoder.scheme().name(), "DBI DC");
    }
}
