//! Differential proof that the [`EncodePlan`] refactor changed no bits.
//!
//! The plan plane replaced the static scheme dispatch (a compile-time
//! `OPT_FIXED` encoder plus per-call construction for bespoke weights).
//! These tests chain a seeded random workload through three routes —
//! the concrete encoder structs (the pre-refactor dispatch targets,
//! untouched by the refactor), `Scheme` dispatch (now plan-backed) and an
//! explicit [`EncodePlan`] — and assert the masks, the materialised
//! symbols and the carried bus state are bit-identical at every burst,
//! for every scheme in `paper_set ∪ conventional_set` plus bespoke-weight
//! variants.

use dbi_core::schemes::{
    AcDcEncoder, AcEncoder, DcEncoder, GreedyEncoder, OptEncoder, OptFixedEncoder, RawEncoder,
};
use dbi_core::{
    Burst, BusState, CostWeights, DbiEncoder, EncodePlan, EncodedBurst, PlanCache, Scheme,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded workload of bursts with the lengths the service accepts.
fn seeded_workload(seed: u64, count: usize) -> Vec<Burst> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let len = rng.gen_range(1usize..17);
            Burst::new((0..len).map(|_| rng.gen::<u8>()).collect()).unwrap()
        })
        .collect()
}

/// The pre-refactor dispatch target for a scheme: the concrete encoder
/// struct, built exactly as the old `with_encoder` match did.
fn concrete_encoder(scheme: Scheme) -> Box<dyn DbiEncoder + Send + Sync> {
    match scheme {
        Scheme::Raw => Box::new(RawEncoder::new()),
        Scheme::Dc => Box::new(DcEncoder::new()),
        Scheme::Ac => Box::new(AcEncoder::new()),
        Scheme::AcDc => Box::new(AcDcEncoder::new()),
        Scheme::Greedy(weights) => Box::new(GreedyEncoder::new(weights)),
        Scheme::Opt(weights) => Box::new(OptEncoder::new(weights)),
        Scheme::OptFixed => Box::new(OptFixedEncoder::new()),
        other => panic!("untested scheme {other}"),
    }
}

fn all_schemes() -> Vec<Scheme> {
    let mut schemes: Vec<Scheme> = Scheme::paper_set().to_vec();
    for scheme in Scheme::conventional_set() {
        if !schemes.contains(scheme) {
            schemes.push(*scheme);
        }
    }
    schemes.push(Scheme::Greedy(CostWeights::new(3, 2).unwrap()));
    schemes.push(Scheme::Opt(CostWeights::new(1, 6).unwrap()));
    schemes.push(Scheme::Opt(CostWeights::new(6, 1).unwrap()));
    schemes
}

#[test]
fn plans_reproduce_the_static_dispatch_path_bit_for_bit() {
    let workload = seeded_workload(0xD1FF, 256);
    for scheme in all_schemes() {
        let reference = concrete_encoder(scheme);
        let plan = EncodePlan::new(scheme);
        let via_scheme = scheme; // plan-backed dispatch

        let mut ref_state = BusState::idle();
        let mut plan_state = BusState::idle();
        let mut scheme_state = BusState::idle();
        let mut plan_out = EncodedBurst::empty();
        for (index, burst) in workload.iter().enumerate() {
            let ref_encoded = reference.encode(burst, &ref_state);
            let ref_mask = reference.encode_mask(burst, &ref_state);
            assert_eq!(
                ref_encoded.mask(),
                ref_mask,
                "{scheme}: reference paths disagree at burst {index}"
            );

            let plan_mask = plan.encode_mask(burst, &plan_state);
            plan_out.assign_from_mask(burst, plan_mask).unwrap();
            let scheme_mask = via_scheme.encode_mask(burst, &scheme_state);

            assert_eq!(plan_mask, ref_mask, "{scheme}: mask at burst {index}");
            assert_eq!(scheme_mask, ref_mask, "{scheme}: dispatch at burst {index}");
            assert_eq!(
                plan_out.symbols(),
                ref_encoded.symbols(),
                "{scheme}: symbols at burst {index}"
            );

            ref_state = ref_encoded.final_state(&ref_state);
            plan_state = plan_mask.final_state(burst, &plan_state);
            scheme_state = scheme_mask.final_state(burst, &scheme_state);
            assert_eq!(plan_state, ref_state, "{scheme}: state at burst {index}");
            assert_eq!(scheme_state, ref_state, "{scheme}: state at burst {index}");
        }
    }
}

#[test]
fn default_plan_is_bit_identical_to_the_former_static_opt_fixed() {
    let workload = seeded_workload(0xF1EED, 512);
    let plan = EncodePlan::default_fixed();
    let reference = OptFixedEncoder::new();
    let mut state = BusState::idle();
    for burst in &workload {
        let expected = reference.encode_mask(burst, &state);
        assert_eq!(plan.encode_mask(burst, &state), expected);
        assert_eq!(Scheme::OptFixed.encode_mask(burst, &state), expected);
        assert_eq!(
            Scheme::Opt(CostWeights::FIXED).encode_mask(burst, &state),
            expected
        );
        state = expected.final_state(burst, &state);
    }
}

#[test]
fn cached_plans_encode_identically_to_fresh_plans() {
    let workload = seeded_workload(0xCACE, 128);
    let cache = PlanCache::new(4);
    for scheme in all_schemes() {
        let cached = cache.get(scheme);
        let fresh = EncodePlan::new(scheme);
        let mut cached_state = BusState::idle();
        let mut fresh_state = BusState::idle();
        for burst in &workload {
            let a = cached.encode_mask(burst, &cached_state);
            let b = fresh.encode_mask(burst, &fresh_state);
            assert_eq!(a, b, "{scheme}");
            cached_state = a.final_state(burst, &cached_state);
            fresh_state = b.final_state(burst, &fresh_state);
        }
        assert_eq!(cached_state, fresh_state, "{scheme}");
    }
}
