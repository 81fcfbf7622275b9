//! Runtime encode plans: (scheme × weights × cost tables) as a value.
//!
//! The cost coefficients (α, β) are the paper's central knob — the optimal
//! scheme changes with the termination style and data rate — yet the fast
//! encoders bake their weights into precomputed [`CostLut`]s at
//! construction time. [`EncodePlan`] makes that binding a first-class
//! **runtime value**: an immutable bundle of a [`Scheme`], its effective
//! [`CostWeights`] and the ready-built tables, cheap to share (`Arc`) and
//! cheap to swap. Everything downstream — `dbi-mem` sessions,
//! `dbi-workloads` trace encoders, the `dbi-service` wire protocol — holds
//! plans instead of consulting compile-time state, so a session can be
//! re-pointed at a new operating point between bursts without rebuilding
//! the layer stack.
//!
//! Building a plan for a parametric scheme costs a [`CostLut`]
//! construction (a 4 KiB table fill). [`PlanCache`] amortises that: a
//! bounded, least-recently-used map from [`Scheme`] to `Arc<EncodePlan>`,
//! so arbitrary runtime weights encode at the same per-burst cost as the
//! compile-time fixed path after first touch. The cache hit path performs
//! no heap allocation (a `HashMap` probe plus an `Arc` clone), which keeps
//! warmed-up request loops allocation-free end to end.
//!
//! The fixed α = β = 1 plan of the paper's hardware-friendly encoder is
//! simply the **default plan** ([`EncodePlan::default_fixed`]); its tables
//! are still computed at compile time.
//!
//! ```
//! use dbi_core::plan::{EncodePlan, PlanCache};
//! use dbi_core::{Burst, BusState, CostWeights, DbiEncoder, Scheme};
//!
//! let burst = Burst::paper_example();
//! let state = BusState::idle();
//!
//! // The default plan is the paper's OPT (Fixed) operating point.
//! let fixed = EncodePlan::default_fixed();
//! assert_eq!(fixed.weights(), CostWeights::FIXED);
//!
//! // Arbitrary runtime weights become a cached plan.
//! let cache = PlanCache::new(8);
//! let skewed = cache.get(Scheme::Opt(CostWeights::new(3, 1).unwrap()));
//! let again = cache.get(skewed.scheme());
//! assert!(std::sync::Arc::ptr_eq(&skewed, &again));
//! assert_eq!(cache.stats().hits, 1);
//!
//! // Plans encode exactly like the scheme they were built from.
//! assert_eq!(
//!     fixed.encode_mask(&burst, &state),
//!     Scheme::OptFixed.encode_mask(&burst, &state),
//! );
//! ```

use crate::burst::{Burst, BusState};
use crate::cost::CostWeights;
use crate::encoding::InversionMask;
use crate::lut::CostLut;
use crate::schemes::{
    AcDcEncoder, AcEncoder, DbiEncoder, DcEncoder, GreedyEncoder, OptEncoder, RawEncoder, Scheme,
};
use crate::slab::BurstSlab;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The concrete encoder a plan dispatches to. An enum (rather than a boxed
/// trait object) so plan construction allocates nothing beyond its `Arc`
/// and the hot path is a static match.
// The 4 KiB cost tables of the optimal encoder live *inline* on purpose:
// a plan is a self-contained, pointer-chase-free bundle, and plans are
// built rarely (cached) while their tables are read on every burst.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanEncoder {
    Raw(RawEncoder),
    Dc(DcEncoder),
    Ac(AcEncoder),
    AcDc(AcDcEncoder),
    Greedy(GreedyEncoder),
    Opt(OptEncoder),
}

/// An immutable, shareable encode configuration: a [`Scheme`], the
/// [`CostWeights`] it prices with, and — for the optimal schemes — the
/// precomputed [`CostLut`] edge-cost tables, built once at plan
/// construction.
///
/// Plans implement [`DbiEncoder`], so anything that encodes through the
/// trait (sessions, trace encoders, the service) can hold an
/// `Arc<EncodePlan>` and be re-pointed at a different operating point at a
/// burst boundary. Encoding through a plan is bit-identical to encoding
/// through the scheme it was built from (`tests/plan_differential.rs`
/// proves this for every scheme in the paper and conventional sets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodePlan {
    scheme: Scheme,
    weights: CostWeights,
    encoder: PlanEncoder,
}

/// The compile-time default plan: DBI OPT (Fixed), α = β = 1, tables baked
/// by `const` evaluation exactly as the former scheme-dispatch static was.
static DEFAULT_FIXED: EncodePlan = EncodePlan::fixed();

/// The shared `Arc` handed out by [`EncodePlan::default_fixed`].
static DEFAULT_FIXED_ARC: OnceLock<Arc<EncodePlan>> = OnceLock::new();

impl EncodePlan {
    /// The default plan as a `const` value: the paper's fixed-coefficient
    /// optimal encoder. Used to seed the `static` default.
    const fn fixed() -> EncodePlan {
        EncodePlan {
            scheme: Scheme::OptFixed,
            weights: CostWeights::FIXED,
            encoder: PlanEncoder::Opt(OptEncoder::new(CostWeights::FIXED)),
        }
    }

    /// Builds the plan for a scheme, constructing its cost tables if the
    /// scheme is parametric. Prefer [`PlanCache::get`] (or
    /// [`Scheme::plan`]) when the same scheme may be requested repeatedly.
    #[must_use]
    pub fn new(scheme: Scheme) -> EncodePlan {
        let (weights, encoder) = match scheme {
            Scheme::Raw => (CostWeights::FIXED, PlanEncoder::Raw(RawEncoder::new())),
            Scheme::Dc => (CostWeights::DC_ONLY, PlanEncoder::Dc(DcEncoder::new())),
            Scheme::Ac => (CostWeights::AC_ONLY, PlanEncoder::Ac(AcEncoder::new())),
            Scheme::AcDc => (CostWeights::FIXED, PlanEncoder::AcDc(AcDcEncoder::new())),
            Scheme::Greedy(weights) => (weights, PlanEncoder::Greedy(GreedyEncoder::new(weights))),
            Scheme::Opt(weights) => (weights, PlanEncoder::Opt(OptEncoder::new(weights))),
            Scheme::OptFixed => (
                CostWeights::FIXED,
                PlanEncoder::Opt(OptEncoder::new(CostWeights::FIXED)),
            ),
        };
        EncodePlan {
            scheme,
            weights,
            encoder,
        }
    }

    /// [`EncodePlan::new`] wrapped in an `Arc`, the form every downstream
    /// layer holds.
    #[must_use]
    pub fn shared(scheme: Scheme) -> Arc<EncodePlan> {
        Arc::new(EncodePlan::new(scheme))
    }

    /// The process-wide default plan: DBI OPT (Fixed) with its tables
    /// computed at compile time. Cloning the returned `Arc` is the whole
    /// cost of "using the default".
    #[must_use]
    pub fn default_fixed() -> Arc<EncodePlan> {
        Arc::clone(DEFAULT_FIXED_ARC.get_or_init(|| Arc::new(DEFAULT_FIXED.clone())))
    }

    /// A borrow of the compile-time default plan, for dispatch paths that
    /// must not touch an `Arc`.
    #[must_use]
    pub(crate) fn default_fixed_ref() -> &'static EncodePlan {
        &DEFAULT_FIXED
    }

    /// The scheme this plan encodes with.
    #[must_use]
    pub const fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The cost coefficients this plan prices with.
    ///
    /// For the parametric schemes these are the embedded weights; the
    /// single-objective schemes report their implied weighting
    /// ([`CostWeights::DC_ONLY`] for DC, [`CostWeights::AC_ONLY`] for AC)
    /// and the remaining heuristics report [`CostWeights::FIXED`].
    #[must_use]
    pub const fn weights(&self) -> CostWeights {
        self.weights
    }

    /// The precomputed edge-cost tables, if this plan drives an optimal
    /// (trellis) encoder; `None` for the per-byte heuristics, which need
    /// no tables.
    #[must_use]
    pub const fn lut(&self) -> Option<&CostLut> {
        match &self.encoder {
            PlanEncoder::Opt(opt) => Some(opt.lut()),
            _ => None,
        }
    }
}

impl Default for EncodePlan {
    /// Defaults to the fixed-coefficient optimal plan.
    fn default() -> Self {
        DEFAULT_FIXED.clone()
    }
}

impl DbiEncoder for EncodePlan {
    fn name(&self) -> &str {
        self.scheme.name()
    }

    #[inline]
    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        match &self.encoder {
            PlanEncoder::Raw(e) => e.encode_mask(burst, state),
            PlanEncoder::Dc(e) => e.encode_mask(burst, state),
            PlanEncoder::Ac(e) => e.encode_mask(burst, state),
            PlanEncoder::AcDc(e) => e.encode_mask(burst, state),
            PlanEncoder::Greedy(e) => e.encode_mask(burst, state),
            PlanEncoder::Opt(e) => e.encode_mask(burst, state),
        }
    }

    /// One static match for the whole slab; the optimal variants reach
    /// the carried-state LUT and lockstep SIMD kernels ([`crate::simd`])
    /// through this dispatch.
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        match &self.encoder {
            PlanEncoder::Raw(e) => e.encode_lanes_into(slab, states),
            PlanEncoder::Dc(e) => e.encode_lanes_into(slab, states),
            PlanEncoder::Ac(e) => e.encode_lanes_into(slab, states),
            PlanEncoder::AcDc(e) => e.encode_lanes_into(slab, states),
            PlanEncoder::Greedy(e) => e.encode_lanes_into(slab, states),
            PlanEncoder::Opt(e) => e.encode_lanes_into(slab, states),
        }
    }
}

impl core::fmt::Display for EncodePlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} [{}]", self.scheme, self.weights)
    }
}

/// Point-in-time counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from a resident plan.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Resident plans dropped to make room.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: usize,
}

/// One resident plan plus its recency stamp.
#[derive(Debug)]
struct CacheSlot {
    plan: Arc<EncodePlan>,
    last_used: u64,
}

#[derive(Debug)]
struct CacheInner {
    entries: HashMap<Scheme, CacheSlot>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, least-recently-used cache of [`EncodePlan`]s keyed by
/// [`Scheme`] (which embeds the weights of the parametric variants, so the
/// key is exactly scheme × weights).
///
/// * **Hit**: a `HashMap` probe, a recency-stamp store and an `Arc` clone —
///   no heap allocation, proved by the counting-allocator test in
///   `tests/zero_alloc.rs`.
/// * **Miss**: builds the plan (a 4 KiB table fill for the optimal
///   schemes), evicting the least recently used entry when the cache is at
///   capacity. Evicted plans stay alive for as long as any caller still
///   holds their `Arc`; only the cache's reference is dropped.
///
/// The cache is `Sync`; a single instance is meant to be shared by every
/// thread of a process or service (the `dbi-service` engine shares one
/// across all shards and reports these [`PlanCacheStats`] in its metrics).
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> PlanCache {
        assert!(
            capacity > 0,
            "a plan cache needs room for at least one plan"
        );
        PlanCache {
            capacity,
            inner: Mutex::new(CacheInner {
                entries: HashMap::with_capacity(capacity),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The process-wide cache used by [`Scheme`] dispatch for parametric
    /// schemes, so `Scheme::Opt(weights)` encodes at cached-table speed
    /// after first touch no matter where the weights came from.
    #[must_use]
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PlanCache::new(Self::GLOBAL_CAPACITY))
    }

    /// Capacity of the [`PlanCache::global`] cache: generous enough for a
    /// figure sweep's worth of distinct weight pairs.
    pub const GLOBAL_CAPACITY: usize = 64;

    /// Maximum number of resident plans.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// The plan for `scheme`, building and caching it on first touch.
    #[must_use]
    pub fn get(&self, scheme: Scheme) -> Arc<EncodePlan> {
        {
            let mut inner = self.inner.lock().expect("plan cache mutex poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.entries.get_mut(&scheme) {
                slot.last_used = tick;
                let plan = Arc::clone(&slot.plan);
                inner.hits += 1;
                return plan;
            }
            inner.misses += 1;
        }
        // Build outside the lock: a 4 KiB table fill must not stall every
        // concurrent lookup in the process. If another thread raced us to
        // the same scheme, adopt its resident plan so all callers share
        // one Arc (the duplicate build is the cheap, contention-free
        // price of the race).
        let plan = EncodePlan::shared(scheme);
        let mut inner = self.inner.lock().expect("plan cache mutex poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.entries.get_mut(&scheme) {
            slot.last_used = tick;
            return Arc::clone(&slot.plan);
        }
        if inner.entries.len() >= self.capacity {
            if let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(scheme, _)| *scheme)
            {
                inner.entries.remove(&oldest);
                inner.evictions += 1;
            }
        }
        inner.entries.insert(
            scheme,
            CacheSlot {
                plan: Arc::clone(&plan),
                last_used: tick,
            },
        );
        plan
    }

    /// A point-in-time copy of the cache counters.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().expect("plan cache mutex poisoned");
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn plans_are_shareable_across_threads() {
        assert_send_sync::<EncodePlan>();
        assert_send_sync::<Arc<EncodePlan>>();
        assert_send_sync::<PlanCache>();
    }

    #[test]
    fn plan_metadata_matches_the_scheme() {
        let cases = [
            (Scheme::Raw, CostWeights::FIXED, false),
            (Scheme::Dc, CostWeights::DC_ONLY, false),
            (Scheme::Ac, CostWeights::AC_ONLY, false),
            (Scheme::AcDc, CostWeights::FIXED, false),
            (
                Scheme::Greedy(CostWeights::new(2, 3).unwrap()),
                CostWeights::new(2, 3).unwrap(),
                false,
            ),
            (
                Scheme::Opt(CostWeights::new(5, 1).unwrap()),
                CostWeights::new(5, 1).unwrap(),
                true,
            ),
            (Scheme::OptFixed, CostWeights::FIXED, true),
        ];
        for (scheme, weights, has_lut) in cases {
            let plan = EncodePlan::new(scheme);
            assert_eq!(plan.scheme(), scheme);
            assert_eq!(plan.weights(), weights, "{scheme}");
            assert_eq!(plan.lut().is_some(), has_lut, "{scheme}");
            assert_eq!(plan.name(), scheme.name());
            if let Some(lut) = plan.lut() {
                assert_eq!(lut.weights(), weights);
            }
            assert!(plan.to_string().contains("alpha="));
        }
    }

    #[test]
    fn default_plan_is_the_fixed_optimal_encoder() {
        let plan = EncodePlan::default_fixed();
        assert_eq!(plan.scheme(), Scheme::OptFixed);
        assert_eq!(plan.weights(), CostWeights::FIXED);
        assert_eq!(EncodePlan::default(), *plan);
        // Repeated calls alias one Arc.
        assert!(Arc::ptr_eq(&plan, &EncodePlan::default_fixed()));
        assert_eq!(EncodePlan::default_fixed_ref().scheme(), Scheme::OptFixed);
    }

    #[test]
    fn plans_encode_identically_to_their_scheme() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let mut schemes: Vec<Scheme> = Scheme::paper_set().to_vec();
        schemes.extend_from_slice(Scheme::conventional_set());
        schemes.push(Scheme::Greedy(CostWeights::new(1, 4).unwrap()));
        schemes.push(Scheme::Opt(CostWeights::new(4, 1).unwrap()));
        for scheme in schemes {
            let plan = EncodePlan::new(scheme);
            assert_eq!(
                plan.encode_mask(&burst, &state),
                scheme.encode_mask(&burst, &state),
                "{scheme}"
            );
            assert_eq!(
                plan.encode(&burst, &state),
                scheme.encode(&burst, &state),
                "{scheme}"
            );
        }
    }

    #[test]
    fn cache_hits_share_one_plan_and_count() {
        let cache = PlanCache::new(4);
        let scheme = Scheme::Opt(CostWeights::new(3, 2).unwrap());
        let first = cache.get(scheme);
        let second = cache.get(scheme);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!(stats.entries, 1);
        assert_eq!(cache.capacity(), 4);
    }

    #[test]
    fn cache_evicts_the_least_recently_used_plan() {
        let cache = PlanCache::new(2);
        let a = Scheme::Opt(CostWeights::new(1, 2).unwrap());
        let b = Scheme::Opt(CostWeights::new(2, 1).unwrap());
        let c = Scheme::Opt(CostWeights::new(3, 1).unwrap());
        let plan_a = cache.get(a);
        let _plan_b = cache.get(b);
        let _ = cache.get(a); // refresh a: b is now the LRU entry
        let _plan_c = cache.get(c); // evicts b
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // a survived (still hit), b must be rebuilt (miss), the evicted
        // plan's existing Arc handles stay valid throughout.
        assert!(Arc::ptr_eq(&plan_a, &cache.get(a)));
        let misses_before = cache.stats().misses;
        let _ = cache.get(b);
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    #[should_panic(expected = "at least one plan")]
    fn zero_capacity_panics() {
        let _ = PlanCache::new(0);
    }

    #[test]
    fn global_cache_serves_parametric_schemes() {
        let scheme = Scheme::Opt(CostWeights::new(7, 11).unwrap());
        let first = PlanCache::global().get(scheme);
        let second = PlanCache::global().get(scheme);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(first.scheme(), scheme);
    }
}
