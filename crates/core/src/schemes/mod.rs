//! DBI encoding schemes.
//!
//! All schemes implement the [`DbiEncoder`] trait: given the payload bytes
//! of a burst and the lane levels left on the bus by the previous transfer,
//! they decide per byte whether to transmit it inverted.
//!
//! | Scheme | Encoder | Objective |
//! |--------|---------|-----------|
//! | RAW | [`RawEncoder`] | no encoding (baseline) |
//! | DBI DC | [`DcEncoder`] | at most four zeros per byte (per-byte zero minimisation) |
//! | DBI AC | [`AcEncoder`] | per-byte transition minimisation vs. the previous word |
//! | DBI ACDC | [`AcDcEncoder`] | Hollis' mode switch: first byte DC, remaining bytes AC |
//! | Greedy | [`GreedyEncoder`] | per-byte weighted (α, β) minimisation, no look-ahead |
//! | DBI OPT | [`OptEncoder`] | burst-global minimum of α·transitions + β·zeros (shortest path) |
//! | DBI OPT (Fixed) | [`OptFixedEncoder`] | DBI OPT with α = β = 1 (the paper's hardware-friendly variant) |
//! | Exhaustive | [`ExhaustiveEncoder`] | brute-force 2ⁿ search, used as a correctness oracle |
//!
//! ## Encoding entry points
//!
//! Every scheme provides two encoding entry points:
//!
//! * [`DbiEncoder::encode_mask`] — the per-burst reference: returns only
//!   the per-byte decisions as an [`InversionMask`]. Every scheme in this
//!   crate implements it with **no heap allocation**; combined with
//!   [`InversionMask::breakdown`] this is all a streaming cost evaluation
//!   needs, and [`EncodedBurst::assign_from_mask`] materialises the lane
//!   words into a caller-owned buffer when they are wanted.
//! * [`DbiEncoder::encode_lanes_into`] — the batch path: encodes a
//!   [`BurstSlab`] holding one or more independent chains, each carrying
//!   its own [`BusState`]. A single chain is
//!   `encode_lanes_into(slab, core::slice::from_mut(state))`.
//!
//! [`DbiEncoder::encode`] is a provided convenience returning a fresh
//! [`EncodedBurst`] (whose inline symbol buffer still keeps standard
//! BL8/BL16 bursts off the heap).

mod ac;
mod acdc;
mod dc;
mod exhaustive;
mod greedy;
mod opt;
mod per_byte;
mod raw;

pub use ac::AcEncoder;
pub use acdc::AcDcEncoder;
pub use dc::DcEncoder;
pub use exhaustive::ExhaustiveEncoder;
pub use greedy::GreedyEncoder;
pub use opt::{OptEncoder, OptFixedEncoder};
pub use raw::RawEncoder;

use crate::burst::{Burst, BusState};
use crate::cost::CostWeights;
use crate::encoding::{EncodedBurst, InversionMask};
use crate::plan::{EncodePlan, PlanCache};
use crate::slab::BurstSlab;
use core::fmt;
use std::sync::Arc;

/// A data bus inversion encoder.
///
/// Implementations are pure functions of the burst payload and the previous
/// bus state; they hold only configuration (such as cost coefficients or
/// precomputed cost tables) and are therefore `Send + Sync` and freely
/// shareable.
pub trait DbiEncoder {
    /// Short human-readable name used in reports and benchmarks
    /// (for example `"DBI DC"` or `"DBI OPT (Fixed)"`).
    fn name(&self) -> &str;

    /// Chooses the per-byte inversion decisions for `burst`, given that the
    /// lanes currently carry `state` — the per-burst reference every batch
    /// path is differential-tested against.
    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask;

    /// Encodes a slab holding the bursts of `states.len()` **independent
    /// chains** (one per lane group of a channel), laid out chain-major:
    /// chain `c`'s bursts occupy rows `c·per_chain .. (c+1)·per_chain`,
    /// and each chain carries its own [`BusState`], exactly as a serial
    /// [`DbiEncoder::encode_mask`] chain would. Fills one mask and one
    /// cost row per burst; on return each state holds the lane levels
    /// after its chain's last burst.
    ///
    /// Every scheme this crate ships overrides it with a direct kernel.
    /// The optimal encoders run carried-state LUT kernels that sweep four
    /// or eight chains as parallel lanes of one trellis recurrence
    /// ([`crate::simd`]); RAW, DBI DC, DBI AC, DBI ACDC and Greedy share
    /// one per-byte kernel that carries each chain as its last data byte
    /// and DBI level and prices each burst word-wide. Every override is
    /// **bit-identical** to the serial per-burst `encode_mask` chain
    /// (`tests/slab_differential.rs`).
    ///
    /// The default runs that serial per-burst chain per lane group
    /// through the slab's reusable scratch buffer (allocation-free once
    /// the slab is warm); it serves [`ExhaustiveEncoder`], the
    /// brute-force oracle, and any encoder defined outside this crate.
    ///
    /// # Panics
    ///
    /// Panics when `states` is empty or the slab's burst count is not a
    /// whole number of chains.
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        slab.encode_chains_with(states, |burst, state| self.encode_mask(burst, state));
    }

    /// Encodes one burst and materialises the transmitted lane words —
    /// [`DbiEncoder::encode_mask`] applied through
    /// [`EncodedBurst::from_mask`].
    ///
    /// # Panics
    ///
    /// Panics if the burst is longer than 32 bytes (the mask width).
    fn encode(&self, burst: &Burst, state: &BusState) -> EncodedBurst {
        EncodedBurst::from_mask(burst, self.encode_mask(burst, state))
            .expect("encoders produce masks that are valid for their burst")
    }
}

impl<T: DbiEncoder + ?Sized> DbiEncoder for Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        (**self).encode_mask(burst, state)
    }

    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        (**self).encode_lanes_into(slab, states);
    }
}

/// The schemes compared in Figs. 3, 4, 7 and 8 of the paper, in plot order.
const PAPER_SET: [Scheme; 5] = [
    Scheme::Raw,
    Scheme::Dc,
    Scheme::Ac,
    Scheme::Opt(CostWeights::FIXED),
    Scheme::OptFixed,
];

/// The conventional schemes DBI OPT is compared against.
const CONVENTIONAL_SET: [Scheme; 4] = [Scheme::Raw, Scheme::Dc, Scheme::Ac, Scheme::AcDc];

/// Enumeration of every scheme evaluated in the paper, for convenient
/// configuration-driven selection (figures sweep over this set).
///
/// ```
/// use dbi_core::{Burst, BusState, Scheme};
/// use dbi_core::schemes::DbiEncoder;
///
/// let burst = Burst::paper_example();
/// for scheme in Scheme::paper_set() {
///     let encoded = scheme.encode(&burst, &BusState::idle());
///     assert_eq!(encoded.decode(), burst);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Scheme {
    /// Unencoded transmission (no DBI).
    Raw,
    /// DBI DC: invert bytes with five or more zeros.
    Dc,
    /// DBI AC: invert when it reduces transitions vs. the previous word.
    Ac,
    /// DBI ACDC (Hollis): first byte DC, remaining bytes AC.
    AcDc,
    /// Greedy weighted per-byte heuristic with the given coefficients.
    Greedy(CostWeights),
    /// Optimal shortest-path encoding with the given coefficients.
    Opt(CostWeights),
    /// Optimal shortest-path encoding with fixed α = β = 1.
    OptFixed,
}

impl Scheme {
    /// The canonical parse spellings accepted by `Scheme::from_str`, one
    /// per scheme plus the two parametric forms. Listed in the
    /// [`DbiError::UnknownScheme`](crate::DbiError::UnknownScheme) message
    /// so a typo'd configuration tells the operator what *would* have
    /// parsed; every concrete entry round-trips through `from_str`
    /// (tested below).
    pub const ALIASES: &'static [&'static str] = &[
        "raw",
        "dc",
        "ac",
        "acdc",
        "greedy",
        "opt",
        "opt-fixed",
        "opt:ALPHA,BETA",
        "greedy:ALPHA,BETA",
    ];

    /// The schemes compared in Figs. 3, 4, 7 and 8 of the paper, in plot
    /// order: RAW, DC, AC, OPT(α=β=1), OPT(Fixed). Borrows a static slice;
    /// call `.to_vec()` where owned storage is required.
    #[must_use]
    pub const fn paper_set() -> &'static [Scheme] {
        &PAPER_SET
    }

    /// The conventional schemes DBI OPT is compared against (RAW, DC, AC,
    /// ACDC), as a static slice.
    #[must_use]
    pub const fn conventional_set() -> &'static [Scheme] {
        &CONVENTIONAL_SET
    }

    /// Builds a boxed encoder for dynamic dispatch over heterogeneous
    /// scheme collections.
    ///
    /// For sweeps that encode many bursts with one parametric scheme, this
    /// is the preferred form: the encoder (and, for [`Scheme::Opt`], its
    /// precomputed cost tables) is built once instead of per burst.
    #[must_use]
    pub fn boxed(&self) -> Box<dyn DbiEncoder + Send + Sync> {
        match *self {
            Scheme::Raw => Box::new(RawEncoder::new()),
            Scheme::Dc => Box::new(DcEncoder::new()),
            Scheme::Ac => Box::new(AcEncoder::new()),
            Scheme::AcDc => Box::new(AcDcEncoder::new()),
            Scheme::Greedy(weights) => Box::new(GreedyEncoder::new(weights)),
            Scheme::Opt(weights) => Box::new(OptEncoder::new(weights)),
            Scheme::OptFixed => Box::new(OptFixedEncoder::new()),
        }
    }

    /// The [`EncodePlan`] for this scheme, fetched from (and, on first
    /// touch, built into) the process-wide [`PlanCache::global`] cache.
    ///
    /// This is the preferred way to turn runtime configuration into an
    /// encoder: the plan bundles the scheme with its weights and — for the
    /// optimal variants — the precomputed cost tables, and repeated calls
    /// with the same scheme share one `Arc`. The returned plan reports
    /// *this* scheme from [`EncodePlan::scheme`].
    #[must_use]
    pub fn plan(&self) -> Arc<EncodePlan> {
        match *self {
            Scheme::OptFixed => EncodePlan::default_fixed(),
            // `Opt(FIXED)` deliberately gets its own cache entry rather
            // than the default plan: the tables are identical, but the
            // plan must keep reporting the scheme it was requested as,
            // so bookkeeping keyed on scheme identity (sessions, tests)
            // survives the trip through a plan.
            scheme => PlanCache::global().get(scheme),
        }
    }

    /// Dispatches `op` to a ready-made encoder for this scheme.
    ///
    /// The stateless schemes cost nothing to construct; the fixed-weight
    /// optimal variants (including `Opt(CostWeights::FIXED)`) reuse the
    /// compile-time default [`EncodePlan`], so per-call overhead is a
    /// single match. `Opt` with bespoke weights is served through the
    /// process-wide [`PlanCache::global`] cache: the first touch of a
    /// weight pair builds its cost tables, every later call is a cache
    /// hit — runtime weights encode at fixed-path speed after first touch.
    #[inline]
    fn with_encoder<R>(&self, op: impl FnOnce(&dyn DbiEncoder) -> R) -> R {
        match *self {
            Scheme::Raw => op(&RawEncoder),
            Scheme::Dc => op(&DcEncoder),
            Scheme::Ac => op(&AcEncoder),
            Scheme::AcDc => op(&AcDcEncoder),
            Scheme::Greedy(weights) => op(&GreedyEncoder::new(weights)),
            Scheme::Opt(weights) if weights == CostWeights::FIXED => {
                op(EncodePlan::default_fixed_ref())
            }
            Scheme::Opt(_) => op(&*PlanCache::global().get(*self)),
            Scheme::OptFixed => op(EncodePlan::default_fixed_ref()),
        }
    }
}

impl DbiEncoder for Scheme {
    fn name(&self) -> &str {
        match self {
            Scheme::Raw => "RAW",
            Scheme::Dc => "DBI DC",
            Scheme::Ac => "DBI AC",
            Scheme::AcDc => "DBI ACDC",
            Scheme::Greedy(_) => "Greedy",
            Scheme::Opt(_) => "DBI OPT",
            Scheme::OptFixed => "DBI OPT (Fixed)",
        }
    }

    fn encode_mask(&self, burst: &Burst, state: &BusState) -> InversionMask {
        self.with_encoder(|encoder| encoder.encode_mask(burst, state))
    }

    /// One dispatch for the whole slab — `Scheme`'s per-burst calls pay a
    /// `with_encoder` match each; the slab path resolves the encoder once.
    fn encode_lanes_into(&self, slab: &mut BurstSlab, states: &mut [BusState]) {
        self.with_encoder(|encoder| encoder.encode_lanes_into(slab, states));
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", DbiEncoder::name(self))
    }
}

impl core::str::FromStr for Scheme {
    type Err = crate::error::DbiError;

    /// Parses a scheme name — the inverse of [`Scheme`]'s `Display`.
    ///
    /// Accepted spellings, all case-insensitive:
    ///
    /// * the canonical display names: `"RAW"`, `"DBI DC"`, `"DBI AC"`,
    ///   `"DBI ACDC"`, `"Greedy"`, `"DBI OPT"`, `"DBI OPT (Fixed)"`;
    /// * short aliases: `"dc"`, `"ac"`, `"acdc"`, `"greedy"`, `"opt"`,
    ///   `"opt-fixed"` (also `opt_fixed` / `optfixed`);
    /// * explicit coefficients for the parametric schemes:
    ///   `"opt:ALPHA,BETA"` and `"greedy:ALPHA,BETA"`, e.g. `"opt:2,3"`.
    ///
    /// The bare names `"greedy"` and `"opt"` (and the display names
    /// `"Greedy"` / `"DBI OPT"`, which do not spell out their weights)
    /// parse to the fixed coefficients α = β = 1, so
    /// `s.to_string().parse()` round-trips for every scheme in
    /// [`Scheme::paper_set`] and [`Scheme::conventional_set`].
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::UnknownScheme`](crate::DbiError::UnknownScheme)
    /// for unrecognised names, and the underlying coefficient error for
    /// out-of-range `ALPHA,BETA` suffixes.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        let lower = trimmed.to_ascii_lowercase();

        // Parametric forms carry their coefficients after a colon.
        if let Some((head, tail)) = lower.split_once(':') {
            let weights = parse_weights(trimmed, tail)?;
            return match head.trim() {
                "opt" | "dbi opt" => Ok(Scheme::Opt(weights)),
                "greedy" => Ok(Scheme::Greedy(weights)),
                _ => Err(crate::error::DbiError::UnknownScheme(trimmed.to_owned())),
            };
        }

        match lower.as_str() {
            "raw" | "none" => Ok(Scheme::Raw),
            "dc" | "dbi dc" | "dbi-dc" => Ok(Scheme::Dc),
            "ac" | "dbi ac" | "dbi-ac" => Ok(Scheme::Ac),
            "acdc" | "dbi acdc" | "dbi-acdc" => Ok(Scheme::AcDc),
            "greedy" => Ok(Scheme::Greedy(CostWeights::FIXED)),
            "opt" | "dbi opt" | "dbi-opt" => Ok(Scheme::Opt(CostWeights::FIXED)),
            "opt-fixed" | "opt_fixed" | "optfixed" | "dbi opt (fixed)" => Ok(Scheme::OptFixed),
            _ => Err(crate::error::DbiError::UnknownScheme(trimmed.to_owned())),
        }
    }
}

/// Parses the `ALPHA,BETA` suffix of a parametric scheme name.
fn parse_weights(original: &str, tail: &str) -> Result<CostWeights, crate::error::DbiError> {
    let unknown = || crate::error::DbiError::UnknownScheme(original.to_owned());
    let (alpha, beta) = tail.split_once(',').ok_or_else(unknown)?;
    let alpha: u32 = alpha.trim().parse().map_err(|_| unknown())?;
    let beta: u32 = beta.trim().parse().map_err(|_| unknown())?;
    CostWeights::new(alpha, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostWeights;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn encoders_are_send_and_sync() {
        assert_send_sync::<RawEncoder>();
        assert_send_sync::<DcEncoder>();
        assert_send_sync::<AcEncoder>();
        assert_send_sync::<AcDcEncoder>();
        assert_send_sync::<GreedyEncoder>();
        assert_send_sync::<OptEncoder>();
        assert_send_sync::<OptFixedEncoder>();
        assert_send_sync::<ExhaustiveEncoder>();
        assert_send_sync::<Scheme>();
    }

    #[test]
    fn scheme_names_are_distinct() {
        let schemes = [
            Scheme::Raw,
            Scheme::Dc,
            Scheme::Ac,
            Scheme::AcDc,
            Scheme::Greedy(CostWeights::FIXED),
            Scheme::Opt(CostWeights::FIXED),
            Scheme::OptFixed,
        ];
        let mut names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), schemes.len());
    }

    #[test]
    fn scheme_sets_are_static_and_contain_the_plotted_schemes() {
        let set = Scheme::paper_set();
        assert_eq!(set.len(), 5);
        assert_eq!(set[0], Scheme::Raw);
        assert!(set.contains(&Scheme::OptFixed));
        // Two calls alias the same static storage — no allocation per call.
        assert!(core::ptr::eq(Scheme::paper_set(), Scheme::paper_set()));
        assert_eq!(Scheme::conventional_set().len(), 4);
        assert!(Scheme::conventional_set().contains(&Scheme::AcDc));
    }

    #[test]
    fn every_scheme_roundtrips_through_decode() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let mut all: Vec<Scheme> = Scheme::paper_set().to_vec();
        all.extend_from_slice(Scheme::conventional_set());
        all.push(Scheme::Greedy(CostWeights::new(2, 3).unwrap()));
        for scheme in all {
            let encoded = scheme.encode(&burst, &state);
            assert_eq!(encoded.decode(), burst, "scheme {scheme} must be lossless");
            assert_eq!(encoded.len(), burst.len());
        }
    }

    #[test]
    fn boxed_and_borrowed_dispatch_agree_with_direct_dispatch() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        for scheme in Scheme::paper_set() {
            let direct = scheme.encode(&burst, &state);
            let boxed = scheme.boxed().encode(&burst, &state);
            let via_ref = scheme.encode(&burst, &state);
            assert_eq!(direct, boxed);
            assert_eq!(direct, via_ref);
            assert_eq!(scheme.boxed().name(), scheme.name());
        }
    }

    #[test]
    fn all_encode_paths_agree_for_every_scheme() {
        let burst = Burst::paper_example();
        let state = BusState::idle();
        let mut schemes: Vec<Scheme> = Scheme::paper_set().to_vec();
        schemes.extend_from_slice(Scheme::conventional_set());
        schemes.push(Scheme::Greedy(CostWeights::new(3, 1).unwrap()));
        schemes.push(Scheme::Opt(CostWeights::new(1, 5).unwrap()));
        let mut reused = EncodedBurst::empty();
        for scheme in schemes {
            let full = scheme.encode(&burst, &state);
            let mask = scheme.encode_mask(&burst, &state);
            reused.assign_from_mask(&burst, mask).unwrap();
            assert_eq!(full.mask(), mask, "{scheme}: encode vs encode_mask");
            assert_eq!(full, reused, "{scheme}: encode vs assign_from_mask");
        }
    }

    #[test]
    fn plans_report_the_scheme_they_were_requested_as() {
        let mut all: Vec<Scheme> = Scheme::paper_set().to_vec();
        all.extend_from_slice(Scheme::conventional_set());
        all.push(Scheme::Opt(CostWeights::new(9, 4).unwrap()));
        for scheme in all {
            assert_eq!(scheme.plan().scheme(), scheme, "{scheme:?}");
        }
        // In particular the fixed-weight Opt is not folded into OptFixed.
        assert_eq!(
            Scheme::Opt(CostWeights::FIXED).plan().scheme(),
            Scheme::Opt(CostWeights::FIXED)
        );
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Scheme::OptFixed.to_string(), "DBI OPT (Fixed)");
        assert_eq!(Scheme::Raw.to_string(), "RAW");
    }

    #[test]
    fn from_str_roundtrips_the_display_names() {
        let mut all: Vec<Scheme> = Scheme::paper_set().to_vec();
        all.extend_from_slice(Scheme::conventional_set());
        all.push(Scheme::Greedy(CostWeights::FIXED));
        for scheme in all {
            let parsed: Scheme = scheme.to_string().parse().unwrap();
            assert_eq!(parsed, scheme, "display name {scheme} must parse back");
        }
    }

    #[test]
    fn from_str_accepts_short_aliases_case_insensitively() {
        let cases: [(&str, Scheme); 8] = [
            ("raw", Scheme::Raw),
            ("DC", Scheme::Dc),
            ("ac", Scheme::Ac),
            ("AcDc", Scheme::AcDc),
            ("greedy", Scheme::Greedy(CostWeights::FIXED)),
            ("opt", Scheme::Opt(CostWeights::FIXED)),
            ("OPT-FIXED", Scheme::OptFixed),
            (" opt_fixed ", Scheme::OptFixed),
        ];
        for (name, expected) in cases {
            assert_eq!(name.parse::<Scheme>().unwrap(), expected, "alias {name:?}");
        }
    }

    #[test]
    fn from_str_parses_explicit_coefficients() {
        assert_eq!(
            "opt:2,3".parse::<Scheme>().unwrap(),
            Scheme::Opt(CostWeights::new(2, 3).unwrap())
        );
        assert_eq!(
            "Greedy: 4 , 1 ".parse::<Scheme>().unwrap(),
            Scheme::Greedy(CostWeights::new(4, 1).unwrap())
        );
        // Coefficient errors surface as the underlying weight error.
        assert_eq!(
            "opt:0,0".parse::<Scheme>(),
            Err(crate::error::DbiError::ZeroWeights)
        );
    }

    #[test]
    fn from_str_rejects_unknown_names_with_a_typed_error() {
        for bad in ["", "dbi", "opt:1", "opt:a,b", "raw:1,2", "zzz"] {
            assert!(
                matches!(
                    bad.parse::<Scheme>(),
                    Err(crate::error::DbiError::UnknownScheme(_))
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn unknown_scheme_error_lists_aliases_that_all_parse_back() {
        // The error message advertises every alias...
        let message = "nope".parse::<Scheme>().unwrap_err().to_string();
        for alias in Scheme::ALIASES {
            assert!(
                message.contains(alias),
                "error message {message:?} must list {alias:?}"
            );
        }
        // ...and each advertised spelling round-trips through from_str
        // (the parametric placeholders with example coefficients filled in).
        for alias in Scheme::ALIASES {
            let concrete = alias.replace("ALPHA,BETA", "2,3");
            assert!(
                concrete.parse::<Scheme>().is_ok(),
                "advertised alias {concrete:?} must parse"
            );
        }
    }
}
