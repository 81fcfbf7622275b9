//! Cost model: α per transition, β per zero.
//!
//! Section III of the paper weights every transmitted zero with a
//! coefficient β (DC termination energy) and every lane toggle with a
//! coefficient α (dynamic switching energy). Because only the ratio α/β
//! matters for which encoding is cheapest, the coefficients can be small
//! integers; the hardware design in the paper uses either fixed α = β = 1
//! or configurable 3-bit coefficients.

use crate::error::{DbiError, Result};
use crate::word::LaneWord;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign};

/// Largest coefficient value accepted by [`CostWeights::new`]. Keeps the
/// per-burst cost comfortably inside `u64` even for very long bursts.
pub const MAX_WEIGHT: u32 = 1 << 20;

/// Integer cost coefficients for the weighted DBI objective.
///
/// * `alpha` — cost of one lane transition (AC / switching energy).
/// * `beta` — cost of one transmitted zero (DC / termination energy).
///
/// ```
/// # fn main() -> Result<(), dbi_core::DbiError> {
/// use dbi_core::CostWeights;
///
/// let weights = CostWeights::new(3, 5)?;
/// assert_eq!(weights.alpha(), 3);
/// assert_eq!(weights.beta(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostWeights {
    alpha: u32,
    beta: u32,
}

impl CostWeights {
    /// The fixed coefficients α = β = 1 used by the paper's "DBI OPT
    /// (Fixed)" hardware design.
    pub const FIXED: CostWeights = CostWeights { alpha: 1, beta: 1 };

    /// Pure DC weighting (only zeros matter). With these weights the optimal
    /// encoder degenerates to DBI DC.
    pub const DC_ONLY: CostWeights = CostWeights { alpha: 0, beta: 1 };

    /// Pure AC weighting (only transitions matter). With these weights the
    /// optimal encoder degenerates to DBI AC.
    pub const AC_ONLY: CostWeights = CostWeights { alpha: 1, beta: 0 };

    /// Creates a new weight pair.
    ///
    /// # Errors
    ///
    /// * [`DbiError::ZeroWeights`] if both coefficients are zero.
    /// * [`DbiError::WeightOutOfRange`] if either coefficient exceeds
    ///   [`MAX_WEIGHT`].
    pub fn new(alpha: u32, beta: u32) -> Result<Self> {
        if alpha == 0 && beta == 0 {
            return Err(DbiError::ZeroWeights);
        }
        for value in [alpha, beta] {
            if value > MAX_WEIGHT {
                return Err(DbiError::WeightOutOfRange {
                    value: u64::from(value),
                    max: u64::from(MAX_WEIGHT),
                });
            }
        }
        Ok(CostWeights { alpha, beta })
    }

    /// Quantises a physical energy ratio into integer coefficients with the
    /// given resolution (number of bits per coefficient, as in the paper's
    /// "3-bit coefficient" hardware variant).
    ///
    /// The pair `(energy_per_transition, energy_per_zero)` is scaled so that
    /// the larger coefficient becomes `2^resolution_bits - 1`; the smaller
    /// one is rounded to the nearest integer but kept at least 1 whenever
    /// the corresponding energy is non-zero (a zero coefficient would change
    /// which encodings are optimal rather than merely approximating the
    /// ratio).
    ///
    /// # Errors
    ///
    /// Returns [`DbiError::ZeroWeights`] when both energies are zero,
    /// negative, or not finite.
    pub fn from_energy_ratio(
        energy_per_transition: f64,
        energy_per_zero: f64,
        resolution_bits: u32,
    ) -> Result<Self> {
        let sane = |e: f64| e.is_finite() && e > 0.0;
        let max_coeff = ((1u64 << resolution_bits.clamp(1, 20)) - 1) as f64;
        match (sane(energy_per_transition), sane(energy_per_zero)) {
            (false, false) => Err(DbiError::ZeroWeights),
            (true, false) => CostWeights::new(1, 0),
            (false, true) => CostWeights::new(0, 1),
            (true, true) => {
                let (alpha, beta) = if energy_per_transition >= energy_per_zero {
                    let alpha = max_coeff;
                    let beta = (energy_per_zero / energy_per_transition * max_coeff).round();
                    (alpha, beta.max(1.0))
                } else {
                    let beta = max_coeff;
                    let alpha = (energy_per_transition / energy_per_zero * max_coeff).round();
                    (alpha.max(1.0), beta)
                };
                CostWeights::new(alpha as u32, beta as u32)
            }
        }
    }

    /// Cost coefficient per lane transition.
    #[must_use]
    pub const fn alpha(&self) -> u32 {
        self.alpha
    }

    /// Cost coefficient per transmitted zero.
    #[must_use]
    pub const fn beta(&self) -> u32 {
        self.beta
    }

    /// Weighted cost of driving `word` on a bus whose previous levels were
    /// `prev`.
    #[must_use]
    pub fn symbol_cost(&self, word: LaneWord, prev: LaneWord) -> u64 {
        u64::from(self.alpha) * u64::from(word.transitions_from(prev))
            + u64::from(self.beta) * u64::from(word.zeros())
    }

    /// Weighted cost of a [`CostBreakdown`].
    #[must_use]
    pub fn weighted(&self, breakdown: CostBreakdown) -> u64 {
        u64::from(self.alpha) * breakdown.transitions + u64::from(self.beta) * breakdown.zeros
    }

    /// Size of the little-endian wire encoding produced by
    /// [`CostWeights::to_le_bytes`]: α then β, 4 bytes each.
    pub const WIRE_BYTES: usize = 8;

    /// The coefficients as fixed-width little-endian bytes (α first), for
    /// binary wire protocols.
    #[must_use]
    pub fn to_le_bytes(self) -> [u8; Self::WIRE_BYTES] {
        let mut bytes = [0u8; Self::WIRE_BYTES];
        bytes[..4].copy_from_slice(&self.alpha.to_le_bytes());
        bytes[4..].copy_from_slice(&self.beta.to_le_bytes());
        bytes
    }

    /// Reconstructs coefficients from their [`CostWeights::to_le_bytes`]
    /// form, re-applying the [`CostWeights::new`] validity checks.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CostWeights::new`]: both coefficients zero, or
    /// either above [`MAX_WEIGHT`].
    pub fn from_le_bytes(bytes: [u8; Self::WIRE_BYTES]) -> Result<Self> {
        let mut alpha = [0u8; 4];
        let mut beta = [0u8; 4];
        alpha.copy_from_slice(&bytes[..4]);
        beta.copy_from_slice(&bytes[4..]);
        CostWeights::new(u32::from_le_bytes(alpha), u32::from_le_bytes(beta))
    }
}

impl Default for CostWeights {
    /// Defaults to the fixed coefficients α = β = 1.
    fn default() -> Self {
        CostWeights::FIXED
    }
}

impl fmt::Display for CostWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alpha={} beta={}", self.alpha, self.beta)
    }
}

/// Raw activity counts of a transmission: how many zeros were driven and
/// how many lanes toggled.
///
/// The split is kept explicit (rather than collapsing into a single weighted
/// number) because the physical energy model in `dbi-phy` applies different
/// per-event energies to the two components, and because the Pareto analysis
/// of Fig. 2 needs both axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct CostBreakdown {
    /// Number of lane-intervals driven low (termination / DC events).
    pub zeros: u64,
    /// Number of lane toggles (switching / AC events).
    pub transitions: u64,
}

impl CostBreakdown {
    /// A breakdown with no activity at all.
    pub const ZERO: CostBreakdown = CostBreakdown {
        zeros: 0,
        transitions: 0,
    };

    /// Creates a breakdown from explicit counts.
    #[must_use]
    pub const fn new(zeros: u64, transitions: u64) -> Self {
        CostBreakdown { zeros, transitions }
    }

    /// Weighted integer cost under the given coefficients.
    #[must_use]
    pub fn weighted(&self, weights: &CostWeights) -> u64 {
        weights.weighted(*self)
    }

    /// Physical energy given per-event energies (joules per zero interval
    /// and joules per transition). Used by the `dbi-phy` energy model.
    #[must_use]
    pub fn energy(&self, energy_per_zero: f64, energy_per_transition: f64) -> f64 {
        self.zeros as f64 * energy_per_zero + self.transitions as f64 * energy_per_transition
    }

    /// `true` when `self` is at least as good as `other` on both axes and
    /// strictly better on at least one (Pareto dominance).
    #[must_use]
    pub fn dominates(&self, other: &CostBreakdown) -> bool {
        (self.zeros <= other.zeros && self.transitions <= other.transitions)
            && (self.zeros < other.zeros || self.transitions < other.transitions)
    }

    /// Size of the little-endian wire encoding produced by
    /// [`CostBreakdown::to_le_bytes`]: zeros then transitions, 8 bytes each.
    pub const WIRE_BYTES: usize = 16;

    /// The breakdown as fixed-width little-endian bytes (zeros first,
    /// transitions second), for binary wire protocols.
    #[must_use]
    pub fn to_le_bytes(self) -> [u8; Self::WIRE_BYTES] {
        let mut bytes = [0u8; Self::WIRE_BYTES];
        bytes[..8].copy_from_slice(&self.zeros.to_le_bytes());
        bytes[8..].copy_from_slice(&self.transitions.to_le_bytes());
        bytes
    }

    /// Reconstructs a breakdown from its [`CostBreakdown::to_le_bytes`]
    /// form. Every byte pattern is a valid breakdown.
    #[must_use]
    pub fn from_le_bytes(bytes: [u8; Self::WIRE_BYTES]) -> Self {
        let mut zeros = [0u8; 8];
        let mut transitions = [0u8; 8];
        zeros.copy_from_slice(&bytes[..8]);
        transitions.copy_from_slice(&bytes[8..]);
        CostBreakdown {
            zeros: u64::from_le_bytes(zeros),
            transitions: u64::from_le_bytes(transitions),
        }
    }
}

impl Add for CostBreakdown {
    type Output = CostBreakdown;

    fn add(self, rhs: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            zeros: self.zeros + rhs.zeros,
            transitions: self.transitions + rhs.transitions,
        }
    }
}

impl AddAssign for CostBreakdown {
    fn add_assign(&mut self, rhs: CostBreakdown) {
        self.zeros += rhs.zeros;
        self.transitions += rhs.transitions;
    }
}

impl Sum for CostBreakdown {
    fn sum<I: Iterator<Item = CostBreakdown>>(iter: I) -> Self {
        iter.fold(CostBreakdown::ZERO, Add::add)
    }
}

impl fmt::Display for CostBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zeros={} transitions={}", self.zeros, self.transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::LaneWord;

    #[test]
    fn new_rejects_zero_and_oversized_weights() {
        assert_eq!(CostWeights::new(0, 0), Err(DbiError::ZeroWeights));
        assert!(CostWeights::new(0, 1).is_ok());
        assert!(CostWeights::new(1, 0).is_ok());
        assert!(matches!(
            CostWeights::new(MAX_WEIGHT + 1, 1),
            Err(DbiError::WeightOutOfRange { .. })
        ));
    }

    #[test]
    fn constants_are_valid() {
        assert_eq!(CostWeights::FIXED.alpha(), 1);
        assert_eq!(CostWeights::FIXED.beta(), 1);
        assert_eq!(CostWeights::DC_ONLY.alpha(), 0);
        assert_eq!(CostWeights::AC_ONLY.beta(), 0);
        assert_eq!(CostWeights::default(), CostWeights::FIXED);
    }

    #[test]
    fn symbol_cost_weights_both_components() {
        let weights = CostWeights::new(2, 3).unwrap();
        let prev = LaneWord::ALL_ONES;
        let word = LaneWord::encode_byte(0x0F, false); // 4 zeros, 4 transitions
        assert_eq!(weights.symbol_cost(word, prev), 2 * 4 + 3 * 4);
    }

    #[test]
    fn from_energy_ratio_balances_coefficients() {
        // Equal energies must give equal coefficients.
        let w = CostWeights::from_energy_ratio(1e-12, 1e-12, 3).unwrap();
        assert_eq!(w.alpha(), w.beta());
        // Transition energy twice the zero energy: alpha about twice beta.
        let w = CostWeights::from_energy_ratio(2e-12, 1e-12, 3).unwrap();
        assert_eq!(w.alpha(), 7);
        assert!((3..=4).contains(&w.beta()));
        // Degenerate cases fall back to the single-objective weightings.
        assert_eq!(
            CostWeights::from_energy_ratio(0.0, 1e-12, 3).unwrap(),
            CostWeights::DC_ONLY
        );
        assert_eq!(
            CostWeights::from_energy_ratio(1e-12, 0.0, 3).unwrap(),
            CostWeights::AC_ONLY
        );
        assert!(CostWeights::from_energy_ratio(0.0, 0.0, 3).is_err());
        assert!(CostWeights::from_energy_ratio(f64::NAN, f64::NAN, 3).is_err());
    }

    #[test]
    fn from_energy_ratio_never_rounds_small_side_to_zero() {
        let w = CostWeights::from_energy_ratio(1e-9, 1e-15, 3).unwrap();
        assert_eq!(w.alpha(), 7);
        assert_eq!(
            w.beta(),
            1,
            "tiny but non-zero energy must keep a non-zero coefficient"
        );
    }

    #[test]
    fn breakdown_arithmetic() {
        let a = CostBreakdown::new(3, 5);
        let b = CostBreakdown::new(1, 2);
        assert_eq!(a + b, CostBreakdown::new(4, 7));
        let mut c = a;
        c += b;
        assert_eq!(c, CostBreakdown::new(4, 7));
        let total: CostBreakdown = [a, b, CostBreakdown::ZERO].into_iter().sum();
        assert_eq!(total, CostBreakdown::new(4, 7));
    }

    #[test]
    fn breakdown_weighted_and_energy() {
        let b = CostBreakdown::new(10, 4);
        let w = CostWeights::new(2, 1).unwrap();
        assert_eq!(b.weighted(&w), 2 * 4 + 10);
        let energy = b.energy(1.0e-12, 0.5e-12);
        assert!((energy - (10.0 * 1.0e-12 + 4.0 * 0.5e-12)).abs() < 1e-18);
    }

    #[test]
    fn dominance_is_strict() {
        let a = CostBreakdown::new(2, 2);
        let b = CostBreakdown::new(3, 2);
        let c = CostBreakdown::new(2, 2);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c), "equal points do not dominate each other");
    }

    #[test]
    fn display_formats() {
        assert_eq!(CostWeights::FIXED.to_string(), "alpha=1 beta=1");
        assert_eq!(
            CostBreakdown::new(1, 2).to_string(),
            "zeros=1 transitions=2"
        );
    }

    #[test]
    fn wire_bytes_roundtrip() {
        for breakdown in [
            CostBreakdown::ZERO,
            CostBreakdown::new(1, u64::MAX),
            CostBreakdown::new(0xDEAD_BEEF, 42),
        ] {
            assert_eq!(
                CostBreakdown::from_le_bytes(breakdown.to_le_bytes()),
                breakdown
            );
        }
        for weights in [
            CostWeights::FIXED,
            CostWeights::DC_ONLY,
            CostWeights::new(7, MAX_WEIGHT).unwrap(),
        ] {
            assert_eq!(
                CostWeights::from_le_bytes(weights.to_le_bytes()),
                Ok(weights)
            );
        }
        // Deserialisation re-validates: an all-zero pair is rejected.
        assert_eq!(
            CostWeights::from_le_bytes([0u8; CostWeights::WIRE_BYTES]),
            Err(DbiError::ZeroWeights)
        );
        // The layout is little-endian, zeros before transitions.
        let bytes = CostBreakdown::new(1, 2).to_le_bytes();
        assert_eq!(bytes[0], 1);
        assert_eq!(bytes[8], 2);
    }
}
