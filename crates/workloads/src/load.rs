//! Load profiles: traffic mixes for driving the encode service.
//!
//! A [`LoadProfile`] is a weighted blend of [`BurstSource`]s that models
//! the write traffic one client of the DBI encode service produces — a GPU
//! client mostly writes framebuffer rows and float arrays, a server client
//! mostly text and pointer-correlated data, and so on. Each burst is drawn
//! from one of the member sources, chosen by a seeded weighted coin, so a
//! profile is itself a deterministic [`BurstSource`] and can be plugged
//! anywhere a single generator is accepted.
//!
//! For the service wire format, [`LoadProfile::fill_access`] lays bursts
//! out as one beat-interleaved channel access (byte `k` travels on group
//! `k mod groups`), which is exactly how `dbi_mem::BusSession` and the
//! `dbi-service` engine split payloads back into per-group bursts.
//!
//! ```
//! use dbi_workloads::{BurstSource, LoadProfile};
//!
//! let mut profile = LoadProfile::gpu(42);
//! let burst = profile.next_burst();
//! assert_eq!(burst.len(), dbi_core::STANDARD_BURST_LEN);
//!
//! let mut payload = Vec::new();
//! profile.fill_access(4, 8, &mut payload); // one x32 BL8 access
//! assert_eq!(payload.len(), 32);
//! ```

use crate::generator::BurstSource;
use crate::patterns::{Pattern, PatternBursts};
use crate::random::UniformRandomBursts;
use crate::synthetic::{
    FloatArrayBursts, FramebufferBursts, MarkovBursts, TextBursts, ZeroHeavyBursts,
};
use core::fmt;
use dbi_core::{Burst, BurstSlab};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, weighted mix of burst generators modelling one client's write
/// traffic.
pub struct LoadProfile {
    name: String,
    sources: Vec<(u32, Box<dyn BurstSource + Send>)>,
    total_weight: u32,
    rng: StdRng,
}

impl fmt::Debug for LoadProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadProfile")
            .field("name", &self.name)
            .field("sources", &self.sources.len())
            .finish_non_exhaustive()
    }
}

impl LoadProfile {
    /// Creates an empty profile; add generators with
    /// [`LoadProfile::with_source`]. The seed drives only the source
    /// selection; member generators carry their own seeds.
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        LoadProfile {
            name: name.into(),
            sources: Vec::new(),
            total_weight: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Adds a member generator with the given selection weight (relative to
    /// the other members; zero-weight sources are never drawn).
    #[must_use]
    pub fn with_source(mut self, weight: u32, source: impl BurstSource + Send + 'static) -> Self {
        self.total_weight += weight;
        self.sources.push((weight, Box::new(source)));
        self
    }

    /// Pure uniform random traffic — the paper's evaluation workload.
    #[must_use]
    pub fn uniform(seed: u64) -> Self {
        LoadProfile::new("uniform", seed).with_source(1, UniformRandomBursts::with_seed(seed ^ 1))
    }

    /// GPU-like traffic: framebuffer rows, vertex floats, zero-compressed
    /// tensors and a little uniform noise.
    #[must_use]
    pub fn gpu(seed: u64) -> Self {
        LoadProfile::new("gpu", seed)
            .with_source(5, FramebufferBursts::new(seed ^ 1))
            .with_source(3, FloatArrayBursts::new(seed ^ 2))
            .with_source(2, ZeroHeavyBursts::new(seed ^ 3, 0.6))
            .with_source(1, UniformRandomBursts::with_seed(seed ^ 4))
    }

    /// Server-like traffic: text, pointer-correlated words, sparse buffers.
    #[must_use]
    pub fn server(seed: u64) -> Self {
        LoadProfile::new("server", seed)
            .with_source(4, TextBursts::new(seed ^ 1))
            .with_source(3, MarkovBursts::new(seed ^ 2, 0.9))
            .with_source(2, ZeroHeavyBursts::new(seed ^ 3, 0.5))
            .with_source(1, UniformRandomBursts::with_seed(seed ^ 4))
    }

    /// Worst-case stress traffic: checkerboards and walking ones, the
    /// patterns that maximise raw wire activity.
    #[must_use]
    pub fn stress(seed: u64) -> Self {
        LoadProfile::new("stress", seed)
            .with_source(2, PatternBursts::new(Pattern::Checkerboard))
            .with_source(1, PatternBursts::new(Pattern::WalkingOnes))
            .with_source(1, UniformRandomBursts::with_seed(seed ^ 1))
    }

    /// The standard profile set used by the service load generator, in
    /// reporting order.
    #[must_use]
    pub fn standard_profiles(seed: u64) -> Vec<LoadProfile> {
        vec![
            LoadProfile::uniform(seed),
            LoadProfile::gpu(seed ^ 0x10),
            LoadProfile::server(seed ^ 0x20),
            LoadProfile::stress(seed ^ 0x30),
        ]
    }

    /// Appends one beat-interleaved channel access (`groups × burst_len`
    /// bytes) to `out`: each group receives its own burst from the mix, and
    /// byte `beat · groups + group` of the appended slice is beat `beat` of
    /// that group's burst. Bursts longer than the generators' standard
    /// length wrap around their 8 source bytes.
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `burst_len` is zero, or if the profile has no
    /// positively weighted source.
    pub fn fill_access(&mut self, groups: usize, burst_len: usize, out: &mut Vec<u8>) {
        assert!(groups > 0, "an access spans at least one lane group");
        assert!(burst_len > 0, "an access spans at least one beat");
        let base = out.len();
        out.resize(base + groups * burst_len, 0);
        for group in 0..groups {
            let burst = self.next_burst();
            let bytes = burst.bytes();
            for beat in 0..burst_len {
                out[base + beat * groups + group] = bytes[beat % bytes.len()];
            }
        }
    }

    /// Appends one `burst_len`-byte burst drawn from the mix to `out` —
    /// the single-burst form of [`LoadProfile::fill_access`], for harnesses
    /// (such as the conformance fuzzer) that drive per-burst chains rather
    /// than whole channel accesses. Bursts longer than the generators'
    /// standard length wrap around their 8 source bytes.
    ///
    /// # Panics
    ///
    /// Panics if `burst_len` is zero or the profile has no positively
    /// weighted source.
    pub fn fill_burst(&mut self, burst_len: usize, out: &mut Vec<u8>) {
        assert!(burst_len > 0, "a burst spans at least one beat");
        let burst = self.next_burst();
        let bytes = burst.bytes();
        out.extend((0..burst_len).map(|beat| bytes[beat % bytes.len()]));
    }

    /// Appends `count` bursts drawn from the mix straight into `slab` —
    /// the batched counterpart of [`LoadProfile::fill_access`]: traffic
    /// lands in slab layout directly, with no per-burst payload
    /// interleaving and no intermediate access buffer, ready for
    /// [`dbi_core::DbiEncoder::encode_lanes_into`] or a service
    /// `EncodeBatch` frame. Bursts longer than the generators' standard
    /// length wrap around their 8 source bytes, exactly as
    /// [`LoadProfile::fill_access`] does.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no positively weighted source.
    pub fn fill_slab(&mut self, count: usize, slab: &mut BurstSlab) {
        let burst_len = slab.burst_len();
        for _ in 0..count {
            let burst = self.next_burst();
            let bytes = burst.bytes();
            slab.push_with(|out| out.extend((0..burst_len).map(|beat| bytes[beat % bytes.len()])));
        }
    }

    /// Picks the source for the next burst by weighted selection.
    fn pick(&mut self) -> &mut (dyn BurstSource + Send) {
        assert!(
            self.total_weight > 0,
            "a load profile needs at least one positively weighted source"
        );
        let mut roll = self.rng.gen_range(0..self.total_weight);
        for (weight, source) in &mut self.sources {
            if roll < *weight {
                return source.as_mut();
            }
            roll -= *weight;
        }
        unreachable!("the roll is bounded by the total weight")
    }
}

impl BurstSource for LoadProfile {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_burst(&mut self) -> Burst {
        self.pick().next_burst()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::STANDARD_BURST_LEN;

    #[test]
    fn profiles_are_deterministic_and_standard_length() {
        for make in [
            LoadProfile::uniform,
            LoadProfile::gpu,
            LoadProfile::server,
            LoadProfile::stress,
        ] {
            let a = make(7).take_bursts(50);
            let b = make(7).take_bursts(50);
            assert_eq!(a, b);
            assert!(a.iter().all(|burst| burst.len() == STANDARD_BURST_LEN));
            let c = make(8).take_bursts(50);
            assert_ne!(a, c, "different seeds must differ");
        }
    }

    #[test]
    fn standard_profiles_have_distinct_names() {
        let profiles = LoadProfile::standard_profiles(1);
        let mut names: Vec<&str> = profiles.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), profiles.len());
    }

    #[test]
    fn fill_access_interleaves_one_burst_per_group() {
        let mut profile = LoadProfile::uniform(3);
        let mut reference = LoadProfile::uniform(3);
        let (groups, burst_len) = (4, 8);
        let mut payload = Vec::new();
        profile.fill_access(groups, burst_len, &mut payload);
        assert_eq!(payload.len(), groups * burst_len);

        // De-interleaving recovers exactly the bursts the mix produced.
        for group in 0..groups {
            let expected = reference.next_burst();
            let recovered: Vec<u8> = (0..burst_len)
                .map(|beat| payload[beat * groups + group])
                .collect();
            assert_eq!(recovered, expected.bytes());
        }

        // fill_access appends rather than overwriting.
        profile.fill_access(groups, burst_len, &mut payload);
        assert_eq!(payload.len(), 2 * groups * burst_len);
    }

    #[test]
    fn fill_slab_draws_the_same_bursts_as_the_mix() {
        let mut profile = LoadProfile::gpu(11);
        let mut reference = LoadProfile::gpu(11);
        let mut slab = BurstSlab::new(8);
        profile.fill_slab(6, &mut slab);
        assert_eq!(slab.burst_count(), 6);
        for index in 0..6 {
            let expected = reference.next_burst();
            assert_eq!(slab.burst_bytes(index).unwrap(), expected.bytes());
        }

        // Longer slab bursts wrap the 8 source bytes, like fill_access.
        let mut wide = BurstSlab::new(16);
        profile.fill_slab(1, &mut wide);
        let expected = reference.next_burst();
        let got = wide.burst_bytes(0).unwrap();
        assert_eq!(&got[..8], expected.bytes());
        assert_eq!(&got[8..], expected.bytes());
    }

    #[test]
    fn weighted_selection_visits_every_source() {
        let mut profile = LoadProfile::new("mix", 5)
            .with_source(1, PatternBursts::new(Pattern::Checkerboard))
            .with_source(1, ZeroHeavyBursts::new(9, 1.0));
        let bursts = profile.take_bursts(64);
        let zero_heavy = bursts.iter().filter(|b| b.iter().all(|x| x == 0)).count();
        assert!(zero_heavy > 0, "the zero-heavy member must be drawn");
        assert!(
            zero_heavy < bursts.len(),
            "the pattern member must be drawn"
        );
    }

    #[test]
    #[should_panic(expected = "positively weighted source")]
    fn empty_profiles_panic_on_use() {
        let _ = LoadProfile::new("empty", 1).next_burst();
    }

    #[test]
    fn profiles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LoadProfile>();
    }
}
