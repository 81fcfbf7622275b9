//! Vectorised slab kernels: `core::arch` SIMD sweeps over whole
//! [`BurstSlab`](crate::BurstSlab)s, behind runtime CPU feature detection.
//!
//! The scalar slab kernel in `schemes::opt` is latency-bound: the
//! trellis compare/add chain of one burst must finish before the next
//! burst's entry costs resolve. A DDR4/GDDR channel, however, is several
//! **independent** lane groups — each group carries its own DBI lane and
//! its own Viterbi chain — so a slab that holds the bursts of multiple
//! groups can run those chains as parallel lanes of *one* recurrence.
//! That is what the AVX2 kernels here do. There are two tiers:
//!
//! 1. **Scalar** ([`KernelKind::Scalar`]) — the per-chain sweep, always
//!    available: the production tier on every host without AVX2. Both
//!    tiers are tested against the serial per-burst reference
//!    (bit-identical masks, cost rows and carried state).
//! 2. **AVX2** ([`KernelKind::Avx2`]) — two lockstep blocks that run the
//!    trellis in `__m256i` dwords:
//!    - an eight-chain BL8 block that byte-transposes each 8×8 burst
//!      block in registers, one chain per dword;
//!    - a four-chain block at BL16 and BL8, one `[cost_plain, cost_inv]`
//!      dword pair per chain, where a stage is one swap, two adds and a
//!      min. At BL8 it takes the chains the eight-chain block leaves.
//!
//!    Chains left over after the blocks, and every other burst length,
//!    run the scalar sweep. Each block stays only where it beats that
//!    sweep by more than 10%.
//!
//! The non-optimal schemes have no kernel tiers: DC, AC and ACDC decide
//! eight beats per `u64` in portable code (`schemes::per_byte`).
//!
//! Every kernel decides first and prices after: the sweeps carry only
//! path costs and survivor masks. The eight-chain block then counts each
//! burst's zeros and transitions in registers, from the per-beat
//! popcounts its edge weights came from; every other kernel prices
//! through one word-wide pass over the burst's bytes and mask
//! (`encoding::price_burst_body`), compiled with hardware `popcnt` when
//! the CPU has it. That pass also prices the serial reference, which the
//! eight-chain block's cost rows are tested against.
//!
//! Tier selection happens once per process ([`selected_kernel`]) from
//! runtime feature detection; `DBI_FORCE_SCALAR=1` pins dispatch to the
//! scalar tier ([`forced_scalar`]). It picks the OPT encode sweep and the
//! slab's two-, four- and eight-chain transposes (the pack in front of a
//! lanes dispatch and the scatter behind a decode): sixteen beats per
//! SSSE3 step on the AVX2 tier, 8×8-byte SWAR tiles on the scalar one.
//! Decode has one kernel on every tier: `decode_chain_swar` undoes the
//! inversions eight beats per word and re-prices through the word-wide
//! pass. The per-beat walks it is tested against live in the
//! doc-hidden `oracle` module, which no production path calls.
//!
//! Correctness rests on one observation: path costs stay below `2^31`
//! (at most 32 stages of `9 ·` [`crate::cost::MAX_WEIGHT`] each), so the
//! **signed** 32-bit vector compares the hardware offers are bit-identical
//! to the scalar code's unsigned `<` — including the strict-inequality
//! tie-break towards the non-inverted predecessor.

use crate::burst::BusState;
use crate::cost::CostBreakdown;
use crate::encoding::{entry_of, price_burst_body, InversionMask};
#[cfg(target_arch = "x86_64")]
use crate::schemes::OptEncoder;
use crate::word::LaneWord;
use std::sync::OnceLock;

/// The kernel tiers a slab encode can dispatch to.
///
/// Every variant exists on every architecture so configuration and test
/// code can name them portably; [`available_kernels`] lists the ones that
/// are actually compiled in **and** supported by the running CPU.
/// Dispatching an arch kernel on an architecture where it was not
/// compiled falls back to the scalar sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The per-chain scalar sweep — always available.
    Scalar,
    /// x86-64 AVX2 with `popcnt`: eight BL8 chains per `__m256i` with
    /// in-register transposes, or four BL16 or BL8 chains as dword pairs;
    /// nibble-LUT popcounts feed both. The eight-chain block prices its
    /// rows from those popcounts; the four-chain block prices through the
    /// shared word-wide pass. Other geometries and leftover chains run
    /// the scalar sweep.
    Avx2,
}

impl KernelKind {
    /// How many chains this tier sweeps per lockstep block for the given
    /// burst length — the lane-occupancy target a packed dispatch should
    /// fill: eight for the AVX2 BL8 block, four for the AVX2 BL16 block,
    /// one (a chain at a time) everywhere else.
    #[must_use]
    pub const fn lane_width(self, burst_len: usize) -> usize {
        match self {
            KernelKind::Avx2 if burst_len == 8 => 8,
            KernelKind::Avx2 if burst_len == 16 => 4,
            _ => 1,
        }
    }

    /// Stable lowercase name, as recorded in `BENCH_encode.json`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
        }
    }
}

impl core::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

struct Dispatch {
    available: Vec<KernelKind>,
    selected: KernelKind,
    forced: bool,
    features: String,
}

static DISPATCH: OnceLock<Dispatch> = OnceLock::new();

fn dispatch() -> &'static Dispatch {
    DISPATCH.get_or_init(probe)
}

fn probe() -> Dispatch {
    let forced = std::env::var_os("DBI_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
    let mut available = vec![KernelKind::Scalar];
    let mut features: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is part of the x86-64 baseline; everything else is probed.
        features.push("sse2");
        macro_rules! feat {
            ($($name:tt),+) => {
                $(if std::arch::is_x86_feature_detected!($name) {
                    features.push($name);
                })+
            };
        }
        feat!("ssse3", "sse4.1", "sse4.2", "popcnt", "avx", "bmi2", "avx2", "avx512f");
        // The AVX2 block prices its rows in a `popcnt` build.
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            available.push(KernelKind::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    features.push("neon");
    if features.is_empty() {
        features.push("portable");
    }
    let selected = if forced {
        KernelKind::Scalar
    } else {
        *available.last().expect("scalar tier is always present")
    };
    Dispatch {
        available,
        selected,
        forced,
        features: features.join(","),
    }
}

/// The kernels compiled in and supported by the running CPU, ordered from
/// the scalar sweep to the most capable tier. Unaffected by
/// `DBI_FORCE_SCALAR` — differential tests iterate this list even when
/// dispatch is pinned.
#[must_use]
pub fn available_kernels() -> &'static [KernelKind] {
    &dispatch().available
}

/// The kernel slab encodes dispatch to: the most capable
/// available tier, or [`KernelKind::Scalar`] when `DBI_FORCE_SCALAR` is
/// set (to anything non-empty other than `0`). Decided once per process.
#[must_use]
pub fn selected_kernel() -> KernelKind {
    dispatch().selected
}

/// Whether `DBI_FORCE_SCALAR` pinned dispatch to the scalar tier.
#[must_use]
pub fn forced_scalar() -> bool {
    dispatch().forced
}

/// Comma-joined list of the CPU features detected at startup (e.g.
/// `"sse2,ssse3,sse4.1,sse4.2,popcnt,avx,bmi2,avx2"`), `"portable"` on
/// architectures without a probe. Recorded in `BENCH_encode.json` so a
/// benchmark result names the hardware tier it ran on.
#[must_use]
pub fn cpu_features() -> &'static str {
    &dispatch().features
}

// ---------------------------------------------------------------------------
// Scalar chain driver
// ---------------------------------------------------------------------------

/// One chain's scalar encode kernel: decides and prices the chain's
/// bursts from the carried entry — the data byte the wires last carried
/// and whether that beat went out inverted — filling one mask and one
/// cost row per burst and leaving `entry` at the chain's last driven
/// beat. Implementations are always inlined, so [`encode_chains`] can
/// compile them into its hardware-popcount build.
pub(crate) trait ChainKernel {
    fn encode_chain(
        &self,
        burst_len: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        entry: &mut (u8, bool),
    );
}

/// Runs `kernel` over chain-major slab columns, one chain per state (chain
/// `c` owns rows `c·per_chain .. (c+1)·per_chain`), each from and back to
/// its own [`BusState`]. Picks the hardware-popcount build for the
/// pricing pass once per call.
///
/// `states` must be non-empty and divide the burst count.
pub(crate) fn encode_chains<K: ChainKernel>(
    kernel: &K,
    burst_len: usize,
    bytes: &[u8],
    masks: &mut [InversionMask],
    costs: &mut [CostBreakdown],
    states: &mut [BusState],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: guarded by the runtime `popcnt` detection above.
        #[allow(unsafe_code)]
        unsafe {
            return encode_chains_popcnt(kernel, burst_len, bytes, masks, costs, states);
        }
    }
    encode_chains_body(kernel, burst_len, bytes, masks, costs, states);
}

/// [`encode_chains_body`] compiled with hardware popcount.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn encode_chains_popcnt<K: ChainKernel>(
    kernel: &K,
    burst_len: usize,
    bytes: &[u8],
    masks: &mut [InversionMask],
    costs: &mut [CostBreakdown],
    states: &mut [BusState],
) {
    encode_chains_body(kernel, burst_len, bytes, masks, costs, states);
}

#[inline(always)]
fn encode_chains_body<K: ChainKernel>(
    kernel: &K,
    burst_len: usize,
    bytes: &[u8],
    masks: &mut [InversionMask],
    costs: &mut [CostBreakdown],
    states: &mut [BusState],
) {
    let per_chain = masks.len() / states.len();
    for (((chain, masks), costs), state) in bytes
        .chunks_exact(per_chain * burst_len)
        .zip(masks.chunks_exact_mut(per_chain))
        .zip(costs.chunks_exact_mut(per_chain))
        .zip(states.iter_mut())
    {
        let mut entry = entry_of(state);
        kernel.encode_chain(burst_len, chain, masks, costs, &mut entry);
        *state = BusState::new(LaneWord::encode_byte(entry.0, entry.1));
    }
}

// ---------------------------------------------------------------------------
// SWAR slab decode
// ---------------------------------------------------------------------------

/// Mask bit `i` set → byte `i` is `0xFF`: the per-burst inversion pattern
/// widened to a byte-flip constant, one table load per 8 beats.
pub(crate) const SPREAD_FLIP: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut v = 0u64;
        let mut i = 0;
        while i < 8 {
            if m & (1 << i) != 0 {
                v |= 0xFFu64 << (8 * i);
            }
            i += 1;
        }
        table[m] = v;
        m += 1;
    }
    table
};

/// Decodes one chain's run of bursts with 64-bit SWAR sweeps: eight wire
/// bytes load as one `u64` and the inversions undo as one XOR against a
/// [`SPREAD_FLIP`] constant; the receiver-side re-pricing is then the
/// shared word-wide pass (`encoding::price_burst_body`) over the
/// recovered payload and the mask. Bit-identical to the per-beat
/// [`LaneWord`] walk (the oracle's `decode_chain`, differential-tested),
/// including the carried receiver state. The only decode kernel: every
/// dispatch tier runs it.
///
/// `masks` must already be validated for the burst length (the slab's
/// mask loaders guarantee this); `costs` holds one row per burst.
pub(crate) fn decode_chain_swar(
    burst_len: usize,
    bytes: &mut [u8],
    masks: &[InversionMask],
    costs: &mut [CostBreakdown],
    state: &mut BusState,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: guarded by the runtime `popcnt` detection above.
            #[allow(unsafe_code)]
            unsafe {
                return decode_chain_swar_popcnt(burst_len, bytes, masks, costs, state);
            }
        }
    }
    decode_chain_swar_body(burst_len, bytes, masks, costs, state);
}

/// [`decode_chain_swar_body`] compiled with hardware popcount: without
/// `popcnt` in the codegen baseline, `count_ones` lowers to a multi-op
/// SWAR sequence per word.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn decode_chain_swar_popcnt(
    burst_len: usize,
    bytes: &mut [u8],
    masks: &[InversionMask],
    costs: &mut [CostBreakdown],
    state: &mut BusState,
) {
    decode_chain_swar_body(burst_len, bytes, masks, costs, state);
}

#[inline(always)]
fn decode_chain_swar_body(
    burst_len: usize,
    bytes: &mut [u8],
    masks: &[InversionMask],
    costs: &mut [CostBreakdown],
    state: &mut BusState,
) {
    // The carried receiver state, split the way the encode kernels split
    // theirs: the last recovered data byte and the DBI lane's inversion
    // flag.
    let mut carried = entry_of(state);
    // A literal burst length on the standard geometries lets the
    // always-inlined copies unroll their word loops.
    match burst_len {
        8 => decode_runs(8, bytes, masks, costs, &mut carried),
        16 => decode_runs(16, bytes, masks, costs, &mut carried),
        _ => decode_runs(burst_len, bytes, masks, costs, &mut carried),
    }
    *state = BusState::new(LaneWord::encode_byte(carried.0, carried.1));
}

/// One chain's bursts: undo each burst's inversions word by word, then
/// re-price the recovered payload from the carried entry.
#[inline(always)]
fn decode_runs(
    burst_len: usize,
    bytes: &mut [u8],
    masks: &[InversionMask],
    costs: &mut [CostBreakdown],
    carried: &mut (u8, bool),
) {
    for ((chunk, mask), cost) in bytes
        .chunks_exact_mut(burst_len)
        .zip(masks)
        .zip(costs.iter_mut())
    {
        let mut rest = mask.bits();
        let mut words = chunk.chunks_exact_mut(8);
        for word in &mut words {
            let wire = u64::from_le_bytes((&*word).try_into().expect("8-byte word"));
            word.copy_from_slice(&(wire ^ SPREAD_FLIP[(rest & 0xFF) as usize]).to_le_bytes());
            rest >>= 8;
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            let mut lanes = [0u8; 8];
            lanes[..tail.len()].copy_from_slice(tail);
            let payload = u64::from_le_bytes(lanes) ^ SPREAD_FLIP[(rest & 0xFF) as usize];
            let len = tail.len();
            tail.copy_from_slice(&payload.to_le_bytes()[..len]);
        }
        *cost = price_burst_body(chunk, mask.bits(), *carried);
        *carried = (chunk[burst_len - 1], mask.is_inverted(burst_len - 1));
    }
}

// ---------------------------------------------------------------------------
// x86-64 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{encode_block4_avx2, encode_block8_avx2};
#[cfg(all(test, target_arch = "x86_64"))]
pub(crate) use x86::{transpose_cols_ssse3, transpose_rows_ssse3};

/// The SIMD tier of the slab's `N`-chain de-interleave (`N` = 2, 4 or
/// 8): `dst[c·rows + r] = src[r·N + c]` for every whole sixteen-beat step,
/// returning the beats done so the caller's byte loop finishes the rest.
/// `None` — the caller runs its tiled SWAR path — unless dispatch
/// selected [`KernelKind::Avx2`] (so `DBI_FORCE_SCALAR` pins the SWAR
/// path) and the CPU has SSSE3.
pub(crate) fn transpose_cols_simd<const N: usize>(src: &[u8], dst: &mut [u8]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if selected_kernel() == KernelKind::Avx2 {
        return x86::transpose_cols_ssse3::<N>(src, dst);
    }
    let _ = (src, dst);
    None
}

/// The mirror of [`transpose_cols_simd`]: the `N`-chain re-interleave
/// `dst[c·N + r] = src[r·cols + c]`, under the same gate.
pub(crate) fn transpose_rows_simd<const N: usize>(src: &[u8], dst: &mut [u8]) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if selected_kernel() == KernelKind::Avx2 {
        return x86::transpose_rows_ssse3::<N>(src, dst);
    }
    let _ = (src, dst);
    None
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 encode kernels and the SSSE3 chain transposes
    //! (runtime-detected).

    use super::{price_burst_body, CostBreakdown, InversionMask, OptEncoder};
    use core::arch::x86_64::*;

    /// The `pshufb` control that groups a 16-byte block of beat-major
    /// `n`-chain bytes by chain: output byte `c·(16/n) + b` is input byte
    /// `b·n + c`, so chain `c`'s `16/n` beats end up contiguous.
    const fn chain_major(n: usize) -> [u8; 16] {
        let per = 16 / n;
        let mut control = [0u8; 16];
        let mut j = 0;
        while j < 16 {
            control[j] = ((j % per) * n + j / per) as u8;
            j += 1;
        }
        control
    }

    /// The inverse of [`chain_major`]: output byte `b·n + c` is input
    /// byte `c·(16/n) + b`.
    const fn beat_major(n: usize) -> [u8; 16] {
        let per = 16 / n;
        let mut control = [0u8; 16];
        let mut j = 0;
        while j < 16 {
            control[j] = ((j % n) * per + j / n) as u8;
            j += 1;
        }
        control
    }

    #[inline(always)]
    fn load16(bytes: &[u8]) -> __m128i {
        let bytes: &[u8; 16] = bytes.try_into().expect("16-byte block");
        // SAFETY: an unaligned load of exactly the 16 bytes borrowed.
        #[allow(unsafe_code)]
        unsafe {
            _mm_loadu_si128(bytes.as_ptr().cast())
        }
    }

    #[inline(always)]
    fn store16(out: &mut [u8], v: __m128i) {
        let out: &mut [u8; 16] = out.try_into().expect("16-byte block");
        // SAFETY: an unaligned store to exactly the 16 bytes borrowed.
        #[allow(unsafe_code)]
        unsafe {
            _mm_storeu_si128(out.as_mut_ptr().cast(), v);
        }
    }

    /// Transposes `v` read as an `n × n` matrix of `16/n`-byte elements
    /// (`n = v.len()`, 2, 4 or 8): element `e` of vector `i` swaps with
    /// element `i` of vector `e`, by rounds of 64-, 32- and 16-bit
    /// unpacks. Its own inverse.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn transpose_elements(v: &mut [__m128i]) {
        match *v {
            [a, b] => {
                v[0] = _mm_unpacklo_epi64(a, b);
                v[1] = _mm_unpackhi_epi64(a, b);
            }
            [a, b, c, d] => {
                let (ab_lo, ab_hi) = (_mm_unpacklo_epi32(a, b), _mm_unpackhi_epi32(a, b));
                let (cd_lo, cd_hi) = (_mm_unpacklo_epi32(c, d), _mm_unpackhi_epi32(c, d));
                v[0] = _mm_unpacklo_epi64(ab_lo, cd_lo);
                v[1] = _mm_unpackhi_epi64(ab_lo, cd_lo);
                v[2] = _mm_unpacklo_epi64(ab_hi, cd_hi);
                v[3] = _mm_unpackhi_epi64(ab_hi, cd_hi);
            }
            [v0, v1, v2, v3, v4, v5, v6, v7] => {
                // Pairs of rows, word-interleaved: elements 0–3, then 4–7.
                let lo = [
                    _mm_unpacklo_epi16(v0, v1),
                    _mm_unpacklo_epi16(v2, v3),
                    _mm_unpacklo_epi16(v4, v5),
                    _mm_unpacklo_epi16(v6, v7),
                ];
                let hi = [
                    _mm_unpackhi_epi16(v0, v1),
                    _mm_unpackhi_epi16(v2, v3),
                    _mm_unpackhi_epi16(v4, v5),
                    _mm_unpackhi_epi16(v6, v7),
                ];
                for (half, p) in [lo, hi].into_iter().enumerate() {
                    let q0 = _mm_unpacklo_epi32(p[0], p[1]);
                    let q1 = _mm_unpackhi_epi32(p[0], p[1]);
                    let q2 = _mm_unpacklo_epi32(p[2], p[3]);
                    let q3 = _mm_unpackhi_epi32(p[2], p[3]);
                    v[4 * half] = _mm_unpacklo_epi64(q0, q2);
                    v[4 * half + 1] = _mm_unpackhi_epi64(q0, q2);
                    v[4 * half + 2] = _mm_unpacklo_epi64(q1, q3);
                    v[4 * half + 3] = _mm_unpackhi_epi64(q1, q3);
                }
            }
            _ => unreachable!("chain transposes run 2, 4 or 8 chains"),
        }
    }

    /// De-interleaves `N` chains (`dst[c·rows + r] = src[r·N + c]`)
    /// sixteen beats per step: each of the step's `N` 16-byte blocks is
    /// grouped by chain with one `pshufb`, and [`transpose_elements`]
    /// gathers each chain's sixteen beats into one vector. Returns the
    /// beats done; leftover beats are the caller's. `None` without SSSE3.
    pub(crate) fn transpose_cols_ssse3<const N: usize>(
        src: &[u8],
        dst: &mut [u8],
    ) -> Option<usize> {
        if !std::arch::is_x86_feature_detected!("ssse3") {
            return None;
        }
        // SAFETY: guarded by the runtime detection above.
        #[allow(unsafe_code)]
        unsafe {
            Some(cols_ssse3::<N>(src, dst))
        }
    }

    #[target_feature(enable = "ssse3")]
    fn cols_ssse3<const N: usize>(src: &[u8], dst: &mut [u8]) -> usize {
        let rows = src.len() / N;
        let group = load16(&chain_major(N));
        let mut v = [_mm_setzero_si128(); N];
        for (step, block) in src.chunks_exact(16 * N).enumerate() {
            for (lane, bytes) in v.iter_mut().zip(block.chunks_exact(16)) {
                *lane = _mm_shuffle_epi8(load16(bytes), group);
            }
            transpose_elements(&mut v);
            for (c, &lane) in v.iter().enumerate() {
                let at = c * rows + 16 * step;
                store16(&mut dst[at..at + 16], lane);
            }
        }
        rows / 16 * 16
    }

    /// Re-interleaves `N` chains (`dst[c·N + r] = src[r·cols + c]`), the
    /// mirror of [`transpose_cols_ssse3`]: sixteen beats of each chain
    /// per step, [`transpose_elements`], then one `pshufb` per block back
    /// to beat-major order. Returns the beats done; `None` without
    /// SSSE3.
    pub(crate) fn transpose_rows_ssse3<const N: usize>(
        src: &[u8],
        dst: &mut [u8],
    ) -> Option<usize> {
        if !std::arch::is_x86_feature_detected!("ssse3") {
            return None;
        }
        // SAFETY: guarded by the runtime detection above.
        #[allow(unsafe_code)]
        unsafe {
            Some(rows_ssse3::<N>(src, dst))
        }
    }

    #[target_feature(enable = "ssse3")]
    fn rows_ssse3<const N: usize>(src: &[u8], dst: &mut [u8]) -> usize {
        let cols = src.len() / N;
        let ungroup = load16(&beat_major(N));
        let mut v = [_mm_setzero_si128(); N];
        for (step, block) in dst.chunks_exact_mut(16 * N).enumerate() {
            for (c, lane) in v.iter_mut().enumerate() {
                let at = c * cols + 16 * step;
                *lane = load16(&src[at..at + 16]);
            }
            transpose_elements(&mut v);
            for (&lane, out) in v.iter().zip(block.chunks_exact_mut(16)) {
                store16(out, _mm_shuffle_epi8(lane, ungroup));
            }
        }
        cols / 16 * 16
    }

    /// Per-byte popcount of all 32 bytes of a vector: two nibble-LUT
    /// lookups.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn popcount_bytes(v: __m256i) -> __m256i {
        let nib = _mm256_set1_epi8(0x0F);
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let lo = _mm256_and_si256(v, nib);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), nib);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    }

    /// Four-chain sweep on AVX2 at a literal burst length `L` (8 or 16;
    /// the dispatcher instantiates each).
    ///
    /// One `__m256i` holds `[cost_plain, cost_inv]` for each of four
    /// chains (chains 0 and 1 in the low 128-bit lane, 2 and 3 in the
    /// high one). With `d` the toggle count from the previous beat and
    /// `p` the byte's popcount, a stage is
    /// `v' = min(v + f, swap(v) + e + f)` with `e = α·(9 − 2d)` in both
    /// states and `f = [α·d + β·(8 − p), α·d + β·(p + 1)]`: the plain
    /// state weighs `cost_plain + same` against `cost_inv + cross` and
    /// the inverted one `cost_inv + same` against `cost_plain + cross`,
    /// each plus its zeros. The swap is one `vpshufd`, so the carried
    /// dependency is a shuffle, an add and a `vpminsd` per beat, and the
    /// survivor masks follow the same swap through one blend. The scalar
    /// sweep's tie-break towards the non-inverted predecessor is a `+1`
    /// bias on the inverted states' compare.
    ///
    /// The entry stage is the same recurrence, started from `[0, 2³⁰]`
    /// (previous beat plain) or `[2³⁰, 0]` (inverted): the unreachable
    /// state loses every min, which reproduces
    /// `OptEncoder::entry_costs`' swap. Each burst's start vector comes
    /// from the previous winner's last mask bit without leaving the
    /// registers.
    ///
    /// Edge weights: each chain's burst and the burst XORed with itself
    /// shifted one beat (`alignr` splices in the previous burst's last
    /// byte) are popcounted with nibble `pshufb`s, two chains per
    /// vector. A byte unpack interleaves the chain pairs (the 4×16
    /// transpose), one `pshufb` widens two beats' counts to dwords, and
    /// the weights of those two beats are built together before an
    /// unpack hands each stage its own.
    ///
    /// After each mask store, the four rows are priced by the shared
    /// word-wide pass, which advances the scalar `last_data`/`prev_low`
    /// entries.
    ///
    /// Safety: caller must have verified AVX2 and `popcnt` via runtime
    /// detection.
    #[target_feature(enable = "avx2,popcnt")]
    pub(crate) fn encode_block4_avx2<const L: usize>(
        enc: &OptEncoder,
        per_chain: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        last_data: &mut [u8; 4],
        prev_low: &mut [bool; 4],
    ) {
        const UNREACHABLE: i32 = 1 << 30;
        assert!(L == 8 || L == 16, "the four-chain block runs BL8 or BL16");
        let alpha = _mm256_set1_epi32(enc.weights().alpha() as i32);
        let beta = _mm256_set1_epi32(enc.weights().beta() as i32);
        let nine_alpha = _mm256_mullo_epi32(alpha, _mm256_set1_epi32(9));
        let eight_beta = _mm256_slli_epi32::<3>(beta);
        let inv_states = _mm256_setr_epi32(0, -1, 0, -1, 0, -1, 0, -1);
        let bias = _mm256_srli_epi32::<31>(inv_states);
        #[rustfmt::skip]
        let from_plain = _mm256_setr_epi32(
            0, UNREACHABLE, 0, UNREACHABLE, 0, UNREACHABLE, 0, UNREACHABLE,
        );
        let from_inv = _mm256_shuffle_epi32::<0xB1>(from_plain);
        let last_bit = _mm256_set1_epi32(1 << (L - 1));
        // The `pshufb` control that widens bytes 0..3 of each lane to
        // dwords; adding `2k` moves it to bytes 2k..2k+3, and the 0x80
        // zero-fill bytes stay at or above 0x80.
        #[rustfmt::skip]
        let widen_base = _mm256_setr_epi8(
            0, -128, -128, -128, 1, -128, -128, -128, 2, -128, -128, -128, 3, -128, -128, -128,
            0, -128, -128, -128, 1, -128, -128, -128, 2, -128, -128, -128, 3, -128, -128, -128,
        );

        // The carried previous bytes (chain k's last wire byte at byte 15
        // of its lane), so the beat-shift alignr splices them in as beat
        // 0's predecessor.
        let high = |byte: u8| i64::from(byte) << 56;
        let mut prev_a = _mm256_set_epi64x(high(last_data[2]), 0, high(last_data[0]), 0);
        let mut prev_b = _mm256_set_epi64x(high(last_data[3]), 0, high(last_data[1]), 0);
        let [l0, l1, l2, l3] = prev_low.map(|low| -i32::from(low));
        let mut entry = _mm256_blendv_epi8(
            from_plain,
            from_inv,
            _mm256_setr_epi32(l0, l0, l1, l1, l2, l2, l3, l3),
        );

        // One bounds proof up front; the per-burst loads below are raw
        // unaligned reads inside this envelope.
        assert!(
            bytes.len() >= 4 * per_chain * L,
            "four BL{L} chains of {per_chain} bursts need {} bytes, got {}",
            4 * per_chain * L,
            bytes.len()
        );
        let base = bytes.as_ptr();

        for j in 0..per_chain {
            macro_rules! burst {
                ($k:expr) => {{
                    // SAFETY: chain $k < 4 and burst j < per_chain, so the
                    // L bytes at ($k·per_chain + j)·L sit inside the
                    // envelope asserted above; both loads are
                    // unaligned-safe and read exactly L bytes.
                    #[allow(unsafe_code)]
                    unsafe {
                        let at = base.add((($k) * per_chain + j) * L);
                        if L == 16 {
                            _mm_loadu_si128(at.cast())
                        } else {
                            _mm_loadl_epi64(at.cast())
                        }
                    }
                }};
            }
            // Chains 0 | 2 in `rows_a`, 1 | 3 in `rows_b`, one burst per
            // 128-bit lane.
            let rows_a = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(burst!(0)), burst!(2));
            let rows_b = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(burst!(1)), burst!(3));
            let shift_a = _mm256_alignr_epi8::<15>(rows_a, prev_a);
            let shift_b = _mm256_alignr_epi8::<15>(rows_b, prev_b);
            // Per beat, chain pairs interleaved byte by byte: beats 0..7
            // in the `lo` unpacks, 8..15 in the `hi` ones.
            let p_a = popcount_bytes(rows_a);
            let p_b = popcount_bytes(rows_b);
            let d_a = popcount_bytes(_mm256_xor_si256(rows_a, shift_a));
            let d_b = popcount_bytes(_mm256_xor_si256(rows_b, shift_b));
            let p_lo = _mm256_unpacklo_epi8(p_a, p_b);
            let d_lo = _mm256_unpacklo_epi8(d_a, d_b);
            let p_hi = _mm256_unpackhi_epi8(p_a, p_b);
            let d_hi = _mm256_unpackhi_epi8(d_a, d_b);
            // A BL8 burst fills bytes 0..7 of its lane; its last byte
            // moves to byte 15 for the next alignr.
            (prev_a, prev_b) = if L == 16 {
                (rows_a, rows_b)
            } else {
                (
                    _mm256_slli_si256::<8>(rows_a),
                    _mm256_slli_si256::<8>(rows_b),
                )
            };

            let mut v = entry;
            let mut m = _mm256_setzero_si256();
            // The weights of beats k and k + 1 of an unpacked half, built
            // as dwords `[x_c(k), x_c'(k), x_c(k+1), x_c'(k+1)]` per lane
            // and handed out per beat: `f` and `e + f`, each as
            // `[plain, inverted]` per chain.
            macro_rules! beat_pair {
                ($p:expr, $d:expr, $k:literal) => {{
                    let widen = _mm256_add_epi8(widen_base, _mm256_set1_epi8(2 * $k));
                    let same = _mm256_mullo_epi32(_mm256_shuffle_epi8($d, widen), alpha);
                    let ones = _mm256_mullo_epi32(_mm256_shuffle_epi8($p, widen), beta);
                    let e = _mm256_sub_epi32(nine_alpha, _mm256_add_epi32(same, same));
                    let f_plain = _mm256_sub_epi32(_mm256_add_epi32(same, eight_beta), ones);
                    let f_inv = _mm256_add_epi32(_mm256_add_epi32(same, beta), ones);
                    let ef_plain = _mm256_add_epi32(e, f_plain);
                    let ef_inv = _mm256_add_epi32(e, f_inv);
                    (
                        [
                            _mm256_unpacklo_epi32(f_plain, f_inv),
                            _mm256_unpackhi_epi32(f_plain, f_inv),
                        ],
                        [
                            _mm256_unpacklo_epi32(ef_plain, ef_inv),
                            _mm256_unpackhi_epi32(ef_plain, ef_inv),
                        ],
                    )
                }};
            }
            // One trellis stage: `i` is the beat, the weights its own.
            macro_rules! stage {
                ($i:expr, $f:expr, $ef:expr) => {{
                    let stay = _mm256_add_epi32(v, $f);
                    let cross = _mm256_add_epi32(_mm256_shuffle_epi32::<0xB1>(v), $ef);
                    let sel = _mm256_cmpgt_epi32(_mm256_add_epi32(stay, bias), cross);
                    v = _mm256_min_epi32(stay, cross);
                    let swapped = _mm256_shuffle_epi32::<0xB1>(m);
                    let bit = _mm256_and_si256(inv_states, _mm256_set1_epi32(1 << $i));
                    m = _mm256_or_si256(_mm256_blendv_epi8(m, swapped, sel), bit);
                }};
            }
            // The eight beats of one unpacked half, from beat `first`.
            macro_rules! stages {
                ($p:expr, $d:expr, $first:literal) => {
                    stages!(@pairs $p, $d, $first, 0, 2, 4, 6)
                };
                (@pairs $p:expr, $d:expr, $first:literal, $($k:literal),+) => {$(
                    let (f, ef) = beat_pair!($p, $d, $k);
                    stage!($first + $k, f[0], ef[0]);
                    stage!($first + $k + 1, f[1], ef[1]);
                )+};
            }
            stages!(p_lo, d_lo, 0);
            if L == 16 {
                stages!(p_hi, d_hi, 8);
            }

            // The cheaper end state wins (ties towards plain): the plain
            // state of each chain ends up holding its winning mask, and
            // its last bit picks the next burst's start vector.
            let win = _mm256_cmpgt_epi32(v, _mm256_shuffle_epi32::<0xB1>(v));
            let chosen = _mm256_blendv_epi8(m, _mm256_shuffle_epi32::<0xB1>(m), win);
            let low = _mm256_cmpeq_epi32(_mm256_and_si256(chosen, last_bit), last_bit);
            entry = _mm256_blendv_epi8(from_plain, from_inv, _mm256_shuffle_epi32::<0xA0>(low));

            let mut lanes = [0u32; 8];
            // SAFETY: the destination is exactly 32 writable bytes;
            // storeu has no alignment requirement.
            #[allow(unsafe_code)]
            unsafe {
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), chosen);
            }
            for k in 0..4 {
                let bits = lanes[2 * k];
                let row = k * per_chain + j;
                let burst = &bytes[row * L..row * L + L];
                masks[row] = InversionMask::from_bits(bits);
                costs[row] = price_burst_body(burst, bits, (last_data[k], prev_low[k]));
                last_data[k] = burst[L - 1];
                prev_low[k] = (bits >> (L - 1)) & 1 == 1;
            }
        }
    }

    /// Eight-chain BL8 sweep on AVX2, the throughput showpiece: each
    /// round loads one burst from each of eight chains, byte-transposes
    /// the 8×8 block in registers (the classic `punpck` tree), popcounts
    /// the **whole block** in four nibble-`pshufb` passes (per-beat byte
    /// popcounts, plus the popcounts of the row-shifted XOR — every
    /// beat-to-beat toggle count of the burst at once), and runs the
    /// trellis in `__m256i` dwords — edge weights rebuilt arithmetically
    /// from the LUT identities (`same = α·d`, `cross = 9α − same`, zeros
    /// from the byte's popcount), predecessor selects as signed compares
    /// steering byte blends (the select masks are dword-wide, so per-byte
    /// `vpblendvb` is exact), winner costs via `vpminsd` (ties carry
    /// equal costs, so min matches the compare-steered select). The
    /// carried inter-burst state is itself a vector: the previous wire
    /// bytes ride in `prev_row` and the DBI level in a sign-broadcast
    /// lane mask, so even each burst's entry stage is vectorised.
    ///
    /// The sweep carries only path costs and survivor masks. Each round
    /// then prices its eight rows from the same `P`/`D` popcounts, one
    /// byte per (beat, chain): the winning masks, packed one byte per
    /// chain into a `u64`, and their DBI flips against the beat before
    /// (the carried level for beat 0) are widened back to byte masks
    /// that choose each beat's zeros and toggles, and byte adds sum the
    /// eight beats of every row. The carried `last_data`/`prev_low`
    /// entries are written back once, after the last round.
    ///
    /// BL8-only by construction (the transpose tree is 8×8); the
    /// dispatcher hands leftover chains to the four-chain block and other
    /// geometries to it or the scalar sweep.
    ///
    /// Safety: caller must have verified AVX2 and `popcnt` via runtime
    /// detection.
    #[target_feature(enable = "avx2,popcnt")]
    pub(crate) fn encode_block8_avx2(
        enc: &OptEncoder,
        per_chain: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        last_data: &mut [u8; 8],
        prev_low: &mut [bool; 8],
    ) {
        macro_rules! blend8 {
            ($a:expr, $b:expr, $m:expr) => {
                _mm256_blendv_epi8($a, $b, $m)
            };
        }
        // Per-byte popcount of all 32 bytes of a vector: nibble LUT
        // lookups. Run once per 8×8 block half instead of once per beat —
        // the batched form that keeps the trellis loop lean.
        macro_rules! popc_bytes {
            ($v:expr, $lut:expr, $nib:expr) => {{
                let v = $v;
                let lo = _mm256_and_si256(v, $nib);
                let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), $nib);
                _mm256_add_epi8(_mm256_shuffle_epi8($lut, lo), _mm256_shuffle_epi8($lut, hi))
            }};
        }

        let alpha = enc.weights().alpha() as i32;
        let beta = enc.weights().beta() as i32;
        let alpha_v = _mm256_set1_epi32(alpha);
        let beta_v = _mm256_set1_epi32(beta);
        let nine_alpha = _mm256_set1_epi32(9 * alpha);
        let eight_beta = _mm256_set1_epi32(8 * beta);
        let one = _mm256_set1_epi32(1);
        let nib = _mm256_set1_epi8(0x0F);
        #[rustfmt::skip]
        let pop_lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );

        // The carried previous-beat bytes (chain c's last wire byte in
        // byte c), parked in the HIGH half of lane 0 so the row-shift
        // alignr can splice them in as beat 0's predecessor row.
        let prev_u64 = u64::from_le_bytes(*last_data);
        let mut prev_row =
            _mm256_castsi128_si256(_mm_slli_si128::<8>(_mm_cvtsi64_si128(prev_u64 as i64)));
        #[rustfmt::skip]
        let mut plv = _mm256_setr_epi32(
            -(prev_low[0] as i32), -(prev_low[1] as i32), -(prev_low[2] as i32), -(prev_low[3] as i32),
            -(prev_low[4] as i32), -(prev_low[5] as i32), -(prev_low[6] as i32), -(prev_low[7] as i32),
        );
        // The same DBI levels for pricing, chain c's in bit 0 of byte c.
        let mut entry = u64::from_le_bytes(prev_low.map(u8::from));

        // Pricing constants: `pack_low` + `lane_words` gather each
        // chain's mask byte into byte c of a `u64`; `beats_lo`/`beats_hi`
        // hold beat i's mask bit in the 64-bit slot that holds beat i in
        // `p_lo`/`p_hi`.
        #[rustfmt::skip]
        let pack_low = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let lane_words = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
        let beat_bits = |beat: i64| 0x0101_0101_0101_0101 << beat;
        let beats_lo = _mm256_setr_epi64x(beat_bits(0), beat_bits(1), beat_bits(2), beat_bits(3));
        let beats_hi = _mm256_slli_epi64::<4>(beats_lo);
        let eight8 = _mm256_set1_epi8(8);
        let nine8 = _mm256_set1_epi8(9);

        // One bounds proof up front; the per-burst loads below are raw
        // unaligned 64-bit reads inside this envelope.
        assert!(
            bytes.len() >= 8 * per_chain * 8,
            "eight BL8 chains of {per_chain} bursts need {} bytes, got {}",
            8 * per_chain * 8,
            bytes.len()
        );
        let base = bytes.as_ptr();

        for j in 0..per_chain {
            // Load one BL8 burst per chain and transpose the 8×8 byte
            // block: after the unpack tree, the two 64-bit halves of
            // `f0..f3` hold beats 0..7 with one byte per chain.
            macro_rules! word {
                ($l:expr) => {{
                    // SAFETY: chain $l < 8 and burst j < per_chain, so the
                    // 8 bytes at ($l·per_chain + j)·8 sit inside the
                    // envelope asserted above; loadl is unaligned-safe.
                    #[allow(unsafe_code)]
                    unsafe {
                        _mm_loadl_epi64(base.add((($l) * per_chain + j) * 8).cast())
                    }
                }};
            }
            let c0 = word!(0);
            let c1 = word!(1);
            let c2 = word!(2);
            let c3 = word!(3);
            let c4 = word!(4);
            let c5 = word!(5);
            let c6 = word!(6);
            let c7 = word!(7);
            let d0 = _mm_unpacklo_epi8(c0, c1);
            let d1 = _mm_unpacklo_epi8(c2, c3);
            let d2 = _mm_unpacklo_epi8(c4, c5);
            let d3 = _mm_unpacklo_epi8(c6, c7);
            let e0 = _mm_unpacklo_epi16(d0, d1);
            let e1 = _mm_unpackhi_epi16(d0, d1);
            let e2 = _mm_unpacklo_epi16(d2, d3);
            let e3 = _mm_unpackhi_epi16(d2, d3);
            let f0 = _mm_unpacklo_epi32(e0, e2);
            let f1 = _mm_unpackhi_epi32(e0, e2);
            let f2 = _mm_unpacklo_epi32(e1, e3);
            let f3 = _mm_unpackhi_epi32(e1, e3);

            // Whole-block popcounts: the 8×8 block as two 256-bit halves
            // (beats 0..3 and 4..7, one 8-byte beat row per 64-bit slot),
            // plus the row-shifted block S whose beat `i` holds beat
            // `i−1`'s bytes (the carried `prev_row` for beat 0). Four
            // nibble-LUT passes then give every edge weight's input at
            // once: P = per-beat byte popcounts, D = popcounts of the
            // beat-to-beat toggles — work the per-beat loop below only
            // widens, never redoes.
            let rows_lo = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(f0), f1);
            let rows_hi = _mm256_inserti128_si256::<1>(_mm256_castsi128_si256(f2), f3);
            let t0 = _mm256_permute2x128_si256::<0x20>(prev_row, rows_lo);
            let s0 = _mm256_alignr_epi8::<8>(rows_lo, t0);
            let t1 = _mm256_permute2x128_si256::<0x21>(rows_lo, rows_hi);
            let s1 = _mm256_alignr_epi8::<8>(rows_hi, t1);
            let p_lo = popc_bytes!(rows_lo, pop_lut, nib);
            let p_hi = popc_bytes!(rows_hi, pop_lut, nib);
            let d_lo = popc_bytes!(_mm256_xor_si256(rows_lo, s0), pop_lut, nib);
            let d_hi = popc_bytes!(_mm256_xor_si256(rows_hi, s1), pop_lut, nib);
            prev_row = _mm256_permute2x128_si256::<0x11>(rows_hi, rows_hi);

            macro_rules! rows4 {
                ($v:expr) => {{
                    let lo = _mm256_castsi256_si128($v);
                    let hi = _mm256_extracti128_si256::<1>($v);
                    [lo, _mm_srli_si128::<8>(lo), hi, _mm_srli_si128::<8>(hi)]
                }};
            }
            let [p0r, p1r, p2r, p3r] = rows4!(p_lo);
            let [p4r, p5r, p6r, p7r] = rows4!(p_hi);
            let [d0r, d1r, d2r, d3r] = rows4!(d_lo);
            let [d4r, d5r, d6r, d7r] = rows4!(d_hi);
            let pr = [p0r, p1r, p2r, p3r, p4r, p5r, p6r, p7r];
            let dr = [d0r, d1r, d2r, d3r, d4r, d5r, d6r, d7r];

            // Entry stage, fully vectorised: the carried `prev_row`/`plv`
            // stand in for the scalar kernel's `last_data`/`prev_low`.
            let d = _mm256_cvtepu8_epi32(dr[0]);
            let p = _mm256_cvtepu8_epi32(pr[0]);
            let same0 = _mm256_mullo_epi32(d, alpha_v);
            let cross0 = _mm256_sub_epi32(nine_alpha, same0);
            let zpb = _mm256_mullo_epi32(p, beta_v);
            let zeros_plain = _mm256_sub_epi32(eight_beta, zpb);
            let zeros_inv = _mm256_add_epi32(zpb, beta_v);
            let mut cp = _mm256_add_epi32(blend8!(same0, cross0, plv), zeros_plain);
            let mut ci = _mm256_add_epi32(blend8!(cross0, same0, plv), zeros_inv);
            let mut mp = _mm256_setzero_si256();
            let mut mi = one;

            for i in 1..8 {
                let d = _mm256_cvtepu8_epi32(dr[i]);
                let p = _mm256_cvtepu8_epi32(pr[i]);
                let same = _mm256_mullo_epi32(d, alpha_v);
                let cross = _mm256_sub_epi32(nine_alpha, same);
                let zpb = _mm256_mullo_epi32(p, beta_v);
                let zeros_plain = _mm256_sub_epi32(eight_beta, zpb);
                let zeros_inv = _mm256_add_epi32(zpb, beta_v);

                let via_plain = _mm256_add_epi32(cp, same);
                let via_inv = _mm256_add_epi32(ci, cross);
                let selp = _mm256_cmpgt_epi32(via_plain, via_inv);
                let alt_plain = _mm256_add_epi32(cp, cross);
                let alt_inv = _mm256_add_epi32(ci, same);
                let seli = _mm256_cmpgt_epi32(alt_plain, alt_inv);
                // min == the cmpgt-selected branch (ties carry equal
                // costs), but it is one cheap op on the carried
                // compare/add critical path where a blend is two.
                cp = _mm256_add_epi32(_mm256_min_epi32(via_plain, via_inv), zeros_plain);
                ci = _mm256_add_epi32(_mm256_min_epi32(alt_plain, alt_inv), zeros_inv);

                let bit = _mm256_set1_epi32(1 << i);
                let next_mp = blend8!(mp, mi, selp);
                mi = _mm256_or_si256(blend8!(mp, mi, seli), bit);
                mp = next_mp;
            }

            let win = _mm256_cmpgt_epi32(cp, ci);
            let mask_v = blend8!(mp, mi, win);
            // Next burst's DBI entry level: the sign-broadcast of each
            // winning mask's last decision bit (bit 7 for BL8).
            plv = _mm256_srai_epi32::<31>(_mm256_slli_epi32::<24>(mask_v));

            // Pricing, per (beat, chain) byte of the P/D layout. A beat
            // drives `8 − p` zeros plain and `9 − (8 − p)` inverted (the
            // DBI lane adds one), and `d` toggles, or `9 − d` when its DBI
            // level flips against the beat before (the entry level for
            // beat 0). The winning masks, packed one byte per chain, give
            // the inversions; their one-beat shift, the flips.
            let packed =
                _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(mask_v, pack_low), lane_words);
            let m = _mm_cvtsi128_si64(_mm256_castsi256_si128(packed)) as u64;
            let flips = m ^ (((m << 1) & 0xFEFE_FEFE_FEFE_FEFE) | entry);
            entry = (m >> 7) & 0x0101_0101_0101_0101;
            let inv_word = _mm256_set1_epi64x(m as i64);
            let flip_word = _mm256_set1_epi64x(flips as i64);
            // `x`, with `9 − x` in the bytes whose beat has its bit set in
            // `word`.
            macro_rules! nine_minus_where {
                ($x:expr, $word:expr, $beats:expr) => {{
                    let x = $x;
                    let set = _mm256_cmpeq_epi8(_mm256_and_si256($word, $beats), $beats);
                    blend8!(x, _mm256_sub_epi8(nine8, x), set)
                }};
            }
            // Eight beats of at most 9 each: byte sums cannot overflow.
            let zeros = _mm256_add_epi8(
                nine_minus_where!(_mm256_sub_epi8(eight8, p_lo), inv_word, beats_lo),
                nine_minus_where!(_mm256_sub_epi8(eight8, p_hi), inv_word, beats_hi),
            );
            let toggles = _mm256_add_epi8(
                nine_minus_where!(d_lo, flip_word, beats_lo),
                nine_minus_where!(d_hi, flip_word, beats_hi),
            );
            // Folding the four beat slots leaves each chain's zeros in
            // byte c of the low word and its transitions in the high one.
            let sums = _mm256_add_epi8(
                _mm256_unpacklo_epi64(zeros, toggles),
                _mm256_unpackhi_epi64(zeros, toggles),
            );
            let sums = _mm_add_epi8(
                _mm256_castsi256_si128(sums),
                _mm256_extracti128_si256::<1>(sums),
            );
            let zeros = (_mm_cvtsi128_si64(sums) as u64).to_le_bytes();
            let toggles = (_mm_extract_epi64::<1>(sums) as u64).to_le_bytes();
            for (l, bits) in m.to_le_bytes().into_iter().enumerate() {
                let row = l * per_chain + j;
                masks[row] = InversionMask::from_bits(u32::from(bits));
                costs[row] = CostBreakdown::new(u64::from(zeros[l]), u64::from(toggles[l]));
            }
        }

        // The carried entries: beat 7's bytes (the high half of
        // `prev_row`'s low lane) and the last DBI levels.
        *last_data =
            (_mm_extract_epi64::<1>(_mm256_castsi256_si128(prev_row)) as u64).to_le_bytes();
        *prev_low = entry.to_le_bytes().map(|level| level != 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_flip_widens_mask_bits_to_bytes() {
        assert_eq!(SPREAD_FLIP[0], 0);
        assert_eq!(SPREAD_FLIP[0b1], 0xFF);
        assert_eq!(SPREAD_FLIP[0b1000_0000], 0xFF00_0000_0000_0000);
        assert_eq!(SPREAD_FLIP[0b0101_0101], 0x00FF_00FF_00FF_00FF);
        assert_eq!(SPREAD_FLIP[0xFF], u64::MAX);
    }

    /// The scalar tier is listed first because every host has it.
    #[test]
    fn dispatch_lists_the_scalar_oracle_first() {
        let kernels = available_kernels();
        assert_eq!(kernels[0], KernelKind::Scalar);
        assert!(kernels.contains(&selected_kernel()) || forced_scalar());
        assert!(!cpu_features().is_empty());
        assert!(kernels.len() <= 2);
    }

    #[test]
    fn lane_width_counts_the_chains_of_each_avx2_block() {
        assert_eq!(KernelKind::Avx2.lane_width(8), 8);
        assert_eq!(KernelKind::Avx2.lane_width(16), 4);
        for burst_len in (1..=32).filter(|&len| len != 8 && len != 16) {
            assert_eq!(KernelKind::Avx2.lane_width(burst_len), 1);
        }
        for burst_len in 1..=32 {
            assert_eq!(KernelKind::Scalar.lane_width(burst_len), 1);
        }
    }

    /// Both builds of the word-wide pricing pass and of the SWAR decode,
    /// called directly, against the per-beat lane-word walk: every length
    /// 1..=40 (past the 32-bit mask, where beats go out plain), random
    /// masks, both entry DBI levels. Machines with `popcnt` dispatch to
    /// the hardware build, so the baseline builds only run here.
    #[test]
    fn both_popcount_builds_match_the_lane_word_walk() {
        type Price = fn(&[u8], u32, (u8, bool)) -> CostBreakdown;
        type Decode = fn(usize, &mut [u8], &[InversionMask], &mut [CostBreakdown], &mut BusState);
        #[allow(unused_mut)]
        let mut builds: Vec<(&str, Price, Decode)> = vec![(
            "baseline",
            |bytes, bits, entry| price_burst_body(bytes, bits, entry),
            |len, bytes, masks, costs, state| {
                decode_chain_swar_body(len, bytes, masks, costs, state)
            },
        )];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: guarded by the runtime `popcnt` detection above.
            #[allow(unsafe_code)]
            builds.push((
                "popcnt",
                |bytes, bits, entry| unsafe {
                    crate::encoding::price_burst_popcnt(bytes, bits, entry)
                },
                |len, bytes, masks, costs, state| unsafe {
                    decode_chain_swar_popcnt(len, bytes, masks, costs, state)
                },
            ));
        }

        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        const CHAIN: usize = 3;
        for len in 1..=40usize {
            for _ in 0..32 {
                let payload: Vec<u8> = (0..CHAIN * len).map(|_| next() as u8).collect();
                let bits: Vec<u32> = (0..CHAIN).map(|_| next() as u32).collect();
                let data = next() as u8;
                for low in [false, true] {
                    let entry = BusState::new(LaneWord::encode_byte(data, low));
                    // The oracle: one lane word per beat, carried across
                    // the chain's bursts.
                    let mut state = entry;
                    let mut oracle = Vec::new();
                    for (burst, &m) in payload.chunks(len).zip(&bits) {
                        let symbols: Vec<LaneWord> = burst
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| {
                                LaneWord::encode_byte(b, InversionMask::from_bits(m).is_inverted(i))
                            })
                            .collect();
                        oracle.push(crate::oracle::price_symbols(&symbols, &state));
                        state = BusState::new(*symbols.last().expect("non-empty burst"));
                    }
                    for &(name, price, decode) in &builds {
                        let first = price(&payload[..len], bits[0], (data, low));
                        assert_eq!(first, oracle[0], "{name} price, len {len}, low {low}");
                        if len > 32 {
                            continue;
                        }
                        // The decode path needs masks valid for the burst.
                        let live = u32::MAX >> (32 - len);
                        let masks: Vec<InversionMask> = bits
                            .iter()
                            .map(|&m| InversionMask::from_bits(m & live))
                            .collect();
                        let mut wire = payload.clone();
                        for (burst, mask) in wire.chunks_mut(len).zip(&masks) {
                            mask.apply_in_place(burst);
                        }
                        let mut costs = vec![CostBreakdown::ZERO; CHAIN];
                        let mut rx = entry;
                        decode(len, &mut wire, &masks, &mut costs, &mut rx);
                        assert_eq!(wire, payload, "{name} decode payload, len {len}");
                        assert_eq!(costs, oracle, "{name} decode costs, len {len}, low {low}");
                        assert_eq!(rx, state, "{name} decode state, len {len}, low {low}");
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_names_are_stable() {
        for kernel in available_kernels() {
            assert_eq!(format!("{kernel}"), kernel.name());
        }
        assert_eq!(KernelKind::Scalar.name(), "scalar");
        assert_eq!(KernelKind::Avx2.name(), "avx2");
    }
}
