//! Vectorised slab kernels: `core::arch` SIMD sweeps over whole
//! [`BurstSlab`](crate::BurstSlab)s, behind runtime CPU feature detection.
//!
//! The scalar slab kernel in `schemes::opt` is latency-bound: the
//! trellis compare/add chain of one burst must finish before the next
//! burst's entry costs resolve. A DDR4/GDDR channel, however, is several
//! **independent** lane groups — each group carries its own DBI lane and
//! its own Viterbi chain — so a slab that holds the bursts of multiple
//! groups can run those chains as parallel lanes of *one* recurrence.
//! That is exactly what the kernels here do, in two tiers:
//!
//! 1. **Scalar** ([`KernelKind::Scalar`]) — the per-chain sweep, always
//!    available, and the differential oracle every other tier is tested
//!    against (bit-identical masks, cost rows and carried state).
//! 2. **Arch SIMD** ([`KernelKind::Sse2`], [`KernelKind::Avx2`],
//!    [`KernelKind::Neon`]) — explicit vector kernels: four chains per
//!    `__m128i`/`uint32x4_t` register, and on AVX2 an eight-chain BL8
//!    kernel that byte-transposes each burst in registers and prices it
//!    with in-vector nibble popcounts.
//!
//! Tier selection happens once per process ([`selected_kernel`]) from
//! runtime feature detection; `DBI_FORCE_SCALAR=1` pins dispatch to the
//! scalar tier ([`forced_scalar`]). The decode side gets the same
//! treatment: `decode_chain_swar` re-prices whole bursts with 64-bit
//! SWAR popcounts instead of per-beat
//! [`LaneWord::from_wire`](crate::word::LaneWord::from_wire) walks.
//!
//! Correctness rests on one observation: path costs stay below `2^31`
//! (at most 32 stages of `9 ·` [`crate::cost::MAX_WEIGHT`] each), so the
//! **signed** 32-bit vector compares the hardware offers are bit-identical
//! to the scalar code's unsigned `<` — including the strict-inequality
//! tie-break towards the non-inverted predecessor.

use crate::burst::BusState;
use crate::cost::CostBreakdown;
use crate::encoding::InversionMask;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::schemes::OptEncoder;
use crate::word::LaneWord;
use std::sync::OnceLock;

/// The kernel tiers a slab encode/decode can dispatch to.
///
/// Every variant exists on every architecture so configuration and test
/// code can name them portably; [`available_kernels`] lists the ones that
/// are actually compiled in **and** supported by the running CPU.
/// Dispatching an arch kernel on an architecture where it was not
/// compiled falls back to the scalar oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The per-chain scalar sweep — always available, and the oracle.
    Scalar,
    /// x86-64 SSE2: four chains per `__m128i` (baseline on x86-64).
    Sse2,
    /// x86-64 AVX2: eight BL8 chains per `__m256i` with in-register
    /// transposes and nibble-LUT popcounts; other geometries ride the
    /// SSE2 tier.
    Avx2,
    /// AArch64 NEON: four chains per `uint32x4_t`.
    Neon,
}

impl KernelKind {
    /// How many chains this tier sweeps per lockstep block for the given
    /// burst length — the lane-occupancy target a packed dispatch should
    /// fill. The AVX2 tier is eight-wide only for its BL8 fast path
    /// (other geometries ride the four-wide SSE2 blocks); the scalar
    /// oracle walks one chain at a time.
    #[must_use]
    pub const fn lane_width(self, burst_len: usize) -> usize {
        match self {
            KernelKind::Scalar => 1,
            KernelKind::Avx2 => {
                if burst_len == 8 {
                    8
                } else {
                    4
                }
            }
            KernelKind::Sse2 | KernelKind::Neon => 4,
        }
    }

    /// Stable lowercase name, as recorded in `BENCH_encode.json`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Sse2 => "sse2",
            KernelKind::Avx2 => "avx2",
            KernelKind::Neon => "neon",
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
        available.push(KernelKind::Sse2);
        macro_rules! feat {
            ($($name:tt),+) => {
                $(if std::arch::is_x86_feature_detected!($name) {
                    features.push($name);
                })+
            };
        }
        feat!("ssse3", "sse4.1", "sse4.2", "popcnt", "avx", "bmi2");
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
            available.push(KernelKind::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        features.push("neon");
        available.push(KernelKind::Neon);
    }
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
/// the scalar oracle to the most capable tier. Unaffected by
/// `DBI_FORCE_SCALAR` — differential tests iterate this list even when
/// dispatch is pinned.
#[must_use]
pub fn available_kernels() -> &'static [KernelKind] {
    &dispatch().available
}

/// The kernel slab encodes and decodes dispatch to: the most capable
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
/// bytes load as one `u64`, the inversions undo as one XOR against a
/// [`SPREAD_FLIP`] constant, and the receiver-side re-pricing becomes
/// three whole-word popcounts per eight beats — zeros from the word
/// itself, DQ toggles from `w ^ (w << 8 | prev)`, and the DBI lane's
/// toggles/zeros straight from the mask word. Bit-identical to the
/// per-beat [`LaneWord`] walk (differential-tested), including the
/// carried receiver state.
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
/// SWAR sequence per word — the single instruction triples the decode
/// re-pricing throughput.
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
    let entry = state.last();
    // The carried receiver state, split the same way the encode kernels
    // split theirs: the wire levels of the DQ lanes and the DBI lane's
    // inversion flag. `from_wire` at the end restores a LaneWord.
    let mut prev_dq = entry.dq_levels();
    let mut prev_inv = entry.dbi().is_inverted();
    let len_mask = if burst_len == 32 {
        u32::MAX
    } else {
        (1u32 << burst_len) - 1
    };

    for (index, chunk) in bytes.chunks_exact_mut(burst_len).enumerate() {
        let mask = masks[index];
        let m = mask.bits();
        // The DBI lane, whole-burst at once: its level is the complement
        // of the mask bit, so toggles are adjacent mask-bit differences
        // (seeded with the carried flag) and zeros are the set mask bits.
        let shifted = (m << 1) | u32::from(prev_inv);
        let mut trans = ((m ^ shifted) & len_mask).count_ones();
        let mut zeros = m.count_ones();

        let mut mrest = m;
        let mut words = chunk.chunks_exact_mut(8);
        for word in &mut words {
            let w = u64::from_le_bytes((&*word).try_into().expect("chunk is 8 bytes"));
            zeros += 64 - w.count_ones();
            trans += (w ^ ((w << 8) | u64::from(prev_dq))).count_ones();
            prev_dq = (w >> 56) as u8;
            let flip = SPREAD_FLIP[(mrest & 0xFF) as usize];
            word.copy_from_slice(&(w ^ flip).to_le_bytes());
            mrest >>= 8;
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            let t = tail.len();
            let mut buf = [0u8; 8];
            buf[..t].copy_from_slice(tail);
            let w = u64::from_le_bytes(buf);
            let bits_mask = (1u64 << (8 * t)) - 1;
            zeros += 8 * t as u32 - w.count_ones();
            trans += ((w ^ ((w << 8) | u64::from(prev_dq))) & bits_mask).count_ones();
            prev_dq = (w >> (8 * (t - 1))) as u8;
            let flip = SPREAD_FLIP[(mrest & 0xFF) as usize] & bits_mask;
            let out = (w ^ flip).to_le_bytes();
            tail.copy_from_slice(&out[..t]);
        }

        prev_inv = mask.is_inverted(burst_len - 1);
        costs[index] = CostBreakdown::new(u64::from(zeros), u64::from(trans));
    }
    *state = BusState::new(LaneWord::from_wire(prev_dq, prev_inv));
}

// ---------------------------------------------------------------------------
// x86-64 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{encode_block4_sse2, encode_block8_avx2};

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2 (baseline, safe) and AVX2 (runtime-detected) encode kernels.

    use super::{CostBreakdown, InversionMask, OptEncoder};
    use core::arch::x86_64::*;

    // SSE2 is unconditionally part of the x86-64 baseline, but rustc
    // still requires the feature to be *listed* on any function calling
    // its intrinsics safely — hence the annotations here and the
    // (vacuously satisfied) `unsafe` at the dispatch call site.

    #[inline]
    #[target_feature(enable = "sse2")]
    fn set4(v: [u32; 4]) -> __m128i {
        _mm_set_epi32(v[3] as i32, v[2] as i32, v[1] as i32, v[0] as i32)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn get4(v: __m128i) -> [u32; 4] {
        [
            _mm_cvtsi128_si32(v) as u32,
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<1>(v)) as u32,
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<2>(v)) as u32,
            _mm_cvtsi128_si32(_mm_shuffle_epi32::<3>(v)) as u32,
        ]
    }

    /// `mask ? b : a`, per bit — SSE2 has no `blendv`, so the select is
    /// the same AND/ANDNOT/OR triple the scalar kernel uses.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn blend4(a: __m128i, b: __m128i, mask: __m128i) -> __m128i {
        _mm_or_si128(_mm_and_si128(mask, b), _mm_andnot_si128(mask, a))
    }

    /// Four-chain lockstep sweep on SSE2: path costs, survivor masks and
    /// pricing accumulators each in one `__m128i`, predecessor selects as
    /// signed dword compares (exact versus the scalar unsigned `<`
    /// because path costs stay below `2^31`). Table loads stay scalar —
    /// SSE2 has no gathers — but they index pure input data, so the four
    /// lanes' loads pipeline ahead of the vector compare chain.
    ///
    /// `bytes`/`masks`/`costs` are the block-local columns of exactly
    /// four chains (`4 · per_chain` bursts, chain-major). Bit-identical
    /// to four scalar `slab_runs` chains (differential-tested).
    ///
    /// Safety: none in practice — SSE2 is guaranteed on every x86-64
    /// CPU; the `#[target_feature]` annotation exists only to satisfy
    /// the safe-intrinsics rules.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    pub(crate) fn encode_block4_sse2(
        enc: &OptEncoder,
        burst_len: usize,
        per_chain: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        last_data: &mut [u8; 4],
        prev_low: &mut [bool; 4],
    ) {
        let lut = enc.lut();
        let nine = _mm_set1_epi32(9);
        for j in 0..per_chain {
            let base = |c: usize| (c * per_chain + j) * burst_len;

            let mut entry_plain = [0u32; 4];
            let mut entry_inv = [0u32; 4];
            let mut prev = [0u8; 4];
            let (mut zp_a, mut zi_a, mut tp_a, mut ti_a) =
                ([0u32; 4], [0u32; 4], [0u32; 4], [0u32; 4]);
            for c in 0..4 {
                let first = bytes[base(c)];
                let (plain, inv) = enc.entry_costs(first, last_data[c], prev_low[c]);
                entry_plain[c] = plain;
                entry_inv[c] = inv;
                prev[c] = first;
                let ones = first.count_ones();
                let p = (last_data[c] ^ first).count_ones();
                let anti = 9 - p;
                let swap = (p ^ anti) & u32::from(prev_low[c]).wrapping_neg();
                zp_a[c] = 8 - ones;
                zi_a[c] = ones + 1;
                tp_a[c] = p ^ swap;
                ti_a[c] = anti ^ swap;
            }
            let mut cp = set4(entry_plain);
            let mut ci = set4(entry_inv);
            let mut mp = _mm_setzero_si128();
            let mut mi = _mm_set1_epi32(1);
            let mut zp = set4(zp_a);
            let mut zi = set4(zi_a);
            let mut tp = set4(tp_a);
            let mut ti = set4(ti_a);

            for i in 1..burst_len {
                let mut same_a = [0u32; 4];
                let mut zeros_plain_a = [0u32; 4];
                let mut zeros_inv_a = [0u32; 4];
                let mut same_r_a = [0u32; 4];
                let mut ones_a = [0u32; 4];
                for c in 0..4 {
                    let byte = bytes[base(c) + i];
                    let xor = prev[c] ^ byte;
                    let [same_w, _] = lut.transitions(xor);
                    same_a[c] = same_w;
                    let [zeros_plain_w, zeros_inv_w] = lut.zeros(byte);
                    zeros_plain_a[c] = zeros_plain_w;
                    zeros_inv_a[c] = zeros_inv_w;
                    same_r_a[c] = xor.count_ones();
                    ones_a[c] = byte.count_ones();
                    prev[c] = byte;
                }
                // cross = 9α − same, by the complement identity of the
                // LUT — one vector subtract instead of a second gather.
                let same_v = set4(same_a);
                let cross_v =
                    _mm_sub_epi32(_mm_set1_epi32(9 * enc.weights().alpha() as i32), same_v);

                let via_plain = _mm_add_epi32(cp, same_v);
                let via_inv = _mm_add_epi32(ci, cross_v);
                let selp = _mm_cmpgt_epi32(via_plain, via_inv);
                let alt_plain = _mm_add_epi32(cp, cross_v);
                let alt_inv = _mm_add_epi32(ci, same_v);
                let seli = _mm_cmpgt_epi32(alt_plain, alt_inv);
                cp = _mm_add_epi32(blend4(via_plain, via_inv, selp), set4(zeros_plain_a));
                ci = _mm_add_epi32(blend4(alt_plain, alt_inv, seli), set4(zeros_inv_a));

                let bit = _mm_set1_epi32(1 << i);
                let next_mp = blend4(mp, mi, selp);
                mi = _mm_or_si128(blend4(mp, mi, seli), bit);
                mp = next_mp;

                let same_r = set4(same_r_a);
                let cross_r = _mm_sub_epi32(nine, same_r);
                let ones = set4(ones_a);
                let zap = _mm_sub_epi32(_mm_set1_epi32(8), ones);
                let zai = _mm_add_epi32(ones, _mm_set1_epi32(1));
                let next_zp = _mm_add_epi32(blend4(zp, zi, selp), zap);
                let next_zi = _mm_add_epi32(blend4(zp, zi, seli), zai);
                let next_tp = _mm_add_epi32(blend4(tp, ti, selp), blend4(same_r, cross_r, selp));
                let next_ti = _mm_add_epi32(blend4(tp, ti, seli), blend4(cross_r, same_r, seli));
                zp = next_zp;
                zi = next_zi;
                tp = next_tp;
                ti = next_ti;
            }

            let cp_a = get4(cp);
            let ci_a = get4(ci);
            let mp_a = get4(mp);
            let mi_a = get4(mi);
            let (zp_f, zi_f, tp_f, ti_f) = (get4(zp), get4(zi), get4(tp), get4(ti));
            for c in 0..4 {
                let inv_wins = ci_a[c] < cp_a[c];
                let mbits = if inv_wins { mi_a[c] } else { mp_a[c] };
                masks[c * per_chain + j] = InversionMask::from_bits(mbits);
                let (zeros, trans) = if inv_wins {
                    (zi_f[c], ti_f[c])
                } else {
                    (zp_f[c], tp_f[c])
                };
                costs[c * per_chain + j] = CostBreakdown::new(u64::from(zeros), u64::from(trans));
                last_data[c] = prev[c];
                prev_low[c] = (mbits >> (burst_len - 1)) & 1 == 1;
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
    /// BL8-only by construction (the transpose tree is 8×8); the
    /// dispatcher routes other geometries to the SSE2 tier.
    ///
    /// Safety: caller must have verified AVX2 via runtime detection.
    #[target_feature(enable = "avx2")]
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
        macro_rules! get8 {
            ($v:expr) => {{
                let mut out = [0u32; 8];
                // SAFETY: the destination is exactly 32 writable bytes;
                // storeu has no alignment requirement.
                #[allow(unsafe_code)]
                unsafe {
                    _mm256_storeu_si256(out.as_mut_ptr().cast(), $v);
                }
                out
            }};
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
        let nine = _mm256_set1_epi32(9);
        let eight = _mm256_set1_epi32(8);
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
            // nibble-LUT passes then price the whole burst: P = per-beat
            // byte popcounts, D = popcounts of the beat-to-beat toggles —
            // work the per-beat loop below only widens, never redoes.
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
            let mut zp = _mm256_sub_epi32(eight, p);
            let mut zi = _mm256_add_epi32(p, one);
            let cross_r = _mm256_sub_epi32(nine, d);
            let mut tp = blend8!(d, cross_r, plv);
            let mut ti = blend8!(cross_r, d, plv);

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

                let cross_r = _mm256_sub_epi32(nine, d);
                let zap = _mm256_sub_epi32(eight, p);
                let zai = _mm256_add_epi32(p, one);
                let next_zp = _mm256_add_epi32(blend8!(zp, zi, selp), zap);
                let next_zi = _mm256_add_epi32(blend8!(zp, zi, seli), zai);
                let next_tp = _mm256_add_epi32(blend8!(tp, ti, selp), blend8!(d, cross_r, selp));
                let next_ti = _mm256_add_epi32(blend8!(tp, ti, seli), blend8!(cross_r, d, seli));
                zp = next_zp;
                zi = next_zi;
                tp = next_tp;
                ti = next_ti;
            }

            let win = _mm256_cmpgt_epi32(cp, ci);
            let mask_v = blend8!(mp, mi, win);
            let mbits = get8!(mask_v);
            for (l, &bits) in mbits.iter().enumerate() {
                masks[l * per_chain + j] = InversionMask::from_bits(bits);
            }
            let zeros_w = get8!(blend8!(zp, zi, win));
            let trans_w = get8!(blend8!(tp, ti, win));
            for l in 0..8 {
                costs[l * per_chain + j] =
                    CostBreakdown::new(u64::from(zeros_w[l]), u64::from(trans_w[l]));
            }
            // Next burst's DBI entry level: the sign-broadcast of each
            // winning mask's last decision bit (bit 7 for BL8).
            plv = _mm256_srai_epi32::<31>(_mm256_slli_epi32::<24>(mask_v));
        }

        // The final carried bytes sit in prev_row's lane-0 high half.
        let mut tail = [0u8; 16];
        // SAFETY: 16 writable bytes; storeu is unaligned-safe.
        #[allow(unsafe_code)]
        unsafe {
            _mm_storeu_si128(tail.as_mut_ptr().cast(), _mm256_castsi256_si128(prev_row));
        }
        last_data.copy_from_slice(&tail[8..]);
        let final_low = get8!(plv);
        for l in 0..8 {
            prev_low[l] = final_low[l] != 0;
        }
    }
}

// ---------------------------------------------------------------------------
// AArch64 NEON kernel
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
pub(crate) use arm::encode_block4_neon;

#[cfg(target_arch = "aarch64")]
mod arm {
    //! NEON four-chain kernel: the SSE2 design on `uint32x4_t`, with the
    //! bonus of genuinely unsigned vector compares (`vcltq_u32`).

    use super::{CostBreakdown, InversionMask, OptEncoder};
    use core::arch::aarch64::*;

    #[inline(always)]
    fn set4(v: [u32; 4]) -> uint32x4_t {
        let mut out = vdupq_n_u32(v[0]);
        out = vsetq_lane_u32::<1>(v[1], out);
        out = vsetq_lane_u32::<2>(v[2], out);
        vsetq_lane_u32::<3>(v[3], out)
    }

    #[inline(always)]
    fn get4(v: uint32x4_t) -> [u32; 4] {
        [
            vgetq_lane_u32::<0>(v),
            vgetq_lane_u32::<1>(v),
            vgetq_lane_u32::<2>(v),
            vgetq_lane_u32::<3>(v),
        ]
    }

    /// See [`encode_block4_sse2`](super::encode_block4_sse2) — identical
    /// structure, NEON spelling (`vbslq_u32` is the native bit-select).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn encode_block4_neon(
        enc: &OptEncoder,
        burst_len: usize,
        per_chain: usize,
        bytes: &[u8],
        masks: &mut [InversionMask],
        costs: &mut [CostBreakdown],
        last_data: &mut [u8; 4],
        prev_low: &mut [bool; 4],
    ) {
        let lut = enc.lut();
        let nine = vdupq_n_u32(9);
        let eight = vdupq_n_u32(8);
        let one = vdupq_n_u32(1);
        let cross_base = vdupq_n_u32(9 * enc.weights().alpha());
        for j in 0..per_chain {
            let base = |c: usize| (c * per_chain + j) * burst_len;

            let mut entry_plain = [0u32; 4];
            let mut entry_inv = [0u32; 4];
            let mut prev = [0u8; 4];
            let (mut zp_a, mut zi_a, mut tp_a, mut ti_a) =
                ([0u32; 4], [0u32; 4], [0u32; 4], [0u32; 4]);
            for c in 0..4 {
                let first = bytes[base(c)];
                let (plain, inv) = enc.entry_costs(first, last_data[c], prev_low[c]);
                entry_plain[c] = plain;
                entry_inv[c] = inv;
                prev[c] = first;
                let ones = first.count_ones();
                let p = (last_data[c] ^ first).count_ones();
                let anti = 9 - p;
                let swap = (p ^ anti) & u32::from(prev_low[c]).wrapping_neg();
                zp_a[c] = 8 - ones;
                zi_a[c] = ones + 1;
                tp_a[c] = p ^ swap;
                ti_a[c] = anti ^ swap;
            }
            let mut cp = set4(entry_plain);
            let mut ci = set4(entry_inv);
            let mut mp = vdupq_n_u32(0);
            let mut mi = one;
            let mut zp = set4(zp_a);
            let mut zi = set4(zi_a);
            let mut tp = set4(tp_a);
            let mut ti = set4(ti_a);

            for i in 1..burst_len {
                let mut same_a = [0u32; 4];
                let mut zeros_plain_a = [0u32; 4];
                let mut zeros_inv_a = [0u32; 4];
                let mut same_r_a = [0u32; 4];
                let mut ones_a = [0u32; 4];
                for c in 0..4 {
                    let byte = bytes[base(c) + i];
                    let xor = prev[c] ^ byte;
                    let [same_w, _] = lut.transitions(xor);
                    same_a[c] = same_w;
                    let [zeros_plain_w, zeros_inv_w] = lut.zeros(byte);
                    zeros_plain_a[c] = zeros_plain_w;
                    zeros_inv_a[c] = zeros_inv_w;
                    same_r_a[c] = xor.count_ones();
                    ones_a[c] = byte.count_ones();
                    prev[c] = byte;
                }
                let same_v = set4(same_a);
                let cross_v = vsubq_u32(cross_base, same_v);

                let via_plain = vaddq_u32(cp, same_v);
                let via_inv = vaddq_u32(ci, cross_v);
                let selp = vcltq_u32(via_inv, via_plain);
                let alt_plain = vaddq_u32(cp, cross_v);
                let alt_inv = vaddq_u32(ci, same_v);
                let seli = vcltq_u32(alt_inv, alt_plain);
                cp = vaddq_u32(vbslq_u32(selp, via_inv, via_plain), set4(zeros_plain_a));
                ci = vaddq_u32(vbslq_u32(seli, alt_inv, alt_plain), set4(zeros_inv_a));

                let bit = vdupq_n_u32(1 << i);
                let next_mp = vbslq_u32(selp, mi, mp);
                mi = vorrq_u32(vbslq_u32(seli, mi, mp), bit);
                mp = next_mp;

                let same_r = set4(same_r_a);
                let cross_r = vsubq_u32(nine, same_r);
                let ones = set4(ones_a);
                let zap = vsubq_u32(eight, ones);
                let zai = vaddq_u32(ones, one);
                let next_zp = vaddq_u32(vbslq_u32(selp, zi, zp), zap);
                let next_zi = vaddq_u32(vbslq_u32(seli, zi, zp), zai);
                let next_tp = vaddq_u32(vbslq_u32(selp, ti, tp), vbslq_u32(selp, cross_r, same_r));
                let next_ti = vaddq_u32(vbslq_u32(seli, ti, tp), vbslq_u32(seli, same_r, cross_r));
                zp = next_zp;
                zi = next_zi;
                tp = next_tp;
                ti = next_ti;
            }

            let cp_a = get4(cp);
            let ci_a = get4(ci);
            let mp_a = get4(mp);
            let mi_a = get4(mi);
            let (zp_f, zi_f, tp_f, ti_f) = (get4(zp), get4(zi), get4(tp), get4(ti));
            for c in 0..4 {
                let inv_wins = ci_a[c] < cp_a[c];
                let mbits = if inv_wins { mi_a[c] } else { mp_a[c] };
                masks[c * per_chain + j] = InversionMask::from_bits(mbits);
                let (zeros, trans) = if inv_wins {
                    (zi_f[c], ti_f[c])
                } else {
                    (zp_f[c], tp_f[c])
                };
                costs[c * per_chain + j] = CostBreakdown::new(u64::from(zeros), u64::from(trans));
                last_data[c] = prev[c];
                prev_low[c] = (mbits >> (burst_len - 1)) & 1 == 1;
            }
        }
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

    #[test]
    fn dispatch_lists_the_scalar_oracle_first() {
        let kernels = available_kernels();
        assert_eq!(kernels[0], KernelKind::Scalar);
        assert!(kernels.contains(&selected_kernel()) || forced_scalar());
        assert!(!cpu_features().is_empty());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(kernels[1], KernelKind::Sse2);
    }

    #[test]
    fn kernel_names_are_stable() {
        for kernel in available_kernels() {
            assert_eq!(format!("{kernel}"), kernel.name());
        }
        assert_eq!(KernelKind::Avx2.name(), "avx2");
        assert_eq!(KernelKind::Neon.name(), "neon");
    }
}
