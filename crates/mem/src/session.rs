//! Multi-group streaming encode sessions.
//!
//! A x32 channel is four independent 8-lane DBI groups (DQ0–7 with DBI0,
//! DQ8–15 with DBI1, ...), a x64 channel eight; each group carries its own
//! lane state across bursts and takes its own inversion decisions, exactly
//! as in the standards. [`BusSession`] is the one type that carries that
//! per-group state: the write path
//! ([`crate::controller::MemoryController`]) and the read path
//! ([`crate::read_path::ReadPath`]) drive one each, as do the service and
//! the conformance harness. It encodes a whole write stream in one call,
//! either walking the per-group byte streams burst by burst
//! ([`BusSession::encode_stream`], the serial reference) or packing every
//! group's chain into one [`BurstSlab`] and encoding them all in a single
//! lanes dispatch ([`BusSession::encode_stream_slab_into`]) — the SIMD
//! kernels then sweep the groups as parallel lanes of one recurrence, and
//! the result is bit-identical to the serial one.
//!
//! A session performs *no* storage and *no* energy bookkeeping (its
//! owners add those): it is the pure encode path, reporting wire activity
//! per group. Per-burst work is allocation-free:
//! the gather buffer is moved into each [`Burst`] and recovered afterwards,
//! so a stream call's allocation count is a small per-call constant (the
//! result vector) regardless of how many bursts it encodes — asserted by a
//! counting-allocator test in `tests/session_alloc.rs`.
//!
//! ```
//! use dbi_core::{BurstSlab, Scheme};
//! use dbi_mem::{BusSession, ChannelConfig};
//!
//! let config = ChannelConfig::gddr5x();
//! let data = vec![0x5Au8; config.access_bytes() * 16];
//! let mut session = BusSession::new(&config, Scheme::OptFixed);
//! let serial = session.encode_stream(&data).unwrap();
//! session.reset();
//! let mut per_group = Vec::new();
//! let mut slab = BurstSlab::new(config.burst_len());
//! let bursts = session
//!     .encode_stream_slab_into(&data, &mut per_group, None, &mut slab)
//!     .unwrap();
//! assert_eq!(bursts, serial.bursts);
//! assert_eq!(per_group, serial.per_group);
//! ```

use crate::config::ChannelConfig;
use crate::error::{MemError, Result};
use core::fmt;
use dbi_core::{
    Burst, BurstSlab, BusState, CostBreakdown, CostWeights, DbiEncoder, EncodePlan, InversionMask,
    LaneWord, Scheme,
};
use std::sync::Arc;

/// Aggregate wire activity of one encoded stream, per lane group and in
/// total.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChannelActivity {
    /// Number of per-group bursts encoded.
    pub bursts: u64,
    /// Activity of each lane group, in group order.
    pub per_group: Vec<CostBreakdown>,
}

impl ChannelActivity {
    /// Total activity across all groups.
    #[must_use]
    pub fn total(&self) -> CostBreakdown {
        self.per_group.iter().copied().sum()
    }

    /// Weighted integer cost of the whole stream.
    #[must_use]
    pub fn cost(&self, weights: &CostWeights) -> u64 {
        self.total().weighted(weights)
    }
}

impl fmt::Display for ChannelActivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bursts over {} groups, {}",
            self.bursts,
            self.per_group.len(),
            self.total()
        )
    }
}

/// A streaming encode session over the independent DBI groups of one
/// channel.
///
/// The session owns one [`BusState`] per group (carried across calls, so a
/// stream may be fed in arbitrary slices) and a shared [`EncodePlan`] —
/// parametric schemes therefore pay their construction (e.g. the OPT cost
/// tables) at most once per process (plans come from the plan cache), not
/// per burst or per session. The plan can be replaced at any burst
/// boundary with [`BusSession::swap_plan`]; the carried lane states are
/// preserved, so a session can follow an operating-point change
/// mid-stream exactly as reconfigurable DBI hardware would.
pub struct BusSession {
    plan: Arc<EncodePlan>,
    groups: Vec<BusState>,
    burst_len: usize,
    scratch: Vec<u8>,
}

impl fmt::Debug for BusSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BusSession")
            .field("scheme", &self.scheme())
            .field("groups", &self.groups)
            .field("burst_len", &self.burst_len)
            .finish_non_exhaustive()
    }
}

impl BusSession {
    /// Creates a session for the channel's geometry (lane groups × burst
    /// length), all groups idle.
    #[must_use]
    pub fn new(config: &ChannelConfig, scheme: Scheme) -> Self {
        Self::with_geometry(config.lane_groups(), config.burst_len(), scheme)
    }

    /// Creates a session with an explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `burst_len` is zero, or if `burst_len` exceeds
    /// the 32-byte inversion-mask limit.
    #[must_use]
    pub fn with_geometry(groups: usize, burst_len: usize, scheme: Scheme) -> Self {
        Self::with_plan_geometry(groups, burst_len, scheme.plan())
    }

    /// Creates a session with an explicit geometry around an existing
    /// plan (e.g. one produced by a phy energy model or a shared
    /// [`dbi_core::PlanCache`]).
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `burst_len` is zero, or if `burst_len` exceeds
    /// the 32-byte inversion-mask limit.
    #[must_use]
    pub fn with_plan_geometry(groups: usize, burst_len: usize, plan: Arc<EncodePlan>) -> Self {
        assert!(groups > 0, "a session needs at least one lane group");
        assert!(
            (1..=32).contains(&burst_len),
            "burst length must be within the inversion-mask limit of 32 bytes"
        );
        BusSession {
            plan,
            groups: vec![BusState::idle(); groups],
            burst_len,
            scratch: Vec::with_capacity(burst_len),
        }
    }

    /// The scheme this session encodes with.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.plan.scheme()
    }

    /// The plan this session encodes with.
    #[must_use]
    pub const fn plan(&self) -> &Arc<EncodePlan> {
        &self.plan
    }

    /// Replaces the encode plan at a burst boundary, returning the
    /// previous one. The carried [`BusState`] of every group is
    /// **preserved**: the wires do not care which coefficients chose the
    /// last inversion, so the next burst continues from the true lane
    /// levels under the new plan — exactly the mid-session
    /// operating-point change the service layer exposes.
    pub fn swap_plan(&mut self, plan: Arc<EncodePlan>) -> Arc<EncodePlan> {
        core::mem::replace(&mut self.plan, plan)
    }

    /// Number of independent DBI groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Burst length in unit intervals.
    #[must_use]
    pub const fn burst_len(&self) -> usize {
        self.burst_len
    }

    /// The carried lane state of one group.
    #[must_use]
    pub fn group_state(&self, group: usize) -> Option<BusState> {
        self.groups.get(group).copied()
    }

    /// Returns every group to the idle (all lanes high) boundary condition.
    pub fn reset(&mut self) {
        for state in &mut self.groups {
            *state = BusState::idle();
        }
    }

    /// Bytes per full-bus access: groups × burst length.
    #[must_use]
    pub fn access_bytes(&self) -> usize {
        self.groups.len() * self.burst_len
    }

    /// Encodes a whole beat-interleaved write stream sequentially: byte `k`
    /// of each access travels on group `k mod groups` during beat
    /// `k / groups`, exactly as [`crate::controller::MemoryController`]
    /// splits its accesses.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAccessSize`] when `data` is empty or not a
    /// multiple of [`BusSession::access_bytes`].
    pub fn encode_stream(&mut self, data: &[u8]) -> Result<ChannelActivity> {
        let mut per_group = Vec::new();
        let bursts = self.encode_stream_into(data, &mut per_group, None)?;
        Ok(ChannelActivity { bursts, per_group })
    }

    /// [`BusSession::encode_stream`] into caller-owned storage: the
    /// steady-state form for services that must not allocate per request.
    ///
    /// `per_group` is cleared and refilled with one [`CostBreakdown`] per
    /// lane group; when `masks` is supplied it is cleared and receives the
    /// per-burst inversion decisions in transmission order (group-major
    /// within each access: access 0 group 0, access 0 group 1, ...). Both
    /// buffers reuse their existing capacity, so a warmed-up caller pays no
    /// heap allocation at all. Returns the number of bursts encoded.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAccessSize`] when `data` is empty or not a
    /// multiple of [`BusSession::access_bytes`]; the output buffers are
    /// left cleared but otherwise untouched.
    pub fn encode_stream_into(
        &mut self,
        data: &[u8],
        per_group: &mut Vec<CostBreakdown>,
        mut masks: Option<&mut Vec<InversionMask>>,
    ) -> Result<u64> {
        per_group.clear();
        if let Some(masks) = masks.as_deref_mut() {
            masks.clear();
        }
        self.check_stream(data)?;
        let groups = self.groups.len();
        let burst_len = self.burst_len;
        let accesses = data.len() / self.access_bytes();
        per_group.resize(groups, CostBreakdown::ZERO);

        let mut scratch = core::mem::take(&mut self.scratch);
        for access in 0..accesses {
            let base = access * groups * burst_len;
            for (group, activity) in per_group.iter_mut().enumerate() {
                scratch.clear();
                scratch.extend(data[base + group..].iter().step_by(groups).take(burst_len));
                // Move the gather buffer into the burst and recover it
                // afterwards: no allocation per burst.
                let burst = Burst::new(scratch).expect("burst length is positive");
                let state = self.groups[group];
                let mask = self.plan.encode_mask(&burst, &state);
                *activity += mask.breakdown(&burst, &state);
                self.groups[group] = mask.final_state(&burst, &state);
                if let Some(masks) = masks.as_deref_mut() {
                    masks.push(mask);
                }
                scratch = burst.into_bytes();
            }
        }
        self.scratch = scratch;
        Ok((accesses * groups) as u64)
    }

    /// The batched (slab) form of [`BusSession::encode_stream_into`]: the
    /// stream is de-interleaved group by group into `slab` and every
    /// group's whole burst chain is encoded in **one**
    /// [`DbiEncoder::encode_lanes_into`] call — one dispatch per stream
    /// instead of one per burst, with the optimal schemes running their
    /// lockstep SIMD kernels across the groups. Bit-identical to
    /// [`BusSession::encode_stream_into`] (differential-tested below and in
    /// the service layer), and the steady-state form the service workers
    /// use. Semantics of `per_group` and `masks` match
    /// [`BusSession::encode_stream_into`] exactly (masks in transmission
    /// order, group-major within each access); `slab` is the reusable
    /// workspace, reset to this session's burst length and refilled, so a
    /// warmed-up caller pays no heap allocation at all.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAccessSize`] when `data` is empty or not a
    /// multiple of [`BusSession::access_bytes`]; the output buffers are
    /// left cleared but otherwise untouched.
    pub fn encode_stream_slab_into(
        &mut self,
        data: &[u8],
        per_group: &mut Vec<CostBreakdown>,
        mut masks: Option<&mut Vec<InversionMask>>,
        slab: &mut BurstSlab,
    ) -> Result<u64> {
        per_group.clear();
        if let Some(masks) = masks.as_deref_mut() {
            masks.clear();
        }
        self.check_stream(data)?;
        let groups = self.groups.len();
        let burst_len = self.burst_len;
        let accesses = data.len() / self.access_bytes();

        // One chain-major fill — group `g` owns slab rows
        // `g·accesses .. (g+1)·accesses` — and then ONE lanes dispatch
        // encodes every group's chain, letting the SIMD kernels run the
        // groups as parallel lanes of a single recurrence. The fill and
        // the result gather are the same primitives a *packed* caller
        // (the service, packing several sessions into one dispatch) uses;
        // here the session's chains are simply the whole slab.
        slab.reset(burst_len);
        self.append_chains_to_slab(data, slab)?;
        let plan = Arc::clone(&self.plan);
        plan.encode_lanes_into(slab, &mut self.groups);
        self.gather_packed_results(slab, groups, 0, per_group, masks);
        Ok((accesses * groups) as u64)
    }

    /// Appends this session's lane-group **chains** for `data` onto
    /// `slab`, chain-major — group `g`'s bursts in stream order, groups in
    /// ascending order — without resetting the slab, as one transpose
    /// ([`BurstSlab::extend_chains_from_interleaved`]). This is the packing
    /// half of the cross-session dispatch protocol: a caller serving
    /// several sessions appends each session's chains in turn, gathers
    /// every session's carried states with
    /// [`BusSession::export_states_into`], runs **one**
    /// `encode_lanes_into` over the shared slab, then hands results and
    /// states back per session
    /// ([`BusSession::gather_packed_results`] /
    /// [`BusSession::import_states`]). Chains are independent recurrences,
    /// so the packed dispatch is bit-identical to per-session dispatches.
    ///
    /// Returns the number of bursts appended.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadAccessSize`] when `data` is empty or not a
    /// multiple of [`BusSession::access_bytes`]; the slab is untouched.
    ///
    /// # Panics
    ///
    /// Panics when the slab's burst length differs from the session's
    /// (the caller primes the shared slab's geometry once per pass).
    pub fn append_chains_to_slab(&self, data: &[u8], slab: &mut BurstSlab) -> Result<u64> {
        self.check_stream(data)?;
        assert_eq!(
            slab.burst_len(),
            self.burst_len,
            "shared slab primed for a different burst length"
        );
        slab.extend_chains_from_interleaved(data, self.groups.len());
        Ok((data.len() / self.burst_len) as u64)
    }

    /// Carves this session's share of a **packed** dispatch back out of
    /// the shared slab: per-group activity sums and — when requested — the
    /// mask stream in transmission order (group-major within each access),
    /// exactly as [`BusSession::encode_stream_slab_into`] reports them.
    /// `chains_total` is the slab's total chain count across every packed
    /// session and `chain_base` the index of this session's first chain,
    /// as established by the [`BusSession::append_chains_to_slab`] order.
    /// `per_group` and `masks` are cleared and refilled, reusing capacity.
    ///
    /// # Panics
    ///
    /// Panics when the chain range does not lie inside the slab's chain
    /// grid (see [`BurstSlab::chain_view`]).
    pub fn gather_packed_results(
        &self,
        slab: &BurstSlab,
        chains_total: usize,
        chain_base: usize,
        per_group: &mut Vec<CostBreakdown>,
        masks: Option<&mut Vec<InversionMask>>,
    ) {
        let groups = self.groups.len();
        per_group.clear();
        per_group.resize(groups, CostBreakdown::ZERO);
        let mut accesses = 0;
        for (group, activity) in per_group.iter_mut().enumerate() {
            let view = slab.chain_view(chain_base + group, chains_total);
            accesses = view.burst_count();
            *activity = view.total();
        }
        if let Some(masks) = masks {
            masks.clear();
            masks.resize(accesses * groups, InversionMask::NONE);
            // Scatter each group's chain column back into transmission
            // order.
            for group in 0..groups {
                let view = slab.chain_view(chain_base + group, chains_total);
                for (access, &mask) in view.masks().iter().enumerate() {
                    masks[access * groups + group] = mask;
                }
            }
        }
    }

    /// Verifies this session's share of a **packed** dispatch the way a
    /// DBI receiver would see it, in the slab's chain-major layout, from
    /// the session's carried (pre-dispatch) states — call it before
    /// [`BusSession::import_states`]. `payload` is the beat-interleaved
    /// stream the session appended at `chain_base` (see
    /// [`BusSession::gather_packed_results`]); `per_group` and
    /// `post_states` are the transmitter's gathered activity and
    /// post-dispatch states.
    ///
    /// The replay starts from the rows the kernel actually encoded: one
    /// word-wide pass writes the wire image of this session's chain-major
    /// rows of `slab` into `scratch` — the rows' bytes with every flagged
    /// beat complemented — and copies and width-checks their masks
    /// ([`BurstSlab::load_wire_image`]). The slab decode kernel
    /// ([`BurstSlab::decode_in_place_chains`]) decodes that image in
    /// place and re-prices the received lane levels independently of the
    /// encoder, and one transpose scatters the result back to the
    /// interleaved layout. It then checks, in order, that the recovered
    /// bytes equal `payload` (so a slab row that differs from the
    /// client's bytes fails here), that each chain's re-priced activity
    /// equals `per_group`, and that each receiver end state equals
    /// `post_states`. The session is not modified, and a warm `scratch`
    /// makes the call allocation-free.
    ///
    /// # Errors
    ///
    /// [`MemError::BadAccessSize`] for a misaligned payload,
    /// [`MemError::BadMask`] when a mask row references beats beyond the
    /// burst length, or the first failed check:
    /// [`MemError::PayloadMismatch`], [`MemError::ActivityMismatch`] or
    /// [`MemError::EndStateMismatch`].
    ///
    /// # Panics
    ///
    /// Panics when `slab` was primed for a different burst length or its
    /// mask rows do not cover this session's chains.
    pub fn verify_packed_results(
        &self,
        slab: &BurstSlab,
        chain_base: usize,
        payload: &[u8],
        per_group: &[CostBreakdown],
        post_states: &[BusState],
        scratch: &mut ReplayScratch,
    ) -> Result<()> {
        let groups = self.groups.len();
        let corrupt = core::mem::take(&mut scratch.corrupt_next);
        assert_eq!(
            slab.burst_len(),
            self.burst_len,
            "shared slab primed for a different burst length"
        );
        self.check_stream(payload)?;
        let accesses = payload.len() / self.access_bytes();
        let wire = &mut scratch.slab;
        wire.load_wire_image(
            slab,
            chain_base * accesses..(chain_base + groups) * accesses,
        )
        .map_err(|row| MemError::BadMask {
            index: (row % accesses) * groups + row / accesses,
            burst_len: self.burst_len,
        })?;
        scratch.states.clear();
        scratch.states.extend_from_slice(&self.groups);
        wire.decode_in_place_chains(&mut scratch.states)
            .expect("the loaded mask column covers every burst");

        let recovered = &mut scratch.recovered;
        recovered.clear();
        recovered.resize(payload.len(), 0);
        wire.scatter_chains_into(groups, recovered);
        if corrupt {
            recovered[0] ^= 0x01;
        }
        if recovered.as_slice() != payload {
            let byte_offset = recovered
                .iter()
                .zip(payload)
                .position(|(a, b)| a != b)
                .expect("unequal slices of equal length differ somewhere");
            return Err(MemError::PayloadMismatch { byte_offset });
        }
        for group in 0..groups.max(per_group.len()) {
            let rows = group * accesses..(group + 1) * accesses;
            let activity = wire
                .costs()
                .get(rows)
                .map(|rows| rows.iter().copied().sum());
            if per_group.get(group).copied() != activity {
                return Err(MemError::ActivityMismatch { group });
            }
        }
        for group in 0..groups.max(post_states.len()) {
            if post_states.get(group) != scratch.states.get(group) {
                return Err(MemError::EndStateMismatch { group });
            }
        }
        Ok(())
    }

    /// Appends this session's carried per-group [`BusState`]s onto `out`
    /// — the handoff a packed caller uses to assemble the chain-state
    /// array of a multi-session `encode_lanes_into` dispatch (states in
    /// the same order as the chains appended by
    /// [`BusSession::append_chains_to_slab`]).
    pub fn export_states_into(&self, out: &mut Vec<BusState>) {
        out.extend_from_slice(&self.groups);
    }

    /// Installs the post-dispatch carried states handed back by a packed
    /// caller, one per lane group — the inverse of
    /// [`BusSession::export_states_into`].
    ///
    /// # Panics
    ///
    /// Panics when `states` does not hold exactly one state per group.
    pub fn import_states(&mut self, states: &[BusState]) {
        assert_eq!(
            states.len(),
            self.groups.len(),
            "state handoff must cover every lane group"
        );
        self.groups.copy_from_slice(states);
    }

    /// Produces the **wire image** of an encoded stream: the payload bytes
    /// with each burst's inversion decisions applied — exactly the DQ lane
    /// levels a transmitter drives, in the same beat-interleaved layout as
    /// the payload. `masks` is the mask stream in transmission order
    /// (group-major within each access), as produced by
    /// [`BusSession::encode_stream_into`]. Pure: carried state is neither
    /// read nor advanced (the wires' *levels* are fully determined by
    /// payload + masks). Branch-free: every beat XORs with a byte derived
    /// from its mask bit. `wire` is cleared and refilled, reusing capacity.
    ///
    /// Feeding the result to [`BusSession::decode_stream_into`] recovers
    /// `payload` bit-identically — masked complementation is an
    /// involution (see
    /// [`InversionMask::apply_in_place`](dbi_core::InversionMask::apply_in_place)).
    ///
    /// # Errors
    ///
    /// [`MemError::BadAccessSize`] for a misaligned payload,
    /// [`MemError::BadMaskCount`] when `masks` does not hold one mask per
    /// burst, or [`MemError::BadMask`] when a mask references beats beyond
    /// the burst length. `wire` is left cleared on error.
    pub fn transmit_stream_into(
        &self,
        payload: &[u8],
        masks: &[InversionMask],
        wire: &mut Vec<u8>,
    ) -> Result<()> {
        wire.clear();
        self.check_decode_stream(payload, masks)?;
        let groups = self.groups.len();
        let burst_len = self.burst_len;
        wire.extend_from_slice(payload);
        for (access, beats) in wire.chunks_exact_mut(groups * burst_len).enumerate() {
            for (group, mask) in masks[access * groups..(access + 1) * groups]
                .iter()
                .enumerate()
            {
                // Beat `b` XORs with 0xFF exactly when mask bit `b` is
                // set: random masks cost no branch mispredictions.
                let bits = mask.bits();
                for (beat, byte) in beats[group..].iter_mut().step_by(groups).enumerate() {
                    *byte ^= 0u8.wrapping_sub(((bits >> beat) & 1) as u8);
                }
            }
        }
        Ok(())
    }

    /// Decodes a beat-interleaved **wire** stream back into the original
    /// payload — the receiver half of [`BusSession::encode_stream_into`].
    ///
    /// `wire` holds the DQ lane levels in the interleaved layout the
    /// channel drives, and `masks` the DBI-lane decisions in transmission
    /// order. `out` is cleared and refilled with the recovered payload
    /// bytes (same layout as the wire), and `per_group` with one
    /// [`CostBreakdown`] per lane group holding the wire activity **as
    /// observed by the receiver** — re-priced from the received lane
    /// levels, an independent path from the encode-side accounting, so
    /// transmitter and receiver cross-check each other.
    ///
    /// The session's carried [`BusState`]s advance as the *receiver's*
    /// lane states: after decoding the stream a transmitter produced, a
    /// receiver session started from the same states holds bit-identical
    /// ones (tested below; the service's verify mode asserts it per
    /// request). All buffers reuse capacity; a warmed-up caller performs
    /// no heap allocation. Returns the number of bursts decoded.
    ///
    /// # Errors
    ///
    /// [`MemError::BadAccessSize`], [`MemError::BadMaskCount`] or
    /// [`MemError::BadMask`], as for
    /// [`BusSession::transmit_stream_into`]; carried states are untouched
    /// and the output buffers left cleared on error.
    pub fn decode_stream_into(
        &mut self,
        wire: &[u8],
        masks: &[InversionMask],
        per_group: &mut Vec<CostBreakdown>,
        out: &mut Vec<u8>,
    ) -> Result<u64> {
        per_group.clear();
        out.clear();
        self.check_decode_stream(wire, masks)?;
        let groups = self.groups.len();
        let burst_len = self.burst_len;
        let accesses = wire.len() / self.access_bytes();
        per_group.resize(groups, CostBreakdown::ZERO);
        out.resize(wire.len(), 0);

        for (group, activity) in per_group.iter_mut().enumerate() {
            let mut prev = self.groups[group].last();
            let mut zeros = 0u64;
            let mut transitions = 0u64;
            for access in 0..accesses {
                let base = access * groups * burst_len;
                let mask = masks[access * groups + group];
                for beat in 0..burst_len {
                    let index = base + beat * groups + group;
                    let word = LaneWord::from_wire(wire[index], mask.is_inverted(beat));
                    zeros += u64::from(word.zeros());
                    transitions += u64::from(word.transitions_from(prev));
                    prev = word;
                    out[index] = word.decode();
                }
            }
            *activity = CostBreakdown::new(zeros, transitions);
            self.groups[group] = BusState::new(prev);
        }
        Ok((accesses * groups) as u64)
    }

    /// The convenient form of [`BusSession::decode_stream_into`]: returns
    /// the recovered payload and the receiver-side activity.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BusSession::decode_stream_into`].
    pub fn decode_stream(
        &mut self,
        wire: &[u8],
        masks: &[InversionMask],
    ) -> Result<(ChannelActivity, Vec<u8>)> {
        let mut per_group = Vec::new();
        let mut out = Vec::new();
        let bursts = self.decode_stream_into(wire, masks, &mut per_group, &mut out)?;
        Ok((ChannelActivity { bursts, per_group }, out))
    }

    /// The batched (slab) form of [`BusSession::decode_stream_into`]: each
    /// group's whole burst chain is de-interleaved into `slab` and all of
    /// them are decoded in **one**
    /// [`BurstSlab::decode_in_place_chains`] call — one kernel pass per
    /// stream instead of one mask application per burst. Bit-identical
    /// to [`BusSession::decode_stream_into`] (differential-tested below),
    /// including the carried receiver states and the wire-side pricing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BusSession::decode_stream_into`].
    pub fn decode_stream_slab_into(
        &mut self,
        wire: &[u8],
        masks: &[InversionMask],
        per_group: &mut Vec<CostBreakdown>,
        out: &mut Vec<u8>,
        slab: &mut BurstSlab,
    ) -> Result<u64> {
        per_group.clear();
        out.clear();
        self.check_mask_count(wire, masks)?;
        let groups = self.groups.len();
        let accesses = wire.len() / self.access_bytes();

        // Mirror of the encode path: one chain-major fill, one lanes
        // dispatch, so the SWAR decode kernel re-prices every group's
        // whole chain instead of walking beat-by-beat lane words. The
        // strided mask load is the only width check on this path.
        slab.reset(self.burst_len);
        slab.extend_chains_from_interleaved(wire, groups);
        slab.load_masks_interleaved(masks, groups)
            .map_err(|index| MemError::BadMask {
                index,
                burst_len: self.burst_len,
            })?;
        per_group.resize(groups, CostBreakdown::ZERO);
        out.resize(wire.len(), 0);
        slab.decode_in_place_chains(&mut self.groups)
            .expect("the loaded mask column covers every burst");
        for (group, activity) in per_group.iter_mut().enumerate() {
            *activity = slab.costs()[group * accesses..(group + 1) * accesses]
                .iter()
                .copied()
                .sum();
        }
        slab.scatter_chains_into(groups, out);
        Ok((accesses * groups) as u64)
    }

    /// Shared validation of the decode/transmit stream inputs: the wire
    /// (or payload) must be whole accesses and `masks` must hold exactly
    /// one in-range mask per burst.
    fn check_decode_stream(&self, data: &[u8], masks: &[InversionMask]) -> Result<()> {
        self.check_mask_count(data, masks)?;
        for (index, mask) in masks.iter().enumerate() {
            if mask.validate_for_len(self.burst_len).is_err() {
                return Err(MemError::BadMask {
                    index,
                    burst_len: self.burst_len,
                });
            }
        }
        Ok(())
    }

    /// The geometry half of [`BusSession::check_decode_stream`]: whole
    /// accesses and exactly one mask per burst, widths unchecked.
    fn check_mask_count(&self, data: &[u8], masks: &[InversionMask]) -> Result<()> {
        self.check_stream(data)?;
        let bursts = (data.len() / self.access_bytes()) * self.groups.len();
        if masks.len() != bursts {
            return Err(MemError::BadMaskCount {
                got: masks.len(),
                expected: bursts,
            });
        }
        Ok(())
    }

    fn check_stream(&self, data: &[u8]) -> Result<()> {
        let step = self.access_bytes();
        if data.is_empty() || !data.len().is_multiple_of(step) {
            return Err(MemError::BadAccessSize {
                got: data.len(),
                expected: step,
            });
        }
        Ok(())
    }
}

/// Reusable workspace of [`BusSession::verify_packed_results`]: the slab
/// the wire image of the job's encoded rows is written to and decoded in,
/// the receiver's carried states and the recovered payload in interleaved
/// order. Every buffer keeps its capacity, so a verifier that reuses one
/// scratch allocates nothing once warm.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    slab: BurstSlab,
    states: Vec<BusState>,
    recovered: Vec<u8>,
    corrupt_next: bool,
}

impl ReplayScratch {
    /// Fault injection for tests: the next
    /// [`BusSession::verify_packed_results`] through this scratch flips
    /// the first recovered byte before the payload compare, so a caller
    /// can exercise its payload-mismatch path end to end.
    #[doc(hidden)]
    pub fn corrupt_next_for_tests(&mut self) {
        self.corrupt_next = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi_core::CostWeights;

    fn test_stream(len: usize, seed: u64) -> Vec<u8> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn sessions_are_send() {
        // The service layer moves sessions into shard worker threads; keep
        // that property guarded at compile time.
        fn assert_send<T: Send>() {}
        assert_send::<BusSession>();
        assert_send::<ChannelActivity>();
    }

    #[test]
    fn encode_stream_into_matches_encode_stream_and_collects_masks() {
        let config = ChannelConfig::gddr5x();
        let data = test_stream(config.access_bytes() * 32, 0x1234);
        for scheme in Scheme::paper_set().iter().copied() {
            let mut plain = BusSession::new(&config, scheme);
            let expected = plain.encode_stream(&data).unwrap();

            let mut into = BusSession::new(&config, scheme);
            let mut per_group = Vec::new();
            let mut masks = Vec::new();
            let bursts = into
                .encode_stream_into(&data, &mut per_group, Some(&mut masks))
                .unwrap();
            assert_eq!(bursts, expected.bursts, "{scheme}");
            assert_eq!(per_group, expected.per_group, "{scheme}");
            assert_eq!(masks.len(), bursts as usize, "{scheme}");
            for group in 0..plain.group_count() {
                assert_eq!(plain.group_state(group), into.group_state(group));
            }

            // The collected masks are exactly the decisions of a manual
            // per-burst chain through the materialising encoder, in
            // transmission order, and re-pricing them reproduces the
            // reported activity.
            let groups = plain.group_count();
            let burst_len = plain.burst_len();
            let mut states = vec![BusState::idle(); groups];
            let mut repriced = vec![CostBreakdown::ZERO; groups];
            for (index, mask) in masks.iter().enumerate() {
                let (access, group) = (index / groups, index % groups);
                let base = access * groups * burst_len;
                let bytes: Vec<u8> = (0..burst_len)
                    .map(|beat| data[base + beat * groups + group])
                    .collect();
                let burst = Burst::new(bytes).unwrap();
                let encoded = scheme.encode(&burst, &states[group]);
                assert_eq!(encoded.mask(), *mask, "{scheme}: burst {index}");
                repriced[group] += mask.breakdown(&burst, &states[group]);
                states[group] = encoded.final_state(&states[group]);
            }
            assert_eq!(repriced, per_group, "{scheme}: re-priced masks");
            for (group, state) in states.iter().enumerate() {
                assert_eq!(into.group_state(group), Some(*state), "{scheme}");
            }
        }
    }

    #[test]
    fn encode_stream_into_reuses_buffers_and_clears_on_error() {
        let config = ChannelConfig::gddr5x();
        let mut session = BusSession::new(&config, Scheme::Ac);
        let data = test_stream(config.access_bytes() * 2, 9);
        let mut per_group = vec![CostBreakdown::new(9, 9); 7];
        let mut masks = vec![InversionMask::from_bits(1); 3];
        let bursts = session
            .encode_stream_into(&data, &mut per_group, Some(&mut masks))
            .unwrap();
        assert_eq!(per_group.len(), session.group_count());
        assert_eq!(masks.len(), bursts as usize);

        // Errors leave both buffers cleared, never stale.
        assert!(session
            .encode_stream_into(&[0u8; 3], &mut per_group, Some(&mut masks))
            .is_err());
        assert!(per_group.is_empty());
        assert!(masks.is_empty());
    }

    #[test]
    fn slab_stream_is_bit_identical_to_the_per_burst_stream() {
        let config = ChannelConfig::gddr5x();
        let data = test_stream(config.access_bytes() * 48, 0x51AB);
        for scheme in Scheme::paper_set().iter().copied() {
            let mut serial = BusSession::new(&config, scheme);
            let mut serial_groups = Vec::new();
            let mut serial_masks = Vec::new();
            let serial_bursts = serial
                .encode_stream_into(&data, &mut serial_groups, Some(&mut serial_masks))
                .unwrap();

            let mut slabbed = BusSession::new(&config, scheme);
            let mut slab_groups = Vec::new();
            let mut slab_masks = Vec::new();
            let mut slab = dbi_core::BurstSlab::new(1); // wrong length on purpose: reset must fix it
            let slab_bursts = slabbed
                .encode_stream_slab_into(&data, &mut slab_groups, Some(&mut slab_masks), &mut slab)
                .unwrap();

            assert_eq!(slab_bursts, serial_bursts, "{scheme}");
            assert_eq!(slab_groups, serial_groups, "{scheme}");
            assert_eq!(slab_masks, serial_masks, "{scheme}");
            for group in 0..serial.group_count() {
                assert_eq!(
                    serial.group_state(group),
                    slabbed.group_state(group),
                    "{scheme}: carried state of group {group}"
                );
            }

            // Fed in two halves, the state carries across slab calls.
            let mut halved = BusSession::new(&config, scheme);
            let half = data.len() / 2;
            let mut first = Vec::new();
            let mut second = Vec::new();
            let bursts = halved
                .encode_stream_slab_into(&data[..half], &mut first, None, &mut slab)
                .unwrap()
                + halved
                    .encode_stream_slab_into(&data[half..], &mut second, None, &mut slab)
                    .unwrap();
            assert_eq!(bursts, serial_bursts, "{scheme}");
            let recombined: CostBreakdown = first.iter().chain(&second).copied().sum();
            assert_eq!(
                recombined,
                serial_groups.iter().copied().sum(),
                "{scheme}: halves must add up"
            );
        }
    }

    #[test]
    fn packed_cross_session_dispatch_matches_serial_sessions() {
        // Two sessions' chains appended to ONE slab, encoded by a single
        // kernel dispatch over the concatenated state vector, must produce
        // bit-identical masks/costs/carried-states to two serial
        // `encode_stream_slab_into` calls. This is the contract the service
        // engine's cross-session lane packing rests on.
        let config = ChannelConfig::gddr5x();
        let data_a = test_stream(config.access_bytes() * 24, 0xA11);
        let data_b = test_stream(config.access_bytes() * 24, 0xB22);
        for scheme in Scheme::paper_set().iter().copied() {
            let mut serial_a = BusSession::new(&config, scheme);
            let mut serial_b = BusSession::new(&config, scheme);
            let mut ref_groups_a = Vec::new();
            let mut ref_masks_a = Vec::new();
            let mut ref_groups_b = Vec::new();
            let mut ref_masks_b = Vec::new();
            let mut scratch = dbi_core::BurstSlab::new(config.burst_len());
            serial_a
                .encode_stream_slab_into(
                    &data_a,
                    &mut ref_groups_a,
                    Some(&mut ref_masks_a),
                    &mut scratch,
                )
                .unwrap();
            serial_b
                .encode_stream_slab_into(
                    &data_b,
                    &mut ref_groups_b,
                    Some(&mut ref_masks_b),
                    &mut scratch,
                )
                .unwrap();

            // Packed run: both sessions share one slab and one dispatch.
            let mut packed_a = BusSession::new(&config, scheme);
            let mut packed_b = BusSession::new(&config, scheme);
            let groups = packed_a.group_count();
            let mut slab = dbi_core::BurstSlab::new(config.burst_len());
            packed_a.append_chains_to_slab(&data_a, &mut slab).unwrap();
            packed_b.append_chains_to_slab(&data_b, &mut slab).unwrap();
            let mut states = Vec::new();
            packed_a.export_states_into(&mut states);
            packed_b.export_states_into(&mut states);
            assert_eq!(states.len(), groups * 2);
            let plan = Arc::clone(packed_a.plan());
            plan.encode_lanes_into(&mut slab, &mut states);
            packed_a.import_states(&states[..groups]);
            packed_b.import_states(&states[groups..]);
            let chains = groups * 2;
            let mut got_groups_a = Vec::new();
            let mut got_masks_a = Vec::new();
            let mut got_groups_b = Vec::new();
            let mut got_masks_b = Vec::new();
            packed_a.gather_packed_results(
                &slab,
                chains,
                0,
                &mut got_groups_a,
                Some(&mut got_masks_a),
            );
            packed_b.gather_packed_results(
                &slab,
                chains,
                groups,
                &mut got_groups_b,
                Some(&mut got_masks_b),
            );

            assert_eq!(got_groups_a, ref_groups_a, "{scheme}: session A costs");
            assert_eq!(got_masks_a, ref_masks_a, "{scheme}: session A masks");
            assert_eq!(got_groups_b, ref_groups_b, "{scheme}: session B costs");
            assert_eq!(got_masks_b, ref_masks_b, "{scheme}: session B masks");
            for group in 0..groups {
                assert_eq!(
                    packed_a.group_state(group),
                    serial_a.group_state(group),
                    "{scheme}: session A carried state, group {group}"
                );
                assert_eq!(
                    packed_b.group_state(group),
                    serial_b.group_state(group),
                    "{scheme}: session B carried state, group {group}"
                );
            }
        }
    }

    /// One packed dispatch of two sessions (3 and 4 groups, BL12, so the
    /// replay runs a tail word per burst and the second session sits at
    /// `chain_base = 3`): returns the sessions still holding their
    /// pre-dispatch states, the encoded slab, each session's payload and
    /// gathered activity, and the post-dispatch states.
    #[allow(clippy::type_complexity)]
    fn packed_pair(
        scheme: Scheme,
    ) -> (
        [BusSession; 2],
        BurstSlab,
        [Vec<u8>; 2],
        [Vec<CostBreakdown>; 2],
        Vec<BusState>,
    ) {
        let sessions = [3, 4].map(|groups| BusSession::with_geometry(groups, 12, scheme));
        let payloads =
            [(3, 0xA5), (4, 0x5A)].map(|(groups, seed)| test_stream(groups * 12 * 9, seed));
        let mut slab = BurstSlab::new(12);
        let mut states = Vec::new();
        for (session, payload) in sessions.iter().zip(&payloads) {
            session.append_chains_to_slab(payload, &mut slab).unwrap();
            session.export_states_into(&mut states);
        }
        Arc::clone(sessions[0].plan()).encode_lanes_into(&mut slab, &mut states);
        let mut per_group = [Vec::new(), Vec::new()];
        sessions[0].gather_packed_results(&slab, 7, 0, &mut per_group[0], None);
        sessions[1].gather_packed_results(&slab, 7, 3, &mut per_group[1], None);
        (sessions, slab, payloads, per_group, states)
    }

    #[test]
    fn packed_verify_accepts_every_scheme_at_every_chain_base() {
        let mut scratch = ReplayScratch::default();
        let mut schemes = Scheme::paper_set().to_vec();
        schemes.extend_from_slice(Scheme::conventional_set());
        for scheme in schemes {
            let (mut sessions, slab, payloads, per_group, states) = packed_pair(scheme);
            for (index, (base, post)) in [(0, &states[..3]), (3, &states[3..])]
                .into_iter()
                .enumerate()
            {
                let session = &mut sessions[index];
                let before = (0..session.group_count())
                    .map(|group| session.group_state(group))
                    .collect::<Vec<_>>();
                session
                    .verify_packed_results(
                        &slab,
                        base,
                        &payloads[index],
                        &per_group[index],
                        post,
                        &mut scratch,
                    )
                    .unwrap_or_else(|err| panic!("{scheme} session {index}: {err}"));
                // The replay observes; it never advances the session.
                for (group, state) in before.iter().enumerate() {
                    assert_eq!(session.group_state(group), *state, "{scheme}");
                }
                session.import_states(post);
            }
        }
    }

    #[test]
    fn packed_verify_fails_typed_on_every_broken_check() {
        let (sessions, slab, payloads, per_group, states) = packed_pair(Scheme::OptFixed);
        let session = &sessions[1];
        let post = &states[3..];
        let mut scratch = ReplayScratch::default();
        let mut verify =
            |slab: &BurstSlab, payload: &[u8], per_group: &[CostBreakdown], post: &[BusState]| {
                session.verify_packed_results(slab, 3, payload, per_group, post, &mut scratch)
            };

        // Reply activity off by one transition on group 2.
        let mut off_by_one = per_group[1].clone();
        off_by_one[2] = CostBreakdown::new(off_by_one[2].zeros, off_by_one[2].transitions + 1);
        assert_eq!(
            verify(&slab, &payloads[1], &off_by_one, post),
            Err(MemError::ActivityMismatch { group: 2 })
        );
        // A missing group's activity.
        assert_eq!(
            verify(&slab, &payloads[1], &per_group[1][..3], post),
            Err(MemError::ActivityMismatch { group: 3 })
        );

        // A wrong post-dispatch state on group 1.
        let mut wrong_post = post.to_vec();
        let last = wrong_post[1].last();
        wrong_post[1] = BusState::new(LaneWord::from_wire(
            last.dq_levels() ^ 0x10,
            last.dbi().is_inverted(),
        ));
        assert_eq!(
            verify(&slab, &payloads[1], &per_group[1], &wrong_post),
            Err(MemError::EndStateMismatch { group: 1 })
        );

        // A misaligned payload.
        assert!(matches!(
            verify(&slab, &payloads[1][..47], &per_group[1], post),
            Err(MemError::BadAccessSize { .. })
        ));

        // A mask row wider than the burst, reported in transmission order:
        // row 9·1 + 4 of this session is group 1, access 4.
        let mut bad = slab.clone();
        let masks: Vec<InversionMask> = slab.masks().to_vec();
        let costs: Vec<CostBreakdown> = slab.costs().to_vec();
        let (_, bad_masks, bad_costs) = bad.encode_parts_mut();
        bad_masks.copy_from_slice(&masks);
        bad_costs.copy_from_slice(&costs);
        bad_masks[3 * 9 + 9 + 4] = InversionMask::from_bits(1 << 12);
        assert_eq!(
            verify(&bad, &payloads[1], &per_group[1], post),
            Err(MemError::BadMask {
                index: 4 * 4 + 1,
                burst_len: 12
            })
        );

        // A payload of the right length that differs from the bytes the
        // kernel encoded: the replay decodes the slab's rows, so the
        // compare finds the flipped byte.
        let mut flipped = payloads[1].clone();
        flipped[100] ^= 0x40;
        assert_eq!(
            verify(&slab, &flipped, &per_group[1], post),
            Err(MemError::PayloadMismatch { byte_offset: 100 })
        );

        // An encoded row byte altered after dispatch: beat 7 of group 2,
        // access 5 — interleaved byte 5·48 + 7·4 + 2.
        let mut bytes = slab.bytes().to_vec();
        bytes[(3 * 9 + 2 * 9 + 5) * 12 + 7] ^= 0x01;
        let mut altered = BurstSlab::new(12);
        altered.extend_from_bytes(&bytes).unwrap();
        let (_, altered_masks, altered_costs) = altered.encode_parts_mut();
        altered_masks.copy_from_slice(slab.masks());
        altered_costs.copy_from_slice(slab.costs());
        assert_eq!(
            verify(&altered, &payloads[1], &per_group[1], post),
            Err(MemError::PayloadMismatch {
                byte_offset: 5 * 48 + 7 * 4 + 2
            })
        );

        // The payload hook flips recovered byte 0, once.
        scratch.corrupt_next_for_tests();
        assert_eq!(
            session.verify_packed_results(
                &slab,
                3,
                &payloads[1],
                &per_group[1],
                post,
                &mut scratch
            ),
            Err(MemError::PayloadMismatch { byte_offset: 0 })
        );
        assert_eq!(
            session.verify_packed_results(
                &slab,
                3,
                &payloads[1],
                &per_group[1],
                post,
                &mut scratch
            ),
            Ok(())
        );
    }

    #[test]
    fn slab_stream_rejects_bad_sizes_and_clears_buffers() {
        let config = ChannelConfig::gddr5x();
        let mut session = BusSession::new(&config, Scheme::Ac);
        let mut per_group = vec![CostBreakdown::new(1, 1)];
        let mut masks = vec![InversionMask::from_bits(1)];
        let mut slab = dbi_core::BurstSlab::new(8);
        assert!(session
            .encode_stream_slab_into(&[0u8; 3], &mut per_group, Some(&mut masks), &mut slab)
            .is_err());
        assert!(per_group.is_empty());
        assert!(masks.is_empty());
        assert!(session
            .encode_stream_slab_into(&[], &mut per_group, None, &mut slab)
            .is_err());
    }

    #[test]
    fn decode_stream_round_trips_every_scheme_with_carried_state() {
        let config = ChannelConfig::gddr5x();
        let data = test_stream(config.access_bytes() * 24, 0xDEC0DE);
        for scheme in Scheme::paper_set().iter().copied() {
            let mut tx = BusSession::new(&config, scheme);
            let mut tx_groups = Vec::new();
            let mut masks = Vec::new();
            let bursts = tx
                .encode_stream_into(&data, &mut tx_groups, Some(&mut masks))
                .unwrap();

            let mut wire = Vec::new();
            tx.transmit_stream_into(&data, &masks, &mut wire).unwrap();
            if scheme != Scheme::Raw {
                assert_ne!(wire, data, "{scheme}: some byte must have been inverted");
            }

            // Per-burst receiver.
            let mut rx = BusSession::new(&config, scheme);
            let (activity, decoded) = rx.decode_stream(&wire, &masks).unwrap();
            assert_eq!(decoded, data, "{scheme}: payload recovery");
            assert_eq!(activity.bursts, bursts, "{scheme}");
            assert_eq!(activity.per_group, tx_groups, "{scheme}: wire pricing");
            for group in 0..tx.group_count() {
                assert_eq!(
                    rx.group_state(group),
                    tx.group_state(group),
                    "{scheme}: receiver state of group {group}"
                );
            }

            // Slab receiver, bit-identical to the per-burst one — fed in
            // two halves to prove the receiver state carries across calls.
            let mut rx_slab = BusSession::new(&config, scheme);
            let mut slab_groups = Vec::new();
            let mut slab_out = Vec::new();
            let mut slab = BurstSlab::new(1); // wrong length on purpose
            let half = wire.len() / 2;
            let half_masks = masks.len() / 2;
            let first = rx_slab
                .decode_stream_slab_into(
                    &wire[..half],
                    &masks[..half_masks],
                    &mut slab_groups,
                    &mut slab_out,
                    &mut slab,
                )
                .unwrap();
            let mut combined = slab_out.clone();
            let mut first_groups = slab_groups.clone();
            let second = rx_slab
                .decode_stream_slab_into(
                    &wire[half..],
                    &masks[half_masks..],
                    &mut slab_groups,
                    &mut slab_out,
                    &mut slab,
                )
                .unwrap();
            combined.extend_from_slice(&slab_out);
            assert_eq!(first + second, bursts, "{scheme}");
            assert_eq!(combined, data, "{scheme}: slab payload recovery");
            for (a, b) in first_groups.iter_mut().zip(&slab_groups) {
                *a += *b;
            }
            assert_eq!(first_groups, tx_groups, "{scheme}: slab wire pricing");
            for group in 0..tx.group_count() {
                assert_eq!(
                    rx_slab.group_state(group),
                    tx.group_state(group),
                    "{scheme}: slab receiver state of group {group}"
                );
            }
        }
    }

    #[test]
    fn set_group_state_resynchronises_a_receiver_mid_stream() {
        // Decode only the second half of a stream by syncing the receiver
        // to the transmitter's mid-stream states first.
        let config = ChannelConfig::gddr5x();
        let data = test_stream(config.access_bytes() * 8, 0x517E);
        let half = data.len() / 2;
        let scheme = Scheme::OptFixed;

        let mut tx = BusSession::new(&config, scheme);
        let mut tx_groups = Vec::new();
        let mut masks = Vec::new();
        tx.encode_stream_into(&data[..half], &mut tx_groups, Some(&mut masks))
            .unwrap();
        let mut mid_states = Vec::new();
        tx.export_states_into(&mut mid_states);
        let mut tail_masks = Vec::new();
        tx.encode_stream_into(&data[half..], &mut tx_groups, Some(&mut tail_masks))
            .unwrap();
        let mut wire = Vec::new();
        tx.transmit_stream_into(&data[half..], &tail_masks, &mut wire)
            .unwrap();

        let mut rx = BusSession::new(&config, scheme);
        rx.import_states(&mid_states);
        let (activity, decoded) = rx.decode_stream(&wire, &tail_masks).unwrap();
        assert_eq!(decoded, &data[half..]);
        assert_eq!(activity.per_group, tx_groups);
        for group in 0..tx.group_count() {
            assert_eq!(rx.group_state(group), tx.group_state(group));
        }
    }

    #[test]
    fn decode_stream_rejects_malformed_inputs_typed() {
        let config = ChannelConfig::gddr5x();
        let mut session = BusSession::new(&config, Scheme::Ac);
        let wire = test_stream(config.access_bytes() * 2, 1);
        let masks = vec![InversionMask::NONE; 8];
        let mut per_group = vec![CostBreakdown::new(1, 1)];
        let mut out = vec![7u8];

        // Misaligned wire.
        assert!(matches!(
            session.decode_stream_into(&wire[..31], &masks, &mut per_group, &mut out),
            Err(MemError::BadAccessSize { .. })
        ));
        assert!(per_group.is_empty() && out.is_empty());

        // Wrong mask count.
        assert_eq!(
            session.decode_stream(&wire, &masks[..7]).unwrap_err(),
            MemError::BadMaskCount {
                got: 7,
                expected: 8
            }
        );

        // A mask wider than the burst, reported in transmission order by
        // both receivers: index 3 is access 0 of group 3, index 6 access 1
        // of group 2 (the slab receiver loads it into chain-major row 9).
        let mut slab = BurstSlab::new(8);
        for index in [3, 6] {
            let mut bad = masks.clone();
            bad[index] = InversionMask::from_bits(1 << 8);
            let expected = MemError::BadMask {
                index,
                burst_len: 8,
            };
            assert_eq!(session.decode_stream(&wire, &bad).unwrap_err(), expected);
            per_group.push(CostBreakdown::new(1, 1));
            out.push(7);
            assert_eq!(
                session
                    .decode_stream_slab_into(&wire, &bad, &mut per_group, &mut out, &mut slab)
                    .unwrap_err(),
                expected
            );
            assert!(per_group.is_empty() && out.is_empty());
        }
        // Carried state untouched by any of the failures.
        assert_eq!(session.group_state(0), Some(BusState::idle()));

        // Transmit shares the same validation.
        let mut wire_out = vec![1u8];
        assert!(matches!(
            session.transmit_stream_into(&wire, &masks[..7], &mut wire_out),
            Err(MemError::BadMaskCount { .. })
        ));
        assert!(wire_out.is_empty());
    }

    #[test]
    fn swap_plan_mid_stream_is_bit_identical_under_the_slab_path() {
        // PR 3 proved the per-burst path across a mid-session plan swap;
        // the slab kernels must carry the exact same states through the
        // boundary, encode *and* decode.
        let config = ChannelConfig::gddr5x();
        let data = test_stream(config.access_bytes() * 16, 0x5B5B);
        let half = data.len() / 2;
        let first_scheme = Scheme::Dc;
        let second_scheme = Scheme::Opt(CostWeights::new(4, 1).unwrap());

        // Reference: the per-burst path with the same swap.
        let mut reference = BusSession::new(&config, first_scheme);
        let mut ref_groups = Vec::new();
        let mut ref_masks_a = Vec::new();
        reference
            .encode_stream_into(&data[..half], &mut ref_groups, Some(&mut ref_masks_a))
            .unwrap();
        let ref_first = ref_groups.clone();
        reference.swap_plan(second_scheme.plan());
        let mut ref_masks_b = Vec::new();
        reference
            .encode_stream_into(&data[half..], &mut ref_groups, Some(&mut ref_masks_b))
            .unwrap();

        // Slab path with the same swap.
        let mut slabbed = BusSession::new(&config, first_scheme);
        let mut slab_groups = Vec::new();
        let mut slab_masks_a = Vec::new();
        let mut slab = BurstSlab::new(8);
        slabbed
            .encode_stream_slab_into(
                &data[..half],
                &mut slab_groups,
                Some(&mut slab_masks_a),
                &mut slab,
            )
            .unwrap();
        assert_eq!(slab_groups, ref_first, "first half activity");
        assert_eq!(slab_masks_a, ref_masks_a, "first half masks");
        slabbed.swap_plan(second_scheme.plan());
        let mut slab_masks_b = Vec::new();
        slabbed
            .encode_stream_slab_into(
                &data[half..],
                &mut slab_groups,
                Some(&mut slab_masks_b),
                &mut slab,
            )
            .unwrap();
        assert_eq!(slab_groups, ref_groups, "second half activity");
        assert_eq!(slab_masks_b, ref_masks_b, "second half masks");
        for group in 0..reference.group_count() {
            assert_eq!(
                slabbed.group_state(group),
                reference.group_state(group),
                "carried state of group {group} across the swap"
            );
        }

        // And the receiver round-trips the swapped stream through the
        // slab decode path with the same carried states.
        let mut wire_a = Vec::new();
        let mut wire_b = Vec::new();
        slabbed
            .transmit_stream_into(&data[..half], &slab_masks_a, &mut wire_a)
            .unwrap();
        slabbed
            .transmit_stream_into(&data[half..], &slab_masks_b, &mut wire_b)
            .unwrap();
        let mut rx = BusSession::new(&config, first_scheme);
        let mut rx_groups = Vec::new();
        let mut decoded = Vec::new();
        rx.decode_stream_slab_into(
            &wire_a,
            &slab_masks_a,
            &mut rx_groups,
            &mut decoded,
            &mut slab,
        )
        .unwrap();
        assert_eq!(decoded, &data[..half]);
        rx.decode_stream_slab_into(
            &wire_b,
            &slab_masks_b,
            &mut rx_groups,
            &mut decoded,
            &mut slab,
        )
        .unwrap();
        assert_eq!(decoded, &data[half..]);
        for group in 0..reference.group_count() {
            assert_eq!(rx.group_state(group), reference.group_state(group));
        }
    }

    #[test]
    fn session_activity_matches_the_memory_controller() {
        // The session is the controller's encode path without the storage:
        // same interleaving, same carried state, same activity.
        use crate::controller::MemoryController;
        let config = ChannelConfig::ddr4_3200();
        let data = test_stream(config.access_bytes() * 16, 0xCAFE);
        let mut session = BusSession::new(&config, Scheme::OptFixed);
        let activity = session.encode_stream(&data).unwrap();

        let mut controller = MemoryController::new(config, Scheme::OptFixed);
        controller.write_buffer(0, &data).unwrap();
        assert_eq!(activity.total(), controller.totals().activity);
        assert_eq!(activity.bursts, controller.totals().bursts);
    }

    #[test]
    fn state_carries_across_stream_slices() {
        let config = ChannelConfig::gddr5x();
        let data = test_stream(config.access_bytes() * 8, 7);
        let mut whole = BusSession::new(&config, Scheme::Ac);
        let all = whole.encode_stream(&data).unwrap();

        let mut sliced = BusSession::new(&config, Scheme::Ac);
        let half = data.len() / 2;
        let first = sliced.encode_stream(&data[..half]).unwrap();
        let second = sliced.encode_stream(&data[half..]).unwrap();
        let mut recombined = first.total();
        recombined += second.total();
        assert_eq!(all.total(), recombined);
        assert_eq!(all.bursts, first.bursts + second.bursts);
    }

    #[test]
    fn reset_and_accessors() {
        let config = ChannelConfig::gddr5x();
        let mut session = BusSession::new(&config, Scheme::Dc);
        assert_eq!(session.group_count(), 4);
        assert_eq!(session.burst_len(), 8);
        assert_eq!(session.access_bytes(), 32);
        assert_eq!(session.scheme(), Scheme::Dc);
        assert_eq!(session.group_state(4), None);

        let data = test_stream(session.access_bytes(), 3);
        session.encode_stream(&data).unwrap();
        assert_ne!(session.group_state(0), Some(BusState::idle()));
        session.reset();
        assert_eq!(session.group_state(0), Some(BusState::idle()));
        assert!(format!("{session:?}").contains("BusSession"));
    }

    #[test]
    fn with_plan_encodes_like_the_scheme_it_wraps() {
        let config = ChannelConfig::gddr5x();
        let data = test_stream(config.access_bytes() * 8, 0x71A2);
        let scheme = Scheme::Opt(CostWeights::new(2, 5).unwrap());
        let mut by_scheme = BusSession::new(&config, scheme);
        let mut by_plan = BusSession::with_plan_geometry(4, 8, scheme.plan());
        assert_eq!(by_plan.scheme(), scheme);
        assert_eq!(by_plan.plan().scheme(), scheme);
        assert_eq!(
            by_scheme.encode_stream(&data).unwrap(),
            by_plan.encode_stream(&data).unwrap()
        );
        for group in 0..by_scheme.group_count() {
            assert_eq!(by_scheme.group_state(group), by_plan.group_state(group));
        }
    }

    #[test]
    fn swap_plan_preserves_carried_state_at_the_boundary() {
        let config = ChannelConfig::gddr5x();
        let data = test_stream(config.access_bytes() * 16, 0x5A5A);
        let half = data.len() / 2;
        let first_scheme = Scheme::Dc;
        let second_scheme = Scheme::Opt(CostWeights::new(4, 1).unwrap());

        // Swapped session: DC for the first half, OPT for the second.
        let mut swapped = BusSession::new(&config, first_scheme);
        let first_half = swapped.encode_stream(&data[..half]).unwrap();
        let old = swapped.swap_plan(second_scheme.plan());
        assert_eq!(old.scheme(), first_scheme);
        assert_eq!(swapped.scheme(), second_scheme);
        let second_half = swapped.encode_stream(&data[half..]).unwrap();

        // Reference: encode the first half with DC, then hand the *lane
        // states* to a fresh OPT session for the second half.
        let mut reference = BusSession::new(&config, first_scheme);
        let expected_first = reference.encode_stream(&data[..half]).unwrap();
        let mut continued = BusSession::with_plan_geometry(4, 8, second_scheme.plan());
        for group in 0..reference.group_count() {
            continued.groups[group] = reference.group_state(group).unwrap();
        }
        let expected_second = continued.encode_stream(&data[half..]).unwrap();

        assert_eq!(first_half, expected_first);
        assert_eq!(second_half, expected_second);
        for group in 0..swapped.group_count() {
            assert_eq!(swapped.group_state(group), continued.group_state(group));
        }

        // And the swap really changed behaviour: an unswapped DC session
        // makes different decisions on the second half.
        let mut unswapped = BusSession::new(&config, first_scheme);
        let _ = unswapped.encode_stream(&data[..half]).unwrap();
        let dc_second = unswapped.encode_stream(&data[half..]).unwrap();
        assert_ne!(second_half, dc_second, "swap must change the decisions");
    }

    #[test]
    fn bad_stream_sizes_are_rejected() {
        let config = ChannelConfig::gddr5x();
        let mut session = BusSession::new(&config, Scheme::Raw);
        assert!(matches!(
            session.encode_stream(&[0u8; 31]),
            Err(MemError::BadAccessSize {
                got: 31,
                expected: 32
            })
        ));
        assert!(session.encode_stream(&[]).is_err());
    }

    #[test]
    fn drive_burst_reports_weighted_activity() {
        // One access drives the paper's example burst on group 0 and
        // all-ones on group 1, which OPT leaves on the idle levels.
        let mut session = BusSession::with_geometry(2, 8, Scheme::OptFixed);
        let mut access = [0xFF; 16];
        for (beat, byte) in Burst::paper_example().bytes().iter().enumerate() {
            access[beat * 2] = *byte;
        }
        let activity = session.encode_stream(&access).unwrap();
        assert_eq!(activity.per_group[0].weighted(&CostWeights::FIXED), 52);
        assert_eq!(activity.per_group[1], CostBreakdown::ZERO);
        // Group 1 untouched.
        assert_eq!(session.group_state(1), Some(BusState::idle()));
    }

    #[test]
    #[should_panic(expected = "at least one lane group")]
    fn zero_groups_panics() {
        let _ = BusSession::with_geometry(0, 8, Scheme::Raw);
    }

    #[test]
    #[should_panic(expected = "at least one lane group")]
    fn zero_groups_panics_through_plan_geometry() {
        let _ = BusSession::with_plan_geometry(0, 8, Scheme::Dc.plan());
    }

    #[test]
    fn groups_start_idle_and_track_state_independently() {
        let mut session = BusSession::with_geometry(4, 8, Scheme::Dc);
        assert_eq!(session.group_count(), 4);
        for g in 0..4 {
            assert_eq!(session.group_state(g), Some(BusState::idle()));
        }
        assert_eq!(session.group_state(4), None);

        // Zeros on group 1, all-ones (which DBI DC sends on the idle
        // levels) on every other group.
        let mut access = [0xFF; 32];
        for beat in 0..8 {
            access[beat * 4 + 1] = 0x00;
        }
        session.encode_stream(&access).unwrap();
        assert_eq!(
            session.group_state(0),
            Some(BusState::idle()),
            "group 0 untouched"
        );
        assert_ne!(
            session.group_state(1),
            Some(BusState::idle()),
            "group 1 advanced"
        );
    }

    #[test]
    fn lane_state_persists_across_bursts() {
        // Driving the same all-zero burst twice with DBI AC: the second
        // burst causes no transitions at all because the lanes already hold
        // the right levels.
        let mut session = BusSession::with_geometry(1, 8, Scheme::Ac);
        let burst = [0x00; 8];
        let first = session.encode_stream(&burst).unwrap().total();
        let second = session.encode_stream(&burst).unwrap().total();
        assert!(first.transitions > 0);
        assert_eq!(second.transitions, 0);
    }

    #[test]
    fn idle_all_restores_the_boundary_condition() {
        let mut session = BusSession::with_geometry(2, 8, Scheme::Raw);
        session.encode_stream(&[0x12; 16]).unwrap();
        assert_ne!(session.group_state(0), Some(BusState::idle()));
        session.reset();
        for g in 0..2 {
            assert_eq!(session.group_state(g), Some(BusState::idle()));
        }
        assert!(format!("{session:?}").contains("groups"));
    }

    #[test]
    #[should_panic(expected = "inversion-mask limit")]
    fn oversized_burst_len_panics() {
        let _ = BusSession::with_geometry(4, 33, Scheme::Raw);
    }

    #[test]
    fn channel_activity_display_and_cost() {
        let activity = ChannelActivity {
            bursts: 4,
            per_group: vec![CostBreakdown::new(3, 1), CostBreakdown::new(2, 2)],
        };
        assert_eq!(activity.total(), CostBreakdown::new(5, 3));
        assert_eq!(activity.cost(&CostWeights::FIXED), 8);
        assert!(activity.to_string().contains("2 groups"));
    }
}
