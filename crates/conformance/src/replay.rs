//! Replays the golden corpus through every level of the production
//! stack.
//!
//! Four levels, lowest to highest:
//!
//! 1. **mask** — the per-burst [`DbiEncoder::encode_mask`] fast path plus
//!    the decode plane's [`decode_mask`];
//! 2. **slab** — the batched [`DbiEncoder::encode_lanes_into`] kernels
//!    (one chain per vector) and [`BurstSlab::decode_in_place`];
//! 3. **session** — multi-group [`dbi_mem::BusSession`] streams, encode
//!    and decode, with chains interleaved across lane groups;
//! 4. **tcp** — the full service: a [`dbi_service::TcpServer`] round trip
//!    with masks and **verify mode** on, so the engine's own receiver
//!    replay runs on golden traffic as well.
//!
//! Every check compares against the reference implementation's recorded
//! expectations — masks bit for bit, per-burst zeros/transitions, carried
//! lane words — and every level also proves decode recovers the payload.
//! Failures return an `Err` describing the first divergence; the golden
//! tests and the `conformance` binary fail on any.

use crate::corpus::{Corpus, GoldenVector};
use dbi_core::decode::decode_mask;
use dbi_core::{
    Burst, BurstSlab, BusState, CostBreakdown, DbiEncoder, InversionMask, LaneWord, Scheme,
};
use dbi_mem::BusSession;
use dbi_service::{
    CostModel, EncodeReply, EncodeRequest, Engine, ServiceConfig, TcpClient, TcpServer, VerifyMode,
};
use std::collections::BTreeMap;

/// Outcome of one replay level: how many individual checks ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Golden vectors (or vector groups) exercised.
    pub vectors: usize,
    /// Individual bursts whose expectations were checked.
    pub bursts: usize,
}

/// Level 1: the per-burst mask path, encode and decode.
///
/// # Errors
///
/// Describes the first burst whose mask, activity, carried state or
/// decode round trip diverges from the golden expectation.
pub fn check_mask_level(corpus: &Corpus) -> Result<ReplayStats, String> {
    let mut stats = ReplayStats::default();
    let mut decoded = Vec::new();
    for (index, vector) in corpus.vectors.iter().enumerate() {
        let scheme = vector.parsed_scheme();
        let mut state = BusState::idle();
        for (burst_at, bytes) in vector.bursts.iter().enumerate() {
            let context = || format!("vector {index} ({}), burst {burst_at}", vector.scheme);
            let burst = Burst::from_slice(bytes).expect("golden bursts are non-empty");
            let mask = scheme.encode_mask(&burst, &state);
            if mask.bits() != vector.masks[burst_at] {
                return Err(format!(
                    "{}: mask {:#034b} != golden {:#034b}",
                    context(),
                    mask.bits(),
                    vector.masks[burst_at]
                ));
            }
            let breakdown = mask.breakdown(&burst, &state);
            let golden = CostBreakdown::new(vector.zeros[burst_at], vector.transitions[burst_at]);
            if breakdown != golden {
                return Err(format!("{}: {breakdown} != golden {golden}", context()));
            }
            let next = mask.final_state(&burst, &state);
            if next.last().bits() != vector.final_words[burst_at] {
                return Err(format!(
                    "{}: final word {:#011b} != golden {:#011b}",
                    context(),
                    next.last().bits(),
                    vector.final_words[burst_at]
                ));
            }
            // The decode plane inverts the wire image exactly.
            let mut wire = bytes.clone();
            mask.apply_in_place(&mut wire);
            decode_mask(&wire, mask, &mut decoded)
                .map_err(|err| format!("{}: decode failed: {err}", context()))?;
            if &decoded != bytes {
                return Err(format!("{}: decode did not recover the payload", context()));
            }
            state = next;
            stats.bursts += 1;
        }
        stats.vectors += 1;
    }
    Ok(stats)
}

/// Level 2: the batched slab kernels, encode and decode.
///
/// # Errors
///
/// Describes the first vector whose slab results diverge.
pub fn check_slab_level(corpus: &Corpus) -> Result<ReplayStats, String> {
    let mut stats = ReplayStats::default();
    let mut slab = BurstSlab::new(8);
    for (index, vector) in corpus.vectors.iter().enumerate() {
        let context = |what: &str| format!("vector {index} ({}): {what}", vector.scheme);
        let scheme = vector.parsed_scheme();
        slab.reset(vector.burst_len);
        for bytes in &vector.bursts {
            slab.push_bytes(bytes).expect("golden bursts fit the slab");
        }
        let mut state = BusState::idle();
        scheme.encode_lanes_into(&mut slab, core::slice::from_mut(&mut state));

        let masks: Vec<u32> = slab.masks().iter().map(|m| m.bits()).collect();
        if masks != vector.masks {
            return Err(context("slab masks diverge from golden"));
        }
        let golden_costs: Vec<CostBreakdown> = vector
            .zeros
            .iter()
            .zip(&vector.transitions)
            .map(|(&z, &t)| CostBreakdown::new(z, t))
            .collect();
        if slab.costs() != golden_costs {
            return Err(context("slab cost rows diverge from golden"));
        }
        if state.last().bits() != *vector.final_words.last().expect("non-empty chain") {
            return Err(context("slab carried state diverges from golden"));
        }

        // Decode the wire image of the whole chain in one slab call.
        let mut rx_slab = BurstSlab::new(vector.burst_len);
        for (bytes, mask) in vector.bursts.iter().zip(slab.masks()) {
            let mut wire = bytes.clone();
            mask.apply_in_place(&mut wire);
            rx_slab.push_bytes(&wire).expect("wire bursts fit");
        }
        rx_slab
            .load_masks(slab.masks())
            .map_err(|err| context(&format!("load_masks: {err}")))?;
        let mut rx_state = BusState::idle();
        rx_slab
            .decode_in_place(&mut rx_state)
            .map_err(|err| context(&format!("slab decode: {err}")))?;
        let payload: Vec<u8> = vector.bursts.concat();
        if rx_slab.bytes() != payload {
            return Err(context("slab decode did not recover the payload"));
        }
        if rx_state != state {
            return Err(context("receiver slab state diverges from the transmitter"));
        }
        if rx_slab.costs() != golden_costs {
            return Err(context("receiver wire pricing diverges from golden"));
        }
        stats.vectors += 1;
        stats.bursts += vector.bursts.len();
    }
    Ok(stats)
}

/// Groups vectors by (scheme, burst length, chain length) so chains can
/// ride the lane groups of one multi-group session.
fn session_groups(corpus: &Corpus) -> BTreeMap<(String, usize, usize), Vec<&GoldenVector>> {
    let mut groups: BTreeMap<(String, usize, usize), Vec<&GoldenVector>> = BTreeMap::new();
    for vector in &corpus.vectors {
        groups
            .entry((vector.scheme.clone(), vector.burst_len, vector.bursts.len()))
            .or_default()
            .push(vector);
    }
    groups
}

/// Beat-interleaves a group of chains into one stream: access `a`, group
/// `g`, beat `b` carries byte `b` of chain `g`'s burst `a`.
fn interleave(chains: &[&GoldenVector]) -> Vec<u8> {
    let groups = chains.len();
    let burst_len = chains[0].burst_len;
    let accesses = chains[0].bursts.len();
    let mut data = vec![0u8; accesses * groups * burst_len];
    for (group, chain) in chains.iter().enumerate() {
        for (access, bytes) in chain.bursts.iter().enumerate() {
            let base = access * groups * burst_len;
            for (beat, &byte) in bytes.iter().enumerate() {
                data[base + beat * groups + group] = byte;
            }
        }
    }
    data
}

/// The expected mask stream (transmission order) and per-group activity
/// of an interleaved group of golden chains.
fn golden_expectations(chains: &[&GoldenVector]) -> (Vec<InversionMask>, Vec<CostBreakdown>) {
    let groups = chains.len();
    let accesses = chains[0].bursts.len();
    let mut masks = Vec::with_capacity(accesses * groups);
    for access in 0..accesses {
        for chain in chains {
            masks.push(InversionMask::from_bits(chain.masks[access]));
        }
    }
    let per_group = chains
        .iter()
        .map(|chain| CostBreakdown::new(chain.zeros.iter().sum(), chain.transitions.iter().sum()))
        .collect();
    (masks, per_group)
}

/// Level 3: multi-group [`BusSession`] streams, encode and decode, each
/// golden chain riding its own lane group.
///
/// # Errors
///
/// Describes the first session group that diverges.
pub fn check_session_level(corpus: &Corpus) -> Result<ReplayStats, String> {
    let mut stats = ReplayStats::default();
    for ((scheme_name, burst_len, _), chains) in session_groups(corpus) {
        let context = |what: &str| format!("session {scheme_name} len {burst_len}: {what}");
        let scheme: Scheme = scheme_name.parse().expect("golden spellings parse");
        let groups = chains.len();
        let data = interleave(&chains);
        let (golden_masks, golden_groups) = golden_expectations(&chains);

        let mut session = BusSession::with_geometry(groups, burst_len, scheme);
        let mut per_group = Vec::new();
        let mut masks = Vec::new();
        let bursts = session
            .encode_stream_into(&data, &mut per_group, Some(&mut masks))
            .map_err(|err| context(&format!("encode: {err}")))?;
        if masks != golden_masks {
            return Err(context("mask stream diverges from golden"));
        }
        if per_group != golden_groups {
            return Err(context("per-group activity diverges from golden"));
        }
        for (group, chain) in chains.iter().enumerate() {
            let expected = LaneWord::new(*chain.final_words.last().expect("non-empty"))
                .expect("golden words are 9-bit");
            if session.group_state(group) != Some(BusState::new(expected)) {
                return Err(context(&format!("carried state of group {group} diverges")));
            }
        }

        // Receiver: transmit the wire image and decode it back.
        let mut wire = Vec::new();
        session
            .transmit_stream_into(&data, &masks, &mut wire)
            .map_err(|err| context(&format!("transmit: {err}")))?;
        let mut receiver = BusSession::with_geometry(groups, burst_len, scheme);
        let (activity, decoded) = receiver
            .decode_stream(&wire, &masks)
            .map_err(|err| context(&format!("decode: {err}")))?;
        if decoded != data {
            return Err(context("decode did not recover the stream"));
        }
        if activity.per_group != golden_groups || activity.bursts != bursts {
            return Err(context("receiver activity diverges from golden"));
        }
        for group in 0..groups {
            if receiver.group_state(group) != session.group_state(group) {
                return Err(context(&format!(
                    "receiver state of group {group} diverges"
                )));
            }
        }
        stats.vectors += 1;
        stats.bursts += bursts as usize;
    }
    Ok(stats)
}

/// Level 4: the TCP service with masks **and verify mode** on — the
/// engine decodes its own output on every golden request, and the reply's
/// masks and activity must still match the reference expectations.
///
/// # Errors
///
/// Describes the first golden request whose reply diverges.
pub fn check_tcp_level(corpus: &Corpus) -> Result<ReplayStats, String> {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(&engine, "127.0.0.1:0").map_err(|err| format!("bind: {err}"))?;
    let mut client = TcpClient::connect(server.addr()).map_err(|err| format!("connect: {err}"))?;
    let mut reply = EncodeReply::new();
    let mut stats = ReplayStats::default();

    let result = (|| {
        for (session_id, ((scheme_name, burst_len, _), chains)) in
            session_groups(corpus).into_iter().enumerate()
        {
            let context = |what: &str| format!("tcp {scheme_name} len {burst_len}: {what}");
            let scheme: Scheme = scheme_name.parse().expect("golden spellings parse");
            let data = interleave(&chains);
            let (golden_masks, golden_groups) = golden_expectations(&chains);
            client
                .encode(
                    &EncodeRequest {
                        session_id: session_id as u64,
                        scheme,
                        cost_model: CostModel::Inline,
                        groups: chains.len() as u16,
                        burst_len: burst_len as u8,
                        want_masks: true,
                        verify: VerifyMode::RoundTrip,
                        payload: &data,
                    },
                    &mut reply,
                )
                .map_err(|err| context(&format!("request: {err}")))?;
            if reply.masks != golden_masks {
                return Err(context("reply masks diverge from golden"));
            }
            if reply.per_group != golden_groups {
                return Err(context("reply activity diverges from golden"));
            }
            stats.vectors += 1;
            stats.bursts += reply.bursts as usize;
        }
        Ok(stats)
    })();

    drop(client);
    server.shutdown();
    // Every golden request ran with verify on and none may have failed.
    let totals = engine.metrics().totals();
    engine.shutdown();
    let stats = result?;
    if totals.verified != stats.vectors as u64 || totals.verify_failures != 0 {
        return Err(format!(
            "verify counters diverge: {} verified, {} failures over {} requests",
            totals.verified, totals.verify_failures, stats.vectors
        ));
    }
    Ok(stats)
}

/// Runs all four levels, in order.
///
/// # Errors
///
/// The first failing level's description, prefixed with its name.
pub fn check_all(corpus: &Corpus) -> Result<[ReplayStats; 4], String> {
    Ok([
        check_mask_level(corpus).map_err(|err| format!("mask level: {err}"))?,
        check_slab_level(corpus).map_err(|err| format!("slab level: {err}"))?,
        check_session_level(corpus).map_err(|err| format!("session level: {err}"))?,
        check_tcp_level(corpus).map_err(|err| format!("tcp level: {err}"))?,
    ])
}
