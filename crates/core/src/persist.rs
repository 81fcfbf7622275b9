//! Versioned, CRC-guarded binary serialization of carried session state.
//!
//! Every DBI scheme in this crate is a *memory-based* code: decodability
//! depends on the receiver holding exactly the transmitter's carried
//! [`BusState`]. A service that loses that state on restart silently
//! resets every bus, so durable storage needs a format that can say, byte
//! for byte, "this is the state the transmitter carried" — and detect
//! when a file cannot be trusted to say it.
//!
//! This module provides the **session-state record**: one self-delimiting,
//! CRC-guarded unit describing one session's full carried state. Records
//! are designed for append-only journals and snapshot files:
//!
//! ```text
//!  0      2      3      4          8        12
//! +------+------+------+----------+--------+------------------ - - -
//! | "DR" | ver  | rsvd | body_len | crc32  | body (body_len bytes)
//! | u16  | u8   | u8   | u32 LE   | u32 LE |
//! +------+------+------+----------+--------+------------------ - - -
//!
//! body: session_id u64 | scheme u8 | weights 8 | groups u16 |
//!       burst_len u8 | groups x BusState (u16 LE each)
//! ```
//!
//! The CRC (IEEE CRC-32, the Ethernet/zlib polynomial) covers the body
//! only; the fixed header fields are validated structurally. All
//! multi-byte integers are little-endian, matching the
//! `to_le_bytes`/`from_le_bytes` convention of the wire types
//! ([`crate::cost::CostWeights`], [`BusState::to_le_bytes`]).
//!
//! Parsing is zero-copy and total: every malformation — truncation at any
//! byte, a corrupt magic, an unknown version, an oversized or lying
//! length field, a CRC mismatch, an invalid lane word — yields a typed
//! [`RecordError`], never a panic. A parsed [`SessionRecordView`] borrows
//! the input and iterates its states infallibly (they were validated
//! eagerly, like the wire decoder's trace records).

use crate::burst::BusState;
use crate::cost::CostWeights;
use crate::schemes::Scheme;
use crate::word::LaneWord;
use core::fmt;

/// The record format version this build writes. Readers accept exactly
/// the versions they know; today that is version 1.
pub const RECORD_VERSION: u8 = 1;

/// Record magic, ASCII `"DR"` (DBI record).
pub const RECORD_MAGIC: [u8; 2] = *b"DR";

/// Fixed record header length: magic, version, reserved byte, body
/// length, body CRC.
pub const RECORD_HEAD_LEN: usize = 12;

/// Fixed-width prefix of a record body, before the per-group states:
/// session id, scheme tag, weights, group count, burst length.
pub const RECORD_BODY_HEAD_LEN: usize = 8 + 1 + CostWeights::WIRE_BYTES + 2 + 1;

/// Upper bound on an accepted record body. The largest legitimate body is
/// tiny (a few hundred bytes at 64 groups); the bound exists so a corrupt
/// or hostile length field is rejected as [`RecordError::Oversized`]
/// before anything trusts it.
pub const MAX_RECORD_BODY: usize = 1 << 16;

/// A failure to parse a session-state record. Every variant is a typed
/// refusal — parsing never panics, whatever the input bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecordError {
    /// The input ends before the record does. `needed` is the total
    /// length the record requires; resuming with more bytes may succeed.
    Truncated {
        /// Bytes the complete record needs.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The first two bytes are not [`RECORD_MAGIC`].
    BadMagic([u8; 2]),
    /// The version byte names a format this build does not read.
    UnsupportedVersion(u8),
    /// The length field exceeds [`MAX_RECORD_BODY`].
    Oversized {
        /// The announced body length.
        got: usize,
        /// The accepted maximum.
        max: usize,
    },
    /// The body checksum disagrees with the stored CRC — the record was
    /// torn mid-write or corrupted at rest.
    BadCrc {
        /// CRC stored in the record header.
        stored: u32,
        /// CRC computed over the body bytes.
        computed: u32,
    },
    /// The body length disagrees with the geometry the body declares
    /// (`RECORD_BODY_HEAD_LEN + groups x 2`), or declares zero groups or
    /// a zero burst length.
    BadGeometry,
    /// The scheme tag byte names no known scheme.
    UnknownSchemeTag(u8),
    /// The weights field fails [`CostWeights::from_le_bytes`].
    BadWeights,
    /// A per-group state has bits set above the nine lane bits.
    InvalidLaneWord(u16),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { needed, got } => {
                write!(f, "record truncated: needs {needed} bytes, got {got}")
            }
            RecordError::BadMagic(bytes) => {
                write!(f, "bad record magic {:02x}{:02x}", bytes[0], bytes[1])
            }
            RecordError::UnsupportedVersion(version) => write!(
                f,
                "record format version {version} is not supported (this build reads \
                 version {RECORD_VERSION})"
            ),
            RecordError::Oversized { got, max } => {
                write!(f, "record body of {got} bytes exceeds the {max}-byte limit")
            }
            RecordError::BadCrc { stored, computed } => write!(
                f,
                "record CRC mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
            RecordError::BadGeometry => {
                write!(f, "record geometry disagrees with its body length")
            }
            RecordError::UnknownSchemeTag(tag) => write!(f, "unknown scheme tag {tag}"),
            RecordError::BadWeights => write!(f, "record carries invalid cost weights"),
            RecordError::InvalidLaneWord(raw) => {
                write!(f, "record carries invalid lane word {raw:#x}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// The slicing-by-8 tables of the reflected IEEE polynomial: `[0]` is the
/// classic bytewise table, and `[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight table loads fold eight input bytes at once.
/// Computed at compile time.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][index] = crc;
        index += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut index = 0;
        while index < 256 {
            let prev = tables[k - 1][index];
            tables[k][index] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            index += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (the Ethernet/zlib polynomial, reflected), slicing-by-8:
/// eight bytes per step through eight compile-time tables, the tail
/// bytewise. No external dependency.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from((crc as u8) ^ byte)];
    }
    !crc
}

/// Maps a [`Scheme`] to its persisted tag and the weights field it
/// travels with (the parametric schemes carry their coefficients; the
/// fixed schemes carry [`CostWeights::FIXED`] as padding). The tag
/// assignment is shared with the service wire protocol, so a state record
/// and a wire frame can never disagree about which scheme a byte means.
#[must_use]
pub fn scheme_to_tag(scheme: Scheme) -> (u8, CostWeights) {
    match scheme {
        Scheme::Raw => (0, CostWeights::FIXED),
        Scheme::Dc => (1, CostWeights::FIXED),
        Scheme::Ac => (2, CostWeights::FIXED),
        Scheme::AcDc => (3, CostWeights::FIXED),
        Scheme::Greedy(weights) => (4, weights),
        Scheme::Opt(weights) => (5, weights),
        Scheme::OptFixed => (6, CostWeights::FIXED),
    }
}

/// Inverse of [`scheme_to_tag`]: the weights are only interpreted for the
/// parametric schemes. `None` for an unassigned tag.
#[must_use]
pub fn scheme_from_tag(tag: u8, weights: CostWeights) -> Option<Scheme> {
    match tag {
        0 => Some(Scheme::Raw),
        1 => Some(Scheme::Dc),
        2 => Some(Scheme::Ac),
        3 => Some(Scheme::AcDc),
        4 => Some(Scheme::Greedy(weights)),
        5 => Some(Scheme::Opt(weights)),
        6 => Some(Scheme::OptFixed),
        _ => None,
    }
}

/// Total encoded length of a session-state record covering `groups` lane
/// groups (header + body).
#[must_use]
pub const fn session_record_len(groups: usize) -> usize {
    RECORD_HEAD_LEN + RECORD_BODY_HEAD_LEN + groups * BusState::WIRE_BYTES
}

/// Appends one complete session-state record (header + CRC-guarded body)
/// to `out`. Appends only — a pre-sized buffer is never reallocated, so
/// journal writers on the engine's hot path stay allocation-free.
///
/// # Panics
///
/// Debug-asserts that `states` is non-empty, fits `u16` groups and that
/// `burst_len` is nonzero — the writer-side mirrors of the geometry the
/// parser refuses.
pub fn push_session_record(
    out: &mut Vec<u8>,
    session_id: u64,
    scheme: Scheme,
    burst_len: u8,
    states: &[BusState],
) {
    debug_assert!(!states.is_empty(), "a session has at least one group");
    debug_assert!(states.len() <= usize::from(u16::MAX));
    debug_assert!(burst_len > 0, "a session has a nonzero burst length");
    let body_len = RECORD_BODY_HEAD_LEN + states.len() * BusState::WIRE_BYTES;
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(RECORD_VERSION);
    out.push(0); // reserved
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let crc_at = out.len();
    out.extend_from_slice(&[0u8; 4]); // CRC backfilled below
    let body_at = out.len();
    out.extend_from_slice(&session_id.to_le_bytes());
    let (tag, weights) = scheme_to_tag(scheme);
    out.push(tag);
    out.extend_from_slice(&weights.to_le_bytes());
    out.extend_from_slice(&(states.len() as u16).to_le_bytes());
    out.push(burst_len);
    for state in states {
        out.extend_from_slice(&state.to_le_bytes());
    }
    let crc = crc32(&out[body_at..]);
    out[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// A parsed session-state record, borrowing the buffer it was parsed
/// from. The states were validated eagerly by [`parse_session_record`],
/// so [`SessionRecordView::states`] decodes infallibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecordView<'a> {
    /// The client-chosen session id.
    pub session_id: u64,
    /// The scheme the session encodes with (weights already applied).
    pub scheme: Scheme,
    /// Burst length in beats.
    pub burst_len: u8,
    state_bytes: &'a [u8],
}

impl<'a> SessionRecordView<'a> {
    /// Lane groups the record covers (one carried state per group).
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.state_bytes.len() / BusState::WIRE_BYTES
    }

    /// The carried per-group states, in group order.
    pub fn states(&self) -> impl Iterator<Item = BusState> + 'a {
        self.state_bytes
            .chunks_exact(BusState::WIRE_BYTES)
            .map(|chunk| {
                BusState::from_le_bytes(chunk.try_into().expect("exact chunks"))
                    .expect("states validated by the parser")
            })
    }
}

/// Parses the session-state record starting at `bytes[0]`, returning the
/// view and the total encoded length consumed — so a buffer holding many
/// back-to-back records (a journal, a snapshot) can be walked.
///
/// # Errors
///
/// Any [`RecordError`]; in particular [`RecordError::Truncated`] when the
/// input ends mid-record (the `needed` field says how many bytes the
/// whole record requires — a journal replayer uses it to tell a torn tail
/// from corruption it must refuse).
pub fn parse_session_record(bytes: &[u8]) -> Result<(SessionRecordView<'_>, usize), RecordError> {
    if bytes.len() < RECORD_HEAD_LEN {
        return Err(RecordError::Truncated {
            needed: RECORD_HEAD_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..2] != RECORD_MAGIC {
        return Err(RecordError::BadMagic([bytes[0], bytes[1]]));
    }
    if bytes[2] != RECORD_VERSION {
        return Err(RecordError::UnsupportedVersion(bytes[2]));
    }
    let body_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if body_len > MAX_RECORD_BODY {
        return Err(RecordError::Oversized {
            got: body_len,
            max: MAX_RECORD_BODY,
        });
    }
    let total = RECORD_HEAD_LEN + body_len;
    if bytes.len() < total {
        return Err(RecordError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    let stored = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let body = &bytes[RECORD_HEAD_LEN..total];
    let computed = crc32(body);
    if stored != computed {
        return Err(RecordError::BadCrc { stored, computed });
    }
    if body.len() < RECORD_BODY_HEAD_LEN {
        return Err(RecordError::BadGeometry);
    }
    let session_id = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
    let tag = body[8];
    let mut weight_bytes = [0u8; CostWeights::WIRE_BYTES];
    weight_bytes.copy_from_slice(&body[9..9 + CostWeights::WIRE_BYTES]);
    let weights = CostWeights::from_le_bytes(weight_bytes).map_err(|_| RecordError::BadWeights)?;
    let scheme = scheme_from_tag(tag, weights).ok_or(RecordError::UnknownSchemeTag(tag))?;
    let groups = u16::from_le_bytes([body[17], body[18]]);
    let burst_len = body[19];
    let state_bytes = &body[RECORD_BODY_HEAD_LEN..];
    if groups == 0
        || burst_len == 0
        || state_bytes.len() != usize::from(groups) * BusState::WIRE_BYTES
    {
        return Err(RecordError::BadGeometry);
    }
    for chunk in state_bytes.chunks_exact(BusState::WIRE_BYTES) {
        let raw = u16::from_le_bytes([chunk[0], chunk[1]]);
        LaneWord::new(raw).map_err(|_| RecordError::InvalidLaneWord(raw))?;
    }
    Ok((
        SessionRecordView {
            session_id,
            scheme,
            burst_len,
            state_bytes,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_states() -> Vec<BusState> {
        vec![
            BusState::idle(),
            BusState::new(LaneWord::new(0x0A5).unwrap()),
            BusState::new(LaneWord::new(0x1FF).unwrap()),
            BusState::new(LaneWord::new(0x000).unwrap()),
        ]
    }

    /// The bytewise table-driven CRC-32, one table load per byte: the
    /// oracle the slicing-by-8 [`crc32`] is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][usize::from((crc as u8) ^ byte)];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        // Every length 0..=64 at every offset 0..8 of one buffer: the
        // eight-byte steps, the bytewise tail and unaligned starts all
        // agree with the bytewise loop.
        let buffer: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn bus_state_round_trips_through_le_bytes() {
        for raw in 0..=LaneWord::ALL_ONES.bits() {
            let state = BusState::new(LaneWord::new(raw).unwrap());
            assert_eq!(BusState::from_le_bytes(state.to_le_bytes()), Ok(state));
        }
        // Anything above the nine lane bits is a typed refusal.
        assert!(BusState::from_le_bytes(0x0200u16.to_le_bytes()).is_err());
        assert!(BusState::from_le_bytes(0xFFFFu16.to_le_bytes()).is_err());
    }

    #[test]
    fn session_record_round_trips() {
        let states = sample_states();
        let mut buf = Vec::new();
        push_session_record(
            &mut buf,
            0xDEAD_BEEF,
            Scheme::Opt(CostWeights::new(3, 2).unwrap()),
            8,
            &states,
        );
        assert_eq!(buf.len(), session_record_len(states.len()));
        let (view, consumed) = parse_session_record(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(view.session_id, 0xDEAD_BEEF);
        assert_eq!(view.scheme, Scheme::Opt(CostWeights::new(3, 2).unwrap()));
        assert_eq!(view.burst_len, 8);
        assert_eq!(view.group_count(), states.len());
        assert_eq!(view.states().collect::<Vec<_>>(), states);
    }

    #[test]
    fn every_scheme_tag_round_trips() {
        let weights = CostWeights::new(7, 5).unwrap();
        for scheme in [
            Scheme::Raw,
            Scheme::Dc,
            Scheme::Ac,
            Scheme::AcDc,
            Scheme::Greedy(weights),
            Scheme::Opt(weights),
            Scheme::OptFixed,
        ] {
            let (tag, carried) = scheme_to_tag(scheme);
            assert_eq!(scheme_from_tag(tag, carried), Some(scheme));
        }
        assert_eq!(scheme_from_tag(99, weights), None);
    }

    #[test]
    fn truncation_at_every_point_is_typed() {
        let mut buf = Vec::new();
        push_session_record(&mut buf, 7, Scheme::OptFixed, 8, &sample_states());
        for len in 0..buf.len() {
            match parse_session_record(&buf[..len]) {
                Err(RecordError::Truncated { needed, got }) => {
                    assert_eq!(got, len);
                    assert!(needed > len);
                }
                other => panic!("truncation at {len} produced {other:?}"),
            }
        }
        // Back-to-back records walk by consumed length.
        let single = buf.len();
        push_session_record(&mut buf, 8, Scheme::Dc, 4, &sample_states()[..2]);
        let (first, consumed) = parse_session_record(&buf).unwrap();
        assert_eq!(first.session_id, 7);
        assert_eq!(consumed, single);
        let (second, _) = parse_session_record(&buf[consumed..]).unwrap();
        assert_eq!(second.session_id, 8);
    }

    #[test]
    fn corruption_is_refused_not_panicked() {
        let mut pristine = Vec::new();
        push_session_record(&mut pristine, 42, Scheme::Ac, 8, &sample_states());

        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            parse_session_record(&bad_magic),
            Err(RecordError::BadMagic(_))
        ));

        let mut bad_version = pristine.clone();
        bad_version[2] = 9;
        assert_eq!(
            parse_session_record(&bad_version),
            Err(RecordError::UnsupportedVersion(9))
        );

        let mut oversized = pristine.clone();
        oversized[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            parse_session_record(&oversized),
            Err(RecordError::Oversized { .. })
        ));

        // Flipping any body byte trips the CRC.
        for at in RECORD_HEAD_LEN..pristine.len() {
            let mut torn = pristine.clone();
            torn[at] ^= 0xFF;
            assert!(
                matches!(parse_session_record(&torn), Err(RecordError::BadCrc { .. })),
                "body flip at {at} was not caught"
            );
        }

        // A lying length field (consistent CRC, wrong geometry) is refused.
        let mut state = sample_states();
        state.truncate(1);
        let mut short = Vec::new();
        push_session_record(&mut short, 1, Scheme::Dc, 8, &state);
        // Rewrite the group count to 2 without adding state bytes, then
        // re-seal the CRC: the geometry check must still refuse it.
        let body_at = RECORD_HEAD_LEN;
        short[body_at + 17..body_at + 19].copy_from_slice(&2u16.to_le_bytes());
        let crc = crc32(&short[body_at..]);
        short[8..12].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(parse_session_record(&short), Err(RecordError::BadGeometry));

        // An invalid lane word survives the CRC but not the state check.
        let mut bad_word = Vec::new();
        push_session_record(&mut bad_word, 1, Scheme::Dc, 8, &state);
        let word_at = bad_word.len() - 1;
        bad_word[word_at] = 0xFF; // high byte of the only state: bits above bit 8
        let crc = crc32(&bad_word[body_at..]);
        bad_word[8..12].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            parse_session_record(&bad_word),
            Err(RecordError::InvalidLaneWord(_))
        ));
    }
}
