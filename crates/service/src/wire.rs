//! The binary wire protocol of the encode service.
//!
//! Every message is one length-prefixed **frame**:
//!
//! ```text
//!  0      2      3      4            8
//! +------+------+------+------------+----------------- - - -
//! | "DB" | ver  | type | body_len   | body (body_len bytes)
//! | u16  | u8   | u8   | u32 LE     |
//! +------+------+------+------------+----------------- - - -
//! ```
//!
//! The 8-byte header carries a magic (`0x4244`, ASCII `"DB"` little-endian),
//! the protocol version, the frame type tag and the body length. The
//! version byte must be [`VERSION`] (anything else is
//! [`WireError::UnsupportedVersion`]), and frames whose body would exceed
//! [`MAX_BODY_LEN`] are rejected before any body byte is read. All
//! multi-byte integers are little-endian.
//!
//! | tag | frame | direction | body |
//! |-----|-------|-----------|------|
//! | 3 | [`ErrorFrame`] → [`ErrorView`] | service → client | `code u8 \| message` |
//! | 4 | metrics request | client → service | empty |
//! | 5 | metrics response | service → client | UTF-8 JSON |
//! | 8 | trace-dump request | client → service | `max_events u32` |
//! | 9 | [`TraceDumpResponseView`] | service → client | `count u32 \| records` |
//! | 10 | slowlog query | client → service | `max_entries u32` |
//! | 11 | [`SlowlogResponseView`] | service → client | `threshold_ns u64 \| count u32 \| records` |
//! | 12 | [`PipelinedRequestFrame`] | client → service | `request_id u64 \|` encode request |
//! | 13 | [`PipelinedResponseFrame`] | service → client | `request_id u64 \|` encode response |
//! | 14 | [`PipelinedBatchRequestFrame`] | client → service | `request_id u64 \|` batch request |
//! | 15 | [`PipelinedBatchResponseFrame`] | service → client | `request_id u64 \|` batch response |
//! | 16 | [`PipelinedErrorFrame`] | service → client | `request_id u64 \| code u8 \| message` |
//! | 17 | snapshot request | client → service | empty |
//! | 18 | snapshot-status request | client → service | empty |
//! | 19 | restore request | client → service | empty |
//! | 20 | [`SnapshotStatus`] response | service → client | status block |
//!
//! Tags 1, 2, 6 and 7 are retired: they decode to
//! [`WireError::UnknownFrameType`] and their numbers are never reused.
//!
//! ## Body layouts
//!
//! ```text
//! encode request:  session_id u64 | scheme u8 | weights 8 | cost_model 13 |
//!                  groups u16 | burst_len u8 | flags u8 | payload_len u32 | payload
//! batch request:   session_id u64 | scheme u8 | weights 8 | cost_model 13 |
//!                  groups u16 | burst_len u8 | flags u8 | count u16 |
//!                  payload_len u32 | payload
//! encode response: session_id u64 | bursts u64 | group_count u16 |
//!                  mask_count u32 | group_count × 16-byte records | mask_count × 4-byte masks
//! batch response:  session_id u64 | bursts u64 | count u16 | group_count u16 |
//!                  mask_count u32 | group_count × 16-byte records | mask_count × 4-byte masks
//! trace records:   count × 48-byte TraceEvent records
//! status block:    configured u8 | compactions u64 | snapshots_taken u64 |
//!                  last_sessions u64 | last_bytes u64 | restored_sessions u64
//! ```
//!
//! Field rules, all checked by the decoder:
//!
//! * `cost_model` is a tag byte plus a 12-byte payload ([`CostModel`]):
//!   the weights embedded in the scheme, raw runtime coefficients, or a
//!   named phy operating point such as `sstl15@6.4`;
//! * `flags` bit 0 asks for the per-burst masks and bit 1 is the
//!   [`VerifyMode`] verify bit; any other bit is
//!   [`WireError::UnknownFlags`];
//! * `payload_len` and the record counts must agree with the body length
//!   ([`WireError::BodyMismatch`]);
//! * a batch's `count` is the number of per-group bursts in the payload:
//!   `count > 0` and `count · burst_len == payload_len`
//!   ([`WireError::BadBatchCount`]);
//! * every trace record's outcome byte must be a defined
//!   [`TraceOutcome`] ([`WireError::UnknownTraceOutcome`]), so the views'
//!   record iterators cannot fail;
//! * the status block's `configured` byte is 0 or 1
//!   ([`WireError::UnknownFlags`]).
//!
//! ## Request ids
//!
//! Every encode request and response carries a client-chosen `u64`
//! **request id**, echoed verbatim in the matching response or
//! [`PipelinedErrorFrame`], so many requests can be in flight on one
//! connection and responses are matched **by id rather than by arrival
//! order**. Responses may complete out of order *across* sessions, but
//! requests of one session complete FIFO: sticky shard routing
//! serialises each session's carried bus state, so results stay
//! bit-identical to a serial run. The plain [`ErrorFrame`] carries the
//! failures that belong to no single request: framing violations,
//! slow-consumer drops and admin-request errors.
//!
//! Encoding appends to a caller-owned `Vec<u8>` (reused buffers never
//! reallocate in steady state); decoding is **zero-copy and `unsafe`-free**:
//! [`decode_frame`] hands back views that borrow the receive buffer —
//! payload bytes, per-group cost records and mask streams are exposed as
//! slices/iterators over the original bytes, never copied into new
//! allocations. Malformed input of any shape yields a typed [`WireError`],
//! never a panic.

use crate::telemetry::{TraceEvent, TraceOutcome};
use core::fmt;
use dbi_core::persist::{scheme_from_tag, scheme_to_tag};
use dbi_core::{CostBreakdown, CostWeights, InversionMask, Scheme};
use dbi_phy::{NamedInterface, OperatingPoint};

/// The two magic bytes opening every frame: ASCII `"DB"`.
pub const MAGIC: [u8; 2] = *b"DB";

/// The protocol version: the only one written and the only one accepted.
/// Any other version byte is [`WireError::UnsupportedVersion`].
pub const VERSION: u8 = 7;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame body. Larger frames are rejected at the header,
/// so a malicious or corrupt length field can never trigger a huge read.
pub const MAX_BODY_LEN: usize = 8 << 20;

/// Size of the fixed-width wire encoding of a [`CostModel`]: a tag byte
/// plus a 12-byte payload (padded so every variant is the same width).
pub const COST_MODEL_WIRE_BYTES: usize = 13;

/// Size of the request-id prefix every encode request and response body
/// starts with.
pub const REQUEST_ID_WIRE_BYTES: usize = 8;

/// Fixed-size prefix of an encode-request body, after the request id and
/// before the payload bytes. Public so the engine can verify an admitted
/// request also fits a frame.
pub const REQUEST_HEAD_LEN: usize =
    8 + 1 + CostWeights::WIRE_BYTES + COST_MODEL_WIRE_BYTES + 2 + 1 + 1 + 4;

/// Fixed-size prefix of an encode-response body, after the request id
/// and before the records. Public so the engine can verify an admitted
/// request's response fits a frame.
pub const RESPONSE_HEAD_LEN: usize = 8 + 8 + 2 + 4;

/// Fixed-size prefix of a batch encode-request body, after the request id
/// and before the payload: the request head plus the `u16` burst-count
/// field.
pub const BATCH_REQUEST_HEAD_LEN: usize = REQUEST_HEAD_LEN + 2;

/// Fixed-size prefix of a batch encode-response body, after the request
/// id and before the records: the response head plus the echoed `u16`
/// burst count.
pub const BATCH_RESPONSE_HEAD_LEN: usize = 8 + 8 + 2 + 2 + 4;

/// Frame type tags. Tags 1, 2, 6 and 7 are retired and never reused.
mod tag {
    pub const ERROR: u8 = 3;
    pub const METRICS_REQUEST: u8 = 4;
    pub const METRICS_RESPONSE: u8 = 5;
    pub const TRACE_DUMP_REQUEST: u8 = 8;
    pub const TRACE_DUMP_RESPONSE: u8 = 9;
    pub const SLOWLOG_REQUEST: u8 = 10;
    pub const SLOWLOG_RESPONSE: u8 = 11;
    pub const PIPELINED_REQUEST: u8 = 12;
    pub const PIPELINED_RESPONSE: u8 = 13;
    pub const PIPELINED_BATCH_REQUEST: u8 = 14;
    pub const PIPELINED_BATCH_RESPONSE: u8 = 15;
    pub const PIPELINED_ERROR: u8 = 16;
    pub const SNAPSHOT_REQUEST: u8 = 17;
    pub const SNAPSHOT_STATUS_REQUEST: u8 = 18;
    pub const RESTORE_REQUEST: u8 = 19;
    pub const SNAPSHOT_STATUS_RESPONSE: u8 = 20;
}

/// A malformed or unsupported frame. Decoding never panics; every failure
/// mode is one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// The peer speaks a different protocol version.
    UnsupportedVersion(u8),
    /// The frame type tag is not one this version defines.
    UnknownFrameType(u8),
    /// The header announces a body larger than [`MAX_BODY_LEN`].
    Oversized {
        /// Announced body length.
        got: usize,
        /// The enforced limit.
        max: usize,
    },
    /// The body's internal length fields disagree with the body length.
    BodyMismatch,
    /// The scheme tag is not one this version defines.
    UnknownSchemeTag(u8),
    /// A parametric scheme carried invalid cost coefficients.
    BadWeights,
    /// The error code byte is not one this version defines.
    UnknownErrorCode(u8),
    /// A text field is not valid UTF-8.
    BadUtf8,
    /// The cost-model tag is not one this version defines.
    UnknownCostModelTag(u8),
    /// A named cost model carried an interface tag this version does not
    /// define.
    UnknownInterfaceTag(u8),
    /// A named cost model carried a zero data rate.
    BadDataRate,
    /// A batch frame's burst-count field is zero or disagrees with the
    /// payload length.
    BadBatchCount {
        /// The count field carried by the frame.
        count: u16,
        /// Bursts the payload actually holds at the announced burst
        /// length.
        got: usize,
    },
    /// A flags byte carries bits this version does not define (beyond
    /// `want_masks` and verify in a request, beyond 0/1 in a status
    /// block's `configured` byte).
    UnknownFlags(u8),
    /// A trace record's outcome byte is not one this version defines.
    UnknownTraceOutcome(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            WireError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:02X?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks only {VERSION})"
                )
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized { got, max } => {
                write!(f, "frame body of {got} bytes exceeds the {max}-byte limit")
            }
            WireError::BodyMismatch => {
                write!(
                    f,
                    "frame body length disagrees with its internal length fields"
                )
            }
            WireError::UnknownSchemeTag(t) => write!(f, "unknown scheme tag {t}"),
            WireError::BadWeights => write!(f, "parametric scheme carries invalid cost weights"),
            WireError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
            WireError::UnknownCostModelTag(t) => write!(f, "unknown cost-model tag {t}"),
            WireError::UnknownInterfaceTag(t) => {
                write!(f, "unknown operating-point interface tag {t}")
            }
            WireError::BadDataRate => {
                write!(f, "named cost model carries a zero data rate")
            }
            WireError::BadBatchCount { count, got } => {
                write!(
                    f,
                    "batch count field of {count} disagrees with the {got} bursts in the payload"
                )
            }
            WireError::UnknownFlags(flags) => {
                write!(f, "request flags {flags:#04x} carry undefined bits")
            }
            WireError::UnknownTraceOutcome(byte) => {
                write!(f, "unknown trace outcome byte {byte}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Typed error codes carried by [`ErrorFrame`]s — the wire image of
/// [`ServiceError`](crate::ServiceError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The target shard's queue was full; retry later.
    Overloaded = 1,
    /// The service is shutting down.
    ShuttingDown = 2,
    /// The requested channel geometry is unsupported.
    BadGeometry = 3,
    /// The payload is empty, misaligned or too large.
    BadPayload = 4,
    /// A session id was reused with a different configuration.
    SessionMismatch = 5,
    /// The request frame itself was malformed.
    BadRequest = 6,
    /// The service hit an internal invariant violation.
    Internal = 7,
    /// The request's cost model does not apply to its scheme.
    BadCostModel = 8,
    /// A verify-mode request's output failed to decode back to its input
    /// — the engine detected an encode/decode asymmetry.
    VerifyMismatch = 9,
    /// The connection's write buffer overran its high-watermark: the
    /// peer stopped draining responses faster than it submitted
    /// requests, and the service dropped the connection rather than
    /// block an I/O thread on it.
    SlowConsumer = 10,
    /// The target shard holds its maximum number of sessions, all of
    /// them busy in the pass in flight, so the new session could neither
    /// be created nor make room by evicting an idle one.
    SessionLimit = 11,
}

impl ErrorCode {
    fn from_u8(byte: u8) -> Result<Self, WireError> {
        match byte {
            1 => Ok(ErrorCode::Overloaded),
            2 => Ok(ErrorCode::ShuttingDown),
            3 => Ok(ErrorCode::BadGeometry),
            4 => Ok(ErrorCode::BadPayload),
            5 => Ok(ErrorCode::SessionMismatch),
            6 => Ok(ErrorCode::BadRequest),
            7 => Ok(ErrorCode::Internal),
            8 => Ok(ErrorCode::BadCostModel),
            9 => Ok(ErrorCode::VerifyMismatch),
            10 => Ok(ErrorCode::SlowConsumer),
            11 => Ok(ErrorCode::SessionLimit),
            other => Err(WireError::UnknownErrorCode(other)),
        }
    }
}

/// Whether the engine must **decode its own output** and prove it equal to
/// the request's payload before replying — the verify bit of the request
/// flags byte.
///
/// Verification replays the full receiver path in the slab's chain-major
/// layout ([`dbi_mem::BusSession::verify_packed_results`]): the worker
/// forms the wire image of the request's encoded slab rows under their
/// masks, decodes it from the session's pre-request lane states through
/// the slab decode kernel, and compares payload bytes, per-group
/// wire activity (re-priced by the decoder) and end lane states. Any
/// asymmetry fails the request with [`ErrorCode::VerifyMismatch`] instead
/// of returning silently wrong results. Costs one extra decode pass over
/// the payload; off by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyMode {
    /// Encode only; no receiver replay.
    #[default]
    Off,
    /// Decode the encoded output back through the receiver path and
    /// fail the request on any mismatch.
    RoundTrip,
}

impl VerifyMode {
    /// `true` when verification is requested.
    #[must_use]
    pub const fn is_on(self) -> bool {
        matches!(self, VerifyMode::RoundTrip)
    }
}

impl fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyMode::Off => f.write_str("off"),
            VerifyMode::RoundTrip => f.write_str("round-trip"),
        }
    }
}

/// Bits of the encode-request flags byte.
mod request_flags {
    pub const WANT_MASKS: u8 = 1 << 0;
    pub const VERIFY: u8 = 1 << 1;
    pub const KNOWN: u8 = WANT_MASKS | VERIFY;
}

/// Encodes the flags byte of an encode/batch request.
fn encode_request_flags(want_masks: bool, verify: VerifyMode) -> u8 {
    let mut flags = 0;
    if want_masks {
        flags |= request_flags::WANT_MASKS;
    }
    if verify.is_on() {
        flags |= request_flags::VERIFY;
    }
    flags
}

/// Decodes and validates the flags byte of an encode/batch request:
/// undefined bits are [`WireError::UnknownFlags`].
fn decode_request_flags(byte: u8) -> Result<(bool, VerifyMode), WireError> {
    if byte & !request_flags::KNOWN != 0 {
        return Err(WireError::UnknownFlags(byte));
    }
    let verify = if byte & request_flags::VERIFY != 0 {
        VerifyMode::RoundTrip
    } else {
        VerifyMode::Off
    };
    Ok((byte & request_flags::WANT_MASKS != 0, verify))
}

/// Where a session's cost coefficients come from — the **cost-model
/// field** of an encode request.
///
/// The model composes with the request's [`Scheme`]: for the parametric
/// schemes (`Opt`, `OptFixed`, `Greedy`) a non-inline model *replaces*
/// the embedded weights; the engine rejects non-inline models on schemes
/// that take no coefficients (with [`ErrorCode::BadCostModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum CostModel {
    /// Use the weights embedded in the scheme field.
    #[default]
    Inline,
    /// Explicit runtime coefficients (raw `alpha,beta`).
    Weights(CostWeights),
    /// A named phy operating point (e.g. `sstl15@6.4`, `pod12@3.2`); the
    /// engine quantises the point's energy ratio into coefficients.
    Named(OperatingPoint),
}

/// Cost-model wire tags.
mod cost_model_tag {
    pub const INLINE: u8 = 0;
    pub const WEIGHTS: u8 = 1;
    pub const NAMED: u8 = 2;
}

impl CostModel {
    /// Appends the fixed-width ([`COST_MODEL_WIRE_BYTES`]) wire form:
    /// a tag byte, then a 12-byte payload (zero-padded).
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut payload = [0u8; COST_MODEL_WIRE_BYTES - 1];
        let tag = match *self {
            CostModel::Inline => cost_model_tag::INLINE,
            CostModel::Weights(weights) => {
                payload[..CostWeights::WIRE_BYTES].copy_from_slice(&weights.to_le_bytes());
                cost_model_tag::WEIGHTS
            }
            CostModel::Named(point) => {
                payload[0] = point.interface().wire_tag();
                payload[4..8].copy_from_slice(&point.rate_mbps().to_le_bytes());
                cost_model_tag::NAMED
            }
        };
        out.push(tag);
        out.extend_from_slice(&payload);
    }

    /// Inverse of [`CostModel::encode_into`]. Padding bytes are ignored.
    fn decode(bytes: &[u8; COST_MODEL_WIRE_BYTES]) -> Result<CostModel, WireError> {
        let payload = &bytes[1..];
        match bytes[0] {
            cost_model_tag::INLINE => Ok(CostModel::Inline),
            cost_model_tag::WEIGHTS => {
                let mut weights = [0u8; CostWeights::WIRE_BYTES];
                weights.copy_from_slice(&payload[..CostWeights::WIRE_BYTES]);
                Ok(CostModel::Weights(
                    CostWeights::from_le_bytes(weights).map_err(|_| WireError::BadWeights)?,
                ))
            }
            cost_model_tag::NAMED => {
                let interface = NamedInterface::from_wire_tag(payload[0])
                    .ok_or(WireError::UnknownInterfaceTag(payload[0]))?;
                let rate_mbps =
                    u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]);
                let point = OperatingPoint::new(interface, rate_mbps)
                    .map_err(|_| WireError::BadDataRate)?;
                Ok(CostModel::Named(point))
            }
            other => Err(WireError::UnknownCostModelTag(other)),
        }
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModel::Inline => f.write_str("inline"),
            CostModel::Weights(weights) => write!(f, "{},{}", weights.alpha(), weights.beta()),
            CostModel::Named(point) => write!(f, "{point}"),
        }
    }
}

/// Failure to parse a [`CostModel`] from its string form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCostModelError(String);

impl fmt::Display for ParseCostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse {:?} as a cost model (expected \"inline\", \"ALPHA,BETA\" \
             or \"interface@gbps\")",
            self.0
        )
    }
}

impl std::error::Error for ParseCostModelError {}

impl core::str::FromStr for CostModel {
    type Err = ParseCostModelError;

    /// Parses the human-facing cost-model forms: `inline` (or an empty
    /// string), raw `ALPHA,BETA` coefficients (`3,1`), or a named
    /// operating point (`sstl15@6.4`, `pod12@3.2`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        let invalid = || ParseCostModelError(trimmed.to_owned());
        if trimmed.is_empty() || trimmed.eq_ignore_ascii_case("inline") {
            return Ok(CostModel::Inline);
        }
        if trimmed.contains('@') {
            let point: OperatingPoint = trimmed.parse().map_err(|_| invalid())?;
            return Ok(CostModel::Named(point));
        }
        let (alpha, beta) = trimmed.split_once(',').ok_or_else(invalid)?;
        let alpha: u32 = alpha.trim().parse().map_err(|_| invalid())?;
        let beta: u32 = beta.trim().parse().map_err(|_| invalid())?;
        CostWeights::new(alpha, beta)
            .map(CostModel::Weights)
            .map_err(|_| invalid())
    }
}

/// Parses a request head's scheme tag through the shared tag table
/// ([`scheme_from_tag`]); the weights field is only parsed for the
/// parametric tags (`Greedy` and `Opt`).
fn scheme_from_wire(tag: u8, weights: [u8; CostWeights::WIRE_BYTES]) -> Result<Scheme, WireError> {
    let weights = match tag {
        4 | 5 => CostWeights::from_le_bytes(weights).map_err(|_| WireError::BadWeights)?,
        _ => CostWeights::FIXED,
    };
    scheme_from_tag(tag, weights).ok_or(WireError::UnknownSchemeTag(tag))
}

/// A parsed frame header. Its version is always [`VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The frame type tag (validated later, by [`decode_frame`]).
    pub frame_type: u8,
    /// Announced body length in bytes.
    pub body_len: usize,
}

/// Parses and validates the fixed 8-byte header: magic, version (exactly
/// [`VERSION`]) and the [`MAX_BODY_LEN`] bound.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::BadMagic`],
/// [`WireError::UnsupportedVersion`] or [`WireError::Oversized`].
pub fn parse_header(bytes: &[u8]) -> Result<Header, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    if bytes[..2] != MAGIC {
        return Err(WireError::BadMagic([bytes[0], bytes[1]]));
    }
    if bytes[2] != VERSION {
        return Err(WireError::UnsupportedVersion(bytes[2]));
    }
    let body_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::Oversized {
            got: body_len,
            max: MAX_BODY_LEN,
        });
    }
    Ok(Header {
        frame_type: bytes[3],
        body_len,
    })
}

fn push_header(out: &mut Vec<u8>, frame_type: u8, body_len: usize) {
    debug_assert!(body_len <= MAX_BODY_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(frame_type);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
}

/// An encode request body, borrowing its payload — as a client builds it
/// and as [`decode_frame`] hands it back from the receive buffer. It
/// travels behind a request id as a [`PipelinedRequestFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeRequestFrame<'a> {
    /// Client-chosen session id; requests with the same id share carried
    /// bus state and are routed to the same shard.
    pub session_id: u64,
    /// The DBI scheme to encode with.
    pub scheme: Scheme,
    /// Where the session's cost coefficients come from; see
    /// [`CostModel`].
    pub cost_model: CostModel,
    /// Lane groups of the channel.
    pub groups: u16,
    /// Burst length in beats.
    pub burst_len: u8,
    /// When set, the response carries the per-burst inversion masks.
    pub want_masks: bool,
    /// Whether the engine must decode its own output and prove the round
    /// trip before replying; see [`VerifyMode`].
    pub verify: VerifyMode,
    /// Beat-interleaved payload bytes (byte `k` of an access travels on
    /// group `k mod groups`).
    pub payload: &'a [u8],
}

impl EncodeRequestFrame<'_> {
    /// Appends the body (without the request id) to `out`.
    fn push_body(&self, out: &mut Vec<u8>) {
        let (tag, weights) = scheme_to_tag(self.scheme);
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&weights.to_le_bytes());
        self.cost_model.encode_into(out);
        out.extend_from_slice(&self.groups.to_le_bytes());
        out.push(self.burst_len);
        out.push(encode_request_flags(self.want_masks, self.verify));
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(self.payload);
    }
}

/// Decodes the fields every encode request body opens with, through the
/// flags byte. Returns them as a request whose payload is everything past
/// `head_len`, plus the length fields between the flags byte and the
/// payload, which the caller checks.
fn decode_request_head(
    body: &[u8],
    head_len: usize,
) -> Result<(EncodeRequestFrame<'_>, &[u8]), WireError> {
    if body.len() < head_len {
        return Err(WireError::Truncated {
            needed: head_len,
            got: body.len(),
        });
    }
    let session_id = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
    let mut weights = [0u8; CostWeights::WIRE_BYTES];
    weights.copy_from_slice(&body[9..9 + CostWeights::WIRE_BYTES]);
    let scheme = scheme_from_wire(body[8], weights)?;
    let mut field = [0u8; COST_MODEL_WIRE_BYTES];
    field.copy_from_slice(
        &body[9 + CostWeights::WIRE_BYTES..9 + CostWeights::WIRE_BYTES + COST_MODEL_WIRE_BYTES],
    );
    let cost_model = CostModel::decode(&field)?;
    let rest = &body[9 + CostWeights::WIRE_BYTES + COST_MODEL_WIRE_BYTES..head_len];
    let (want_masks, verify) = decode_request_flags(rest[3])?;
    let request = EncodeRequestFrame {
        session_id,
        scheme,
        cost_model,
        groups: u16::from_le_bytes([rest[0], rest[1]]),
        burst_len: rest[2],
        want_masks,
        verify,
        payload: &body[head_len..],
    };
    Ok((request, &rest[4..]))
}

/// Checks a little-endian `u32` payload-length field against the payload.
fn check_payload_len(field: &[u8], payload: &[u8]) -> Result<(), WireError> {
    let announced = u32::from_le_bytes(field.try_into().expect("a 4-byte field"));
    if payload.len() == announced as usize {
        Ok(())
    } else {
        Err(WireError::BodyMismatch)
    }
}

fn decode_request(body: &[u8]) -> Result<EncodeRequestFrame<'_>, WireError> {
    let (request, lengths) = decode_request_head(body, REQUEST_HEAD_LEN)?;
    check_payload_len(lengths, request.payload)?;
    Ok(request)
}

/// A batched encode request body: one contiguous payload carrying a
/// whole batch of bursts for a session, with its burst count. It travels
/// behind a request id as a [`PipelinedBatchRequestFrame`]. See the
/// [module documentation](self) for the body layout and the count-field
/// invariants, which [`decode_frame`] enforces before handing one back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeBatchRequestFrame<'a> {
    /// See [`EncodeRequestFrame::session_id`].
    pub session_id: u64,
    /// See [`EncodeRequestFrame::scheme`].
    pub scheme: Scheme,
    /// See [`EncodeRequestFrame::cost_model`].
    pub cost_model: CostModel,
    /// See [`EncodeRequestFrame::groups`].
    pub groups: u16,
    /// See [`EncodeRequestFrame::burst_len`].
    pub burst_len: u8,
    /// See [`EncodeRequestFrame::want_masks`].
    pub want_masks: bool,
    /// See [`EncodeRequestFrame::verify`].
    pub verify: VerifyMode,
    /// Total per-group bursts in the payload; must equal
    /// `payload.len() / burst_len`.
    pub count: u16,
    /// Beat-interleaved payload bytes, exactly as in
    /// [`EncodeRequestFrame::payload`].
    pub payload: &'a [u8],
}

impl<'a> EncodeBatchRequestFrame<'a> {
    /// Builds the batch form of a plain encode request, computing the
    /// burst-count field from the payload. Returns `None` when the
    /// payload does not divide into `burst_len`-byte bursts or the count
    /// overflows the `u16` field.
    #[must_use]
    pub fn from_request(request: &EncodeRequestFrame<'a>) -> Option<Self> {
        let burst_len = usize::from(request.burst_len);
        if burst_len == 0 || !request.payload.len().is_multiple_of(burst_len) {
            return None;
        }
        let count = u16::try_from(request.payload.len() / burst_len).ok()?;
        Some(EncodeBatchRequestFrame {
            session_id: request.session_id,
            scheme: request.scheme,
            cost_model: request.cost_model,
            groups: request.groups,
            burst_len: request.burst_len,
            want_masks: request.want_masks,
            verify: request.verify,
            count,
            payload: request.payload,
        })
    }

    /// The request without its burst count: the form the engine
    /// validates, with the count checked beside it.
    pub(crate) fn plain(&self) -> EncodeRequestFrame<'a> {
        EncodeRequestFrame {
            session_id: self.session_id,
            scheme: self.scheme,
            cost_model: self.cost_model,
            groups: self.groups,
            burst_len: self.burst_len,
            want_masks: self.want_masks,
            verify: self.verify,
            payload: self.payload,
        }
    }

    /// Appends the body (without the request id) to `out`.
    fn push_body(&self, out: &mut Vec<u8>) {
        let (tag, weights) = scheme_to_tag(self.scheme);
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&weights.to_le_bytes());
        self.cost_model.encode_into(out);
        out.extend_from_slice(&self.groups.to_le_bytes());
        out.push(self.burst_len);
        out.push(encode_request_flags(self.want_masks, self.verify));
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(self.payload);
    }
}

/// Decodes a batch request body, enforcing the count-field invariants
/// (`count > 0`, `count · burst_len == payload.len()`).
fn decode_batch_request(body: &[u8]) -> Result<EncodeBatchRequestFrame<'_>, WireError> {
    let (head, lengths) = decode_request_head(body, BATCH_REQUEST_HEAD_LEN)?;
    let count = u16::from_le_bytes([lengths[0], lengths[1]]);
    check_payload_len(&lengths[2..], head.payload)?;
    let burst_len = usize::from(head.burst_len);
    if count == 0 || usize::from(count) * burst_len != head.payload.len() {
        return Err(WireError::BadBatchCount {
            count,
            got: head.payload.len().checked_div(burst_len).unwrap_or(0),
        });
    }
    Ok(EncodeBatchRequestFrame {
        session_id: head.session_id,
        scheme: head.scheme,
        cost_model: head.cost_model,
        groups: head.groups,
        burst_len: head.burst_len,
        want_masks: head.want_masks,
        verify: head.verify,
        count,
        payload: head.payload,
    })
}

/// An encode response body, in its borrowed write-side form. It travels
/// behind the request's echoed id as a [`PipelinedResponseFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeResponseFrame<'a> {
    /// Echo of the request's session id.
    pub session_id: u64,
    /// Per-group bursts encoded by this request.
    pub bursts: u64,
    /// Activity added by this request, one record per lane group.
    pub per_group: &'a [CostBreakdown],
    /// Per-burst inversion decisions in transmission order; empty unless
    /// the request set [`EncodeRequestFrame::want_masks`].
    pub masks: &'a [InversionMask],
}

impl EncodeResponseFrame<'_> {
    fn body_len(&self) -> usize {
        RESPONSE_HEAD_LEN
            + self.per_group.len() * CostBreakdown::WIRE_BYTES
            + self.masks.len() * InversionMask::WIRE_BYTES
    }

    /// Appends the body (without the request id) to `out`.
    fn push_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.extend_from_slice(&self.bursts.to_le_bytes());
        out.extend_from_slice(&(self.per_group.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.masks.len() as u32).to_le_bytes());
        for record in self.per_group {
            out.extend_from_slice(&record.to_le_bytes());
        }
        for mask in self.masks {
            out.extend_from_slice(&mask.to_le_bytes());
        }
    }
}

/// A decoded encode response. The record streams stay in the receive
/// buffer; [`EncodeResponseView::per_group`] and
/// [`EncodeResponseView::masks`] decode them on the fly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeResponseView<'a> {
    /// Echo of the request's session id.
    pub session_id: u64,
    /// Per-group bursts encoded by this request.
    pub bursts: u64,
    per_group_bytes: &'a [u8],
    mask_bytes: &'a [u8],
}

impl<'a> EncodeResponseView<'a> {
    /// Number of lane-group records.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.per_group_bytes.len() / CostBreakdown::WIRE_BYTES
    }

    /// Number of inversion masks.
    #[must_use]
    pub fn mask_count(&self) -> usize {
        self.mask_bytes.len() / InversionMask::WIRE_BYTES
    }

    /// The per-group activity records, decoded from the borrowed bytes.
    pub fn per_group(&self) -> impl Iterator<Item = CostBreakdown> + 'a {
        self.per_group_bytes
            .chunks_exact(CostBreakdown::WIRE_BYTES)
            .map(|chunk| CostBreakdown::from_le_bytes(chunk.try_into().expect("exact chunks")))
    }

    /// The per-burst inversion masks, decoded from the borrowed bytes.
    pub fn masks(&self) -> impl Iterator<Item = InversionMask> + 'a {
        self.mask_bytes
            .chunks_exact(InversionMask::WIRE_BYTES)
            .map(|chunk| InversionMask::from_le_bytes(chunk.try_into().expect("exact chunks")))
    }
}

/// Splits a response's record bytes into its per-group records and its
/// masks, checking both announced counts against the body length.
fn split_records(
    records: &[u8],
    group_count: usize,
    mask_count: usize,
) -> Result<(&[u8], &[u8]), WireError> {
    let group_bytes = group_count
        .checked_mul(CostBreakdown::WIRE_BYTES)
        .ok_or(WireError::BodyMismatch)?;
    let mask_bytes = mask_count
        .checked_mul(InversionMask::WIRE_BYTES)
        .ok_or(WireError::BodyMismatch)?;
    if records.len()
        != group_bytes
            .checked_add(mask_bytes)
            .ok_or(WireError::BodyMismatch)?
    {
        return Err(WireError::BodyMismatch);
    }
    Ok(records.split_at(group_bytes))
}

fn decode_response(body: &[u8]) -> Result<EncodeResponseView<'_>, WireError> {
    if body.len() < RESPONSE_HEAD_LEN {
        return Err(WireError::Truncated {
            needed: RESPONSE_HEAD_LEN,
            got: body.len(),
        });
    }
    let session_id = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
    let bursts = u64::from_le_bytes(body[8..16].try_into().expect("checked length"));
    let group_count = u16::from_le_bytes([body[16], body[17]]) as usize;
    let mask_count = u32::from_le_bytes([body[18], body[19], body[20], body[21]]) as usize;
    let (per_group_bytes, mask_bytes) =
        split_records(&body[RESPONSE_HEAD_LEN..], group_count, mask_count)?;
    Ok(EncodeResponseView {
        session_id,
        bursts,
        per_group_bytes,
        mask_bytes,
    })
}

/// A batched encode response body: the encode response with the
/// request's burst count echoed, answering an [`EncodeBatchRequestFrame`].
/// It travels behind the request's echoed id as a
/// [`PipelinedBatchResponseFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeBatchResponseFrame<'a> {
    /// Echo of the request's session id.
    pub session_id: u64,
    /// Per-group bursts encoded by this batch.
    pub bursts: u64,
    /// Echo of the request's burst-count field.
    pub count: u16,
    /// Activity added by this batch, one record per lane group.
    pub per_group: &'a [CostBreakdown],
    /// Per-burst inversion decisions in transmission order; empty unless
    /// the request set `want_masks`.
    pub masks: &'a [InversionMask],
}

impl EncodeBatchResponseFrame<'_> {
    fn body_len(&self) -> usize {
        BATCH_RESPONSE_HEAD_LEN
            + self.per_group.len() * CostBreakdown::WIRE_BYTES
            + self.masks.len() * InversionMask::WIRE_BYTES
    }

    /// Appends the body (without the request id) to `out`.
    fn push_body(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.extend_from_slice(&self.bursts.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&(self.per_group.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.masks.len() as u32).to_le_bytes());
        for record in self.per_group {
            out.extend_from_slice(&record.to_le_bytes());
        }
        for mask in self.masks {
            out.extend_from_slice(&mask.to_le_bytes());
        }
    }
}

/// A decoded batch encode response. Like [`EncodeResponseView`], the
/// record streams stay in the receive buffer and decode lazily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeBatchResponseView<'a> {
    /// Echo of the request's session id.
    pub session_id: u64,
    /// Per-group bursts encoded by this batch.
    pub bursts: u64,
    /// Echo of the request's burst-count field.
    pub count: u16,
    per_group_bytes: &'a [u8],
    mask_bytes: &'a [u8],
}

impl<'a> EncodeBatchResponseView<'a> {
    /// Number of lane-group records.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.per_group_bytes.len() / CostBreakdown::WIRE_BYTES
    }

    /// Number of inversion masks.
    #[must_use]
    pub fn mask_count(&self) -> usize {
        self.mask_bytes.len() / InversionMask::WIRE_BYTES
    }

    /// The per-group activity records, decoded from the borrowed bytes.
    pub fn per_group(&self) -> impl Iterator<Item = CostBreakdown> + 'a {
        self.per_group_bytes
            .chunks_exact(CostBreakdown::WIRE_BYTES)
            .map(|chunk| CostBreakdown::from_le_bytes(chunk.try_into().expect("exact chunks")))
    }

    /// The per-burst inversion masks, decoded from the borrowed bytes.
    pub fn masks(&self) -> impl Iterator<Item = InversionMask> + 'a {
        self.mask_bytes
            .chunks_exact(InversionMask::WIRE_BYTES)
            .map(|chunk| InversionMask::from_le_bytes(chunk.try_into().expect("exact chunks")))
    }
}

fn decode_batch_response(body: &[u8]) -> Result<EncodeBatchResponseView<'_>, WireError> {
    if body.len() < BATCH_RESPONSE_HEAD_LEN {
        return Err(WireError::Truncated {
            needed: BATCH_RESPONSE_HEAD_LEN,
            got: body.len(),
        });
    }
    let session_id = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
    let bursts = u64::from_le_bytes(body[8..16].try_into().expect("checked length"));
    let count = u16::from_le_bytes([body[16], body[17]]);
    let group_count = u16::from_le_bytes([body[18], body[19]]) as usize;
    let mask_count = u32::from_le_bytes([body[20], body[21], body[22], body[23]]) as usize;
    let (per_group_bytes, mask_bytes) =
        split_records(&body[BATCH_RESPONSE_HEAD_LEN..], group_count, mask_count)?;
    Ok(EncodeBatchResponseView {
        session_id,
        bursts,
        count,
        per_group_bytes,
        mask_bytes,
    })
}

/// An error response, in its borrowed write-side form. Sent bare for
/// failures no single request owns, and behind a request id as a
/// [`PipelinedErrorFrame`] otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorFrame<'a> {
    /// The typed error code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: &'a str,
}

impl ErrorFrame<'_> {
    /// Appends the full frame (header + body) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_header(out, tag::ERROR, 1 + self.message.len());
        out.push(self.code as u8);
        out.extend_from_slice(self.message.as_bytes());
    }
}

/// A decoded error response, borrowing the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorView<'a> {
    /// The typed error code.
    pub code: ErrorCode,
    /// Human-readable detail, borrowed from the frame buffer.
    pub message: &'a str,
}

fn decode_error(body: &[u8]) -> Result<ErrorView<'_>, WireError> {
    let (&code, message) = body
        .split_first()
        .ok_or(WireError::Truncated { needed: 1, got: 0 })?;
    Ok(ErrorView {
        code: ErrorCode::from_u8(code)?,
        message: core::str::from_utf8(message).map_err(|_| WireError::BadUtf8)?,
    })
}

/// Splits the `u64` request-id prefix off an id-tagged body.
fn split_request_id(body: &[u8]) -> Result<(u64, &[u8]), WireError> {
    if body.len() < REQUEST_ID_WIRE_BYTES {
        return Err(WireError::Truncated {
            needed: REQUEST_ID_WIRE_BYTES,
            got: body.len(),
        });
    }
    let id = u64::from_le_bytes(body[..REQUEST_ID_WIRE_BYTES].try_into().expect("checked"));
    Ok((id, &body[REQUEST_ID_WIRE_BYTES..]))
}

/// An encode request frame: an [`EncodeRequestFrame`] behind a
/// client-chosen `u64` **request id**.
/// Many of these may be in flight on one connection; the service echoes
/// the id on the matching [`PipelinedResponseFrame`] (or
/// [`PipelinedErrorFrame`]), so responses are matched by id rather than
/// by ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedRequestFrame<'a> {
    /// Client-chosen id echoed by the matching response; unique among
    /// the connection's in-flight requests.
    pub request_id: u64,
    /// The encode request itself.
    pub request: EncodeRequestFrame<'a>,
}

impl PipelinedRequestFrame<'_> {
    /// Appends the full frame (header + body) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_header(
            out,
            tag::PIPELINED_REQUEST,
            REQUEST_ID_WIRE_BYTES + REQUEST_HEAD_LEN + self.request.payload.len(),
        );
        out.extend_from_slice(&self.request_id.to_le_bytes());
        self.request.push_body(out);
    }
}

/// A batch encode request frame: the [`EncodeBatchRequestFrame`] body
/// behind a `u64` request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedBatchRequestFrame<'a> {
    /// See [`PipelinedRequestFrame::request_id`].
    pub request_id: u64,
    /// The batch request itself.
    pub request: EncodeBatchRequestFrame<'a>,
}

impl PipelinedBatchRequestFrame<'_> {
    /// Appends the full frame (header + body) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_header(
            out,
            tag::PIPELINED_BATCH_REQUEST,
            REQUEST_ID_WIRE_BYTES + BATCH_REQUEST_HEAD_LEN + self.request.payload.len(),
        );
        out.extend_from_slice(&self.request_id.to_le_bytes());
        self.request.push_body(out);
    }
}

/// An encode response frame: the [`EncodeResponseFrame`] body behind the
/// request's echoed id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedResponseFrame<'a> {
    /// Echo of the request's id.
    pub request_id: u64,
    /// The response itself.
    pub response: EncodeResponseFrame<'a>,
}

impl PipelinedResponseFrame<'_> {
    /// Appends the full frame (header + body) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_header(
            out,
            tag::PIPELINED_RESPONSE,
            REQUEST_ID_WIRE_BYTES + self.response.body_len(),
        );
        out.extend_from_slice(&self.request_id.to_le_bytes());
        self.response.push_body(out);
    }
}

/// A batch encode response frame: the [`EncodeBatchResponseFrame`] body
/// behind the request's echoed id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedBatchResponseFrame<'a> {
    /// Echo of the request's id.
    pub request_id: u64,
    /// The batch response itself.
    pub response: EncodeBatchResponseFrame<'a>,
}

impl PipelinedBatchResponseFrame<'_> {
    /// Appends the full frame (header + body) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_header(
            out,
            tag::PIPELINED_BATCH_RESPONSE,
            REQUEST_ID_WIRE_BYTES + self.response.body_len(),
        );
        out.extend_from_slice(&self.request_id.to_le_bytes());
        self.response.push_body(out);
    }
}

/// An id-tagged error response: an [`ErrorFrame`] behind the failed
/// request's echoed id, so a failure among many in-flight requests still
/// lands on the right caller. Connection-level failures that cannot be
/// attributed to one request (unframeable input, slow-consumer drops)
/// use the plain [`ErrorFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinedErrorFrame<'a> {
    /// Echo of the failed request's id.
    pub request_id: u64,
    /// The typed error itself.
    pub error: ErrorFrame<'a>,
}

impl PipelinedErrorFrame<'_> {
    /// Appends the full frame (header + body) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_header(
            out,
            tag::PIPELINED_ERROR,
            REQUEST_ID_WIRE_BYTES + 1 + self.error.message.len(),
        );
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.push(self.error.code as u8);
        out.extend_from_slice(self.error.message.as_bytes());
    }
}

/// The durability plane's answer to every admin request (trigger
/// snapshot, query status, restore): a fixed-width status block mirroring
/// the engine's durability counters. The [`Default`] value is what an
/// engine without a configured persist directory reports for a plain
/// status query (`configured == false`, everything zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStatus {
    /// Whether the engine was started with a persist directory.
    pub configured: bool,
    /// Journal compactions since engine start: automatic ones, and one
    /// per shard for each snapshot.
    pub compactions: u64,
    /// Snapshots taken since engine start.
    pub snapshots_taken: u64,
    /// Session records the journals held after the most recent snapshot.
    pub last_sessions: u64,
    /// Bytes the journals held after the most recent snapshot.
    pub last_bytes: u64,
    /// Sessions recovered from disk at engine start, plus any brought
    /// back by explicit restore requests.
    pub restored_sessions: u64,
}

/// Bytes in a [`SnapshotStatus`] response body.
pub const SNAPSHOT_STATUS_WIRE_BYTES: usize = 1 + 5 * 8;

impl SnapshotStatus {
    /// Appends the full response frame (header + body) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        push_header(
            out,
            tag::SNAPSHOT_STATUS_RESPONSE,
            SNAPSHOT_STATUS_WIRE_BYTES,
        );
        out.push(u8::from(self.configured));
        out.extend_from_slice(&self.compactions.to_le_bytes());
        out.extend_from_slice(&self.snapshots_taken.to_le_bytes());
        out.extend_from_slice(&self.last_sessions.to_le_bytes());
        out.extend_from_slice(&self.last_bytes.to_le_bytes());
        out.extend_from_slice(&self.restored_sessions.to_le_bytes());
    }
}

fn decode_snapshot_status(body: &[u8]) -> Result<SnapshotStatus, WireError> {
    if body.len() != SNAPSHOT_STATUS_WIRE_BYTES {
        return Err(if body.len() < SNAPSHOT_STATUS_WIRE_BYTES {
            WireError::Truncated {
                needed: SNAPSHOT_STATUS_WIRE_BYTES,
                got: body.len(),
            }
        } else {
            WireError::BodyMismatch
        });
    }
    let configured = match body[0] {
        0 => false,
        1 => true,
        other => return Err(WireError::UnknownFlags(other)),
    };
    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("checked length"));
    Ok(SnapshotStatus {
        configured,
        compactions: word(1),
        snapshots_taken: word(9),
        last_sessions: word(17),
        last_bytes: word(25),
        restored_sessions: word(33),
    })
}

/// Appends a snapshot-request frame (empty body) to `out`: the service
/// takes each shard's lock in turn, at a pass boundary, compacts the
/// shard's journal, synced, then answers with [`SnapshotStatus`].
pub fn encode_snapshot_request(out: &mut Vec<u8>) {
    push_header(out, tag::SNAPSHOT_REQUEST, 0);
}

/// Appends a snapshot-status request frame (empty body) to `out`: the
/// service answers with its current [`SnapshotStatus`] without touching
/// disk.
pub fn encode_snapshot_status_request(out: &mut Vec<u8>) {
    push_header(out, tag::SNAPSHOT_STATUS_REQUEST, 0);
}

/// Appends a restore-request frame (empty body) to `out`: the service
/// re-folds its journals and seeds every recovered session into the live
/// shards (replacing same-id entries), then answers with
/// [`SnapshotStatus`].
pub fn encode_restore_request(out: &mut Vec<u8>) {
    push_header(out, tag::RESTORE_REQUEST, 0);
}

/// Appends a metrics-request frame (empty body) to `out`.
pub fn encode_metrics_request(out: &mut Vec<u8>) {
    push_header(out, tag::METRICS_REQUEST, 0);
}

/// Appends a metrics-response frame carrying a JSON snapshot to `out`.
pub fn encode_metrics_response(out: &mut Vec<u8>, json: &str) {
    push_header(out, tag::METRICS_RESPONSE, json.len());
    out.extend_from_slice(json.as_bytes());
}

/// Appends a trace-dump request to `out`: the service answers with up to
/// `max_events` of the most recent trace events per shard.
pub fn encode_trace_dump_request(out: &mut Vec<u8>, max_events: u32) {
    push_header(out, tag::TRACE_DUMP_REQUEST, 4);
    out.extend_from_slice(&max_events.to_le_bytes());
}

/// Appends a slowlog query to `out`: the service answers with up to
/// `max_entries` of the most recent slowlog captures.
pub fn encode_slowlog_request(out: &mut Vec<u8>, max_entries: u32) {
    push_header(out, tag::SLOWLOG_REQUEST, 4);
    out.extend_from_slice(&max_entries.to_le_bytes());
}

fn push_trace_records(out: &mut Vec<u8>, events: &[TraceEvent]) {
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for event in events {
        out.extend_from_slice(&event.to_le_bytes());
    }
}

/// Appends a trace-dump response carrying `events` to `out`.
pub fn encode_trace_dump_response(out: &mut Vec<u8>, events: &[TraceEvent]) {
    push_header(
        out,
        tag::TRACE_DUMP_RESPONSE,
        4 + events.len() * TraceEvent::WIRE_BYTES,
    );
    push_trace_records(out, events);
}

/// Appends a slowlog response carrying `entries` captured at
/// `threshold_ns` to `out`.
pub fn encode_slowlog_response(out: &mut Vec<u8>, threshold_ns: u64, entries: &[TraceEvent]) {
    push_header(
        out,
        tag::SLOWLOG_RESPONSE,
        8 + 4 + entries.len() * TraceEvent::WIRE_BYTES,
    );
    out.extend_from_slice(&threshold_ns.to_le_bytes());
    push_trace_records(out, entries);
}

/// Validates a `count`-prefixed run of fixed-width trace records and
/// returns the record bytes. The count must agree with the body length
/// and every record's outcome byte must be defined, so the views'
/// iterators decode infallibly.
fn check_trace_records(body: &[u8]) -> Result<&[u8], WireError> {
    if body.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            got: body.len(),
        });
    }
    let count = u32::from_le_bytes([body[0], body[1], body[2], body[3]]) as usize;
    let records = &body[4..];
    if count
        .checked_mul(TraceEvent::WIRE_BYTES)
        .ok_or(WireError::BodyMismatch)?
        != records.len()
    {
        return Err(WireError::BodyMismatch);
    }
    for record in records.chunks_exact(TraceEvent::WIRE_BYTES) {
        TraceOutcome::from_wire(record[TraceEvent::OUTCOME_BYTE_AT])?;
    }
    Ok(records)
}

/// Decodes one run of already-validated trace records.
fn trace_records(bytes: &[u8]) -> impl Iterator<Item = TraceEvent> + '_ {
    bytes.chunks_exact(TraceEvent::WIRE_BYTES).map(|chunk| {
        TraceEvent::from_le_bytes(chunk.try_into().expect("exact chunks"))
            .expect("records validated by the decoder")
    })
}

/// A decoded trace-dump response. The records stay in the
/// receive buffer and decode lazily; the decoder has already validated
/// the count field and every outcome byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDumpResponseView<'a> {
    record_bytes: &'a [u8],
}

impl<'a> TraceDumpResponseView<'a> {
    /// Number of trace events in the response.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.record_bytes.len() / TraceEvent::WIRE_BYTES
    }

    /// The trace events, decoded from the borrowed bytes.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + 'a {
        trace_records(self.record_bytes)
    }
}

/// A decoded slowlog response: the engine's capture
/// threshold plus the captured events, lazily decoded like
/// [`TraceDumpResponseView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowlogResponseView<'a> {
    /// The engine's slowlog capture threshold in nanoseconds.
    pub threshold_ns: u64,
    record_bytes: &'a [u8],
}

impl<'a> SlowlogResponseView<'a> {
    /// Number of slowlog entries in the response.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.record_bytes.len() / TraceEvent::WIRE_BYTES
    }

    /// The captured events, decoded from the borrowed bytes.
    pub fn entries(&self) -> impl Iterator<Item = TraceEvent> + 'a {
        trace_records(self.record_bytes)
    }
}

/// Decodes the `u32` bound carried by both telemetry request frames.
fn decode_telemetry_bound(body: &[u8]) -> Result<u32, WireError> {
    let bytes: [u8; 4] = body.try_into().map_err(|_| {
        if body.len() < 4 {
            WireError::Truncated {
                needed: 4,
                got: body.len(),
            }
        } else {
            WireError::BodyMismatch
        }
    })?;
    Ok(u32::from_le_bytes(bytes))
}

fn decode_slowlog_response(body: &[u8]) -> Result<SlowlogResponseView<'_>, WireError> {
    if body.len() < 8 {
        return Err(WireError::Truncated {
            needed: 8,
            got: body.len(),
        });
    }
    let threshold_ns = u64::from_le_bytes(body[..8].try_into().expect("checked length"));
    Ok(SlowlogResponseView {
        threshold_ns,
        record_bytes: check_trace_records(&body[8..])?,
    })
}

/// One decoded frame, borrowing the buffer it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Frame<'a> {
    /// A service error response no single request owns.
    Error(ErrorView<'a>),
    /// A client metrics request.
    MetricsRequest,
    /// A service metrics response: the JSON snapshot text.
    MetricsResponse(&'a str),
    /// A client trace-dump request: the maximum events wanted per shard.
    TraceDumpRequest(u32),
    /// A service trace-dump response.
    TraceDumpResponse(TraceDumpResponseView<'a>),
    /// A client slowlog query: the maximum entries wanted.
    SlowlogRequest(u32),
    /// A service slowlog response.
    SlowlogResponse(SlowlogResponseView<'a>),
    /// A client encode request, matched to its response by `request_id`
    /// instead of arrival order.
    PipelinedRequest {
        /// The client-chosen request id.
        request_id: u64,
        /// The request body.
        request: EncodeRequestFrame<'a>,
    },
    /// A service encode response.
    PipelinedResponse {
        /// Echo of the request's id.
        request_id: u64,
        /// The response body.
        response: EncodeResponseView<'a>,
    },
    /// A client batch encode request.
    PipelinedBatchRequest {
        /// The client-chosen request id.
        request_id: u64,
        /// The batch request body.
        request: EncodeBatchRequestFrame<'a>,
    },
    /// A service batch encode response.
    PipelinedBatchResponse {
        /// Echo of the request's id.
        request_id: u64,
        /// The batch response body.
        response: EncodeBatchResponseView<'a>,
    },
    /// A service error response, attributed to one in-flight request by
    /// its echoed id.
    PipelinedError {
        /// Echo of the failed request's id.
        request_id: u64,
        /// The typed error body.
        error: ErrorView<'a>,
    },
    /// A client request to snapshot the durable session plane.
    SnapshotRequest,
    /// A client query of the durability status.
    SnapshotStatusRequest,
    /// A client request to restore sessions from disk.
    RestoreRequest,
    /// The service's answer to every durability admin request.
    SnapshotStatus(SnapshotStatus),
}

/// Rejects a non-empty body on a frame whose body must be empty.
fn expect_empty(body: &[u8], frame: Frame<'static>) -> Result<Frame<'static>, WireError> {
    if body.is_empty() {
        Ok(frame)
    } else {
        Err(WireError::BodyMismatch)
    }
}

/// Decodes the frame starting at `bytes[0]` and returns it together with
/// its total encoded length (header + body), so a buffer holding several
/// back-to-back frames can be walked.
///
/// # Errors
///
/// Any [`WireError`]; in particular [`WireError::Truncated`] when `bytes`
/// ends mid-frame (the `needed` field tells the transport how many bytes
/// the whole frame requires).
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame<'_>, usize), WireError> {
    let header = parse_header(bytes)?;
    let total = HEADER_LEN + header.body_len;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    let body = &bytes[HEADER_LEN..total];
    let frame = match header.frame_type {
        tag::ERROR => Frame::Error(decode_error(body)?),
        tag::METRICS_REQUEST => expect_empty(body, Frame::MetricsRequest)?,
        tag::METRICS_RESPONSE => {
            Frame::MetricsResponse(core::str::from_utf8(body).map_err(|_| WireError::BadUtf8)?)
        }
        tag::TRACE_DUMP_REQUEST => Frame::TraceDumpRequest(decode_telemetry_bound(body)?),
        tag::TRACE_DUMP_RESPONSE => Frame::TraceDumpResponse(TraceDumpResponseView {
            record_bytes: check_trace_records(body)?,
        }),
        tag::SLOWLOG_REQUEST => Frame::SlowlogRequest(decode_telemetry_bound(body)?),
        tag::SLOWLOG_RESPONSE => Frame::SlowlogResponse(decode_slowlog_response(body)?),
        tag::PIPELINED_REQUEST => {
            let (request_id, rest) = split_request_id(body)?;
            Frame::PipelinedRequest {
                request_id,
                request: decode_request(rest)?,
            }
        }
        tag::PIPELINED_RESPONSE => {
            let (request_id, rest) = split_request_id(body)?;
            Frame::PipelinedResponse {
                request_id,
                response: decode_response(rest)?,
            }
        }
        tag::PIPELINED_BATCH_REQUEST => {
            let (request_id, rest) = split_request_id(body)?;
            Frame::PipelinedBatchRequest {
                request_id,
                request: decode_batch_request(rest)?,
            }
        }
        tag::PIPELINED_BATCH_RESPONSE => {
            let (request_id, rest) = split_request_id(body)?;
            Frame::PipelinedBatchResponse {
                request_id,
                response: decode_batch_response(rest)?,
            }
        }
        tag::PIPELINED_ERROR => {
            let (request_id, rest) = split_request_id(body)?;
            Frame::PipelinedError {
                request_id,
                error: decode_error(rest)?,
            }
        }
        tag::SNAPSHOT_REQUEST => expect_empty(body, Frame::SnapshotRequest)?,
        tag::SNAPSHOT_STATUS_REQUEST => expect_empty(body, Frame::SnapshotStatusRequest)?,
        tag::RESTORE_REQUEST => expect_empty(body, Frame::RestoreRequest)?,
        tag::SNAPSHOT_STATUS_RESPONSE => Frame::SnapshotStatus(decode_snapshot_status(body)?),
        other => return Err(WireError::UnknownFrameType(other)),
    };
    Ok((frame, total))
}

/// The request id of a well-framed encode request (tag 12 or 14) whose
/// id prefix is readable, even when the rest of its body fails to decode
/// — so the failure can be answered under that id with a
/// [`PipelinedErrorFrame`].
pub(crate) fn request_id_of(header: &Header, body: &[u8]) -> Option<u64> {
    match header.frame_type {
        tag::PIPELINED_REQUEST | tag::PIPELINED_BATCH_REQUEST => {
            split_request_id(body).ok().map(|(id, _)| id)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offset of an encode request's body inside its frame: header plus
    /// request id.
    const BODY_AT: usize = HEADER_LEN + REQUEST_ID_WIRE_BYTES;

    fn encode_request(request: EncodeRequestFrame<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        PipelinedRequestFrame {
            request_id: 1,
            request,
        }
        .encode_into(&mut buf);
        buf
    }

    fn decoded_request(buf: &[u8]) -> EncodeRequestFrame<'_> {
        let (Frame::PipelinedRequest { request, .. }, _) = decode_frame(buf).unwrap() else {
            panic!("wrong frame type");
        };
        request
    }

    fn sample_request(payload: &[u8]) -> EncodeRequestFrame<'_> {
        EncodeRequestFrame {
            session_id: 1,
            scheme: Scheme::Raw,
            cost_model: CostModel::Inline,
            groups: 1,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload,
        }
    }

    #[test]
    fn request_roundtrip_borrows_the_payload() {
        let payload = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let frame = EncodeRequestFrame {
            session_id: 0xAB,
            scheme: Scheme::Opt(CostWeights::new(2, 3).unwrap()),
            groups: 4,
            want_masks: true,
            ..sample_request(&payload)
        };
        let buf = encode_request(frame);
        let (decoded, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        let Frame::PipelinedRequest {
            request_id: 1,
            request: view,
        } = decoded
        else {
            panic!("wrong frame type");
        };
        assert_eq!(view.session_id, 0xAB);
        assert_eq!(view.scheme, frame.scheme);
        assert_eq!((view.groups, view.burst_len, view.want_masks), (4, 8, true));
        assert_eq!(view.payload, &payload);
        // Zero-copy: the payload view points into the frame buffer.
        assert!(core::ptr::eq(
            view.payload.as_ptr(),
            &buf[BODY_AT + REQUEST_HEAD_LEN]
        ));
    }

    #[test]
    fn response_roundtrip_decodes_records_lazily() {
        let per_group = [CostBreakdown::new(1, 2), CostBreakdown::new(3, 4)];
        let masks = [InversionMask::from_bits(0b1010), InversionMask::NONE];
        let mut buf = Vec::new();
        PipelinedResponseFrame {
            request_id: 9,
            response: EncodeResponseFrame {
                session_id: 7,
                bursts: 16,
                per_group: &per_group,
                masks: &masks,
            },
        }
        .encode_into(&mut buf);
        let (
            Frame::PipelinedResponse {
                request_id: 9,
                response: view,
            },
            _,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!((view.session_id, view.bursts), (7, 16));
        assert_eq!(view.group_count(), 2);
        assert_eq!(view.mask_count(), 2);
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);
    }

    #[test]
    fn error_and_metrics_frames_roundtrip() {
        let mut buf = Vec::new();
        ErrorFrame {
            code: ErrorCode::Overloaded,
            message: "shard 3 is full",
        }
        .encode_into(&mut buf);
        encode_metrics_request(&mut buf);
        encode_metrics_response(&mut buf, "{\"requests\":1}");

        let (Frame::Error(err), n1) = decode_frame(&buf).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert_eq!(err.message, "shard 3 is full");
        let (frame, n2) = decode_frame(&buf[n1..]).unwrap();
        assert_eq!(frame, Frame::MetricsRequest);
        let (Frame::MetricsResponse(json), n3) = decode_frame(&buf[n1 + n2..]).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(json, "{\"requests\":1}");
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn every_scheme_survives_the_wire() {
        let mut all: Vec<Scheme> = Scheme::paper_set().to_vec();
        all.extend_from_slice(Scheme::conventional_set());
        all.push(Scheme::Greedy(CostWeights::new(3, 5).unwrap()));
        for scheme in all {
            let (tag, weights) = scheme_to_tag(scheme);
            assert_eq!(scheme_from_wire(tag, weights.to_le_bytes()), Ok(scheme));
        }
        assert_eq!(
            scheme_from_wire(99, CostWeights::FIXED.to_le_bytes()),
            Err(WireError::UnknownSchemeTag(99))
        );
        assert_eq!(
            scheme_from_wire(5, [0u8; CostWeights::WIRE_BYTES]),
            Err(WireError::BadWeights)
        );
    }

    #[test]
    fn header_violations_are_typed() {
        let mut buf = Vec::new();
        encode_metrics_request(&mut buf);

        assert_eq!(
            parse_header(&buf[..3]),
            Err(WireError::Truncated { needed: 8, got: 3 })
        );
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(parse_header(&bad), Err(WireError::BadMagic([b'X', b'B'])));
        // Exactly one version is spoken.
        for version in (0..=u8::MAX).filter(|&v| v != VERSION) {
            let mut bad = buf.clone();
            bad[2] = version;
            assert_eq!(
                parse_header(&bad),
                Err(WireError::UnsupportedVersion(version))
            );
        }
        let mut bad = buf.clone();
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            parse_header(&bad),
            Err(WireError::Oversized {
                got: u32::MAX as usize,
                max: MAX_BODY_LEN
            })
        );
        // Unassigned and retired tags are unknown.
        for tag in [0, 1, 2, 6, 7, 21, 42] {
            let mut bad = buf.clone();
            bad[3] = tag;
            assert_eq!(decode_frame(&bad), Err(WireError::UnknownFrameType(tag)));
        }
    }

    #[test]
    fn internal_length_fields_are_cross_checked() {
        let mut buf = encode_request(sample_request(&[0u8; 8]));
        // Corrupt the inner payload_len field.
        buf[BODY_AT + REQUEST_HEAD_LEN - 4] ^= 1;
        assert_eq!(decode_frame(&buf), Err(WireError::BodyMismatch));

        let mut buf = Vec::new();
        PipelinedResponseFrame {
            request_id: 1,
            response: EncodeResponseFrame {
                session_id: 1,
                bursts: 2,
                per_group: &[CostBreakdown::ZERO],
                masks: &[],
            },
        }
        .encode_into(&mut buf);
        // Claim one more mask than the body holds.
        buf[BODY_AT + 18] = 1;
        assert_eq!(decode_frame(&buf), Err(WireError::BodyMismatch));
    }

    #[test]
    fn error_display_covers_every_variant() {
        let variants = [
            WireError::Truncated { needed: 8, got: 3 },
            WireError::BadMagic([0, 1]),
            WireError::UnsupportedVersion(2),
            WireError::UnknownFrameType(3),
            WireError::Oversized { got: 4, max: 5 },
            WireError::BodyMismatch,
            WireError::UnknownSchemeTag(6),
            WireError::BadWeights,
            WireError::UnknownErrorCode(7),
            WireError::BadUtf8,
            WireError::UnknownCostModelTag(8),
            WireError::UnknownInterfaceTag(9),
            WireError::BadDataRate,
            WireError::BadBatchCount { count: 4, got: 3 },
            WireError::UnknownFlags(0x80),
            WireError::UnknownTraceOutcome(9),
        ];
        for err in variants {
            assert!(!err.to_string().is_empty());
        }
    }

    /// Offset of the flags byte inside an encode-request frame.
    const FLAGS_AT: usize = BODY_AT + 8 + 1 + CostWeights::WIRE_BYTES + COST_MODEL_WIRE_BYTES + 3;

    /// Asserts every frame in the concatenated `frames` is rejected at
    /// the header, typed, when restamped with any version in `versions`.
    fn assert_rejected_under(frames: &[u8], versions: core::ops::Range<u8>) {
        let mut offset = 0;
        while offset < frames.len() {
            let (_, len) = decode_frame(&frames[offset..]).unwrap();
            for version in versions.clone() {
                let mut old = frames[offset..offset + len].to_vec();
                old[2] = version;
                assert_eq!(
                    decode_frame(&old),
                    Err(WireError::UnsupportedVersion(version)),
                    "a v{version} header carrying tag {}",
                    old[3]
                );
            }
            offset += len;
        }
    }

    /// The verify bit (bit 1 of the flags byte, introduced with protocol
    /// 3) survives the id-tagged request and batch frames.
    #[test]
    fn verify_bit_roundtrips_on_v3_requests_and_batches() {
        let payload = [0u8; 16];
        let frame = EncodeRequestFrame {
            scheme: Scheme::OptFixed,
            groups: 2,
            verify: VerifyMode::RoundTrip,
            ..sample_request(&payload)
        };
        let buf = encode_request(frame);
        assert_eq!(buf[FLAGS_AT], 0b10, "verify alone sets only bit 1");
        let view = decoded_request(&buf);
        assert_eq!(view.verify, VerifyMode::RoundTrip);
        assert!(!view.want_masks);

        // Both bits together.
        let buf = encode_request(EncodeRequestFrame {
            want_masks: true,
            ..frame
        });
        assert_eq!(buf[FLAGS_AT], 0b11);
        let view = decoded_request(&buf);
        assert!(view.want_masks && view.verify.is_on());

        // The batch frame carries the same flags byte.
        let batch = EncodeBatchRequestFrame::from_request(&frame).unwrap();
        assert_eq!(batch.verify, VerifyMode::RoundTrip);
        let mut buf = Vec::new();
        PipelinedBatchRequestFrame {
            request_id: 1,
            request: batch,
        }
        .encode_into(&mut buf);
        let (Frame::PipelinedBatchRequest { request: view, .. }, _) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!(view.verify, VerifyMode::RoundTrip);
    }

    #[test]
    fn verify_bits_below_v3_are_rejected_typed() {
        // Versions 1 and 2 defined the flags byte as a bare boolean; a
        // verify-mode request stamped with either is refused at the header
        // rather than read under the current layout.
        let payload = [0u8; 8];
        let mut buf = encode_request(EncodeRequestFrame {
            want_masks: true,
            verify: VerifyMode::RoundTrip,
            ..sample_request(&payload)
        });
        assert_rejected_under(&buf, 1..3);
        // Under the current version, undefined high bits never decode.
        for flags in [0b101, 0x81] {
            buf[FLAGS_AT] = flags;
            assert_eq!(decode_frame(&buf), Err(WireError::UnknownFlags(flags)));
        }
    }

    #[test]
    fn batch_frames_roundtrip_and_enforce_the_count_invariants() {
        let payload = [7u8; 64]; // 8 bursts of 8 bytes
        let request = EncodeRequestFrame {
            session_id: 0xBA7C,
            scheme: Scheme::Opt(CostWeights::new(2, 3).unwrap()),
            cost_model: CostModel::Weights(CostWeights::new(4, 1).unwrap()),
            groups: 4,
            want_masks: true,
            ..sample_request(&payload)
        };
        let batch = EncodeBatchRequestFrame::from_request(&request).unwrap();
        assert_eq!(batch.count, 8);
        let mut buf = Vec::new();
        PipelinedBatchRequestFrame {
            request_id: 3,
            request: batch,
        }
        .encode_into(&mut buf);
        let (
            Frame::PipelinedBatchRequest {
                request_id: 3,
                request: view,
            },
            consumed,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!(consumed, buf.len());
        assert_eq!(view.session_id, batch.session_id);
        assert_eq!(view.scheme, batch.scheme);
        assert_eq!(view.cost_model, batch.cost_model);
        assert_eq!((view.groups, view.burst_len, view.count), (4, 8, 8));
        assert!(view.want_masks);
        assert_eq!(view.payload, &payload);

        // Count-field corruption is a typed error.
        let count_at = BODY_AT + BATCH_REQUEST_HEAD_LEN - 6;
        let mut bad = buf.clone();
        bad[count_at] = 9;
        assert_eq!(
            decode_frame(&bad),
            Err(WireError::BadBatchCount { count: 9, got: 8 })
        );
        let mut bad = buf.clone();
        bad[count_at] = 0;
        assert_eq!(
            decode_frame(&bad),
            Err(WireError::BadBatchCount { count: 0, got: 8 })
        );

        // The response echoes the count and decodes lazily.
        let per_group = [CostBreakdown::new(5, 6); 4];
        let masks = [InversionMask::from_bits(0b11); 8];
        let mut buf = Vec::new();
        PipelinedBatchResponseFrame {
            request_id: 3,
            response: EncodeBatchResponseFrame {
                session_id: 0xBA7C,
                bursts: 8,
                count: 8,
                per_group: &per_group,
                masks: &masks,
            },
        }
        .encode_into(&mut buf);
        let (
            Frame::PipelinedBatchResponse {
                request_id: 3,
                response: view,
            },
            consumed,
        ) = decode_frame(&buf).unwrap()
        else {
            panic!("wrong frame type");
        };
        assert_eq!(consumed, buf.len());
        assert_eq!((view.session_id, view.bursts, view.count), (0xBA7C, 8, 8));
        assert_eq!(view.group_count(), 4);
        assert_eq!(view.mask_count(), 8);
        assert_eq!(view.per_group().collect::<Vec<_>>(), per_group);
        assert_eq!(view.masks().collect::<Vec<_>>(), masks);

        // Record-count corruption is still cross-checked.
        buf[BODY_AT + 20] ^= 1;
        assert_eq!(decode_frame(&buf), Err(WireError::BodyMismatch));
    }

    fn sample_trace_event(request_id: u64) -> TraceEvent {
        TraceEvent {
            request_id,
            session_id: 7,
            enqueue_ns: 1_000 + request_id,
            queue_wait_ns: 10,
            encode_ns: 20,
            verify_ns: 5,
            total_ns: 40,
            bursts: 4,
            scheme_tag: 6,
            outcome: TraceOutcome::Ok,
            shard: 1,
        }
    }

    #[test]
    fn telemetry_frames_roundtrip() {
        let events = [sample_trace_event(1), sample_trace_event(2)];
        let mut buf = Vec::new();
        encode_trace_dump_request(&mut buf, 128);
        encode_trace_dump_response(&mut buf, &events);
        encode_slowlog_request(&mut buf, 16);
        encode_slowlog_response(&mut buf, 1_000_000, &events[..1]);

        let (frame, n1) = decode_frame(&buf).unwrap();
        assert_eq!(frame, Frame::TraceDumpRequest(128));
        let (Frame::TraceDumpResponse(view), n2) = decode_frame(&buf[n1..]).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.event_count(), 2);
        assert_eq!(view.events().collect::<Vec<_>>(), events);
        let (frame, n3) = decode_frame(&buf[n1 + n2..]).unwrap();
        assert_eq!(frame, Frame::SlowlogRequest(16));
        let (Frame::SlowlogResponse(view), n4) = decode_frame(&buf[n1 + n2 + n3..]).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.threshold_ns, 1_000_000);
        assert_eq!(view.entry_count(), 1);
        assert_eq!(view.entries().collect::<Vec<_>>(), &events[..1]);
        assert_eq!(n1 + n2 + n3 + n4, buf.len());

        // Empty dumps decode cleanly too.
        let mut buf = Vec::new();
        encode_trace_dump_response(&mut buf, &[]);
        let (Frame::TraceDumpResponse(view), _) = decode_frame(&buf).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.event_count(), 0);
    }

    #[test]
    fn telemetry_frames_reject_corruption_typed() {
        let events = [sample_trace_event(1)];
        let mut buf = Vec::new();
        encode_trace_dump_response(&mut buf, &events);

        // A count field disagreeing with the body length.
        let mut bad = buf.clone();
        bad[HEADER_LEN] = 2;
        assert_eq!(decode_frame(&bad), Err(WireError::BodyMismatch));

        // An undefined outcome byte is caught eagerly at decode.
        let mut bad = buf.clone();
        bad[HEADER_LEN + 4 + TraceEvent::OUTCOME_BYTE_AT] = 9;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownTraceOutcome(9)));

        // Same checks behind the slowlog's threshold prefix.
        let mut buf = Vec::new();
        encode_slowlog_response(&mut buf, 500, &events);
        let mut bad = buf.clone();
        bad[HEADER_LEN + 8 + 4 + TraceEvent::OUTCOME_BYTE_AT] = 7;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownTraceOutcome(7)));

        // Request bodies must be exactly the u32 bound.
        let mut bad = Vec::new();
        encode_trace_dump_request(&mut bad, 1);
        bad[4..8].copy_from_slice(&5u32.to_le_bytes());
        bad.push(0);
        assert_eq!(decode_frame(&bad), Err(WireError::BodyMismatch));
    }

    #[test]
    fn telemetry_tags_do_not_exist_below_v4() {
        let mut requests = Vec::new();
        encode_trace_dump_request(&mut requests, 8);
        encode_slowlog_request(&mut requests, 8);
        assert_rejected_under(&requests, 1..4);
    }

    #[test]
    fn from_request_rejects_undividable_payloads() {
        let payload = [0u8; 12];
        let request = EncodeRequestFrame {
            session_id: 1,
            scheme: Scheme::Raw,
            cost_model: CostModel::Inline,
            groups: 1,
            burst_len: 8,
            want_masks: false,
            verify: VerifyMode::Off,
            payload: &payload,
        };
        assert!(EncodeBatchRequestFrame::from_request(&request).is_none());
        let ok = EncodeRequestFrame {
            payload: &payload[..8],
            ..request
        };
        assert_eq!(EncodeBatchRequestFrame::from_request(&ok).unwrap().count, 1);
    }

    #[test]
    fn cost_models_roundtrip_and_parse() {
        let named: OperatingPoint = "pod12@3.2".parse().unwrap();
        let models = [
            CostModel::Inline,
            CostModel::Weights(CostWeights::new(3, 1).unwrap()),
            CostModel::Named(named),
        ];
        let payload = [0u8; 8];
        for model in models {
            let buf = encode_request(EncodeRequestFrame {
                scheme: Scheme::OptFixed,
                cost_model: model,
                ..sample_request(&payload)
            });
            assert_eq!(decoded_request(&buf).cost_model, model);
            // The string form round-trips through FromStr as well.
            assert_eq!(model.to_string().parse::<CostModel>().unwrap(), model);
        }
        assert_eq!("inline".parse::<CostModel>().unwrap(), CostModel::Inline);
        assert_eq!(
            "sstl15@6.4".parse::<CostModel>().unwrap(),
            CostModel::Named("sstl15@6.4".parse().unwrap())
        );
        for bad in ["nope", "3", "0,0", "lvds@1", "pod12@0"] {
            assert!(bad.parse::<CostModel>().is_err(), "{bad:?}");
            assert!(!ParseCostModelError(bad.to_owned()).to_string().is_empty());
        }
    }

    #[test]
    fn malformed_cost_model_fields_are_typed_errors() {
        let payload = [0u8; 8];
        let buf = encode_request(EncodeRequestFrame {
            scheme: Scheme::OptFixed,
            cost_model: CostModel::Weights(CostWeights::FIXED),
            ..sample_request(&payload)
        });
        let field_at = BODY_AT + 8 + 1 + CostWeights::WIRE_BYTES;

        // Unknown cost-model tag.
        let mut bad = buf.clone();
        bad[field_at] = 9;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownCostModelTag(9)));

        // Weights model carrying an all-zero (invalid) pair.
        let mut bad = buf.clone();
        bad[field_at + 1..field_at + 1 + CostWeights::WIRE_BYTES].fill(0);
        assert_eq!(decode_frame(&bad), Err(WireError::BadWeights));

        // Named model with an unknown interface, then a zero rate.
        let mut bad = buf.clone();
        bad[field_at] = 2;
        bad[field_at + 1] = 77;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownInterfaceTag(77)));
        let mut bad = buf;
        bad[field_at] = 2;
        bad[field_at + 1] = NamedInterface::Pod12.wire_tag();
        bad[field_at + 5..field_at + 9].fill(0);
        assert_eq!(decode_frame(&bad), Err(WireError::BadDataRate));
    }

    #[test]
    fn durability_admin_frames_roundtrip() {
        let status = SnapshotStatus {
            configured: true,
            compactions: 7,
            snapshots_taken: 3,
            last_sessions: 120,
            last_bytes: 4096,
            restored_sessions: 11,
        };
        let mut buf = Vec::new();
        encode_snapshot_request(&mut buf);
        encode_snapshot_status_request(&mut buf);
        encode_restore_request(&mut buf);
        status.encode_into(&mut buf);

        let (frame, n1) = decode_frame(&buf).unwrap();
        assert_eq!(frame, Frame::SnapshotRequest);
        let (frame, n2) = decode_frame(&buf[n1..]).unwrap();
        assert_eq!(frame, Frame::SnapshotStatusRequest);
        let (frame, n3) = decode_frame(&buf[n1 + n2..]).unwrap();
        assert_eq!(frame, Frame::RestoreRequest);
        let (frame, n4) = decode_frame(&buf[n1 + n2 + n3..]).unwrap();
        assert_eq!(frame, Frame::SnapshotStatus(status));
        assert_eq!(n1 + n2 + n3 + n4, buf.len());

        // The default status (durability off) round-trips too.
        let mut buf = Vec::new();
        SnapshotStatus::default().encode_into(&mut buf);
        let (frame, _) = decode_frame(&buf).unwrap();
        assert_eq!(frame, Frame::SnapshotStatus(SnapshotStatus::default()));
    }

    #[test]
    fn durability_frames_reject_corruption_typed() {
        // Admin requests must carry empty bodies.
        let mut bad = Vec::new();
        encode_snapshot_request(&mut bad);
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        bad.push(0);
        assert_eq!(decode_frame(&bad), Err(WireError::BodyMismatch));

        // The status body is fixed-width: short is truncated, long is a
        // mismatch, and the configured byte is two-valued.
        let mut buf = Vec::new();
        SnapshotStatus {
            configured: true,
            compactions: 1,
            ..SnapshotStatus::default()
        }
        .encode_into(&mut buf);
        let mut short = buf.clone();
        short.truncate(buf.len() - 1);
        short[4..8].copy_from_slice(&((SNAPSHOT_STATUS_WIRE_BYTES - 1) as u32).to_le_bytes());
        assert!(matches!(
            decode_frame(&short),
            Err(WireError::Truncated { .. })
        ));
        let mut long = buf.clone();
        long.push(0);
        long[4..8].copy_from_slice(&((SNAPSHOT_STATUS_WIRE_BYTES + 1) as u32).to_le_bytes());
        assert_eq!(decode_frame(&long), Err(WireError::BodyMismatch));
        let mut bad_flag = buf;
        bad_flag[HEADER_LEN] = 2;
        assert_eq!(decode_frame(&bad_flag), Err(WireError::UnknownFlags(2)));
    }

    #[test]
    fn durability_tags_do_not_exist_below_v6() {
        let mut frames = Vec::new();
        encode_snapshot_request(&mut frames);
        encode_snapshot_status_request(&mut frames);
        encode_restore_request(&mut frames);
        SnapshotStatus::default().encode_into(&mut frames);
        assert_rejected_under(&frames, 1..6);
    }

    #[test]
    fn session_limit_code_roundtrips() {
        let mut buf = Vec::new();
        ErrorFrame {
            code: ErrorCode::SessionLimit,
            message: "shard 0 is at its session limit",
        }
        .encode_into(&mut buf);
        let (Frame::Error(view), _) = decode_frame(&buf).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(view.code, ErrorCode::SessionLimit);
        assert_eq!(ErrorCode::from_u8(11), Ok(ErrorCode::SessionLimit));
        assert_eq!(ErrorCode::from_u8(12), Err(WireError::UnknownErrorCode(12)));
    }
}
