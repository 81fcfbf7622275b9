//! Error types of the encode service.
//!
//! Two layers of failure exist and are kept apart deliberately:
//!
//! * [`ServiceError`] — the engine refused or failed a request
//!   (overload, bad geometry, session mismatch, ...). These map one-to-one
//!   onto wire [`ErrorCode`]s so a TCP client sees
//!   the same taxonomy an in-process caller does.
//! * [`ClientError`] — everything that can go wrong *talking to* the
//!   service over a socket: transport failures, malformed frames, or a
//!   remote [`ServiceError`] relayed as an error frame.

use crate::wire::{ErrorCode, WireError};
use core::fmt;
use std::io;

/// An error produced by the service engine while admitting or executing a
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The target shard's bounded queue was full — explicit backpressure.
    /// The request was not executed; retrying later is safe.
    Overloaded {
        /// Index of the shard that rejected the request.
        shard: usize,
    },
    /// The engine is shutting down and no longer admits requests.
    ShuttingDown,
    /// The requested channel geometry is outside the supported range
    /// (groups ≥ 1, 1 ≤ burst length ≤ 32).
    BadGeometry {
        /// Requested number of lane groups.
        groups: u16,
        /// Requested burst length in beats.
        burst_len: u8,
    },
    /// The payload is empty or not a whole number of accesses.
    BadPayload {
        /// Bytes supplied by the caller.
        got: usize,
        /// Required access granularity (groups × burst length).
        expected_multiple: usize,
    },
    /// The payload exceeds the engine's configured per-request limit.
    PayloadTooLarge {
        /// Bytes supplied by the caller.
        got: usize,
        /// Configured maximum.
        max: usize,
    },
    /// An explicit cost model was supplied for a scheme that takes no
    /// cost coefficients (only `Opt`, `OptFixed` and `Greedy` do).
    BadCostModel {
        /// Display name of the scheme that cannot be re-weighted.
        scheme: String,
    },
    /// A batch request's burst-count field is zero or disagrees with its
    /// payload.
    BadBatchCount {
        /// The count field supplied by the caller.
        count: u16,
        /// Bursts the payload actually holds.
        got: u64,
    },
    /// A verify-mode request's output failed to decode back to its input:
    /// the engine found an encode/decode asymmetry instead of silently
    /// returning the result. The session's carried state includes the
    /// failed request's bursts (the wires were, notionally, driven).
    VerifyMismatch {
        /// The session whose round trip failed.
        session_id: u64,
        /// First payload byte offset that decoded differently, or `None`
        /// when the payload matched but the receiver-side wire activity
        /// or a carried lane state diverged.
        byte_offset: Option<u64>,
    },
    /// A session id was reused with a different scheme or geometry than
    /// the one that created it. Reset the session first.
    SessionMismatch {
        /// The session id whose configuration did not match.
        session_id: u64,
    },
    /// The target shard already holds its configured maximum number of
    /// sessions, every one of them was touched by the pass in flight, and
    /// so none can be evicted to make room — the bound that stops a peer
    /// cycling through fresh session ids from exhausting memory. Idle
    /// sessions are evicted instead of rejected, so this is transient.
    SessionLimit {
        /// Index of the shard that is full.
        shard: usize,
    },
    /// A durability admin operation (snapshot, restore) was requested but
    /// the engine was started without a persist directory configured.
    PersistenceDisabled,
    /// A durability operation failed against the persist directory.
    Persistence {
        /// Human-readable description of the underlying failure.
        detail: String,
    },
    /// An invariant the engine relies on was violated; indicates a bug.
    Internal(&'static str),
}

impl ServiceError {
    /// The wire error code this error is transported as.
    #[must_use]
    pub fn code(&self) -> ErrorCode {
        match self {
            ServiceError::Overloaded { .. } => ErrorCode::Overloaded,
            ServiceError::ShuttingDown => ErrorCode::ShuttingDown,
            ServiceError::BadGeometry { .. } => ErrorCode::BadGeometry,
            ServiceError::BadPayload { .. } | ServiceError::PayloadTooLarge { .. } => {
                ErrorCode::BadPayload
            }
            ServiceError::BadCostModel { .. } => ErrorCode::BadCostModel,
            ServiceError::BadBatchCount { .. } => ErrorCode::BadRequest,
            ServiceError::VerifyMismatch { .. } => ErrorCode::VerifyMismatch,
            ServiceError::SessionMismatch { .. } => ErrorCode::SessionMismatch,
            ServiceError::SessionLimit { .. } => ErrorCode::SessionLimit,
            ServiceError::PersistenceDisabled => ErrorCode::BadRequest,
            ServiceError::Persistence { .. } => ErrorCode::Internal,
            ServiceError::Internal(_) => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { shard } => {
                write!(f, "shard {shard} queue is full, request rejected")
            }
            ServiceError::ShuttingDown => write!(f, "the service is shutting down"),
            ServiceError::BadGeometry { groups, burst_len } => write!(
                f,
                "geometry {groups} groups x burst length {burst_len} is outside the supported range"
            ),
            ServiceError::BadPayload {
                got,
                expected_multiple,
            } => write!(
                f,
                "payload of {got} bytes is not a positive multiple of the {expected_multiple}-byte access size"
            ),
            ServiceError::PayloadTooLarge { got, max } => {
                write!(f, "payload of {got} bytes exceeds the {max}-byte limit")
            }
            ServiceError::BadCostModel { scheme } => write!(
                f,
                "scheme {scheme} takes no cost coefficients; use an Opt or Greedy scheme \
                 with an explicit cost model"
            ),
            ServiceError::BadBatchCount { count, got } => write!(
                f,
                "batch count field of {count} disagrees with the {got} bursts in the payload"
            ),
            ServiceError::VerifyMismatch {
                session_id,
                byte_offset,
            } => match byte_offset {
                Some(offset) => write!(
                    f,
                    "verify failed for session {session_id}: decoded output first \
                     diverges from the payload at byte {offset}"
                ),
                None => write!(
                    f,
                    "verify failed for session {session_id}: receiver-side activity \
                     or carried lane state diverged from the transmitter's"
                ),
            },
            ServiceError::SessionMismatch { session_id } => write!(
                f,
                "session {session_id} already exists with a different scheme or geometry"
            ),
            ServiceError::SessionLimit { shard } => write!(
                f,
                "shard {shard} is at its session limit, new session rejected"
            ),
            ServiceError::PersistenceDisabled => write!(
                f,
                "durability is not configured; start the engine with a persist directory"
            ),
            ServiceError::Persistence { detail } => {
                write!(f, "durability operation failed: {detail}")
            }
            ServiceError::Internal(what) => write!(f, "internal service error: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// An error observed by a client while talking to the service.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed (connect, read or write).
    Io(io::Error),
    /// A frame received from the peer could not be decoded.
    Wire(WireError),
    /// The service answered with an error frame.
    Remote {
        /// The typed error code from the frame.
        code: ErrorCode,
        /// The human-readable detail message from the frame.
        message: String,
    },
    /// The service answered with a frame of the wrong type for the
    /// request, or with the completion of a different request.
    UnexpectedResponse,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::Wire(err) => write!(f, "protocol error: {err}"),
            ClientError::Remote { code, message } => {
                write!(f, "service error {code:?}: {message}")
            }
            ClientError::UnexpectedResponse => {
                write!(f, "the service answered with an unexpected frame type")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(err) => Some(err),
            ClientError::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_errors_map_to_wire_codes() {
        let cases = [
            (ServiceError::Overloaded { shard: 3 }, ErrorCode::Overloaded),
            (ServiceError::ShuttingDown, ErrorCode::ShuttingDown),
            (
                ServiceError::BadGeometry {
                    groups: 0,
                    burst_len: 8,
                },
                ErrorCode::BadGeometry,
            ),
            (
                ServiceError::BadPayload {
                    got: 5,
                    expected_multiple: 32,
                },
                ErrorCode::BadPayload,
            ),
            (
                ServiceError::PayloadTooLarge { got: 9, max: 4 },
                ErrorCode::BadPayload,
            ),
            (
                ServiceError::BadCostModel {
                    scheme: "RAW".to_owned(),
                },
                ErrorCode::BadCostModel,
            ),
            (
                ServiceError::BadBatchCount { count: 3, got: 4 },
                ErrorCode::BadRequest,
            ),
            (
                ServiceError::VerifyMismatch {
                    session_id: 4,
                    byte_offset: Some(17),
                },
                ErrorCode::VerifyMismatch,
            ),
            (
                ServiceError::VerifyMismatch {
                    session_id: 4,
                    byte_offset: None,
                },
                ErrorCode::VerifyMismatch,
            ),
            (
                ServiceError::SessionMismatch { session_id: 1 },
                ErrorCode::SessionMismatch,
            ),
            (
                ServiceError::SessionLimit { shard: 2 },
                ErrorCode::SessionLimit,
            ),
            (ServiceError::PersistenceDisabled, ErrorCode::BadRequest),
            (
                ServiceError::Persistence {
                    detail: "disk on fire".to_owned(),
                },
                ErrorCode::Internal,
            ),
            (ServiceError::Internal("x"), ErrorCode::Internal),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code);
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with("geometry"));
        }
    }

    #[test]
    fn client_error_displays_and_sources() {
        use std::error::Error;
        let io_err: ClientError = io::Error::other("boom").into();
        assert!(io_err.to_string().contains("boom"));
        assert!(io_err.source().is_some());
        let remote = ClientError::Remote {
            code: ErrorCode::Overloaded,
            message: "busy".to_owned(),
        };
        assert!(remote.to_string().contains("busy"));
        assert!(remote.source().is_none());
    }
}
