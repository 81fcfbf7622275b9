//! Error types for the `dbi-mem` crate.

use core::fmt;

/// Errors returned by the memory-channel model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// The payload length of a write does not match the channel's access
    /// granularity (lane groups × burst length).
    BadAccessSize {
        /// Bytes supplied by the caller.
        got: usize,
        /// Bytes required per access.
        expected: usize,
    },
    /// A channel was configured with a bus width that is not a multiple of
    /// eight data lanes.
    BadBusWidth(u32),
    /// A channel was configured with a zero burst length.
    ZeroBurstLength,
    /// A decode (or transmit) stream call was handed a different number of
    /// inversion masks than the stream holds bursts.
    BadMaskCount {
        /// Masks supplied by the caller.
        got: usize,
        /// Bursts in the stream (accesses × lane groups).
        expected: usize,
    },
    /// An inversion mask in a decode (or transmit) stream references beats
    /// beyond the session's burst length.
    BadMask {
        /// Position of the offending mask in transmission order.
        index: usize,
        /// The session's burst length in beats.
        burst_len: usize,
    },
    /// A verify replay recovered payload bytes that differ from the
    /// payload the transmitter sent.
    PayloadMismatch {
        /// First differing byte, in the payload's beat-interleaved layout.
        byte_offset: usize,
    },
    /// A verify replay re-priced a lane group's received wire activity
    /// differently from the transmitter's accounting.
    ActivityMismatch {
        /// The first lane group whose activity differs.
        group: usize,
    },
    /// A verify replay left a lane group's receiver in a different end
    /// state from the transmitter's post-dispatch state.
    EndStateMismatch {
        /// The first lane group whose end state differs.
        group: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::BadAccessSize { got, expected } => {
                write!(f, "access payload of {got} bytes does not match the channel granularity of {expected} bytes")
            }
            MemError::BadBusWidth(width) => {
                write!(
                    f,
                    "bus width {width} is not a positive multiple of 8 data lanes"
                )
            }
            MemError::ZeroBurstLength => write!(f, "burst length must be at least 1"),
            MemError::BadMaskCount { got, expected } => {
                write!(
                    f,
                    "mask count {got} does not match the {expected} bursts in the stream \
                     (one mask per burst in transmission order)"
                )
            }
            MemError::BadMask { index, burst_len } => {
                write!(
                    f,
                    "inversion mask {index} references beats beyond the {burst_len}-beat burst"
                )
            }
            MemError::PayloadMismatch { byte_offset } => write!(
                f,
                "recovered payload first differs from the sent one at byte {byte_offset}"
            ),
            MemError::ActivityMismatch { group } => write!(
                f,
                "receiver-side activity of lane group {group} differs from the transmitter's"
            ),
            MemError::EndStateMismatch { group } => write!(
                f,
                "receiver end state of lane group {group} differs from the transmitter's"
            ),
        }
    }
}

impl std::error::Error for MemError {}

/// Convenience alias used throughout the crate.
pub type Result<T, E = MemError> = core::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MemError::BadAccessSize {
            got: 3,
            expected: 32
        }
        .to_string()
        .contains("32"));
        assert!(MemError::BadBusWidth(12).to_string().contains("12"));
        assert!(MemError::ZeroBurstLength
            .to_string()
            .contains("burst length"));
        assert!(MemError::BadMaskCount {
            got: 3,
            expected: 8
        }
        .to_string()
        .contains("3"));
        assert!(MemError::BadMask {
            index: 2,
            burst_len: 8
        }
        .to_string()
        .contains("mask 2"));
        assert!(MemError::PayloadMismatch { byte_offset: 17 }
            .to_string()
            .contains("byte 17"));
        assert!(MemError::ActivityMismatch { group: 3 }
            .to_string()
            .contains("group 3"));
        assert!(MemError::EndStateMismatch { group: 5 }
            .to_string()
            .contains("group 5"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<MemError>();
    }
}
