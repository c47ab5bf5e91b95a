//! Decoding errors shared by every protocol codec in this crate.

use core::fmt;

/// An error produced while decoding a frame from its wire representation.
///
/// Decoders are fed attacker-controlled bytes, so every failure mode is a
/// recoverable error rather than a panic.
///
/// # Examples
///
/// ```
/// use kalis_packets::{codec::Decode, ipv4::Ipv4Packet, DecodeError};
/// use bytes::Bytes;
///
/// let mut short = Bytes::from_static(&[0x45, 0x00]);
/// assert!(matches!(Ipv4Packet::decode(&mut short), Err(DecodeError::Truncated { .. })));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer ended before the fixed-size portion of the frame.
    Truncated {
        /// Protocol whose decoder hit the end of input.
        protocol: &'static str,
        /// Bytes needed to make progress.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A field held a value that the protocol does not define.
    InvalidField {
        /// Protocol whose decoder rejected the field.
        protocol: &'static str,
        /// Name of the offending field.
        field: &'static str,
        /// The raw value found on the wire.
        value: u64,
    },
    /// A declared length was inconsistent with the bytes present.
    LengthMismatch {
        /// Protocol whose decoder detected the inconsistency.
        protocol: &'static str,
        /// The declared length.
        declared: usize,
        /// The length actually present.
        actual: usize,
    },
    /// A checksum failed verification.
    BadChecksum {
        /// Protocol whose checksum failed.
        protocol: &'static str,
        /// Checksum carried by the frame.
        found: u16,
        /// Checksum computed over the frame.
        computed: u16,
    },
    /// The payload could not be matched to any known upper-layer protocol.
    UnknownDispatch {
        /// Medium or carrier protocol performing the demultiplexing.
        protocol: &'static str,
        /// The dispatch byte that was not recognized.
        dispatch: u8,
    },
}

impl DecodeError {
    /// Convenience constructor for [`DecodeError::Truncated`].
    pub fn truncated(protocol: &'static str, needed: usize, available: usize) -> Self {
        DecodeError::Truncated {
            protocol,
            needed,
            available,
        }
    }

    /// Convenience constructor for [`DecodeError::InvalidField`].
    pub(crate) fn invalid(protocol: &'static str, field: &'static str, value: u64) -> Self {
        DecodeError::InvalidField {
            protocol,
            field,
            value,
        }
    }

    /// The protocol whose decoder produced this error.
    pub fn protocol(&self) -> &'static str {
        match self {
            DecodeError::Truncated { protocol, .. }
            | DecodeError::InvalidField { protocol, .. }
            | DecodeError::LengthMismatch { protocol, .. }
            | DecodeError::BadChecksum { protocol, .. }
            | DecodeError::UnknownDispatch { protocol, .. } => protocol,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated {
                protocol,
                needed,
                available,
            } => write!(
                f,
                "{protocol}: truncated frame (needed {needed} bytes, had {available})"
            ),
            DecodeError::InvalidField {
                protocol,
                field,
                value,
            } => write!(f, "{protocol}: invalid value {value:#x} for field `{field}`"),
            DecodeError::LengthMismatch {
                protocol,
                declared,
                actual,
            } => write!(
                f,
                "{protocol}: declared length {declared} does not match actual {actual}"
            ),
            DecodeError::BadChecksum {
                protocol,
                found,
                computed,
            } => write!(
                f,
                "{protocol}: checksum mismatch (frame carries {found:#06x}, computed {computed:#06x})"
            ),
            DecodeError::UnknownDispatch { protocol, dispatch } => {
                write!(f, "{protocol}: unknown dispatch byte {dispatch:#04x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = DecodeError::truncated("ipv4", 20, 2);
        let msg = err.to_string();
        assert!(msg.contains("ipv4"));
        assert!(msg.contains("20"));
        assert!(msg.contains('2'));
    }

    #[test]
    fn protocol_accessor_matches_all_variants() {
        let cases = [
            DecodeError::truncated("a", 1, 0),
            DecodeError::invalid("b", "f", 9),
            DecodeError::LengthMismatch {
                protocol: "c",
                declared: 4,
                actual: 2,
            },
            DecodeError::BadChecksum {
                protocol: "d",
                found: 1,
                computed: 2,
            },
            DecodeError::UnknownDispatch {
                protocol: "e",
                dispatch: 0xff,
            },
        ];
        let protos: Vec<_> = cases.iter().map(|c| c.protocol()).collect();
        assert_eq!(protos, vec!["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", DecodeError::truncated("x", 1, 0)).is_empty());
    }
}
