//! Structured decode/encode errors for the BGP wire codec.

use std::fmt;

/// Errors raised while encoding or decoding BGP wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before a field could be read.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// The 16-byte all-ones marker was malformed.
    BadMarker,
    /// The header length field is outside [19, 4096] or disagrees with the
    /// message type's minimum.
    BadMessageLength(u16),
    /// Unknown message type code.
    UnknownMessageType(u8),
    /// An attribute's flags are invalid for its type (e.g. well-known
    /// attribute marked optional).
    BadAttributeFlags {
        /// Attribute type code.
        type_code: u8,
        /// Offending flag byte.
        flags: u8,
    },
    /// An attribute's declared length is wrong for its type.
    BadAttributeLength {
        /// Attribute type code.
        type_code: u8,
        /// Declared length.
        len: usize,
    },
    /// A prefix length in NLRI exceeds the maximum for its address family.
    BadPrefixLength(u8),
    /// An AS_PATH segment has an unknown segment type.
    BadSegmentType(u8),
    /// Invalid ORIGIN attribute value.
    BadOrigin(u8),
    /// MP_REACH/MP_UNREACH with an AFI/SAFI pair we do not support.
    UnsupportedAfiSafi {
        /// Address Family Identifier.
        afi: u16,
        /// Subsequent AFI.
        safi: u8,
    },
    /// A message would exceed the 4096-byte maximum when encoded, or a
    /// section of one (an attribute, the withdrawn routes) the length field
    /// in front of it.
    TooLong(usize),
    /// A value cannot be represented in the negotiated encoding
    /// (e.g. a 32-bit ASN on a 2-octet session is replaced by AS_TRANS;
    /// this error is for cases with no such fallback).
    Unrepresentable(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated {
                what,
                needed,
                available,
            } => write!(
                f,
                "truncated input reading {what}: need {needed} bytes, have {available}"
            ),
            WireError::BadMarker => write!(f, "malformed 16-byte message marker"),
            WireError::BadMessageLength(l) => write!(f, "invalid message length {l}"),
            WireError::UnknownMessageType(t) => write!(f, "unknown BGP message type {t}"),
            WireError::BadAttributeFlags { type_code, flags } => write!(
                f,
                "invalid flags 0x{flags:02x} for attribute type {type_code}"
            ),
            WireError::BadAttributeLength { type_code, len } => {
                write!(f, "invalid length {len} for attribute type {type_code}")
            }
            WireError::BadPrefixLength(l) => write!(f, "invalid NLRI prefix length /{l}"),
            WireError::BadSegmentType(t) => write!(f, "unknown AS_PATH segment type {t}"),
            WireError::BadOrigin(v) => write!(f, "invalid ORIGIN value {v}"),
            WireError::UnsupportedAfiSafi { afi, safi } => {
                write!(f, "unsupported AFI/SAFI {afi}/{safi}")
            }
            WireError::TooLong(l) => write!(
                f,
                "{l} encoded bytes do not fit (a message holds 4096, an attribute 65535)"
            ),
            WireError::Unrepresentable(what) => {
                write!(f, "value not representable on this session: {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WireError::Truncated {
            what: "attribute header",
            needed: 3,
            available: 1,
        };
        assert!(e.to_string().contains("attribute header"));
        assert!(WireError::BadMarker.to_string().contains("marker"));
        assert!(WireError::UnsupportedAfiSafi { afi: 3, safi: 9 }
            .to_string()
            .contains("3/9"));
    }
}
