//! RFC 4360 extended communities (64 bits), carried for completeness so the
//! wire codec and MRT writer can round-trip real-world-shaped updates.

use std::fmt;

/// An RFC 4360 extended community: 8 bytes, the first one or two of which
/// encode type/subtype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtendedCommunity(u64);

/// Extended community types we construct explicitly; everything else is
/// preserved opaquely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtCommunityKind {
    /// Two-octet-AS Route Target (type 0x00, subtype 0x02).
    RouteTarget2 {
        /// Administrator ASN (16-bit).
        asn: u16,
        /// Assigned number.
        value: u32,
    },
    /// Two-octet-AS Route Origin (type 0x00, subtype 0x03).
    RouteOrigin2 {
        /// Administrator ASN (16-bit).
        asn: u16,
        /// Assigned number.
        value: u32,
    },
    /// Anything else, kept opaque.
    Opaque(u64),
}

impl ExtendedCommunity {
    /// Creates from the raw 64-bit value (big-endian wire order).
    pub const fn from_u64(raw: u64) -> Self {
        ExtendedCommunity(raw)
    }

    /// The high type byte.
    const fn type_byte(self) -> u8 {
        (self.0 >> 56) as u8
    }

    /// The subtype byte (meaningful for most type values).
    const fn subtype_byte(self) -> u8 {
        (self.0 >> 48) as u8
    }

    /// True if the transitive bit is clear (bit 6 of the type byte set means
    /// *non*-transitive per RFC 4360).
    pub const fn is_transitive(self) -> bool {
        self.type_byte() & 0x40 == 0
    }

    /// Builds a two-octet-AS route target.
    pub fn route_target(asn: u16, value: u32) -> Self {
        ExtendedCommunity((0x02u64 << 48) | ((asn as u64) << 32) | value as u64)
    }

    /// Classifies into the kinds we understand.
    pub fn kind(self) -> ExtCommunityKind {
        match (self.type_byte(), self.subtype_byte()) {
            (0x00, 0x02) => ExtCommunityKind::RouteTarget2 {
                asn: (self.0 >> 32) as u16,
                value: self.0 as u32,
            },
            (0x00, 0x03) => ExtCommunityKind::RouteOrigin2 {
                asn: (self.0 >> 32) as u16,
                value: self.0 as u32,
            },
            _ => ExtCommunityKind::Opaque(self.0),
        }
    }

    /// Encodes to the 8-byte wire form.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Decodes from the 8-byte wire form.
    pub fn from_bytes(b: [u8; 8]) -> Self {
        ExtendedCommunity(u64::from_be_bytes(b))
    }
}

impl fmt::Display for ExtendedCommunity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            ExtCommunityKind::RouteTarget2 { asn, value } => write!(f, "rt:{asn}:{value}"),
            ExtCommunityKind::RouteOrigin2 { asn, value } => write!(f, "soo:{asn}:{value}"),
            ExtCommunityKind::Opaque(raw) => write!(f, "ext:0x{raw:016x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_target_roundtrip() {
        let rt = ExtendedCommunity::route_target(65001, 100);
        assert_eq!(
            rt.kind(),
            ExtCommunityKind::RouteTarget2 {
                asn: 65001,
                value: 100
            }
        );
        assert_eq!(rt.to_string(), "rt:65001:100");
        assert!(rt.is_transitive());
        assert_eq!(ExtendedCommunity::from_bytes(rt.to_bytes()), rt);
    }

    #[test]
    fn route_origin_roundtrip() {
        let so = ExtendedCommunity::from_u64(0x0003_0B62_0000_0007);
        assert_eq!(so.to_string(), "soo:2914:7");
        assert_eq!(
            so.kind(),
            ExtCommunityKind::RouteOrigin2 {
                asn: 2914,
                value: 7
            }
        );
    }

    #[test]
    fn opaque_preserved() {
        let raw = 0x43AB_0000_DEAD_BEEFu64;
        let ec = ExtendedCommunity::from_u64(raw);
        assert_eq!(ec.kind(), ExtCommunityKind::Opaque(raw));
        assert!(!ec.is_transitive(), "0x40 bit set means non-transitive");
        assert_eq!(ec.to_string(), format!("ext:0x{raw:016x}"));
    }

    #[test]
    fn byte_layout_is_big_endian() {
        let rt = ExtendedCommunity::route_target(0x1234, 0x5678_9ABC);
        assert_eq!(
            rt.to_bytes(),
            [0x00, 0x02, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC]
        );
    }
}
