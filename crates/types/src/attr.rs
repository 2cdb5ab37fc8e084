//! Logical path attributes of a BGP UPDATE: ORIGIN, AS_PATH, NEXT_HOP,
//! MED, LOCAL_PREF, communities of all three flavours, plus opaque unknown
//! attributes preserved for transit.

use crate::asn::Asn;
use crate::aspath::AsPath;
use crate::community::Community;
use crate::ext_community::ExtendedCommunity;
use crate::large_community::LargeCommunity;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr};

/// RFC 4271 ORIGIN attribute. Lower is preferred in best-path selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Origin {
    /// Learned from an interior protocol (value 0).
    #[default]
    Igp,
    /// Learned via EGP (value 1).
    Egp,
    /// Origin unknown (value 2).
    Incomplete,
}

impl Origin {
    /// Wire value (0/1/2).
    pub const fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Decodes the wire value.
    pub const fn from_code(code: u8) -> Option<Origin> {
        match code {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Origin::Igp => "IGP",
            Origin::Egp => "EGP",
            Origin::Incomplete => "INCOMPLETE",
        })
    }
}

/// RFC 4271 AGGREGATOR attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Aggregator {
    /// AS that performed aggregation.
    pub asn: Asn,
    /// Router ID of the aggregating speaker.
    pub router_id: Ipv4Addr,
}

/// An attribute we do not interpret, preserved byte-for-byte. Transitive
/// unknown attributes must be forwarded (RFC 4271 §5) — the same design
/// decision that makes communities propagate so far.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnknownAttribute {
    /// Original attribute flags byte.
    pub flags: u8,
    /// Attribute type code.
    pub type_code: u8,
    /// Raw attribute value.
    pub data: Vec<u8>,
}

impl UnknownAttribute {
    /// True if the transitive bit is set.
    pub const fn is_transitive(&self) -> bool {
        self.flags & 0x40 != 0
    }
}

/// The complete set of path attributes attached to an announcement.
///
/// `local_pref` is meaningful on iBGP sessions and inside our simulated
/// routers' decision process; it is never encoded on eBGP sessions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathAttributes {
    /// ORIGIN (mandatory).
    pub origin: Origin,
    /// AS_PATH (mandatory), collector-first.
    pub as_path: AsPath,
    /// NEXT_HOP (mandatory for IPv4 NLRI).
    pub next_hop: Option<IpAddr>,
    /// MULTI_EXIT_DISC.
    pub med: Option<u32>,
    /// LOCAL_PREF.
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE marker.
    pub atomic_aggregate: bool,
    /// AGGREGATOR.
    pub aggregator: Option<Aggregator>,
    /// RFC 1997 communities, kept in announcement order until
    /// [`crate::community::normalize`]d.
    pub communities: Vec<Community>,
    /// RFC 8092 large communities.
    pub large_communities: Vec<LargeCommunity>,
    /// RFC 4360 extended communities.
    pub ext_communities: Vec<ExtendedCommunity>,
    /// Unrecognized attributes preserved for transit.
    pub unknown: Vec<UnknownAttribute>,
}

impl PathAttributes {
    /// True if at least one classic community is attached — the quantity
    /// behind "75 % of announcements have at least one community set" (§4.2).
    pub fn has_communities(&self) -> bool {
        !self.communities.is_empty()
    }

    /// Adds a community if not already present.
    pub fn add_community(&mut self, c: Community) {
        if !self.communities.contains(&c) {
            self.communities.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_codes_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(Origin::from_code(o.code()), Some(o));
        }
        assert_eq!(Origin::from_code(3), None);
    }

    #[test]
    fn origin_preference_order() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn origin_display() {
        assert_eq!(Origin::Igp.to_string(), "IGP");
        assert_eq!(Origin::Incomplete.to_string(), "INCOMPLETE");
    }

    #[test]
    fn unknown_attribute_flag_bits() {
        let a = UnknownAttribute {
            flags: 0xC0,
            type_code: 99,
            data: vec![1, 2, 3],
        };
        assert!(a.is_transitive());
        let b = UnknownAttribute {
            flags: 0x80,
            type_code: 99,
            data: vec![],
        };
        assert!(!b.is_transitive());
    }

    #[test]
    fn community_helpers() {
        let mut attrs = PathAttributes::default();
        assert!(!attrs.has_communities());
        attrs.add_community(Community::new(2914, 421));
        attrs.add_community(Community::new(2914, 421)); // dedup
        attrs.add_community(Community::new(3320, 666));
        assert!(attrs.has_communities());
        assert_eq!(attrs.communities.len(), 2);
    }
}
