//! RFC 1997 BGP communities and the small set of well-known values the paper
//! discusses (NO_EXPORT, NO_ADVERTISE, NOPEER, BLACKHOLE, …).
//!
//! A community is an opaque 32-bit tag. By convention the high-order 16 bits
//! name the AS that *defines* the community and the low-order 16 bits encode
//! an action or label chosen by that AS — e.g. `2914:421` is NTT's
//! "prepend once" service. Nothing enforces the convention: any AS on the
//! path may add, delete, or modify any community (§2), which is precisely
//! the paper's can of worms.

use crate::asn::Asn;
use crate::error::TypeError;
use std::fmt;
use std::str::FromStr;

/// The conventional low-order value for blackholing, standardized by
/// RFC 7999 as `65535:666` and used with provider ASNs as `ASN:666` — the
/// value that triggers an AS's blackhole service, the convention every
/// offering in §6.2 and §7.3 follows.
pub const BLACKHOLE_VALUE: u16 = 666;

/// An RFC 1997 community: an opaque 32-bit value, displayed `high:low`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community(u32);

/// The well-known communities from the IANA registry that carry
/// standardized, possibly disruptive semantics (§2, §8 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WellKnown {
    /// `65535:0` GRACEFUL_SHUTDOWN (RFC 8326).
    GracefulShutdown,
    /// `65535:666` BLACKHOLE (RFC 7999): drop traffic to the prefix.
    Blackhole,
    /// `65535:65281` NO_EXPORT: do not advertise outside the AS
    /// (confederation).
    NoExport,
    /// `65535:65282` NO_ADVERTISE: do not advertise to any peer.
    NoAdvertise,
    /// `65535:65283` NO_EXPORT_SUBCONFED.
    NoExportSubconfed,
    /// `65535:65284` NOPEER (RFC 3765): do not propagate over bilateral
    /// peering links.
    NoPeer,
}

impl WellKnown {
    /// All registry entries, in numeric order.
    pub const ALL: [WellKnown; 6] = [
        WellKnown::GracefulShutdown,
        WellKnown::Blackhole,
        WellKnown::NoExport,
        WellKnown::NoAdvertise,
        WellKnown::NoExportSubconfed,
        WellKnown::NoPeer,
    ];

    /// The raw community value.
    pub const fn community(self) -> Community {
        match self {
            WellKnown::GracefulShutdown => Community(0xFFFF_0000),
            WellKnown::Blackhole => Community(0xFFFF_029A),
            WellKnown::NoExport => Community(0xFFFF_FF01),
            WellKnown::NoAdvertise => Community(0xFFFF_FF02),
            WellKnown::NoExportSubconfed => Community(0xFFFF_FF03),
            WellKnown::NoPeer => Community(0xFFFF_FF04),
        }
    }

    /// The IANA name.
    pub const fn name(self) -> &'static str {
        match self {
            WellKnown::GracefulShutdown => "GRACEFUL_SHUTDOWN",
            WellKnown::Blackhole => "BLACKHOLE",
            WellKnown::NoExport => "NO_EXPORT",
            WellKnown::NoAdvertise => "NO_ADVERTISE",
            WellKnown::NoExportSubconfed => "NO_EXPORT_SUBCONFED",
            WellKnown::NoPeer => "NOPEER",
        }
    }
}

impl Community {
    /// The RFC 7999 well-known blackhole community `65535:666`.
    pub const BLACKHOLE: Community = Community(0xFFFF_029A);
    /// NO_EXPORT `65535:65281`.
    pub const NO_EXPORT: Community = Community(0xFFFF_FF01);
    /// NO_ADVERTISE `65535:65282`.
    pub const NO_ADVERTISE: Community = Community(0xFFFF_FF02);
    /// NO_EXPORT_SUBCONFED `65535:65283`.
    pub const NO_EXPORT_SUBCONFED: Community = Community(0xFFFF_FF03);
    /// NOPEER `65535:65284` (RFC 3765).
    pub const NO_PEER: Community = Community(0xFFFF_FF04);

    /// Builds a community from the conventional `(ASN, value)` halves.
    #[inline]
    pub const fn new(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// Builds a community from its raw 32-bit representation.
    #[inline]
    pub const fn from_u32(raw: u32) -> Self {
        Community(raw)
    }

    /// The raw 32-bit value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The high-order 16 bits — conventionally the defining AS.
    #[inline]
    pub const fn asn_part(self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low-order 16 bits — the AS-specific action or label.
    #[inline]
    pub const fn value_part(self) -> u16 {
        self.0 as u16
    }

    /// The conventional owner AS, as an [`Asn`]. Only meaningful when the
    /// community follows the `AS:value` convention (the paper's §4 analyses
    /// assume it, as do we).
    #[inline]
    pub fn owner(self) -> Asn {
        Asn::new(u32::from(self.asn_part()))
    }

    /// True if this is one of the six IANA well-known communities.
    pub fn well_known(self) -> Option<WellKnown> {
        WellKnown::ALL.into_iter().find(|w| w.community() == self)
    }

    /// True if the low half is the conventional blackhole value 666, whether
    /// the high half is 65535 (RFC 7999) or a provider ASN (`ASN:666`).
    #[inline]
    pub fn has_blackhole_value(self) -> bool {
        self.value_part() == BLACKHOLE_VALUE
    }

    /// True if the conventional owner half is a private-use ASN
    /// (excluded from the paper's off-path statistics).
    pub fn owner_is_private(self) -> bool {
        self.owner().is_private()
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn_part(), self.value_part())
    }
}

impl FromStr for Community {
    type Err = TypeError;

    /// Parses the presentation format `high:low`, e.g. `"3130:411"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (hi, lo) = s
            .split_once(':')
            .ok_or_else(|| TypeError::parse("community", s))?;
        let hi: u16 = hi.parse().map_err(|_| TypeError::parse("community", s))?;
        let lo: u16 = lo.parse().map_err(|_| TypeError::parse("community", s))?;
        Ok(Community::new(hi, lo))
    }
}

impl From<u32> for Community {
    fn from(raw: u32) -> Self {
        Community(raw)
    }
}

impl From<Community> for u32 {
    fn from(c: Community) -> Self {
        c.0
    }
}

/// Normalizes a community list the way Cisco and Juniper do before display
/// and transmission: numerically sorted, duplicates removed (§6.3).
pub fn normalize(communities: &mut Vec<Community>) {
    communities.sort_unstable();
    communities.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halves_roundtrip() {
        let c = Community::new(3130, 411);
        assert_eq!(c.asn_part(), 3130);
        assert_eq!(c.value_part(), 411);
        assert_eq!(c.as_u32(), (3130 << 16) | 411);
        assert_eq!(c.owner(), Asn::new(3130));
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in ["0:0", "3130:411", "65535:666", "65535:65281"] {
            let c: Community = s.parse().unwrap();
            assert_eq!(c.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Community>().is_err());
        assert!("3130".parse::<Community>().is_err());
        assert!("3130:".parse::<Community>().is_err());
        assert!(":411".parse::<Community>().is_err());
        assert!("70000:1".parse::<Community>().is_err());
        assert!("1:70000".parse::<Community>().is_err());
        assert!("a:b".parse::<Community>().is_err());
    }

    #[test]
    fn well_known_values_match_registry() {
        assert_eq!(
            WellKnown::NoExport.community().as_u32(),
            0xFFFF_FF01,
            "NO_EXPORT is 65535:65281"
        );
        assert_eq!(Community::new(65535, 65281), Community::NO_EXPORT);
        assert_eq!(Community::new(65535, 65284), Community::NO_PEER);
        assert_eq!(Community::new(65535, 666), Community::BLACKHOLE);
        assert_eq!(
            Community::BLACKHOLE.well_known(),
            Some(WellKnown::Blackhole)
        );
        assert_eq!(Community::new(2914, 421).well_known(), None);
    }

    #[test]
    fn blackhole_value_detection() {
        assert!(Community::BLACKHOLE.has_blackhole_value());
        assert!(Community::new(3320, 666).has_blackhole_value());
        assert!(!Community::new(3320, 667).has_blackhole_value());
    }

    #[test]
    fn private_owner_detection() {
        assert!(Community::new(64512, 100).owner_is_private());
        assert!(Community::new(65000, 1).owner_is_private());
        assert!(!Community::new(2914, 421).owner_is_private());
        // 65535 is reserved, not private
        assert!(!Community::BLACKHOLE.owner_is_private());
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut v = vec![
            Community::new(100, 2),
            Community::new(1, 9),
            Community::new(100, 2),
            Community::new(1, 1),
        ];
        normalize(&mut v);
        assert_eq!(
            v,
            vec![
                Community::new(1, 1),
                Community::new(1, 9),
                Community::new(100, 2),
            ]
        );
    }

    #[test]
    fn well_known_names() {
        assert_eq!(WellKnown::Blackhole.name(), "BLACKHOLE");
        assert_eq!(WellKnown::NoPeer.name(), "NOPEER");
        assert_eq!(WellKnown::ALL.len(), 6);
    }
}
