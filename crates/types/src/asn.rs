//! Autonomous System numbers, including the RFC 6996 private ranges and
//! RFC 7300 reserved values that the paper's off-path analysis must treat
//! specially.

use crate::error::TypeError;
use std::fmt;
use std::str::FromStr;

/// An Autonomous System number (32-bit per RFC 6793).
///
/// The classic community attribute can only encode 16-bit ASNs in its
/// high-order half; [`Asn::as_u16`] reports whether this ASN fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(u32);

/// First ASN of the 16-bit private range (RFC 6996).
const PRIVATE_16_START: u32 = 64_512;
/// Last ASN of the 16-bit private range (RFC 6996).
const PRIVATE_16_END: u32 = 65_534;
/// First ASN of the 32-bit private range (RFC 6996).
const PRIVATE_32_START: u32 = 4_200_000_000;
/// Last ASN of the 32-bit private range (RFC 6996).
const PRIVATE_32_END: u32 = 4_294_967_294;
/// First ASN reserved for documentation (RFC 5398).
const DOC_16_START: u32 = 64_496;
/// Last 16-bit ASN reserved for documentation (RFC 5398).
const DOC_16_END: u32 = 64_511;

impl Asn {
    /// AS_TRANS (RFC 6793): stand-in for 32-bit ASNs on 16-bit sessions.
    pub const TRANS: Asn = Asn(23_456);

    /// Creates an ASN from its number.
    #[inline]
    pub const fn new(n: u32) -> Self {
        Asn(n)
    }

    /// Returns the raw 32-bit number.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Returns the ASN as `u16` if it fits in the classic 16-bit space
    /// (and therefore in the high half of an RFC 1997 community).
    #[inline]
    pub fn as_u16(self) -> Option<u16> {
        u16::try_from(self.0).ok()
    }

    /// True if this ASN lies in either RFC 6996 private-use range.
    ///
    /// The paper excludes ~400 private ASNs from the off-path community
    /// analysis because private ASNs are never routed, hence always
    /// off-path (§4.3).
    pub fn is_private(self) -> bool {
        (PRIVATE_16_START..=PRIVATE_16_END).contains(&self.0)
            || (PRIVATE_32_START..=PRIVATE_32_END).contains(&self.0)
    }

    /// True for ASNs reserved for documentation (RFC 5398).
    pub fn is_documentation(self) -> bool {
        (DOC_16_START..=DOC_16_END).contains(&self.0) || (65_536..=65_551).contains(&self.0)
    }

    /// True for values that must never appear in a real AS path:
    /// 0, AS_TRANS handled separately, 65535 and 4294967295.
    pub fn is_reserved(self) -> bool {
        self.0 == 0 || self.0 == 65_535 || self.0 == 4_294_967_295
    }

    /// True if the ASN is publicly routable: neither private, nor reserved,
    /// nor documentation space.
    pub fn is_public(self) -> bool {
        !self.is_private() && !self.is_reserved() && !self.is_documentation()
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(n: u32) -> Self {
        Asn(n)
    }
}

impl From<u16> for Asn {
    fn from(n: u16) -> Self {
        Asn(u32::from(n))
    }
}

impl From<Asn> for u32 {
    fn from(a: Asn) -> Self {
        a.0
    }
}

impl FromStr for Asn {
    type Err = TypeError;

    /// Parses either a bare number (`"2914"`) or the `AS`-prefixed form
    /// (`"AS2914"`, case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .or_else(|| s.strip_prefix("As"))
            .unwrap_or(s);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| TypeError::parse("asn", s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let a = Asn::new(2914);
        assert_eq!(a.to_string(), "AS2914");
        assert_eq!("AS2914".parse::<Asn>().unwrap(), a);
        assert_eq!("2914".parse::<Asn>().unwrap(), a);
        assert_eq!("as2914".parse::<Asn>().unwrap(), a);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("ASX".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
        assert!("-5".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err());
    }

    #[test]
    fn private_ranges() {
        assert!(Asn::new(64_512).is_private());
        assert!(Asn::new(65_000).is_private());
        assert!(Asn::new(65_534).is_private());
        assert!(!Asn::new(65_535).is_private());
        assert!(Asn::new(4_200_000_000).is_private());
        assert!(Asn::new(4_294_967_294).is_private());
        assert!(!Asn::new(4_294_967_295).is_private());
        assert!(!Asn::new(2914).is_private());
        assert!(!Asn::new(64_511).is_private()); // documentation, not private
    }

    #[test]
    fn reserved_and_public() {
        assert!(Asn::new(0).is_reserved());
        assert!(Asn::new(65_535).is_reserved());
        assert!(Asn::new(4_294_967_295).is_reserved());
        assert!(!Asn::TRANS.is_reserved());
        assert!(Asn::new(3356).is_public());
        assert!(!Asn::new(64_500).is_public()); // documentation
        assert!(!Asn::new(64_512).is_public()); // private
        assert!(!Asn::new(0).is_public());
    }

    #[test]
    fn u16_conversion() {
        assert_eq!(Asn::new(2914).as_u16(), Some(2914));
        assert_eq!(Asn::new(65_535).as_u16(), Some(65_535));
        assert_eq!(Asn::new(65_536).as_u16(), None);
        assert_eq!(Asn::new(4_200_000_000).as_u16(), None);
    }

    #[test]
    fn ordering_is_numeric() {
        let mut v = vec![Asn::new(10), Asn::new(2), Asn::new(65_536)];
        v.sort();
        assert_eq!(v, vec![Asn::new(2), Asn::new(10), Asn::new(65_536)]);
    }
}
