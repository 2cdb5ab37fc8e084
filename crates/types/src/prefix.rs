//! IPv4 and IPv6 prefixes with the containment and specificity operations
//! that hijack and blackholing scenarios rely on (more-specific announcements,
//! maximum accepted prefix length, longest-prefix match).

use crate::error::TypeError;
use std::cmp::Ordering;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// An IPv4 prefix in CIDR notation. The stored address is always masked to
/// the prefix length, so two equal prefixes compare equal bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

/// An IPv6 prefix in CIDR notation, address masked to the length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv6Prefix {
    addr: u128,
    len: u8,
}

/// Either address family. BGP carries both (the paper's dataset is 92 % IPv4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Prefix {
    /// An IPv4 prefix.
    V4(Ipv4Prefix),
    /// An IPv6 prefix.
    V6(Ipv6Prefix),
}

#[inline]
fn mask_v4(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

#[inline]
fn mask_v6(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - u32::from(len))
    }
}

impl Ipv4Prefix {
    /// Maximum prefix length for IPv4.
    pub const MAX_LEN: u8 = 32;

    /// Creates a prefix from a host-order address and length, masking the
    /// address down to the prefix length.
    pub fn new(addr: u32, len: u8) -> Result<Self, TypeError> {
        if len > Self::MAX_LEN {
            return Err(TypeError::InvalidPrefixLength {
                len,
                max: Self::MAX_LEN,
            });
        }
        Ok(Ipv4Prefix {
            addr: addr & mask_v4(len),
            len,
        })
    }

    /// Creates a prefix from a std [`Ipv4Addr`].
    pub fn from_addr(addr: Ipv4Addr, len: u8) -> Result<Self, TypeError> {
        Self::new(u32::from(addr), len)
    }

    /// The network address (host order, already masked).
    #[inline]
    pub const fn network(self) -> u32 {
        self.addr
    }

    /// The prefix length.
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub const fn len(self) -> u8 {
        self.len
    }

    /// True for the zero-length default route `0.0.0.0/0`.
    #[inline]
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// The network address as [`Ipv4Addr`].
    pub fn network_addr(self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// True if `ip` (host order) falls inside this prefix.
    #[inline]
    pub fn contains(self, ip: u32) -> bool {
        ip & mask_v4(self.len) == self.addr
    }

    /// True if `ip` falls inside this prefix.
    pub fn contains_addr(self, ip: Ipv4Addr) -> bool {
        self.contains(u32::from(ip))
    }

    /// True if `other` is equal to or more specific than `self`
    /// (i.e. `self` covers `other`).
    pub fn covers(self, other: Ipv4Prefix) -> bool {
        other.len >= self.len && other.addr & mask_v4(self.len) == self.addr
    }

    /// True if `self` is a *strictly* more specific prefix of `other`.
    ///
    /// More-specific announcements win longest-prefix match, which is what
    /// gives sub-prefix hijacks (§5.1) their power.
    pub fn is_more_specific_of(self, other: Ipv4Prefix) -> bool {
        self.len > other.len && other.covers(self)
    }

    /// The immediate parent prefix (one bit shorter), or `None` for /0.
    pub fn supernet(self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix {
                addr: self.addr & mask_v4(self.len - 1),
                len: self.len - 1,
            })
        }
    }

    /// Enumerates the `2^(new_len - len)` subnets of this prefix at
    /// `new_len`. Errors if `new_len` is shorter than `len` or > 32.
    pub fn subnets(self, new_len: u8) -> Result<Vec<Ipv4Prefix>, TypeError> {
        if new_len > Self::MAX_LEN {
            return Err(TypeError::InvalidPrefixLength {
                len: new_len,
                max: Self::MAX_LEN,
            });
        }
        if new_len < self.len {
            return Err(TypeError::OutOfRange {
                what: "subnet length",
                value: u64::from(new_len),
                max: u64::from(self.len),
            });
        }
        let count = 1u64 << (new_len - self.len);
        let step = if new_len == 32 {
            1u64
        } else {
            1u64 << (32 - new_len)
        };
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count {
            let addr = self.addr.wrapping_add((i * step) as u32);
            out.push(Ipv4Prefix { addr, len: new_len });
        }
        Ok(out)
    }

    /// The first more-specific /`len+1` half of this prefix, used when an
    /// attacker announces a covering sub-prefix.
    pub fn first_half(self) -> Option<Ipv4Prefix> {
        if self.len >= Self::MAX_LEN {
            None
        } else {
            Some(Ipv4Prefix {
                addr: self.addr,
                len: self.len + 1,
            })
        }
    }

    /// Number of addresses covered (saturates at `u64::MAX` for /0 which
    /// has 2^32 addresses — representable, so no saturation in practice).
    pub fn num_addresses(self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }
}

impl Ipv6Prefix {
    /// Maximum prefix length for IPv6.
    pub const MAX_LEN: u8 = 128;

    /// Creates a prefix from a host-order 128-bit address and length.
    pub fn new(addr: u128, len: u8) -> Result<Self, TypeError> {
        if len > Self::MAX_LEN {
            return Err(TypeError::InvalidPrefixLength {
                len,
                max: Self::MAX_LEN,
            });
        }
        Ok(Ipv6Prefix {
            addr: addr & mask_v6(len),
            len,
        })
    }

    /// Creates a prefix from a std [`Ipv6Addr`].
    pub fn from_addr(addr: Ipv6Addr, len: u8) -> Result<Self, TypeError> {
        Self::new(u128::from(addr), len)
    }

    /// The network address (host order, masked).
    #[inline]
    pub const fn network(self) -> u128 {
        self.addr
    }

    /// The prefix length.
    #[inline]
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub const fn len(self) -> u8 {
        self.len
    }

    /// True for `::/0`.
    #[inline]
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// The network address as [`Ipv6Addr`].
    pub fn network_addr(self) -> Ipv6Addr {
        Ipv6Addr::from(self.addr)
    }

    /// True if `ip` falls inside this prefix.
    #[inline]
    pub fn contains(self, ip: u128) -> bool {
        ip & mask_v6(self.len) == self.addr
    }

    /// True if `other` is equal to or more specific than `self`.
    pub fn covers(self, other: Ipv6Prefix) -> bool {
        other.len >= self.len && other.addr & mask_v6(self.len) == self.addr
    }
}

impl Prefix {
    /// The prefix length.
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub fn len(&self) -> u8 {
        match self {
            Prefix::V4(p) => p.len(),
            Prefix::V6(p) => p.len(),
        }
    }

    /// True for a zero-length default route.
    pub fn is_default(&self) -> bool {
        self.len() == 0
    }

    /// True if this is an IPv4 prefix.
    pub fn is_v4(&self) -> bool {
        matches!(self, Prefix::V4(_))
    }

    /// True if this is an IPv6 prefix.
    pub fn is_v6(&self) -> bool {
        matches!(self, Prefix::V6(_))
    }

    /// True if `self` covers `other` (same family, equal or more specific).
    pub fn covers(&self, other: &Prefix) -> bool {
        match (self, other) {
            (Prefix::V4(a), Prefix::V4(b)) => a.covers(*b),
            (Prefix::V6(a), Prefix::V6(b)) => a.covers(*b),
            _ => false,
        }
    }

    /// As [`Ipv4Prefix`] if this is IPv4.
    pub fn as_v4(&self) -> Option<Ipv4Prefix> {
        match self {
            Prefix::V4(p) => Some(*p),
            Prefix::V6(_) => None,
        }
    }

    /// As [`Ipv6Prefix`] if this is IPv6.
    pub fn as_v6(&self) -> Option<Ipv6Prefix> {
        match self {
            Prefix::V4(_) => None,
            Prefix::V6(p) => Some(*p),
        }
    }
}

impl From<Ipv4Prefix> for Prefix {
    fn from(p: Ipv4Prefix) -> Self {
        Prefix::V4(p)
    }
}

impl From<Ipv6Prefix> for Prefix {
    fn from(p: Ipv6Prefix) -> Self {
        Prefix::V6(p)
    }
}

// Order: by address then by length (shorter = less specific first). This is
// the natural order for deterministic iteration in the simulator.
impl Ord for Ipv4Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.addr
            .cmp(&other.addr)
            .then_with(|| self.len.cmp(&other.len))
    }
}

impl PartialOrd for Ipv4Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ipv6Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.addr
            .cmp(&other.addr)
            .then_with(|| self.len.cmp(&other.len))
    }
}

impl PartialOrd for Ipv6Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network_addr(), self.len)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network_addr(), self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prefix::V4(p) => p.fmt(f),
            Prefix::V6(p) => p.fmt(f),
        }
    }
}

impl FromStr for Ipv4Prefix {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| TypeError::parse("ipv4 prefix", s))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| TypeError::parse("ipv4 prefix", s))?;
        let len: u8 = len
            .parse()
            .map_err(|_| TypeError::parse("ipv4 prefix", s))?;
        Ipv4Prefix::from_addr(addr, len)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| TypeError::parse("ipv6 prefix", s))?;
        let addr: Ipv6Addr = addr
            .parse()
            .map_err(|_| TypeError::parse("ipv6 prefix", s))?;
        let len: u8 = len
            .parse()
            .map_err(|_| TypeError::parse("ipv6 prefix", s))?;
        Ipv6Prefix::from_addr(addr, len)
    }
}

impl FromStr for Prefix {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.contains(':') {
            s.parse::<Ipv6Prefix>().map(Prefix::V6)
        } else {
            s.parse::<Ipv4Prefix>().map(Prefix::V4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn construction_masks_host_bits() {
        let p = Ipv4Prefix::new(0xC0A8_01FF, 24).unwrap();
        assert_eq!(p.network_addr(), Ipv4Addr::new(192, 168, 1, 0));
        assert_eq!(p.to_string(), "192.168.1.0/24");
    }

    #[test]
    fn invalid_length_rejected() {
        assert!(Ipv4Prefix::new(0, 33).is_err());
        assert!(Ipv6Prefix::new(0, 129).is_err());
        assert!(Ipv4Prefix::new(0, 32).is_ok());
        assert!(Ipv6Prefix::new(0, 128).is_ok());
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "203.0.113.7/32"] {
            assert_eq!(p4(s).to_string(), s);
        }
        let v6: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        assert_eq!(v6.to_string(), "2001:db8::/32");
        let any: Prefix = "2001:db8::/32".parse().unwrap();
        assert!(any.is_v6());
        let any: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(any.is_v4());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("banana/8".parse::<Ipv4Prefix>().is_err());
        assert!("::/129".parse::<Ipv6Prefix>().is_err());
    }

    #[test]
    fn containment() {
        let p = p4("192.0.2.0/24");
        assert!(p.contains_addr(Ipv4Addr::new(192, 0, 2, 0)));
        assert!(p.contains_addr(Ipv4Addr::new(192, 0, 2, 255)));
        assert!(!p.contains_addr(Ipv4Addr::new(192, 0, 3, 0)));
        let default = p4("0.0.0.0/0");
        assert!(default.contains_addr(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn covers_and_more_specific() {
        let big = p4("10.0.0.0/8");
        let small = p4("10.1.0.0/16");
        assert!(big.covers(small));
        assert!(big.covers(big));
        assert!(!small.covers(big));
        assert!(small.is_more_specific_of(big));
        assert!(!big.is_more_specific_of(big));
        assert!(!p4("11.0.0.0/16").is_more_specific_of(big));
    }

    #[test]
    fn supernet_chain() {
        let p = p4("192.0.2.128/25");
        let sup = p.supernet().unwrap();
        assert_eq!(sup, p4("192.0.2.0/24"));
        assert_eq!(p4("0.0.0.0/0").supernet(), None);
    }

    #[test]
    fn subnets_enumeration() {
        let p = p4("192.0.2.0/24");
        let subs = p.subnets(26).unwrap();
        assert_eq!(
            subs,
            vec![
                p4("192.0.2.0/26"),
                p4("192.0.2.64/26"),
                p4("192.0.2.128/26"),
                p4("192.0.2.192/26"),
            ]
        );
        // /32 subnets of a /31
        let subs = p4("192.0.2.0/31").subnets(32).unwrap();
        assert_eq!(subs.len(), 2);
        // identity
        assert_eq!(p.subnets(24).unwrap(), vec![p]);
        // invalid directions
        assert!(p.subnets(8).is_err());
        assert!(p.subnets(33).is_err());
    }

    #[test]
    fn first_half() {
        assert_eq!(p4("10.0.0.0/8").first_half().unwrap(), p4("10.0.0.0/9"));
        assert_eq!(p4("1.2.3.4/32").first_half(), None);
    }

    #[test]
    fn num_addresses() {
        assert_eq!(p4("192.0.2.0/24").num_addresses(), 256);
        assert_eq!(p4("1.2.3.4/32").num_addresses(), 1);
        assert_eq!(p4("0.0.0.0/0").num_addresses(), 1 << 32);
    }

    #[test]
    fn ordering_address_then_length() {
        let mut v = vec![p4("10.0.0.0/16"), p4("9.0.0.0/8"), p4("10.0.0.0/8")];
        v.sort();
        assert_eq!(
            v,
            vec![p4("9.0.0.0/8"), p4("10.0.0.0/8"), p4("10.0.0.0/16")]
        );
    }

    #[test]
    fn family_mismatch_never_covers() {
        let v4: Prefix = "10.0.0.0/8".parse().unwrap();
        let v6: Prefix = "2001:db8::/32".parse().unwrap();
        assert!(!v4.covers(&v6));
        assert!(!v6.covers(&v4));
    }

    #[test]
    fn v6_containment() {
        let p: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        assert!(p.contains(u128::from("2001:db8::1".parse::<Ipv6Addr>().unwrap())));
        assert!(!p.contains(u128::from("2001:db9::1".parse::<Ipv6Addr>().unwrap())));
        let more: Ipv6Prefix = "2001:db8:1::/48".parse().unwrap();
        assert!(p.covers(more));
        assert!(!more.covers(p));
    }
}
