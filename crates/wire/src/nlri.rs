//! NLRI (prefix) wire encoding: a length byte followed by the minimum number
//! of address bytes (RFC 4271 §4.3).

use crate::cursor::Cursor;
use crate::error::WireError;
use bgpworms_types::{Ipv4Prefix, Ipv6Prefix, Prefix};

/// Encodes one IPv4 prefix into `out`.
pub fn encode_v4(p: Ipv4Prefix, out: &mut Vec<u8>) {
    out.push(p.len());
    let nbytes = usize::from(p.len().div_ceil(8));
    out.extend_from_slice(&p.network().to_be_bytes()[..nbytes]);
}

/// Encodes one IPv6 prefix into `out`.
pub fn encode_v6(p: Ipv6Prefix, out: &mut Vec<u8>) {
    out.push(p.len());
    let nbytes = usize::from(p.len().div_ceil(8));
    out.extend_from_slice(&p.network().to_be_bytes()[..nbytes]);
}

/// Bytes [`encode_v6`] appends for `p` — what lets MP_REACH / MP_UNREACH
/// write their attribute header before their NLRI.
pub fn encoded_len_v6(p: Ipv6Prefix) -> usize {
    1 + usize::from(p.len().div_ceil(8))
}

/// Decodes one IPv4 prefix.
pub fn decode_v4(c: &mut Cursor<'_>) -> Result<Ipv4Prefix, WireError> {
    let len = c.u8("nlri length")?;
    if len > 32 {
        return Err(WireError::BadPrefixLength(len));
    }
    let nbytes = usize::from(len.div_ceil(8));
    let raw = c.take("nlri v4 address", nbytes)?;
    let mut addr = [0u8; 4];
    addr[..nbytes].copy_from_slice(raw);
    // Constructor masks any stray host bits an implementation left set.
    Ipv4Prefix::new(u32::from_be_bytes(addr), len).map_err(|_| WireError::BadPrefixLength(len))
}

/// Decodes one IPv6 prefix.
pub fn decode_v6(c: &mut Cursor<'_>) -> Result<Ipv6Prefix, WireError> {
    let len = c.u8("nlri length")?;
    if len > 128 {
        return Err(WireError::BadPrefixLength(len));
    }
    let nbytes = usize::from(len.div_ceil(8));
    let raw = c.take("nlri v6 address", nbytes)?;
    let mut addr = [0u8; 16];
    addr[..nbytes].copy_from_slice(raw);
    Ipv6Prefix::new(u128::from_be_bytes(addr), len).map_err(|_| WireError::BadPrefixLength(len))
}

/// Appends to `out` the IPv4 prefixes up to the end of the cursor.
pub fn decode_v4_run(c: &mut Cursor<'_>, out: &mut Vec<Prefix>) -> Result<(), WireError> {
    while !c.is_empty() {
        out.push(Prefix::V4(decode_v4(c)?));
    }
    Ok(())
}

/// Appends to `out` the IPv6 prefixes up to the end of the cursor.
pub fn decode_v6_run(c: &mut Cursor<'_>, out: &mut Vec<Prefix>) -> Result<(), WireError> {
    while !c.is_empty() {
        out.push(Prefix::V6(decode_v6(c)?));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn v4_minimal_bytes() {
        let mut out = Vec::new();
        encode_v4(p4("10.0.0.0/8"), &mut out);
        assert_eq!(out, vec![8, 10]);
        out.clear();
        encode_v4(p4("192.0.2.0/24"), &mut out);
        assert_eq!(out, vec![24, 192, 0, 2]);
        out.clear();
        encode_v4(p4("0.0.0.0/0"), &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        encode_v4(p4("203.0.113.77/32"), &mut out);
        assert_eq!(out, vec![32, 203, 0, 113, 77]);
    }

    #[test]
    fn v4_roundtrip() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "172.16.0.0/12",
            "192.0.2.0/25",
            "1.2.3.4/32",
        ] {
            let mut out = Vec::new();
            encode_v4(p4(s), &mut out);
            let mut c = Cursor::new(&out);
            assert_eq!(decode_v4(&mut c).unwrap(), p4(s));
            assert!(c.is_empty());
        }
    }

    #[test]
    fn v6_roundtrip() {
        for s in ["::/0", "2001:db8::/32", "2001:db8:1:2::/64", "::1/128"] {
            let p: Ipv6Prefix = s.parse().unwrap();
            let mut out = Vec::new();
            encode_v6(p, &mut out);
            assert_eq!(out.len(), encoded_len_v6(p));
            let mut c = Cursor::new(&out);
            assert_eq!(decode_v6(&mut c).unwrap(), p);
        }
    }

    #[test]
    fn bad_length_rejected() {
        let mut c = Cursor::new(&[33, 1, 2, 3, 4, 5]);
        assert_eq!(
            decode_v4(&mut c).unwrap_err(),
            WireError::BadPrefixLength(33)
        );
        let mut c = Cursor::new(&[129]);
        assert_eq!(
            decode_v6(&mut c).unwrap_err(),
            WireError::BadPrefixLength(129)
        );
    }

    #[test]
    fn truncated_address_rejected() {
        let mut c = Cursor::new(&[24, 192, 0]); // /24 needs 3 bytes, has 2
        assert!(matches!(
            decode_v4(&mut c),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn stray_host_bits_masked() {
        // /8 with a second byte would be over-long; instead: /4 with low bits
        let mut c = Cursor::new(&[4, 0xFF]);
        let p = decode_v4(&mut c).unwrap();
        assert_eq!(p, p4("240.0.0.0/4"));
    }

    #[test]
    fn run_decoding() {
        let mut out = Vec::new();
        encode_v4(p4("10.0.0.0/8"), &mut out);
        encode_v4(p4("192.0.2.0/24"), &mut out);
        let mut c = Cursor::new(&out);
        let mut run = vec![Prefix::V4(p4("0.0.0.0/0"))];
        decode_v4_run(&mut c, &mut run).unwrap();
        assert_eq!(
            run,
            [p4("0.0.0.0/0"), p4("10.0.0.0/8"), p4("192.0.2.0/24")].map(Prefix::V4),
            "appended behind what the list held"
        );
    }
}
