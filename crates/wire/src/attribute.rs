//! Path-attribute encode/decode (RFC 4271 §4.3, plus RFC 1997/4360/8092
//! community attributes and RFC 4760 multiprotocol NLRI).

use crate::cursor::Cursor;
use crate::error::WireError;
use crate::nlri;
use crate::CodecConfig;
use bgpworms_types::{
    aspath::{AsPath, PathSegment},
    attr::{Aggregator, Origin, PathAttributes, UnknownAttribute},
    Asn, Community, ExtendedCommunity, Ipv6Prefix, LargeCommunity, Prefix, RouteUpdate,
};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Attribute flag: optional (not well-known).
const FLAG_OPTIONAL: u8 = 0x80;
/// Attribute flag: transitive.
const FLAG_TRANSITIVE: u8 = 0x40;
/// Attribute flag: two-byte length field follows.
const FLAG_EXT_LEN: u8 = 0x10;

/// Attribute type codes we interpret.
mod type_code {
    /// ORIGIN.
    pub(super) const ORIGIN: u8 = 1;
    /// AS_PATH.
    pub(super) const AS_PATH: u8 = 2;
    /// NEXT_HOP.
    pub(super) const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC.
    pub(super) const MED: u8 = 4;
    /// LOCAL_PREF.
    pub(super) const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE.
    pub(super) const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR.
    pub(super) const AGGREGATOR: u8 = 7;
    /// COMMUNITIES (RFC 1997).
    pub(super) const COMMUNITIES: u8 = 8;
    /// MP_REACH_NLRI (RFC 4760).
    pub(super) const MP_REACH_NLRI: u8 = 14;
    /// MP_UNREACH_NLRI (RFC 4760).
    pub(super) const MP_UNREACH_NLRI: u8 = 15;
    /// EXTENDED COMMUNITIES (RFC 4360).
    pub(super) const EXT_COMMUNITIES: u8 = 16;
    /// LARGE_COMMUNITY (RFC 8092).
    pub(super) const LARGE_COMMUNITIES: u8 = 32;
}

/// The IPv6 address family (RFC 4760).
const AFI_IPV6: u16 = 2;
/// Unicast SAFI.
const SAFI_UNICAST: u8 = 1;

/// Everything recovered from the attributes section of one UPDATE,
/// with multiprotocol NLRI separated back out of the attribute blob.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedAttributes {
    /// The logical path attributes.
    pub attrs: PathAttributes,
    /// Prefixes announced via MP_REACH_NLRI (IPv6 unicast).
    pub mp_announced: Vec<Prefix>,
    /// Prefixes withdrawn via MP_UNREACH_NLRI.
    pub mp_withdrawn: Vec<Prefix>,
    /// Next hop carried inside MP_REACH_NLRI.
    pub mp_next_hop: Option<IpAddr>,
}

/// Appends the header of an attribute whose value is `len` bytes long,
/// switching to the two-byte length form past 255. A value no length field
/// can describe is an error, not a wrapped length.
fn push_attr_header(
    out: &mut Vec<u8>,
    flags: u8,
    type_code: u8,
    len: usize,
) -> Result<(), WireError> {
    match u8::try_from(len) {
        Ok(short) => out.extend_from_slice(&[flags, type_code, short]),
        Err(_) => {
            let long = u16::try_from(len).map_err(|_| WireError::TooLong(len))?;
            out.extend_from_slice(&[flags | FLAG_EXT_LEN, type_code]);
            out.extend_from_slice(&long.to_be_bytes());
        }
    }
    Ok(())
}

/// Segments hold at most 255 ASNs; longer ones (long prepends) are split.
const MAX_SEGMENT_ASNS: usize = 255;

/// Bytes [`encode_as_path`] appends for `path`.
fn as_path_len(path: &AsPath, cfg: CodecConfig) -> usize {
    let width = if cfg.asn4 { 4 } else { 2 };
    path.segments()
        .map(|seg| {
            let n = seg.asns().len();
            n.div_ceil(MAX_SEGMENT_ASNS) * 2 + n * width
        })
        .sum()
}

fn encode_as_path(out: &mut Vec<u8>, path: &AsPath, cfg: CodecConfig) {
    for seg in path.segments() {
        let seg_type = match seg {
            PathSegment::Set(_) => 1u8,
            PathSegment::Sequence(_) => 2u8,
        };
        for chunk in seg.asns().chunks(MAX_SEGMENT_ASNS) {
            out.push(seg_type);
            out.push(chunk.len() as u8);
            for a in chunk {
                if cfg.asn4 {
                    out.extend_from_slice(&a.get().to_be_bytes());
                } else {
                    let v = a.as_u16().unwrap_or(23_456); // AS_TRANS
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
        }
    }
}

/// Rebuilds `path` from an AS_PATH attribute's body, one
/// [`AsPath::push_segment`] per segment.
fn refill_as_path(path: &mut AsPath, data: &[u8], cfg: CodecConfig) -> Result<(), WireError> {
    let width = if cfg.asn4 { 4 } else { 2 };
    let mut c = Cursor::new(data);
    *path = AsPath::empty();
    while !c.is_empty() {
        let seg_type = c.u8("as_path segment type")?;
        let count = c.u8("as_path segment count")?;
        let asns = c.take("as_path asn", usize::from(count) * width)?;
        let asns = (asns.chunks_exact(width))
            .map(|b| Asn::new(b.iter().fold(0, |n, &byte| n << 8 | u32::from(byte))));
        path.push_segment(match seg_type {
            1 => PathSegment::Set(asns),
            2 => PathSegment::Sequence(asns),
            t => return Err(WireError::BadSegmentType(t)),
        });
    }
    Ok(())
}

/// Encodes the attributes section (without the leading 2-byte total length).
///
/// `v6_announced` / `v6_withdrawn` are emitted as MP_REACH / MP_UNREACH;
/// IPv4 NLRI lives in the UPDATE body and is not passed here.
///
/// The `Vec`-returning form of [`encode_attributes_into`], which holds the
/// one implementation.
pub fn encode_attributes(
    attrs: &PathAttributes,
    v6_announced: &[Ipv6Prefix],
    v6_withdrawn: &[Ipv6Prefix],
    cfg: CodecConfig,
) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    let (announced, withdrawn) = (v6_announced.iter().copied(), v6_withdrawn.iter().copied());
    encode_attributes_into(&mut out, attrs, announced, withdrawn, cfg)?;
    Ok(out)
}

/// Appends the attributes section to `out`, whatever `out` already holds:
/// every attribute's length is known before its header is written (AS_PATH
/// and the two MP attributes are measured first, which is why the IPv6 NLRI
/// arrive as re-runnable iterators), so nothing is staged in a second
/// buffer. On `Err`, `out` is left exactly as it was.
pub fn encode_attributes_into(
    out: &mut Vec<u8>,
    attrs: &PathAttributes,
    v6_announced: impl Iterator<Item = Ipv6Prefix> + Clone,
    v6_withdrawn: impl Iterator<Item = Ipv6Prefix> + Clone,
    cfg: CodecConfig,
) -> Result<(), WireError> {
    crate::or_rewind(out, |out| {
        append_attributes(out, attrs, v6_announced, v6_withdrawn, cfg)
    })
}

/// [`encode_attributes_into`] without the rewind, for a caller that
/// rewinds further back itself.
pub(crate) fn append_attributes(
    out: &mut Vec<u8>,
    attrs: &PathAttributes,
    v6_announced: impl Iterator<Item = Ipv6Prefix> + Clone,
    v6_withdrawn: impl Iterator<Item = Ipv6Prefix> + Clone,
    cfg: CodecConfig,
) -> Result<(), WireError> {
    // ORIGIN — well-known mandatory.
    push_attr_header(out, FLAG_TRANSITIVE, type_code::ORIGIN, 1)?;
    out.push(attrs.origin.code());

    // AS_PATH — well-known mandatory.
    let path_len = as_path_len(&attrs.as_path, cfg);
    push_attr_header(out, FLAG_TRANSITIVE, type_code::AS_PATH, path_len)?;
    encode_as_path(out, &attrs.as_path, cfg);

    // NEXT_HOP — mandatory when IPv4 NLRI is present; we emit whenever set.
    if let Some(IpAddr::V4(nh)) = attrs.next_hop {
        push_attr_header(out, FLAG_TRANSITIVE, type_code::NEXT_HOP, 4)?;
        out.extend_from_slice(&nh.octets());
    }

    if let Some(med) = attrs.med {
        push_attr_header(out, FLAG_OPTIONAL, type_code::MED, 4)?;
        out.extend_from_slice(&med.to_be_bytes());
    }

    if let Some(lp) = attrs.local_pref {
        push_attr_header(out, FLAG_TRANSITIVE, type_code::LOCAL_PREF, 4)?;
        out.extend_from_slice(&lp.to_be_bytes());
    }

    if attrs.atomic_aggregate {
        push_attr_header(out, FLAG_TRANSITIVE, type_code::ATOMIC_AGGREGATE, 0)?;
    }

    const OPTIONAL_TRANSITIVE: u8 = FLAG_OPTIONAL | FLAG_TRANSITIVE;

    if let Some(agg) = attrs.aggregator {
        let len = if cfg.asn4 { 8 } else { 6 };
        push_attr_header(out, OPTIONAL_TRANSITIVE, type_code::AGGREGATOR, len)?;
        if cfg.asn4 {
            out.extend_from_slice(&agg.asn.get().to_be_bytes());
        } else {
            out.extend_from_slice(&agg.asn.as_u16().unwrap_or(23_456).to_be_bytes());
        }
        out.extend_from_slice(&agg.router_id.octets());
    }

    if !attrs.communities.is_empty() {
        let len = attrs.communities.len() * 4;
        push_attr_header(out, OPTIONAL_TRANSITIVE, type_code::COMMUNITIES, len)?;
        for c in &attrs.communities {
            out.extend_from_slice(&c.as_u32().to_be_bytes());
        }
    }

    if !attrs.ext_communities.is_empty() {
        let len = attrs.ext_communities.len() * 8;
        push_attr_header(out, OPTIONAL_TRANSITIVE, type_code::EXT_COMMUNITIES, len)?;
        for c in &attrs.ext_communities {
            out.extend_from_slice(&c.to_bytes());
        }
    }

    if !attrs.large_communities.is_empty() {
        let len = attrs.large_communities.len() * 12;
        push_attr_header(out, OPTIONAL_TRANSITIVE, type_code::LARGE_COMMUNITIES, len)?;
        for c in &attrs.large_communities {
            out.extend_from_slice(&c.to_bytes());
        }
    }

    // A prefix encodes to at least its length byte, so a zero NLRI length
    // is an empty list.
    let nlri_len = v6_announced
        .clone()
        .map(nlri::encoded_len_v6)
        .sum::<usize>();
    if nlri_len > 0 {
        // AFI, SAFI, next-hop length, next hop, reserved.
        let len = 2 + 1 + 1 + 16 + 1 + nlri_len;
        push_attr_header(out, FLAG_OPTIONAL, type_code::MP_REACH_NLRI, len)?;
        out.extend_from_slice(&AFI_IPV6.to_be_bytes());
        out.push(SAFI_UNICAST);
        let nh = match attrs.next_hop {
            Some(IpAddr::V6(nh)) => nh,
            _ => Ipv6Addr::UNSPECIFIED,
        };
        out.push(16);
        out.extend_from_slice(&nh.octets());
        out.push(0); // reserved
        for p in v6_announced {
            nlri::encode_v6(p, out);
        }
    }

    let nlri_len = v6_withdrawn
        .clone()
        .map(nlri::encoded_len_v6)
        .sum::<usize>();
    if nlri_len > 0 {
        let len = 2 + 1 + nlri_len;
        push_attr_header(out, FLAG_OPTIONAL, type_code::MP_UNREACH_NLRI, len)?;
        out.extend_from_slice(&AFI_IPV6.to_be_bytes());
        out.push(SAFI_UNICAST);
        for p in v6_withdrawn {
            nlri::encode_v6(p, out);
        }
    }

    // Unknown attributes are re-emitted verbatim (transitive forwarding).
    for u in &attrs.unknown {
        push_attr_header(out, u.flags & !FLAG_EXT_LEN, u.type_code, u.data.len())?;
        out.extend_from_slice(&u.data);
    }

    Ok(())
}

/// The error for an attribute whose length its type does not allow.
fn bad_length(type_code: u8, data: &[u8]) -> WireError {
    WireError::BadAttributeLength {
        type_code,
        len: data.len(),
    }
}

/// The value of a fixed-length attribute.
fn fixed<const N: usize>(type_code: u8, data: &[u8]) -> Result<[u8; N], WireError> {
    data.try_into().map_err(|_| bad_length(type_code, data))
}

/// The `N`-byte values of a list attribute, whose length must be a multiple
/// of `N`.
fn values<const N: usize>(type_code: u8, data: &[u8]) -> Result<&[[u8; N]], WireError> {
    match data.as_chunks() {
        (values, []) => Ok(values),
        _ => Err(bad_length(type_code, data)),
    }
}

/// Decodes the attributes section of an UPDATE (after the 2-byte total
/// attribute length has been consumed; `data` is exactly that section).
///
/// The owned form of `decode_attributes_into`, which holds the one
/// implementation.
pub fn decode_attributes(data: &[u8], cfg: CodecConfig) -> Result<DecodedAttributes, WireError> {
    let mut update = RouteUpdate::default();
    let mp_next_hop = decode_attributes_into(data, cfg, &mut update)?;
    Ok(DecodedAttributes {
        attrs: update.attrs,
        mp_announced: update.announced,
        mp_withdrawn: update.withdrawn,
        mp_next_hop,
    })
}

/// [`decode_attributes`] into `update`: its `attrs` are overwritten,
/// keeping the buffers of the lists, the prefixes of
/// MP_REACH_NLRI and MP_UNREACH_NLRI are appended to its `announced` and
/// `withdrawn`, and the MP_REACH_NLRI next hop is returned. On `Err`,
/// `update` holds no particular value.
///
/// An attribute that occurs more than once is validated at every
/// occurrence and kept at the first (RFC 7606 §3(g)). For MP_REACH_NLRI
/// and MP_UNREACH_NLRI this departs from RFC 7606, which makes a repeat a
/// malformed attribute list: refusing it would change which records fail
/// to decode, and with that the lossy reader's skip tally.
pub(crate) fn decode_attributes_into(
    data: &[u8],
    cfg: CodecConfig,
    update: &mut RouteUpdate,
) -> Result<Option<IpAddr>, WireError> {
    // Every attribute but the path goes back to its default; the path is
    // refilled below whether or not the section carries one.
    let a = &mut update.attrs;
    (
        a.origin,
        a.next_hop,
        a.med,
        a.local_pref,
        a.atomic_aggregate,
        a.aggregator,
    ) = <_>::default();
    a.communities.clear();
    a.large_communities.clear();
    a.ext_communities.clear();
    a.unknown.clear();
    let mut mp_next_hop = None;
    // Repeats are decoded here, which validates them, and then dropped.
    let mut repeats = None;
    // One bit per type code, set at its first occurrence.
    let mut seen = [0u64; 4];

    let mut c = Cursor::new(data);
    while !c.is_empty() {
        let flags = c.u8("attribute flags")?;
        let code = c.u8("attribute type")?;
        let len = if flags & FLAG_EXT_LEN != 0 {
            c.u16("attribute extended length")? as usize
        } else {
            c.u8("attribute length")? as usize
        };
        let body = c.take("attribute body", len)?;

        let (word, bit) = (usize::from(code / 64), 1 << (code % 64));
        let first = seen[word] & bit == 0;
        seen[word] |= bit;
        let out = if first {
            &mut *update
        } else {
            repeats.get_or_insert_default()
        };
        match code {
            type_code::ORIGIN => {
                let [origin] = fixed(code, body)?;
                out.attrs.origin = Origin::from_code(origin).ok_or(WireError::BadOrigin(origin))?;
            }
            type_code::AS_PATH => refill_as_path(&mut out.attrs.as_path, body, cfg)?,
            type_code::NEXT_HOP => {
                out.attrs.next_hop = Some(IpAddr::V4(Ipv4Addr::from(fixed::<4>(code, body)?)));
            }
            type_code::MED => out.attrs.med = Some(u32::from_be_bytes(fixed(code, body)?)),
            type_code::LOCAL_PREF => {
                out.attrs.local_pref = Some(u32::from_be_bytes(fixed(code, body)?));
            }
            type_code::ATOMIC_AGGREGATE => {
                fixed::<0>(code, body)?;
                out.attrs.atomic_aggregate = true;
            }
            type_code::AGGREGATOR => {
                let (asn, router_id) = if cfg.asn4 {
                    let [a, b, c, d, router_id @ ..] = fixed::<8>(code, body)?;
                    (u32::from_be_bytes([a, b, c, d]), router_id)
                } else {
                    let [a, b, router_id @ ..] = fixed::<6>(code, body)?;
                    (u32::from(u16::from_be_bytes([a, b])), router_id)
                };
                let (asn, router_id) = (Asn::new(asn), Ipv4Addr::from(router_id));
                out.attrs.aggregator = Some(Aggregator { asn, router_id });
            }
            type_code::COMMUNITIES => out.attrs.communities.extend(
                (values(code, body)?.iter()).map(|&v| Community::from_u32(u32::from_be_bytes(v))),
            ),
            type_code::EXT_COMMUNITIES => (out.attrs.ext_communities).extend(
                values(code, body)?
                    .iter()
                    .map(|&v| ExtendedCommunity::from_bytes(v)),
            ),
            type_code::LARGE_COMMUNITIES => (out.attrs.large_communities).extend(
                values(code, body)?
                    .iter()
                    .map(|&v| LargeCommunity::from_bytes(v)),
            ),
            type_code::MP_REACH_NLRI => {
                let mut bc = Cursor::new(body);
                let afi = bc.u16("mp_reach afi")?;
                let safi = bc.u8("mp_reach safi")?;
                if afi != AFI_IPV6 || safi != SAFI_UNICAST {
                    return Err(WireError::UnsupportedAfiSafi { afi, safi });
                }
                let nh_len = bc.u8("mp_reach next hop length")? as usize;
                let nh = bc.take("mp_reach next hop", nh_len)?;
                if nh_len >= 16 && first {
                    let mut b = [0u8; 16];
                    b.copy_from_slice(&nh[..16]);
                    mp_next_hop = Some(IpAddr::V6(Ipv6Addr::from(b)));
                }
                let _reserved = bc.u8("mp_reach reserved")?;
                nlri::decode_v6_run(&mut bc, &mut out.announced)?;
            }
            type_code::MP_UNREACH_NLRI => {
                let mut bc = Cursor::new(body);
                let afi = bc.u16("mp_unreach afi")?;
                let safi = bc.u8("mp_unreach safi")?;
                if afi != AFI_IPV6 || safi != SAFI_UNICAST {
                    return Err(WireError::UnsupportedAfiSafi { afi, safi });
                }
                nlri::decode_v6_run(&mut bc, &mut out.withdrawn)?;
            }
            _ => out.attrs.unknown.push(UnknownAttribute {
                flags,
                type_code: code,
                data: body.to_vec(),
            }),
        }
    }
    if seen[0] & 1 << type_code::AS_PATH == 0 {
        refill_as_path(&mut update.attrs.as_path, &[], cfg)?;
    }
    Ok(mp_next_hop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_types::attr::PathAttributes;

    fn roundtrip(attrs: &PathAttributes, cfg: CodecConfig) -> DecodedAttributes {
        let bytes = encode_attributes(attrs, &[], &[], cfg).unwrap();
        decode_attributes(&bytes, cfg).unwrap()
    }

    fn base_attrs() -> PathAttributes {
        let mut a = PathAttributes {
            origin: Origin::Igp,
            as_path: AsPath::from_asns([Asn::new(3), Asn::new(2), Asn::new(1)]),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            ..PathAttributes::default()
        };
        a.add_community(Community::new(2914, 421));
        a
    }

    #[test]
    fn basic_roundtrip_modern() {
        let attrs = base_attrs();
        let dec = roundtrip(&attrs, CodecConfig::modern());
        assert_eq!(dec.attrs, attrs);
    }

    #[test]
    fn basic_roundtrip_legacy() {
        let attrs = base_attrs();
        let dec = roundtrip(&attrs, CodecConfig::legacy());
        assert_eq!(dec.attrs, attrs);
    }

    #[test]
    fn legacy_substitutes_as_trans() {
        let mut attrs = base_attrs();
        attrs.as_path = AsPath::from_asns([Asn::new(4_200_000_001), Asn::new(1)]);
        let dec = roundtrip(&attrs, CodecConfig::legacy());
        assert_eq!(
            dec.attrs.as_path.to_vec(),
            vec![Asn::TRANS, Asn::new(1)],
            "32-bit ASN becomes AS_TRANS on 2-octet session"
        );
    }

    #[test]
    fn all_optional_attrs_roundtrip() {
        let mut attrs = base_attrs();
        attrs.med = Some(50);
        attrs.local_pref = Some(200);
        attrs.atomic_aggregate = true;
        attrs.aggregator = Some(Aggregator {
            asn: Asn::new(2914),
            router_id: "192.0.2.1".parse().unwrap(),
        });
        attrs
            .ext_communities
            .push(ExtendedCommunity::route_target(1, 2));
        attrs
            .large_communities
            .push(LargeCommunity::new(4_200_000_001, 666, 0));
        let dec = roundtrip(&attrs, CodecConfig::modern());
        assert_eq!(dec.attrs, attrs);
    }

    #[test]
    fn unknown_transitive_attr_preserved() {
        let mut attrs = base_attrs();
        attrs.unknown.push(UnknownAttribute {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            type_code: 99,
            data: vec![1, 2, 3, 4, 5],
        });
        let dec = roundtrip(&attrs, CodecConfig::modern());
        assert_eq!(dec.attrs.unknown, attrs.unknown);
    }

    #[test]
    fn long_prepend_splits_segments() {
        let mut attrs = base_attrs();
        let mut path = AsPath::from_asns([Asn::new(1)]);
        path.prepend(Asn::new(7), 300); // > 255, must split
        attrs.as_path = path.clone();
        let dec = roundtrip(&attrs, CodecConfig::modern());
        assert_eq!(dec.attrs.as_path.to_vec(), path.to_vec());
        assert_eq!(dec.attrs.as_path.hop_count(), 301);
    }

    #[test]
    fn many_communities_need_extended_length() {
        // 16K communities fit in one extended-length attribute (§6.1: a BGP
        // update can carry up to 2^16/4 = 16K communities).
        let mut attrs = base_attrs();
        attrs.communities = (0..1000).map(|i| Community::new(100, i as u16)).collect();
        let bytes = encode_attributes(&attrs, &[], &[], CodecConfig::modern()).unwrap();
        let dec = decode_attributes(&bytes, CodecConfig::modern()).unwrap();
        assert_eq!(dec.attrs.communities.len(), 1000);
        assert_eq!(dec.attrs.communities, attrs.communities);
    }

    #[test]
    fn attribute_beyond_the_extended_length_is_refused_not_wrapped() {
        // 16 383 communities are the most one attribute carries (65 532
        // bytes); one more used to wrap the length field to zero.
        let mut attrs = base_attrs();
        let communities = |n: u32| (0..n).map(Community::from_u32).collect::<Vec<_>>();
        attrs.communities = communities(16_383);
        let dec = roundtrip(&attrs, CodecConfig::modern());
        assert_eq!(dec.attrs.communities.len(), 16_383);

        attrs.communities = communities(16_384);
        assert_eq!(
            encode_attributes(&attrs, &[], &[], CodecConfig::modern()),
            Err(WireError::TooLong(65_536))
        );
        // The appending form gives the buffer back as it found it.
        let mut out = vec![0xAB; 7];
        let none = std::iter::empty::<Ipv6Prefix>;
        let refused =
            encode_attributes_into(&mut out, &attrs, none(), none(), CodecConfig::modern());
        assert_eq!(refused, Err(WireError::TooLong(65_536)));
        assert_eq!(out, [0xAB; 7]);
    }

    #[test]
    fn v6_mp_reach_roundtrip() {
        let mut attrs = base_attrs();
        attrs.next_hop = Some("2001:db8::1".parse().unwrap());
        let v6: Ipv6Prefix = "2001:db8:100::/48".parse().unwrap();
        let bytes = encode_attributes(&attrs, &[v6], &[], CodecConfig::modern()).unwrap();
        let dec = decode_attributes(&bytes, CodecConfig::modern()).unwrap();
        assert_eq!(dec.mp_announced, vec![Prefix::V6(v6)]);
        assert_eq!(dec.mp_next_hop, Some("2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn v6_mp_unreach_roundtrip() {
        let attrs = PathAttributes::default();
        let v6: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        let bytes = encode_attributes(&attrs, &[], &[v6], CodecConfig::modern()).unwrap();
        let dec = decode_attributes(&bytes, CodecConfig::modern()).unwrap();
        assert_eq!(dec.mp_withdrawn, vec![Prefix::V6(v6)]);
    }

    #[test]
    fn bad_origin_rejected() {
        let bytes = vec![FLAG_TRANSITIVE, type_code::ORIGIN, 1, 7];
        assert_eq!(
            decode_attributes(&bytes, CodecConfig::modern()).unwrap_err(),
            WireError::BadOrigin(7)
        );
    }

    #[test]
    fn bad_lengths_rejected() {
        // NEXT_HOP with 3 bytes
        let bytes = vec![FLAG_TRANSITIVE, type_code::NEXT_HOP, 3, 1, 2, 3];
        assert!(matches!(
            decode_attributes(&bytes, CodecConfig::modern()),
            Err(WireError::BadAttributeLength { .. })
        ));
        // COMMUNITIES not a multiple of 4
        let bytes = vec![
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            type_code::COMMUNITIES,
            5,
            0,
            0,
            0,
            0,
            0,
        ];
        assert!(matches!(
            decode_attributes(&bytes, CodecConfig::modern()),
            Err(WireError::BadAttributeLength { .. })
        ));
    }

    #[test]
    fn truncated_attribute_rejected() {
        let bytes = vec![FLAG_TRANSITIVE, type_code::AS_PATH, 10, 2, 1];
        assert!(matches!(
            decode_attributes(&bytes, CodecConfig::modern()),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_segment_type_rejected() {
        // AS_PATH with segment type 9
        let bytes = vec![FLAG_TRANSITIVE, type_code::AS_PATH, 6, 9, 1, 0, 0, 0, 1];
        assert_eq!(
            decode_attributes(&bytes, CodecConfig::modern()).unwrap_err(),
            WireError::BadSegmentType(9)
        );
    }

    #[test]
    fn unsupported_afi_safi_rejected() {
        let mut body = vec![0u8, 3, 1]; // AFI 3
        body.push(0);
        let mut bytes = vec![FLAG_OPTIONAL, type_code::MP_UNREACH_NLRI, body.len() as u8];
        bytes.extend_from_slice(&body);
        assert!(matches!(
            decode_attributes(&bytes, CodecConfig::modern()),
            Err(WireError::UnsupportedAfiSafi { afi: 3, .. })
        ));
    }

    #[test]
    fn as_set_roundtrip() {
        let mut attrs = base_attrs();
        attrs.as_path = AsPath::from_segments(vec![
            PathSegment::Sequence(vec![Asn::new(5), Asn::new(4)]),
            PathSegment::Set(vec![Asn::new(2), Asn::new(1)]),
        ]);
        let dec = roundtrip(&attrs, CodecConfig::modern());
        assert_eq!(dec.attrs.as_path, attrs.as_path);
    }
}
