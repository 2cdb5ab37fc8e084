//! Property tests for the wire codec: arbitrary logical updates round-trip
//! bit-exactly, arbitrary byte soup never panics the decoder, the appending
//! encoders write exactly the wrappers' bytes behind whatever the buffer
//! already held, and the in-place decoder gives exactly the owned one's
//! result whatever its scratch update held.

use bgpworms_types::{
    attr::{Aggregator, Origin, PathAttributes},
    AsPath, Asn, Community, Ipv4Prefix, Ipv6Prefix, LargeCommunity, Prefix, RouteUpdate,
};
use bgpworms_wire::{
    decode_attributes, decode_message, decode_update_into, encode_attributes,
    encode_attributes_into, encode_update, encode_update_into, BgpMessage, CodecConfig,
};
use proptest::prelude::*;

fn arb_v4_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::V4(Ipv4Prefix::new(a, l).unwrap()))
}

fn arb_v6_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(a, l)| Prefix::V6(Ipv6Prefix::new(a, l).unwrap()))
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        0u8..3,
        proptest::collection::vec(1u32..100_000, 1..8),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        any::<bool>(),
        proptest::option::of((1u32..100_000, any::<u32>())),
        proptest::collection::vec(any::<u32>(), 0..12),
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..4),
    )
        .prop_map(
            |(origin, path, nh, med, local_pref, atomic, agg, comms, large)| PathAttributes {
                origin: Origin::from_code(origin).unwrap(),
                as_path: AsPath::from_asns(path.into_iter().map(Asn::new)),
                next_hop: Some(std::net::IpAddr::V4(std::net::Ipv4Addr::from(nh))),
                med,
                local_pref,
                atomic_aggregate: atomic,
                aggregator: agg.map(|(asn, rid)| Aggregator {
                    asn: Asn::new(asn),
                    router_id: std::net::Ipv4Addr::from(rid),
                }),
                communities: comms.into_iter().map(Community::from_u32).collect(),
                large_communities: large
                    .into_iter()
                    .map(|(a, b, c)| LargeCommunity::new(a, b, c))
                    .collect(),
                ext_communities: vec![],
                unknown: vec![],
            },
        )
}

/// Attributes that make the encoder take every length decision it has:
/// a prepend past 255 hops splits the AS_PATH segment (and pushes the
/// attribute into its extended-length form), more than 63 communities force
/// the extended length on COMMUNITIES. Both at once overflow the 4 096-byte
/// message — the refusal path.
fn arb_stress_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        arb_attrs(),
        prop_oneof![Just(0usize), 256usize..600],
        prop_oneof![Just(0u32), 64u32..400],
    )
        .prop_map(|(mut attrs, prepend, extra)| {
            attrs.as_path.prepend(Asn::new(64_999), prepend);
            attrs
                .communities
                .extend((0..extra).map(|i| Community::new(64_999, i as u16)));
            attrs
        })
}

/// A mixed-family list, the families interleaved as drawn.
fn arb_prefixes() -> impl Strategy<Value = Vec<Prefix>> {
    proptest::collection::vec(prop_oneof![arb_v4_prefix(), arb_v6_prefix()], 0..8)
}

/// What crossing the wire makes of `attrs`, segment boundaries aside (a
/// sequence past 255 hops comes back split, so the path is flattened on
/// both sides of a comparison): nothing on a 4-octet session; on a 2-octet
/// one wide ASNs become AS_TRANS.
fn as_sent(mut attrs: PathAttributes, cfg: CodecConfig) -> PathAttributes {
    let narrow = |asn: Asn| match asn.as_u16() {
        None if !cfg.asn4 => Asn::TRANS,
        _ => asn,
    };
    attrs.as_path = attrs.as_path.asns().map(narrow).collect();
    if let Some(agg) = attrs.aggregator.as_mut() {
        agg.asn = narrow(agg.asn);
    }
    attrs
}

/// The wire carries IPv4 NLRI and MP attributes apart: a decoded list is
/// the IPv4 prefixes in order, then the IPv6 ones.
fn v4_then_v6(list: &[Prefix]) -> Vec<Prefix> {
    let (v4, v6): (Vec<Prefix>, Vec<Prefix>) = list.iter().partition(|p| p.is_v4());
    [v4, v6].concat()
}

/// `bytes` with one more IPv4 NLRI byte, a prefix length no prefix has:
/// the attributes and the NLRI before it decode, then the decode fails.
fn poisoned(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes.push(0xFF);
    let len = u16::from_be_bytes([bytes[16], bytes[17]]) + 1;
    bytes[16..18].copy_from_slice(&len.to_be_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_capped(256))]

    /// The scratch update holds the default, an earlier update (longer or
    /// shorter than the one decoded next) or what an earlier decode that
    /// failed half way left; the message decoded into it is an encoded
    /// update, perhaps with one bit flipped. Whatever the mix, the in-place
    /// decode is the owned decode of a fresh update: the same update, the
    /// same other message (leaving the scratch alone) or the same error.
    #[test]
    fn decoding_into_a_used_update_equals_decoding_into_a_fresh_one(
        earlier in (arb_stress_attrs(), arb_prefixes(), arb_prefixes()),
        state in 0u8..3,
        attrs in arb_stress_attrs(),
        announced in arb_prefixes(),
        withdrawn in arb_prefixes(),
        flip in proptest::option::of((any::<usize>(), 0u8..8)),
        asn4 in any::<bool>(),
    ) {
        let cfg = if asn4 { CodecConfig::modern() } else { CodecConfig::legacy() };
        let (earlier_attrs, earlier_announced, earlier_withdrawn) = earlier;
        let earlier = RouteUpdate {
            withdrawn: earlier_withdrawn,
            attrs: earlier_attrs,
            announced: earlier_announced,
        };
        let mut scratch = RouteUpdate::default();
        if let (1 | 2, Ok(bytes)) = (state, encode_update(&earlier, cfg)) {
            let bytes = if state == 2 { poisoned(bytes) } else { bytes };
            let first = decode_update_into(&bytes, cfg, &mut scratch);
            prop_assert_eq!(first.is_ok(), state == 1, "{:?}", first);
        }
        let before = scratch.clone();

        let u = RouteUpdate { withdrawn, attrs, announced };
        let Ok(mut bytes) = encode_update(&u, cfg) else {
            return Ok(());
        };
        if let Some((pos, bit)) = flip {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        let fresh = decode_message(&bytes, cfg);
        let reused = decode_update_into(&bytes, cfg, &mut scratch);
        match (fresh, reused) {
            (Ok((BgpMessage::Update(want), n)), Ok((None, m))) => {
                prop_assert_eq!(n, m);
                prop_assert_eq!(scratch, want);
            }
            (Ok((want, n)), Ok((Some(got), m))) => {
                prop_assert_eq!(n, m);
                prop_assert_eq!(got, want);
                prop_assert_eq!(scratch, before, "another message type left the update alone");
            }
            (Err(want), Err(got)) => prop_assert_eq!(got, want),
            (fresh, reused) => {
                return Err(TestCaseError::fail(format!("{fresh:?} vs {reused:?}")));
            }
        }
    }

    #[test]
    fn appended_update_is_the_wrappers_bytes_behind_an_untouched_prefix(
        attrs in arb_stress_attrs(),
        announced in arb_prefixes(),
        withdrawn in arb_prefixes(),
        asn4 in any::<bool>(),
        held in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let u = RouteUpdate { withdrawn, attrs, announced };
        let cfg = if asn4 { CodecConfig::modern() } else { CodecConfig::legacy() };
        let mut out = held.clone();
        let appended = encode_update_into(&mut out, &u, cfg);
        let bytes = match encode_update(&u, cfg) {
            Ok(bytes) => bytes,
            Err(refusal) => {
                // Refused by both, for the same reason, nothing left behind.
                prop_assert_eq!(appended, Err(refusal));
                prop_assert_eq!(out, held);
                return Ok(());
            }
        };
        prop_assert_eq!(appended, Ok(()));
        prop_assert_eq!(&out[..held.len()], &held[..], "the bytes already there moved");
        prop_assert_eq!(&out[held.len()..], &bytes[..], "not the wrapper's bytes");

        let (msg, used) = decode_message(&out[held.len()..], cfg).unwrap();
        prop_assert_eq!(used, bytes.len());
        let BgpMessage::Update(dec) = msg else {
            return Err(TestCaseError::fail(format!("expected update, got {msg:?}")));
        };
        prop_assert_eq!(dec.announced, v4_then_v6(&u.announced));
        prop_assert_eq!(dec.withdrawn, v4_then_v6(&u.withdrawn));
        // A withdraw-only IPv4 update carries no attribute section at all.
        let carried = !u.announced.is_empty() || u.withdrawn.iter().any(Prefix::is_v6);
        let sent = if carried { u.attrs } else { PathAttributes::default() };
        prop_assert_eq!(as_sent(dec.attrs, CodecConfig::modern()), as_sent(sent, cfg));
    }

    #[test]
    fn appended_attributes_are_the_wrappers_bytes_behind_an_untouched_prefix(
        attrs in arb_stress_attrs(),
        announced in proptest::collection::vec(arb_v6_prefix(), 0..6),
        withdrawn in proptest::collection::vec(arb_v6_prefix(), 0..6),
        asn4 in any::<bool>(),
        held in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let v6 = |list: &[Prefix]| list.iter().filter_map(Prefix::as_v6).collect::<Vec<_>>();
        let (v6_announced, v6_withdrawn) = (v6(&announced), v6(&withdrawn));
        let cfg = if asn4 { CodecConfig::modern() } else { CodecConfig::legacy() };
        // No 4 096-byte cap at this level: every draw encodes.
        let bytes = encode_attributes(&attrs, &v6_announced, &v6_withdrawn, cfg).unwrap();
        let mut out = held.clone();
        encode_attributes_into(
            &mut out,
            &attrs,
            v6_announced.iter().copied(),
            v6_withdrawn.iter().copied(),
            cfg,
        )
        .unwrap();
        prop_assert_eq!(&out[..held.len()], &held[..], "the bytes already there moved");
        prop_assert_eq!(&out[held.len()..], &bytes[..], "not the wrapper's bytes");

        let dec = decode_attributes(&bytes, cfg).unwrap();
        prop_assert_eq!(as_sent(dec.attrs, CodecConfig::modern()), as_sent(attrs, cfg));
        prop_assert_eq!(dec.mp_announced, announced);
        prop_assert_eq!(dec.mp_withdrawn, withdrawn);
    }

    #[test]
    fn update_roundtrips_modern(
        attrs in arb_attrs(),
        announced in proptest::collection::vec(arb_v4_prefix(), 1..20),
        announced6 in proptest::collection::vec(arb_v6_prefix(), 0..10),
        withdrawn in proptest::collection::vec(arb_v4_prefix(), 0..10),
    ) {
        let mut u = RouteUpdate { withdrawn, attrs, announced };
        u.announced.extend(announced6);
        let cfg = CodecConfig::modern();
        let bytes = match encode_update(&u, cfg) {
            Ok(b) => b,
            Err(bgpworms_wire::WireError::TooLong(_)) => return Ok(()), // legal rejection
            Err(e) => return Err(TestCaseError::fail(format!("encode failed: {e}"))),
        };
        let (msg, used) = decode_message(&bytes, cfg).unwrap();
        prop_assert_eq!(used, bytes.len());
        match msg {
            BgpMessage::Update(dec) => {
                prop_assert_eq!(dec.announced, u.announced);
                prop_assert_eq!(dec.withdrawn, u.withdrawn);
                prop_assert_eq!(dec.attrs, u.attrs);
            }
            other => return Err(TestCaseError::fail(format!("expected update, got {other:?}"))),
        }
    }

    #[test]
    fn update_roundtrips_legacy_16bit_asns(
        path in proptest::collection::vec(1u32..65_000, 1..6),
        announced in proptest::collection::vec(arb_v4_prefix(), 1..5),
    ) {
        let attrs = PathAttributes {
            as_path: AsPath::from_asns(path.into_iter().map(Asn::new)),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            ..PathAttributes::default()
        };
        let u = RouteUpdate { withdrawn: vec![], attrs, announced };
        let cfg = CodecConfig::legacy();
        let bytes = encode_update(&u, cfg).unwrap();
        let (msg, _) = decode_message(&bytes, cfg).unwrap();
        match msg {
            BgpMessage::Update(dec) => {
                prop_assert_eq!(dec.attrs.as_path, u.attrs.as_path);
                prop_assert_eq!(dec.announced, u.announced);
            }
            other => return Err(TestCaseError::fail(format!("{other:?}"))),
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine; panics are not.
        let _ = decode_message(&data, CodecConfig::modern());
        let _ = decode_message(&data, CodecConfig::legacy());
    }

    #[test]
    fn decoder_never_panics_on_marker_prefixed_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        // Force it past the marker check so the body decoders get exercised.
        let mut msg = vec![0xFFu8; 16];
        let total = (19 + data.len()) as u16;
        msg.extend_from_slice(&total.to_be_bytes());
        msg.push(2); // UPDATE
        msg.extend_from_slice(&data);
        let _ = decode_message(&msg, CodecConfig::modern());
    }

    #[test]
    fn truncation_of_valid_message_is_graceful(
        attrs in arb_attrs(),
        announced in proptest::collection::vec(arb_v4_prefix(), 1..5),
        frac in 0.0f64..1.0,
    ) {
        let u = RouteUpdate { withdrawn: vec![], attrs, announced };
        let cfg = CodecConfig::modern();
        let bytes = encode_update(&u, cfg).unwrap();
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_message(&bytes[..cut], cfg).is_err());
        }
    }
}
