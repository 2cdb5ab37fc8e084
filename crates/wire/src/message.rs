//! BGP message framing (RFC 4271 §4): header marker, length, type, and the
//! per-type body codecs. UPDATE is modelled; OPEN is framed and checked.

use crate::attribute::{append_attributes, decode_attributes_into};
use crate::cursor::Cursor;
use crate::error::WireError;
use crate::nlri;
use crate::CodecConfig;
use bgpworms_types::{Ipv4Prefix, Ipv6Prefix, Prefix, RouteUpdate};

/// Length of the all-ones marker.
const MARKER_LEN: usize = 16;
/// Minimum BGP message length (bare header).
const MIN_MESSAGE_LEN: usize = 19;
/// Maximum BGP message length.
const MAX_MESSAGE_LEN: usize = 4096;

/// Message type codes.
mod msg_type {
    /// OPEN.
    pub(super) const OPEN: u8 = 1;
    /// UPDATE.
    pub(super) const UPDATE: u8 = 2;
    /// NOTIFICATION.
    pub(super) const NOTIFICATION: u8 = 3;
    /// KEEPALIVE.
    pub(super) const KEEPALIVE: u8 = 4;
}

/// A NOTIFICATION message: error code, subcode, diagnostic data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Major error code (RFC 4271 §4.5).
    pub code: u8,
    /// Error subcode.
    pub subcode: u8,
    /// Diagnostic payload.
    pub data: Vec<u8>,
}

/// A decoded BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpMessage {
    /// OPEN, checked for structure; its fields are not kept, since the
    /// measurement reads UPDATEs only.
    Open,
    /// UPDATE — the workhorse; carries withdrawals, attributes and NLRI.
    Update(RouteUpdate),
    /// NOTIFICATION.
    Notification(Notification),
    /// KEEPALIVE.
    Keepalive,
}

/// How many bytes clippy's `large_enum_variant` lets an enum's largest
/// variant outgrow its next largest (the lint's default
/// `enum-variant-size-threshold`).
const LARGE_ENUM_VARIANT_MARGIN: usize = 200;

// `Update` stays unboxed: boxing would add a heap allocation to every
// decoded UPDATE. So the next field added to `PathAttributes` or `AsPath`
// fails here, with this reason, instead of as a lint; `aspath::INLINE` is
// sized against it.
const _: () = assert!(
    size_of::<RouteUpdate>() - size_of::<Notification>() <= LARGE_ENUM_VARIANT_MARGIN,
    "BgpMessage::Update outgrows clippy's large_enum_variant margin over Notification"
);

/// Appends the 19-byte header with a zero length, returning where the
/// message starts so [`finish_header`] can patch the length in.
fn push_header(out: &mut Vec<u8>, msg_type: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0xFF; MARKER_LEN]);
    out.extend_from_slice(&[0, 0]);
    out.push(msg_type);
    start
}

/// Patches the length of the message that began at `start` and runs to
/// the end of `out`.
fn finish_header(out: &mut [u8], start: usize) -> Result<(), WireError> {
    let total = out.len() - start;
    if total > MAX_MESSAGE_LEN {
        return Err(WireError::TooLong(total));
    }
    out[start + MARKER_LEN..start + MARKER_LEN + 2].copy_from_slice(&(total as u16).to_be_bytes());
    Ok(())
}

/// Reserves a two-byte length field, returning its position for
/// [`patch_len`].
fn reserve_len(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0, 0]);
    at
}

/// Fills the length field at `at` with the number of bytes appended after
/// it.
fn patch_len(out: &mut [u8], at: usize) -> Result<(), WireError> {
    let len = out.len() - at - 2;
    let field = u16::try_from(len).map_err(|_| WireError::TooLong(len))?;
    out[at..at + 2].copy_from_slice(&field.to_be_bytes());
    Ok(())
}

/// Encodes an UPDATE message. IPv4 prefixes travel in the update body,
/// IPv6 prefixes via MP_REACH/MP_UNREACH attributes (RFC 4760).
///
/// The `Vec`-returning form of [`encode_update_into`], which holds the one
/// implementation.
pub fn encode_update(update: &RouteUpdate, cfg: CodecConfig) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    encode_update_into(&mut out, update, cfg)?;
    Ok(out)
}

/// Appends one UPDATE message to `out`, whatever `out` already holds (an
/// MRT record body under construction, say): the withdrawn-routes,
/// attribute and message lengths are reserved and patched in place, so no
/// section is staged in a buffer of its own. On `Err`, `out` is left
/// exactly as it was.
pub fn encode_update_into(
    out: &mut Vec<u8>,
    update: &RouteUpdate,
    cfg: CodecConfig,
) -> Result<(), WireError> {
    crate::or_rewind(out, |out| append_update(out, update, cfg))
}

/// The IPv4 prefixes of a mixed list, in order.
fn v4(list: &[Prefix]) -> impl Iterator<Item = Ipv4Prefix> + Clone + '_ {
    list.iter().filter_map(Prefix::as_v4)
}

/// The IPv6 prefixes of a mixed list, in order.
fn v6(list: &[Prefix]) -> impl Iterator<Item = Ipv6Prefix> + Clone + '_ {
    list.iter().filter_map(Prefix::as_v6)
}

fn append_update(
    out: &mut Vec<u8>,
    update: &RouteUpdate,
    cfg: CodecConfig,
) -> Result<(), WireError> {
    let start = push_header(out, msg_type::UPDATE);

    // Withdrawn routes (IPv4).
    let withdrawn_len = reserve_len(out);
    for p in v4(&update.withdrawn) {
        nlri::encode_v4(p, out);
    }
    patch_len(out, withdrawn_len)?;

    // Path attributes. Withdraw-only updates carry none.
    let attrs_len = reserve_len(out);
    if !update.announced.is_empty() || v6(&update.withdrawn).next().is_some() {
        let (announced, withdrawn) = (v6(&update.announced), v6(&update.withdrawn));
        append_attributes(out, &update.attrs, announced, withdrawn, cfg)?;
    }
    patch_len(out, attrs_len)?;

    // IPv4 NLRI.
    for p in v4(&update.announced) {
        nlri::encode_v4(p, out);
    }

    finish_header(out, start)
}

/// Decodes one message from the front of `data`.
///
/// Returns the message and the number of bytes consumed, so a caller can
/// iterate over a concatenated stream (as found inside MRT files and on TCP
/// sessions). The owned form of [`decode_update_into`], which holds the one
/// implementation.
pub fn decode_message(data: &[u8], cfg: CodecConfig) -> Result<(BgpMessage, usize), WireError> {
    let mut update = RouteUpdate::default();
    let (other, used) = decode_update_into(data, cfg, &mut update)?;
    Ok((other.unwrap_or(BgpMessage::Update(update)), used))
}

/// [`decode_message`] with an UPDATE decoded straight into `update`, whose
/// lists and attributes are overwritten in place and keep their buffers: a
/// feed decoded through one scratch update allocates only where an update
/// outgrows the ones before it. A message of another type is returned and
/// leaves `update` as it was. On `Err`, `update` holds no particular value.
pub fn decode_update_into(
    data: &[u8],
    cfg: CodecConfig,
    update: &mut RouteUpdate,
) -> Result<(Option<BgpMessage>, usize), WireError> {
    let mut c = Cursor::new(data);
    let marker = c.take("message marker", MARKER_LEN)?;
    if marker.iter().any(|&b| b != 0xFF) {
        return Err(WireError::BadMarker);
    }
    let length = c.u16("message length")?;
    let ltotal = length as usize;
    if !(MIN_MESSAGE_LEN..=MAX_MESSAGE_LEN).contains(&ltotal) {
        return Err(WireError::BadMessageLength(length));
    }
    let msg_type = c.u8("message type")?;
    let mut body = Cursor::new(c.take("message body", ltotal - MIN_MESSAGE_LEN)?);

    let other = match msg_type {
        msg_type::UPDATE => {
            let wd_len = body.u16("withdrawn routes length")? as usize;
            let wd_bytes = body.take("withdrawn routes", wd_len)?;
            update.withdrawn.clear();
            nlri::decode_v4_run(&mut Cursor::new(wd_bytes), &mut update.withdrawn)?;

            let attr_len = body.u16("total path attribute length")? as usize;
            let attr_bytes = body.take("path attributes", attr_len)?;
            update.announced.clear();
            let mp_next_hop = decode_attributes_into(attr_bytes, cfg, update)?;

            // The IPv4 NLRI follow the attributes on the wire and lead the
            // list, as the IPv4 withdrawals lead theirs.
            let mp_announced = update.announced.len();
            nlri::decode_v4_run(&mut body, &mut update.announced)?;
            update.announced.rotate_left(mp_announced);
            update.attrs.next_hop = update.attrs.next_hop.or(mp_next_hop);
            None
        }
        msg_type::OPEN => {
            check_open(&mut body)?;
            if !body.is_empty() {
                return Err(WireError::BadMessageLength(length));
            }
            Some(BgpMessage::Open)
        }
        msg_type::NOTIFICATION => {
            let code = body.u8("notification code")?;
            let subcode = body.u8("notification subcode")?;
            Some(BgpMessage::Notification(Notification {
                code,
                subcode,
                data: body.take_rest().to_vec(),
            }))
        }
        msg_type::KEEPALIVE if body.is_empty() => Some(BgpMessage::Keepalive),
        msg_type::KEEPALIVE => return Err(WireError::BadMessageLength(length)),
        t => return Err(WireError::UnknownMessageType(t)),
    };
    Ok((other, ltotal))
}

/// Walks an OPEN body (RFC 4271 §4.2): the 10-byte fixed part, then the
/// optional-parameter TLVs inside their stated length. A field cut short
/// is [`WireError::Truncated`] naming it.
fn check_open(body: &mut Cursor<'_>) -> Result<(), WireError> {
    body.u8("open version")?;
    body.u16("open my_as")?;
    body.u16("open hold time")?;
    body.u32("open bgp id")?;
    let params_len = body.u8("open optional parameters length")? as usize;
    let mut params = Cursor::new(body.take("open optional parameters", params_len)?);
    while !params.is_empty() {
        params.u8("optional parameter type")?;
        let len = params.u8("optional parameter length")? as usize;
        params.take("optional parameter body", len)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_types::{AsPath, Asn, Community, PathAttributes};

    fn sample_update() -> RouteUpdate {
        let mut attrs = PathAttributes {
            as_path: AsPath::from_asns([Asn::new(3), Asn::new(2), Asn::new(1)]),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            ..PathAttributes::default()
        };
        attrs.add_community(Community::new(3, 666));
        RouteUpdate::announce("192.0.2.0/24".parse().unwrap(), attrs)
    }

    /// A whole message of type `msg_type` around `body`.
    fn message(msg_type: u8, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let start = push_header(&mut out, msg_type);
        out.extend_from_slice(body);
        finish_header(&mut out, start).unwrap();
        out
    }

    fn keepalive() -> Vec<u8> {
        message(msg_type::KEEPALIVE, &[])
    }

    /// The body of an OPEN from AS 2914 (hold time 180, BGP id 192.0.2.1)
    /// with one capabilities parameter: multiprotocol IPv4 and IPv6
    /// unicast, route refresh, 4-octet AS.
    fn open_body() -> Vec<u8> {
        let caps = [
            1, 4, 0, 1, 0, 1, 1, 4, 0, 2, 0, 1, 2, 0, 65, 4, 0, 0, 0x0B, 0x62,
        ];
        let mut body = vec![4, 0x0B, 0x62, 0, 180, 192, 0, 2, 1];
        body.extend_from_slice(&[caps.len() as u8 + 2, 2, caps.len() as u8]);
        body.extend_from_slice(&caps);
        body
    }

    #[test]
    fn update_roundtrip() {
        let u = sample_update();
        let bytes = encode_update(&u, CodecConfig::modern()).unwrap();
        let (msg, used) = decode_message(&bytes, CodecConfig::modern()).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(msg, BgpMessage::Update(u));
    }

    #[test]
    fn update_with_mixed_families_roundtrips() {
        let mut u = sample_update();
        u.announced.push("2001:db8::/32".parse().unwrap());
        u.withdrawn.push("10.9.0.0/16".parse().unwrap());
        u.withdrawn.push("2001:db8:dead::/48".parse().unwrap());
        let bytes = encode_update(&u, CodecConfig::modern()).unwrap();
        let (msg, _) = decode_message(&bytes, CodecConfig::modern()).unwrap();
        match msg {
            BgpMessage::Update(dec) => {
                assert_eq!(dec.announced, u.announced);
                // v4 withdrawals decode before MP ones; order is preserved here
                assert_eq!(dec.withdrawn, u.withdrawn);
                assert_eq!(dec.attrs.communities, u.attrs.communities);
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn withdraw_only_update_has_no_attributes() {
        let u = RouteUpdate::withdraw(vec!["10.0.0.0/8".parse().unwrap()]);
        let bytes = encode_update(&u, CodecConfig::modern()).unwrap();
        let (msg, _) = decode_message(&bytes, CodecConfig::modern()).unwrap();
        match msg {
            BgpMessage::Update(dec) => {
                assert_eq!(dec.withdrawn, u.withdrawn);
                assert!(dec.announced.is_empty());
            }
            other => panic!("expected update, got {other:?}"),
        }
    }

    #[test]
    fn a_repeated_attribute_keeps_its_first_occurrence() {
        // RFC 7606 §3(g): every occurrence after the first is discarded.
        // The sample's attributes, then a second AS_PATH and COMMUNITIES,
        // and a second MP_REACH_NLRI announcing 2001:db8::/32.
        let mut u = sample_update();
        let v6: Ipv6Prefix = "2001:db8:1::/48".parse().unwrap();
        u.announced.push(Prefix::V6(v6));
        let mut attrs =
            crate::encode_attributes(&u.attrs, &[v6], &[], CodecConfig::modern()).unwrap();
        attrs.extend_from_slice(&[0x40, 2, 6, 2, 1, 0, 0, 0, 9]);
        attrs.extend_from_slice(&[0xC0, 8, 4, 0, 9, 0, 9]);
        attrs.extend_from_slice(&[0x80, 14, 26, 0, 2, 1, 16]);
        attrs.extend_from_slice(&[0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        attrs.extend_from_slice(&[0, 32, 0x20, 0x01, 0x0d, 0xb8]);
        let mut bytes = vec![0xFF; MARKER_LEN];
        let total = MIN_MESSAGE_LEN + 2 + 2 + attrs.len() + 4;
        bytes.extend_from_slice(&(total as u16).to_be_bytes());
        bytes.extend_from_slice(&[msg_type::UPDATE, 0, 0]);
        bytes.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        bytes.extend_from_slice(&attrs);
        bytes.extend_from_slice(&[24, 192, 0, 2]);
        let (msg, used) = decode_message(&bytes, CodecConfig::modern()).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(msg, BgpMessage::Update(u));
    }

    #[test]
    fn keepalive_roundtrip() {
        let bytes = keepalive();
        assert_eq!(bytes.len(), MIN_MESSAGE_LEN);
        let (msg, used) = decode_message(&bytes, CodecConfig::modern()).unwrap();
        assert_eq!(msg, BgpMessage::Keepalive);
        assert_eq!(used, MIN_MESSAGE_LEN);
    }

    #[test]
    fn notification_roundtrip() {
        let n = Notification {
            code: 6,
            subcode: 2,
            data: vec![1, 2, 3],
        };
        let bytes = message(msg_type::NOTIFICATION, &[6, 2, 1, 2, 3]);
        let (msg, _) = decode_message(&bytes, CodecConfig::modern()).unwrap();
        assert_eq!(msg, BgpMessage::Notification(n));
    }

    #[test]
    fn an_open_is_checked_not_modelled() {
        let bytes = message(msg_type::OPEN, &open_body());
        let (msg, used) = decode_message(&bytes, CodecConfig::modern()).unwrap();
        assert_eq!(msg, BgpMessage::Open);
        assert_eq!(used, bytes.len());
        // No optional parameters at all.
        let bare = message(msg_type::OPEN, &[4, 0xFD, 0xE9, 0, 0, 1, 1, 1, 1, 0]);
        let (msg, _) = decode_message(&bare, CodecConfig::legacy()).unwrap();
        assert_eq!(msg, BgpMessage::Open);
    }

    #[test]
    fn truncated_open_rejected() {
        let body = open_body();
        let cut_params = message(msg_type::OPEN, &body[..body.len() - 2]);
        assert!(matches!(
            decode_message(&cut_params, CodecConfig::modern()),
            Err(WireError::Truncated {
                what: "open optional parameters",
                ..
            })
        ));
        let cut_fixed = message(msg_type::OPEN, &[4, 0]);
        assert!(matches!(
            decode_message(&cut_fixed, CodecConfig::modern()),
            Err(WireError::Truncated {
                what: "open my_as",
                ..
            })
        ));
        // A parameter running past the parameters' stated length.
        let overrun = message(msg_type::OPEN, &[4, 0, 1, 0, 0, 1, 1, 1, 1, 3, 2, 4, 1]);
        assert!(matches!(
            decode_message(&overrun, CodecConfig::modern()),
            Err(WireError::Truncated {
                what: "optional parameter body",
                ..
            })
        ));
    }

    #[test]
    fn open_with_bytes_after_its_optional_parameters_is_refused() {
        let mut body = open_body();
        body.push(0);
        let bytes = message(msg_type::OPEN, &body);
        assert_eq!(
            decode_message(&bytes, CodecConfig::modern()).unwrap_err(),
            WireError::BadMessageLength(bytes.len() as u16)
        );
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = keepalive();
        bytes[3] = 0x00;
        assert_eq!(
            decode_message(&bytes, CodecConfig::modern()).unwrap_err(),
            WireError::BadMarker
        );
    }

    #[test]
    fn bad_length_rejected() {
        let mut bytes = keepalive();
        bytes[16] = 0;
        bytes[17] = 5; // < 19
        assert_eq!(
            decode_message(&bytes, CodecConfig::modern()).unwrap_err(),
            WireError::BadMessageLength(5)
        );
        let mut bytes = keepalive();
        bytes[16] = 0xFF;
        bytes[17] = 0xFF; // > 4096
        assert!(matches!(
            decode_message(&bytes, CodecConfig::modern()),
            Err(WireError::BadMessageLength(_))
        ));
    }

    #[test]
    fn keepalive_with_body_rejected() {
        let mut bytes = keepalive();
        bytes.push(0xAB);
        bytes[17] = 20;
        assert!(matches!(
            decode_message(&bytes, CodecConfig::modern()),
            Err(WireError::BadMessageLength(20))
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = keepalive();
        bytes[18] = 9;
        assert_eq!(
            decode_message(&bytes, CodecConfig::modern()).unwrap_err(),
            WireError::UnknownMessageType(9)
        );
    }

    #[test]
    fn truncated_stream_reports_truncation() {
        let u = sample_update();
        let bytes = encode_update(&u, CodecConfig::modern()).unwrap();
        for cut in [0, 5, 18, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_message(&bytes[..cut], CodecConfig::modern()),
                    Err(WireError::Truncated { .. })
                ),
                "cut at {cut} must report truncation"
            );
        }
    }

    #[test]
    fn stream_of_messages_decodes_sequentially() {
        let u = sample_update();
        let mut stream = encode_update(&u, CodecConfig::modern()).unwrap();
        stream.extend_from_slice(&keepalive());
        let (m1, used1) = decode_message(&stream, CodecConfig::modern()).unwrap();
        let (m2, used2) = decode_message(&stream[used1..], CodecConfig::modern()).unwrap();
        assert!(matches!(m1, BgpMessage::Update(_)));
        assert_eq!(m2, BgpMessage::Keepalive);
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn oversized_update_rejected_at_encode() {
        let mut u = sample_update();
        // ~1400 prefixes * ~5 bytes > 4096
        u.announced = (0..1400u32)
            .map(|i| Prefix::V4(bgpworms_types::Ipv4Prefix::new(i << 12, 24).unwrap()))
            .collect();
        assert!(matches!(
            encode_update(&u, CodecConfig::modern()),
            Err(WireError::TooLong(_))
        ));
    }
}
