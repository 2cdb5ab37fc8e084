//! RFC 4271 BGP message wire codec.
//!
//! (`ARCHITECTURE.md` at the repository root shows where the wire layer
//! sits in the workspace.)
//!
//! Encodes and decodes BGP UPDATE messages to and from their on-the-wire
//! representation. The other three message types are framed on decode:
//! NOTIFICATION keeps its code, subcode and data, KEEPALIVE must be empty,
//! and OPEN is checked, not modelled — its fixed part and its optional
//! parameters inside their stated length, with nothing after them — since
//! the measurement reads UPDATEs only. The UPDATE codec covers:
//!
//! * path attributes with full flag handling (optional/transitive/partial/
//!   extended length), preserving unknown transitive attributes opaquely;
//! * both 2-octet and 4-octet AS_PATH encodings (RFC 6793), selected by
//!   [`CodecConfig::asn4`];
//! * RFC 1997 COMMUNITIES, RFC 8092 LARGE_COMMUNITY and RFC 4360 extended
//!   communities;
//! * RFC 4760 MP_REACH_NLRI / MP_UNREACH_NLRI for IPv6 unicast.
//!
//! The decoder is defensive: every length is validated before use and all
//! failures are reported as structured [`WireError`]s — the fuzz-ish
//! property tests feed it arbitrary byte soup.
//!
//! Encoding has **one body per encoder**: [`encode_update_into`] and
//! [`encode_attributes_into`] append to a buffer the caller owns (an MRT
//! record body, say), writing each length either after measuring what
//! follows or by patching a reserved field, so nothing is staged in a
//! second `Vec`; on `Err` the buffer is as it was. [`encode_update`] and
//! [`encode_attributes`] are those two called on a new `Vec`, not a second
//! implementation. A length that does not fit its field is
//! [`WireError::TooLong`], never a wrapped number.
//!
//! Decoding has **one body too**: [`decode_update_into`] decodes an UPDATE
//! straight into a [`RouteUpdate`](bgpworms_types::RouteUpdate) the caller
//! owns, overwriting its lists, path and attributes in place so their
//! buffers are reused. [`decode_message`] is it called on a new update, and
//! [`decode_attributes`] its attribute decoder called on one. An attribute
//! that occurs twice is validated both times and kept the first time (RFC
//! 7606 §3(g)).
//!
//! # Example
//!
//! ```
//! use bgpworms_types::{Asn, AsPath, PathAttributes, Prefix, RouteUpdate};
//! use bgpworms_wire::{decode_message, encode_update, BgpMessage, CodecConfig};
//!
//! let mut attrs = PathAttributes::default();
//! attrs.as_path = AsPath::from_asns([Asn::new(2), Asn::new(1)]);
//! attrs.next_hop = Some("10.0.0.1".parse().unwrap());
//! let update = RouteUpdate::announce("192.0.2.0/24".parse().unwrap(), attrs);
//!
//! let cfg = CodecConfig::default();
//! let bytes = encode_update(&update, cfg).unwrap();
//! let (msg, used) = decode_message(&bytes, cfg).unwrap();
//! assert_eq!(used, bytes.len());
//! match msg {
//!     BgpMessage::Update(u) => assert_eq!(u.announced, vec!["192.0.2.0/24".parse::<Prefix>().unwrap()]),
//!     _ => panic!("expected UPDATE"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod cursor;
pub mod error;
pub mod message;
pub mod nlri;

pub use attribute::{decode_attributes, encode_attributes, encode_attributes_into};
pub use error::WireError;
pub use message::{
    decode_message, decode_update_into, encode_update, encode_update_into, BgpMessage, Notification,
};

/// Runs `append` on `out` and, if it fails, takes back whatever it had
/// appended by then — the "on `Err` the buffer is as it was" of both
/// appending encoders.
fn or_rewind(
    out: &mut Vec<u8>,
    append: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let start = out.len();
    let appended = append(out);
    if appended.is_err() {
        out.truncate(start);
    }
    appended
}

/// Session-level codec parameters that change the wire representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecConfig {
    /// Encode/decode AS numbers in AS_PATH and AGGREGATOR as 4-octet values
    /// (RFC 6793 capability negotiated). Modern sessions — and the MRT
    /// `MESSAGE_AS4` subtype — use 4-octet; legacy sessions use 2-octet with
    /// AS_TRANS substitution.
    pub asn4: bool,
}

impl Default for CodecConfig {
    fn default() -> Self {
        CodecConfig { asn4: true }
    }
}

impl CodecConfig {
    /// Config for a legacy 2-octet-AS session.
    pub const fn legacy() -> Self {
        CodecConfig { asn4: false }
    }

    /// Config for a 4-octet-AS session (the default).
    pub const fn modern() -> Self {
        CodecConfig { asn4: true }
    }
}
