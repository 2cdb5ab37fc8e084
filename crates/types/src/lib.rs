//! Core BGP data types shared by every crate in the `bgpworms` workspace.
//!
//! (`ARCHITECTURE.md` at the repository root maps where this vocabulary
//! sits under the workspace's layer stack.)
//!
//! This crate is dependency-free (std only) and holds the *logical* model of
//! the routing system: AS numbers, IPv4/IPv6 prefixes, RFC 1997 communities
//! (plus RFC 8092 large and RFC 4360 extended communities), AS paths, and the
//! BGP path attributes carried by UPDATE messages.
//!
//! Wire-format concerns (RFC 4271 encoding) live in `bgpworms-wire`; archive
//! formats (RFC 6396 MRT) live in `bgpworms-mrt`.
//!
//! # Conventions
//!
//! * AS paths are stored collector-first: `path[0]` is the AS adjacent to the
//!   observation point and `path.last()` is the origin. This matches the
//!   presentation order of the paper and of `show ip bgp` output.
//! * Communities display in the canonical `ASN:value` form, e.g. `3130:411`.
//!
//! # Example
//!
//! ```
//! use bgpworms_types::{Asn, Community, Ipv4Prefix, AsPath};
//!
//! let prepend_once: Community = "2914:421".parse().unwrap();
//! assert_eq!(prepend_once.asn_part(), 2914);
//! assert_eq!(prepend_once.value_part(), 421);
//!
//! let p: Ipv4Prefix = "192.0.2.0/24".parse().unwrap();
//! assert!(p.covers("192.0.2.64/26".parse().unwrap()));
//!
//! let path = AsPath::from_asns([Asn::new(3), Asn::new(2), Asn::new(1)]);
//! assert_eq!(path.origin(), Some(Asn::new(1)));
//! assert_eq!(path.hop_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod aspath;
pub mod attr;
pub mod community;
pub mod error;
pub mod ext_community;
pub mod large_community;
pub mod prefix;
pub mod update;

pub use asn::Asn;
pub use aspath::{AsPath, PathSegment};
pub use attr::{Aggregator, Origin, PathAttributes};
pub use community::{Community, WellKnown, BLACKHOLE_VALUE};
pub use error::TypeError;
pub use ext_community::ExtendedCommunity;
pub use large_community::LargeCommunity;
pub use prefix::{Ipv4Prefix, Ipv6Prefix, Prefix, PrefixLengths};
pub use update::{Announcement, RouteUpdate};
