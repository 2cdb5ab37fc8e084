//! RFC 6396 MRT (Multi-Threaded Routing Toolkit) routing-archive reader and
//! writer.
//!
//! (`ARCHITECTURE.md` at the repository root shows where this interchange
//! boundary sits in the workspace.)
//!
//! This is the interchange boundary of the workspace: the simulated route
//! collectors in `bgpworms-routesim` *write* MRT, and the measurement
//! pipeline in `bgpworms-core` *reads* MRT — exactly the formats the paper
//! consumes from RIPE RIS, RouteViews, Isolario, and PCH:
//!
//! * `BGP4MP` / `BGP4MP_ET` `MESSAGE` and `MESSAGE_AS4` records wrapping
//!   full BGP messages (update streams);
//! * `TABLE_DUMP_V2` `PEER_INDEX_TABLE` plus `RIB_IPV4_UNICAST` /
//!   `RIB_IPV6_UNICAST` records (RIB snapshots).
//!
//! Reading borrows the archive: [`MrtReader`], [`LossyMrtReader`] and
//! [`UpdateStream`] take a byte slice and frame each record as a sub-slice
//! of it, yielding records one at a time; [`UpdateStream::next_into`]
//! decodes every update of a feed into one message the caller reuses. A
//! framing error (a truncated header or body, a bad declared length) ends
//! the stream: every reader returns it once and is exhausted after it, and
//! [`MrtReader::offset`] says where the failing record starts.
//!
//! # Example
//!
//! ```
//! use bgpworms_mrt::{MrtReader, MrtRecord, write_update};
//! use bgpworms_types::{Asn, AsPath, PathAttributes, RouteUpdate};
//!
//! // Write one update...
//! let mut attrs = PathAttributes::default();
//! attrs.as_path = AsPath::from_asns([Asn::new(2), Asn::new(1)]);
//! attrs.next_hop = Some("10.0.0.1".parse().unwrap());
//! let update = RouteUpdate::announce("192.0.2.0/24".parse().unwrap(), attrs);
//! let mut buf = Vec::new();
//! write_update(&mut buf, 1_522_540_800, Asn::new(2), Asn::new(64_500),
//!              "10.0.0.2".parse().unwrap(), &update).unwrap();
//!
//! // ...and read it back.
//! let mut reader = MrtReader::new(buf.as_slice());
//! match reader.next_record().unwrap().unwrap() {
//!     MrtRecord::Bgp4mp(m) => assert_eq!(m.peer_as, Asn::new(2)),
//!     other => panic!("unexpected record {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod read;
pub mod record;
pub mod write;

pub use error::{MrtError, MrtErrorKind};
pub use read::{LossyMrtReader, MrtReader, SkipTally, UpdateStream};
pub use record::{
    Bgp4mpMessage, MrtHeader, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibSnapshot,
    StateChange, BGP4MP, BGP4MP_ET, TABLE_DUMP_V2,
};
pub use write::{
    write_rib_dump, write_state_change, write_update, write_update_into, MrtWriter, TableDumpWriter,
};
