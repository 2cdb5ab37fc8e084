//! MRT record structures (RFC 6396 §4): the common header, BGP4MP message
//! and state-change records, and TABLE_DUMP_V2 RIB snapshots.

use bgpworms_types::{Asn, PathAttributes, Prefix, RouteUpdate};
use std::net::{IpAddr, Ipv4Addr};

/// MRT type: TABLE_DUMP_V2 (RIB snapshots).
pub const TABLE_DUMP_V2: u16 = 13;
/// MRT type: BGP4MP (update/state messages).
pub const BGP4MP: u16 = 16;
/// MRT type: BGP4MP with microsecond timestamps.
pub const BGP4MP_ET: u16 = 17;

/// BGP4MP subtypes (RFC 6396 §4.4, RFC 8050 not included).
pub mod bgp4mp_subtype {
    /// State change with 2-octet ASNs.
    pub const STATE_CHANGE: u16 = 0;
    /// BGP message with 2-octet ASNs.
    pub const MESSAGE: u16 = 1;
    /// BGP message with 4-octet ASNs.
    pub const MESSAGE_AS4: u16 = 4;
    /// State change with 4-octet ASNs.
    pub const STATE_CHANGE_AS4: u16 = 5;
}

/// TABLE_DUMP_V2 subtypes.
pub mod tdv2_subtype {
    /// Peer index table.
    pub const PEER_INDEX_TABLE: u16 = 1;
    /// IPv4 unicast RIB.
    pub const RIB_IPV4_UNICAST: u16 = 2;
    /// IPv6 unicast RIB.
    pub const RIB_IPV6_UNICAST: u16 = 4;
}

/// The 12-byte MRT common header (plus the extended-timestamp microseconds
/// when the type is `*_ET`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrtHeader {
    /// Seconds since the Unix epoch.
    pub timestamp: u32,
    /// Microsecond part for `_ET` records.
    pub microseconds: Option<u32>,
    /// MRT type.
    pub mrt_type: u16,
    /// MRT subtype.
    pub subtype: u16,
}

/// A BGP4MP `MESSAGE`/`MESSAGE_AS4` record: one BGP UPDATE as seen on a
/// collector peering session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bgp4mpMessage {
    /// Record header.
    pub header: MrtHeader,
    /// The peer (the collector's BGP neighbor) AS.
    pub peer_as: Asn,
    /// The collector-side AS.
    pub local_as: Asn,
    /// Interface index (always 0 in our archives).
    pub ifindex: u16,
    /// Peer IP address.
    pub peer_ip: IpAddr,
    /// Local IP address.
    pub local_ip: IpAddr,
    /// The embedded UPDATE.
    pub update: RouteUpdate,
}

/// An empty `MESSAGE_AS4` record: the scratch message
/// [`UpdateStream::next_into`](crate::UpdateStream::next_into) refills.
impl Default for Bgp4mpMessage {
    fn default() -> Self {
        let unspecified = IpAddr::V4(Ipv4Addr::UNSPECIFIED);
        Bgp4mpMessage {
            header: MrtHeader {
                timestamp: 0,
                microseconds: None,
                mrt_type: BGP4MP,
                subtype: bgp4mp_subtype::MESSAGE_AS4,
            },
            peer_as: Asn::default(),
            local_as: Asn::default(),
            ifindex: 0,
            peer_ip: unspecified,
            local_ip: unspecified,
            update: RouteUpdate::default(),
        }
    }
}

/// A BGP4MP `STATE_CHANGE` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateChange {
    /// Record header.
    pub header: MrtHeader,
    /// The peer AS.
    pub peer_as: Asn,
    /// The collector-side AS.
    pub local_as: Asn,
    /// Peer IP address.
    pub peer_ip: IpAddr,
    /// Local IP address.
    pub local_ip: IpAddr,
    /// FSM state before the change (RFC 4271 §8.2.2 numbering).
    pub old_state: u16,
    /// FSM state after the change.
    pub new_state: u16,
}

/// One peer of a TABLE_DUMP_V2 PEER_INDEX_TABLE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerEntry {
    /// Peer BGP identifier.
    pub bgp_id: u32,
    /// Peer IP address.
    pub ip: IpAddr,
    /// Peer AS.
    pub asn: Asn,
}

/// The PEER_INDEX_TABLE that RIB records reference by index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerIndexTable {
    /// Collector BGP identifier.
    pub collector_id: u32,
    /// Optional view name.
    pub view_name: String,
    /// Peers, in index order.
    pub peers: Vec<PeerEntry>,
}

/// One route in a RIB snapshot: which peer advertised it and with what
/// attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Index into the PEER_INDEX_TABLE.
    pub peer_index: u16,
    /// When the route was received (Unix seconds).
    pub originated_time: u32,
    /// Path attributes (4-octet AS encoding per RFC 6396).
    pub attrs: PathAttributes,
}

/// A RIB snapshot for one prefix: every peer's best route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibSnapshot {
    /// Record header.
    pub header: MrtHeader,
    /// Monotonic sequence number within the dump.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Prefix,
    /// Entries, one per advertising peer.
    pub entries: Vec<RibEntry>,
}

/// Any record we can read from an archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtRecord {
    /// BGP4MP MESSAGE / MESSAGE_AS4 (optionally `_ET`).
    Bgp4mp(Bgp4mpMessage),
    /// BGP4MP STATE_CHANGE / STATE_CHANGE_AS4.
    StateChange(StateChange),
    /// TABLE_DUMP_V2 PEER_INDEX_TABLE.
    PeerIndexTable(PeerIndexTable),
    /// TABLE_DUMP_V2 RIB_IPV4_UNICAST / RIB_IPV6_UNICAST.
    Rib(RibSnapshot),
    /// A record type we skip but surface for accounting.
    Unknown {
        /// Record header.
        header: MrtHeader,
        /// Raw body.
        body: Vec<u8>,
    },
}

impl MrtRecord {
    /// The record's header.
    pub fn header(&self) -> MrtHeader {
        match self {
            MrtRecord::Bgp4mp(m) => m.header,
            MrtRecord::StateChange(s) => s.header,
            MrtRecord::PeerIndexTable(_) => MrtHeader {
                timestamp: 0,
                microseconds: None,
                mrt_type: TABLE_DUMP_V2,
                subtype: tdv2_subtype::PEER_INDEX_TABLE,
            },
            MrtRecord::Rib(r) => r.header,
            MrtRecord::Unknown { header, .. } => *header,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_header_accessor() {
        let h = MrtHeader {
            timestamp: 123,
            microseconds: Some(7),
            mrt_type: BGP4MP_ET,
            subtype: bgp4mp_subtype::MESSAGE_AS4,
        };
        let rec = MrtRecord::Unknown {
            header: h,
            body: vec![],
        };
        assert_eq!(rec.header(), h);
    }

    #[test]
    fn subtype_constants_match_rfc() {
        assert_eq!(TABLE_DUMP_V2, 13);
        assert_eq!(BGP4MP, 16);
        assert_eq!(BGP4MP_ET, 17);
        assert_eq!(bgp4mp_subtype::MESSAGE, 1);
        assert_eq!(bgp4mp_subtype::MESSAGE_AS4, 4);
        assert_eq!(tdv2_subtype::PEER_INDEX_TABLE, 1);
        assert_eq!(tdv2_subtype::RIB_IPV4_UNICAST, 2);
        assert_eq!(tdv2_subtype::RIB_IPV6_UNICAST, 4);
    }
}
