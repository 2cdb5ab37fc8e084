//! MRT archive writer: BGP4MP update streams and TABLE_DUMP_V2 RIB dumps.
//!
//! The simulated collectors use these to produce archives byte-compatible
//! with what RIS/RouteViews-style collectors publish, which keeps the
//! analysis pipeline honest: it parses real MRT, never simulator internals.
//!
//! **One body per writer.** A [`MrtWriter`] owns the one buffer every
//! record body is built in: each record clears it, appends its fields and
//! the embedded BGP bytes straight into it (`bgpworms_wire`'s `*_into`
//! encoders, variable lengths reserved and patched in place), and hands it
//! to [`MrtWriter::write_record`]. Nothing reaches the sink until the whole
//! body encoded, so a record that fails — a field too long for its length
//! prefix — leaves the archive exactly as it was.

use crate::error::MrtError;
use crate::record::{bgp4mp_subtype, tdv2_subtype, PeerEntry, RibEntry, BGP4MP, TABLE_DUMP_V2};
use bgpworms_types::{Asn, Prefix, RouteUpdate};
use bgpworms_wire::{encode_attributes_into, encode_update_into, CodecConfig};
use std::io::Write;
use std::iter;
use std::net::IpAddr;

/// Low-level writer emitting raw MRT records.
pub struct MrtWriter<W: Write> {
    inner: W,
    /// The body under construction, reused record after record.
    body: Vec<u8>,
    /// Records written so far.
    pub records_written: u64,
}

impl<W: Write> MrtWriter<W> {
    /// Wraps a byte sink.
    pub fn new(inner: W) -> Self {
        MrtWriter {
            inner,
            body: Vec::new(),
            records_written: 0,
        }
    }

    /// Writes one record with the given header fields and body.
    pub fn write_record(
        &mut self,
        timestamp: u32,
        mrt_type: u16,
        subtype: u16,
        body: &[u8],
    ) -> Result<(), MrtError> {
        let len = u32::try_from(body.len()).map_err(|_| MrtError::FieldTooLong("record body"))?;
        let mut header = [0u8; 12];
        header[0..4].copy_from_slice(&timestamp.to_be_bytes());
        header[4..6].copy_from_slice(&mrt_type.to_be_bytes());
        header[6..8].copy_from_slice(&subtype.to_be_bytes());
        header[8..12].copy_from_slice(&len.to_be_bytes());
        self.inner.write_all(&header)?;
        self.inner.write_all(body)?;
        self.records_written += 1;
        Ok(())
    }

    /// Builds one record's body in the writer's reusable buffer and writes
    /// the record — or, when `fill` fails, writes nothing.
    fn write_built(
        &mut self,
        timestamp: u32,
        mrt_type: u16,
        subtype: u16,
        fill: impl FnOnce(&mut Vec<u8>) -> Result<(), MrtError>,
    ) -> Result<(), MrtError> {
        let mut body = std::mem::take(&mut self.body);
        body.clear();
        let written =
            fill(&mut body).and_then(|()| self.write_record(timestamp, mrt_type, subtype, &body));
        self.body = body;
        written
    }

    /// Consumes the writer, returning the sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

fn push_ip(body: &mut Vec<u8>, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => body.extend_from_slice(&v4.octets()),
        IpAddr::V6(v6) => body.extend_from_slice(&v6.octets()),
    }
}

fn afi_of(ip: IpAddr) -> u16 {
    match ip {
        IpAddr::V4(_) => 1,
        IpAddr::V6(_) => 2,
    }
}

fn unspecified_like(ip: IpAddr) -> IpAddr {
    match ip {
        IpAddr::V4(_) => IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
        IpAddr::V6(_) => IpAddr::V6(std::net::Ipv6Addr::UNSPECIFIED),
    }
}

/// The fields every BGP4MP `*_AS4` body opens with.
fn push_session(body: &mut Vec<u8>, peer_as: Asn, local_as: Asn, peer_ip: IpAddr) {
    body.extend_from_slice(&peer_as.get().to_be_bytes());
    body.extend_from_slice(&local_as.get().to_be_bytes());
    body.extend_from_slice(&0u16.to_be_bytes()); // ifindex
    body.extend_from_slice(&afi_of(peer_ip).to_be_bytes());
    push_ip(body, peer_ip);
    push_ip(body, unspecified_like(peer_ip));
}

/// `len` as a two-byte length or count field, or the name of the field it
/// does not fit.
fn field_u16(len: usize, what: &'static str) -> Result<[u8; 2], MrtError> {
    u16::try_from(len)
        .map(u16::to_be_bytes)
        .map_err(|_| MrtError::FieldTooLong(what))
}

/// Writes one `BGP4MP MESSAGE_AS4` record wrapping `update`, as seen from a
/// collector peering with `peer_as` at `peer_ip`.
pub fn write_update<W: Write>(
    sink: W,
    timestamp: u32,
    peer_as: Asn,
    local_as: Asn,
    peer_ip: IpAddr,
    update: &RouteUpdate,
) -> Result<W, MrtError> {
    let mut w = MrtWriter::new(sink);
    write_update_into(&mut w, timestamp, peer_as, local_as, peer_ip, update)?;
    Ok(w.into_inner())
}

/// Writes one `BGP4MP MESSAGE_AS4` record into an existing [`MrtWriter`].
pub fn write_update_into<W: Write>(
    w: &mut MrtWriter<W>,
    timestamp: u32,
    peer_as: Asn,
    local_as: Asn,
    peer_ip: IpAddr,
    update: &RouteUpdate,
) -> Result<(), MrtError> {
    w.write_built(timestamp, BGP4MP, bgp4mp_subtype::MESSAGE_AS4, |body| {
        push_session(body, peer_as, local_as, peer_ip);
        Ok(encode_update_into(body, update, CodecConfig::modern())?)
    })
}

/// Writes one `BGP4MP STATE_CHANGE_AS4` record.
pub fn write_state_change<W: Write>(
    w: &mut MrtWriter<W>,
    timestamp: u32,
    peer_as: Asn,
    local_as: Asn,
    peer_ip: IpAddr,
    old_state: u16,
    new_state: u16,
) -> Result<(), MrtError> {
    let subtype = bgp4mp_subtype::STATE_CHANGE_AS4;
    w.write_built(timestamp, BGP4MP, subtype, |body| {
        push_session(body, peer_as, local_as, peer_ip);
        body.extend_from_slice(&old_state.to_be_bytes());
        body.extend_from_slice(&new_state.to_be_bytes());
        Ok(())
    })
}

/// Writer for a TABLE_DUMP_V2 RIB dump: emits the PEER_INDEX_TABLE first,
/// then per-prefix RIB records with monotonically increasing sequence
/// numbers.
pub struct TableDumpWriter<W: Write> {
    writer: MrtWriter<W>,
    peer_count: usize,
    sequence: u32,
    timestamp: u32,
}

impl<W: Write> TableDumpWriter<W> {
    /// Creates the dump writer and immediately writes the peer index table.
    pub fn new(
        sink: W,
        timestamp: u32,
        collector_id: u32,
        view_name: &str,
        peers: &[PeerEntry],
    ) -> Result<Self, MrtError> {
        let view_len = field_u16(view_name.len(), "view name")?;
        let peer_count = field_u16(peers.len(), "peer count")?;
        let mut writer = MrtWriter::new(sink);
        let subtype = tdv2_subtype::PEER_INDEX_TABLE;
        writer.write_built(timestamp, TABLE_DUMP_V2, subtype, |body| {
            body.extend_from_slice(&collector_id.to_be_bytes());
            body.extend_from_slice(&view_len);
            body.extend_from_slice(view_name.as_bytes());
            body.extend_from_slice(&peer_count);
            for p in peers {
                // Always use the AS4 encoding; set the v6 bit per address.
                let ptype: u8 = match p.ip {
                    IpAddr::V4(_) => 0x02,
                    IpAddr::V6(_) => 0x03,
                };
                body.push(ptype);
                body.extend_from_slice(&p.bgp_id.to_be_bytes());
                push_ip(body, p.ip);
                body.extend_from_slice(&p.asn.get().to_be_bytes());
            }
            Ok(())
        })?;
        Ok(TableDumpWriter {
            writer,
            peer_count: peers.len(),
            sequence: 0,
            timestamp,
        })
    }

    /// Writes one per-prefix RIB record. Entries must reference valid peer
    /// indices. A record that cannot be encoded — more entries than the
    /// count field holds, attributes longer than their length field —
    /// writes nothing and takes no sequence number.
    pub fn write_rib(&mut self, prefix: Prefix, entries: &[RibEntry]) -> Result<(), MrtError> {
        for e in entries {
            if usize::from(e.peer_index) >= self.peer_count {
                return Err(MrtError::UnknownPeerIndex(e.peer_index));
            }
        }
        let entry_count = field_u16(entries.len(), "RIB entry count")?;
        let sequence = self.sequence;
        let subtype = match prefix {
            Prefix::V4(_) => tdv2_subtype::RIB_IPV4_UNICAST,
            Prefix::V6(_) => tdv2_subtype::RIB_IPV6_UNICAST,
        };
        self.writer
            .write_built(self.timestamp, TABLE_DUMP_V2, subtype, |body| {
                body.extend_from_slice(&sequence.to_be_bytes());
                match prefix {
                    Prefix::V4(p) => bgpworms_wire::nlri::encode_v4(p, body),
                    Prefix::V6(p) => bgpworms_wire::nlri::encode_v6(p, body),
                }
                body.extend_from_slice(&entry_count);
                for e in entries {
                    body.extend_from_slice(&e.peer_index.to_be_bytes());
                    body.extend_from_slice(&e.originated_time.to_be_bytes());
                    let len_at = body.len();
                    body.extend_from_slice(&[0, 0]);
                    // RFC 6396 §4.3.4: 4-octet ASNs in RIB attributes.
                    let cfg = CodecConfig::modern();
                    encode_attributes_into(body, &e.attrs, iter::empty(), iter::empty(), cfg)?;
                    let attrs_len = field_u16(body.len() - len_at - 2, "RIB entry attributes")?;
                    body[len_at..len_at + 2].copy_from_slice(&attrs_len);
                }
                Ok(())
            })?;
        self.sequence = sequence.wrapping_add(1);
        Ok(())
    }

    /// Number of RIB records written so far.
    pub fn rib_records(&self) -> u32 {
        self.sequence
    }

    /// Finishes the dump, returning the sink.
    pub fn into_inner(self) -> W {
        self.writer.into_inner()
    }
}

/// Convenience: writes a complete RIB dump in one call.
pub fn write_rib_dump<W: Write>(
    sink: W,
    timestamp: u32,
    collector_id: u32,
    view_name: &str,
    peers: &[PeerEntry],
    ribs: &[(Prefix, Vec<RibEntry>)],
) -> Result<W, MrtError> {
    let mut w = TableDumpWriter::new(sink, timestamp, collector_id, view_name, peers)?;
    for (prefix, entries) in ribs {
        w.write_rib(*prefix, entries)?;
    }
    Ok(w.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::MrtReader;
    use crate::record::MrtRecord;
    use bgpworms_types::{AsPath, PathAttributes};

    fn sample_update() -> RouteUpdate {
        let mut attrs = PathAttributes {
            as_path: AsPath::from_asns([Asn::new(2), Asn::new(1)]),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            ..PathAttributes::default()
        };
        attrs.add_community(bgpworms_types::Community::new(2, 100));
        RouteUpdate::announce("192.0.2.0/24".parse().unwrap(), attrs)
    }

    #[test]
    fn update_record_roundtrip() {
        let u = sample_update();
        let buf = write_update(
            Vec::new(),
            1_522_540_800,
            Asn::new(2),
            Asn::new(64_500),
            "10.0.0.2".parse().unwrap(),
            &u,
        )
        .unwrap();
        let mut r = MrtReader::new(buf.as_slice());
        match r.next_record().unwrap().unwrap() {
            MrtRecord::Bgp4mp(m) => {
                assert_eq!(m.header.timestamp, 1_522_540_800);
                assert_eq!(m.peer_as, Asn::new(2));
                assert_eq!(m.local_as, Asn::new(64_500));
                assert_eq!(m.peer_ip, "10.0.0.2".parse::<IpAddr>().unwrap());
                assert_eq!(m.update, u);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn update_record_roundtrip_v6_peer() {
        let u = sample_update();
        let buf = write_update(
            Vec::new(),
            7,
            Asn::new(4_200_000_001),
            Asn::new(64_500),
            "2001:db8::2".parse().unwrap(),
            &u,
        )
        .unwrap();
        let mut r = MrtReader::new(buf.as_slice());
        match r.next_record().unwrap().unwrap() {
            MrtRecord::Bgp4mp(m) => {
                assert_eq!(m.peer_as, Asn::new(4_200_000_001));
                assert!(m.peer_ip.is_ipv6());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_change_roundtrip() {
        let mut w = MrtWriter::new(Vec::new());
        write_state_change(
            &mut w,
            9,
            Asn::new(2),
            Asn::new(64_500),
            "10.0.0.2".parse().unwrap(),
            6,
            1,
        )
        .unwrap();
        let buf = w.into_inner();
        let mut r = MrtReader::new(buf.as_slice());
        match r.next_record().unwrap().unwrap() {
            MrtRecord::StateChange(s) => {
                assert_eq!(s.old_state, 6);
                assert_eq!(s.new_state, 1);
                assert_eq!(s.peer_as, Asn::new(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn table_dump_roundtrip() {
        let peers = vec![
            PeerEntry {
                bgp_id: 0x0101_0101,
                ip: "10.0.0.2".parse().unwrap(),
                asn: Asn::new(2),
            },
            PeerEntry {
                bgp_id: 0x0202_0202,
                ip: "2001:db8::2".parse().unwrap(),
                asn: Asn::new(4_200_000_001),
            },
        ];
        let entry = RibEntry {
            peer_index: 1,
            originated_time: 100,
            attrs: sample_update().attrs,
        };
        let ribs = vec![(
            "192.0.2.0/24".parse::<Prefix>().unwrap(),
            vec![entry.clone()],
        )];
        let buf = write_rib_dump(Vec::new(), 50, 0xC0FF_EE00, "repro", &peers, &ribs).unwrap();

        let mut r = MrtReader::new(buf.as_slice());
        match r.next_record().unwrap().unwrap() {
            MrtRecord::PeerIndexTable(t) => {
                assert_eq!(t.view_name, "repro");
                assert_eq!(t.collector_id, 0xC0FF_EE00);
                assert_eq!(t.peers, peers);
            }
            other => panic!("unexpected {other:?}"),
        }
        match r.next_record().unwrap().unwrap() {
            MrtRecord::Rib(rib) => {
                assert_eq!(rib.sequence, 0);
                assert_eq!(rib.prefix, "192.0.2.0/24".parse::<Prefix>().unwrap());
                assert_eq!(rib.entries, vec![entry]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn v6_rib_roundtrip() {
        let peers = vec![PeerEntry {
            bgp_id: 1,
            ip: "10.0.0.2".parse().unwrap(),
            asn: Asn::new(2),
        }];
        let entry = RibEntry {
            peer_index: 0,
            originated_time: 1,
            attrs: PathAttributes {
                as_path: AsPath::from_asns([Asn::new(2)]),
                ..PathAttributes::default()
            },
        };
        let ribs = vec![(
            "2001:db8::/32".parse::<Prefix>().unwrap(),
            vec![entry.clone()],
        )];
        let buf = write_rib_dump(Vec::new(), 1, 1, "", &peers, &ribs).unwrap();
        let mut r = MrtReader::new(buf.as_slice());
        r.next_record().unwrap(); // index table
        match r.next_record().unwrap().unwrap() {
            MrtRecord::Rib(rib) => {
                assert!(rib.prefix.is_v6());
                assert_eq!(rib.entries, vec![entry]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rib_entry_with_bad_peer_index_rejected() {
        let peers = vec![PeerEntry {
            bgp_id: 1,
            ip: "10.0.0.2".parse().unwrap(),
            asn: Asn::new(2),
        }];
        let mut w = TableDumpWriter::new(Vec::new(), 1, 1, "v", &peers).unwrap();
        let entry = RibEntry {
            peer_index: 7,
            originated_time: 1,
            attrs: PathAttributes::default(),
        };
        assert!(matches!(
            w.write_rib("10.0.0.0/8".parse().unwrap(), &[entry]),
            Err(MrtError::UnknownPeerIndex(7))
        ));
    }

    fn one_peer() -> Vec<PeerEntry> {
        vec![PeerEntry {
            bgp_id: 1,
            ip: "10.0.0.2".parse().unwrap(),
            asn: Asn::new(2),
        }]
    }

    #[test]
    fn rib_entry_attributes_beyond_their_length_field_are_refused() {
        let mut buf = Vec::new();
        let mut w = TableDumpWriter::new(&mut buf, 1, 1, "v", &one_peer()).unwrap();
        let prefix: Prefix = "10.0.0.0/8".parse().unwrap();
        let entry = |communities: u32, large: u32| RibEntry {
            peer_index: 0,
            originated_time: 1,
            attrs: PathAttributes {
                communities: (0..communities)
                    .map(bgpworms_types::Community::from_u32)
                    .collect(),
                large_communities: (0..large)
                    .map(|i| bgpworms_types::LargeCommunity::new(i, 0, 0))
                    .collect(),
                ..PathAttributes::default()
            },
        };
        // 16 384 communities are 65 536 bytes: one more than an extended
        // attribute length holds. A RIB entry has no 4 096-byte cap to
        // catch that, so the attribute encoder has to.
        assert!(matches!(
            w.write_rib(prefix, &[entry(16_384, 0)]),
            Err(MrtError::Bgp(bgpworms_wire::WireError::TooLong(65_536)))
        ));
        // Each attribute fits its own header, their sum not the entry's.
        assert!(matches!(
            w.write_rib(prefix, &[entry(10_000, 3_000)]),
            Err(MrtError::FieldTooLong("RIB entry attributes"))
        ));
        assert_eq!(w.rib_records(), 0, "a refused record takes no sequence");
        // The writer is still good: the next record is sequence 0.
        w.write_rib(prefix, &[entry(16_000, 0)]).unwrap();
        assert_eq!(w.rib_records(), 1);
        drop(w);
        let mut r = MrtReader::new(buf.as_slice());
        assert!(matches!(
            r.next_record().unwrap().unwrap(),
            MrtRecord::PeerIndexTable(_)
        ));
        match r.next_record().unwrap().unwrap() {
            MrtRecord::Rib(rib) => {
                assert_eq!(rib.sequence, 0);
                assert_eq!(rib.entries, vec![entry(16_000, 0)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            r.next_record().unwrap().is_none(),
            "nothing else reached the sink"
        );
    }

    #[test]
    fn rib_record_with_more_entries_than_its_count_field_is_refused() {
        let mut buf = Vec::new();
        let mut w = TableDumpWriter::new(&mut buf, 1, 1, "v", &one_peer()).unwrap();
        let entry = RibEntry {
            peer_index: 0,
            originated_time: 1,
            attrs: PathAttributes::default(),
        };
        let entries = vec![entry; 65_536];
        assert!(matches!(
            w.write_rib("10.0.0.0/8".parse().unwrap(), &entries),
            Err(MrtError::FieldTooLong("RIB entry count"))
        ));
        assert_eq!(w.rib_records(), 0);
        w.write_rib("10.0.0.0/8".parse().unwrap(), &entries[..65_535])
            .unwrap();
        drop(w);
        let records: Vec<_> = MrtReader::new(buf.as_slice()).map(|r| r.unwrap()).collect();
        assert_eq!(records.len(), 2, "the index table and the record that fit");
        assert!(matches!(&records[1], MrtRecord::Rib(rib) if rib.entries.len() == 65_535));
    }

    #[test]
    fn peer_index_table_with_more_peers_than_its_count_field_is_refused() {
        let peers: Vec<PeerEntry> = (0..65_536u32)
            .map(|n| PeerEntry {
                bgp_id: n,
                ip: IpAddr::V4(n.into()),
                asn: Asn::new(n),
            })
            .collect();
        let mut buf = Vec::new();
        assert!(matches!(
            TableDumpWriter::new(&mut buf, 1, 1, "v", &peers),
            Err(MrtError::FieldTooLong("peer count"))
        ));
        assert!(buf.is_empty(), "no half-written index table");
        let w = TableDumpWriter::new(&mut buf, 1, 1, "v", &peers[..65_535]).unwrap();
        drop(w);
        match MrtReader::new(buf.as_slice())
            .next_record()
            .unwrap()
            .unwrap()
        {
            MrtRecord::PeerIndexTable(t) => assert_eq!(t.peers.len(), 65_535),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiple_updates_stream_in_order() {
        let mut w = MrtWriter::new(Vec::new());
        let u = sample_update();
        for ts in 0..5u32 {
            write_update_into(
                &mut w,
                ts,
                Asn::new(2),
                Asn::new(64_500),
                "10.0.0.2".parse().unwrap(),
                &u,
            )
            .unwrap();
        }
        assert_eq!(w.records_written, 5);
        let buf = w.into_inner();
        let stamps: Vec<u32> = MrtReader::new(buf.as_slice())
            .map(|r| r.unwrap().header().timestamp)
            .collect();
        assert_eq!(stamps, vec![0, 1, 2, 3, 4]);
    }
}
