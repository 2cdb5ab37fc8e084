//! MRT reading over an archive held in memory: every reader borrows the
//! archive and frames each record as a sub-slice of it, so reading copies
//! nothing but what a record decodes to — and [`UpdateStream::next_into`]
//! decodes each update into one message the caller reuses.
//!
//! Two reading modes share one parser:
//!
//! * [`MrtReader`] is **strict**: the first malformed record stops the
//!   stream with an error — right for archives this workspace wrote
//!   itself, where any damage is a bug. A body that runs on past what its
//!   record decodes to declared the wrong length: a
//!   [`MrtError::BadRecordLength`]. [`UpdateStream`] reads strictly.
//! * [`LossyMrtReader`] is for archives from the wild (RIS / RouteViews
//!   collectors occasionally emit records this decoder cannot interpret):
//!   a record whose *body was fully framed* but failed to parse is skipped
//!   and tallied per [`MrtErrorKind`] in a [`SkipTally`], and reading
//!   continues at the next record. Bytes past what a record decodes to are
//!   ignored.
//!
//! **A framing error ends the stream, in every mode.** After a truncated
//! header or body or a bad declared length there is no record boundary to
//! continue from: the reader returns that error once and is exhausted
//! (`Ok(None)`, and `None` from the iterators). [`MrtReader::offset`] says
//! where the failing record starts.

use crate::error::{MrtError, MrtErrorKind};
use crate::record::{
    bgp4mp_subtype, tdv2_subtype, Bgp4mpMessage, MrtHeader, MrtRecord, PeerEntry, PeerIndexTable,
    RibEntry, RibSnapshot, StateChange, BGP4MP, BGP4MP_ET, TABLE_DUMP_V2,
};
use bgpworms_types::{Asn, Prefix, RouteUpdate};
use bgpworms_wire::cursor::Cursor;
use bgpworms_wire::{decode_update_into, CodecConfig};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Upper bound on a single MRT record body; real archives stay far below
/// this, and a longer declared length is reported as implausible rather
/// than as a truncated body.
const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// A strict reader over an MRT archive held in memory.
pub struct MrtReader<'a> {
    archive: &'a [u8],
    /// Where the record last framed, or failing to frame, starts.
    start: usize,
    /// Where the next record starts; the archive's length once exhausted.
    next: usize,
    /// Records read so far (including skipped/unknown ones).
    pub records_read: u64,
}

impl<'a> MrtReader<'a> {
    /// Reads `archive` from its first byte.
    pub fn new(archive: &'a [u8]) -> Self {
        MrtReader {
            archive,
            start: 0,
            next: 0,
            records_read: 0,
        }
    }

    /// The byte offset of the record the reader is on: the one the last
    /// call returned or failed on (0 before the first call, the archive's
    /// length at its end).
    pub fn offset(&self) -> usize {
        self.start
    }

    /// Reads the next record; `Ok(None)` at clean end-of-archive.
    pub fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        let Some((header, mut body)) = self.next_raw()? else {
            return Ok(None);
        };
        let record = parse_record(header, &mut body)?;
        self.filled(&body)?;
        Ok(Some(record))
    }

    /// Frames the next record without parsing it: its common header and a
    /// cursor over its body, which borrows the archive; `Ok(None)` at clean
    /// end-of-archive. Once a record is framed, any parse failure is
    /// confined to it, which is what makes lossy skipping sound. Errors
    /// here are *structural* (truncated header or body, implausible
    /// declared length): there is no next-record boundary to continue
    /// from, so the reader is exhausted after one.
    fn next_raw(&mut self) -> Result<Option<(MrtHeader, Cursor<'a>)>, MrtError> {
        self.start = self.next;
        if self.start == self.archive.len() {
            return Ok(None);
        }
        self.next = self.archive.len(); // exhausted unless this record frames
        let mut c = Cursor::new(&self.archive[self.start..]);
        let header = MrtHeader {
            timestamp: c.u32("MRT common header")?,
            // Read by `parse_bgp4mp`: the `*_ET` types carry it in the body.
            microseconds: None,
            mrt_type: c.u16("MRT common header")?,
            subtype: c.u16("MRT common header")?,
        };
        let length = c.u32("MRT common header")?;
        if length > MAX_RECORD_LEN {
            return Err(MrtError::BadRecordLength(length));
        }
        let body = c.take("MRT record body", length as usize)?;
        self.next = self.start + c.position();
        self.records_read += 1;
        Ok(Some((header, Cursor::new(body))))
    }

    /// Strict reading's check after a record parsed: bytes of its body left
    /// unread mean it declared the wrong length, and so the wrong boundary
    /// of the next record.
    fn filled(&mut self, rest: &Cursor<'_>) -> Result<(), MrtError> {
        if rest.is_empty() {
            return Ok(());
        }
        self.next = self.archive.len();
        let length = rest.position() + rest.remaining();
        Err(MrtError::BadRecordLength(length as u32))
    }
}

/// Parses one framed record, leaving `c` behind what the record decodes
/// from. Errors here never damage the stream position; strict readers
/// surface them, lossy readers tally and skip.
fn parse_record(header: MrtHeader, c: &mut Cursor<'_>) -> Result<MrtRecord, MrtError> {
    match header.mrt_type {
        BGP4MP | BGP4MP_ET => {
            let mut message = Bgp4mpMessage::default();
            Ok(match parse_bgp4mp(header, c, &mut message)? {
                None => MrtRecord::Bgp4mp(message),
                Some(change) => MrtRecord::StateChange(change),
            })
        }
        TABLE_DUMP_V2 => parse_table_dump_v2(header, c),
        _ => Ok(MrtRecord::Unknown {
            header,
            body: c.take_rest().to_vec(),
        }),
    }
}

/// Per-[`MrtErrorKind`] tally of records a [`LossyMrtReader`] skipped.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SkipTally {
    counts: std::collections::BTreeMap<MrtErrorKind, u64>,
}

impl SkipTally {
    /// Total records skipped, across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Records skipped for errors of `kind`.
    pub fn count(&self, kind: MrtErrorKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Non-zero (kind, count) pairs in ascending kind order.
    pub fn iter(&self) -> impl Iterator<Item = (MrtErrorKind, u64)> + '_ {
        self.counts.iter().map(|(&k, &n)| (k, n))
    }

    fn record(&mut self, kind: MrtErrorKind) {
        *self.counts.entry(kind).or_insert(0) += 1;
    }
}

impl std::fmt::Display for SkipTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.counts.is_empty() {
            return f.write_str("none");
        }
        for (i, (kind, n)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{kind}: {n}")?;
        }
        Ok(())
    }
}

/// A lossy reader for archives from the wild: undecodable records whose
/// bodies were fully framed are skipped and tallied per error kind;
/// structural stream damage (truncated framing, implausible length) still
/// stops the stream. See the module docs for the strict/lossy split.
pub struct LossyMrtReader<'a> {
    reader: MrtReader<'a>,
    skipped: SkipTally,
}

impl<'a> LossyMrtReader<'a> {
    /// Reads `archive` from its first byte.
    pub fn new(archive: &'a [u8]) -> Self {
        LossyMrtReader {
            reader: MrtReader::new(archive),
            skipped: SkipTally::default(),
        }
    }

    /// Reads the next *decodable* record, skipping (and tallying)
    /// undecodable ones; `Ok(None)` at clean end-of-archive; `Err` only
    /// for structural stream damage.
    pub fn next_record(&mut self) -> Result<Option<MrtRecord>, MrtError> {
        while let Some((header, mut body)) = self.reader.next_raw()? {
            match parse_record(header, &mut body) {
                Ok(record) => return Ok(Some(record)),
                Err(e) => self.skipped.record(e.kind()),
            }
        }
        Ok(None)
    }

    /// Records read so far, including skipped ones.
    pub fn records_read(&self) -> u64 {
        self.reader.records_read
    }

    /// What was skipped so far, tallied per error kind.
    pub fn skipped(&self) -> &SkipTally {
        &self.skipped
    }
}

impl Iterator for LossyMrtReader<'_> {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

fn read_ip(c: &mut Cursor<'_>, afi: u16) -> Result<IpAddr, MrtError> {
    match afi {
        1 => Ok(IpAddr::V4(Ipv4Addr::from(c.u32("ipv4 address")?))),
        2 => Ok(IpAddr::V6(Ipv6Addr::from(c.u128("ipv6 address")?))),
        other => Err(MrtError::BadAddressFamily(other)),
    }
}

/// Parses a BGP4MP record. A MESSAGE is decoded into `message`, its update
/// refilled in place, and yields `None` (on `Err`, `message` holds no
/// particular value); a STATE_CHANGE is returned and leaves `message` as it
/// was.
fn parse_bgp4mp(
    mut header: MrtHeader,
    c: &mut Cursor<'_>,
    message: &mut Bgp4mpMessage,
) -> Result<Option<StateChange>, MrtError> {
    if header.mrt_type == BGP4MP_ET {
        header.microseconds = Some(c.u32("extended timestamp")?);
    }
    let as4 = matches!(
        header.subtype,
        bgp4mp_subtype::MESSAGE_AS4 | bgp4mp_subtype::STATE_CHANGE_AS4
    );
    let (peer_as, local_as) = if as4 {
        (c.u32("peer AS")?, c.u32("local AS")?)
    } else {
        (u32::from(c.u16("peer AS")?), u32::from(c.u16("local AS")?))
    };
    let (peer_as, local_as) = (Asn::new(peer_as), Asn::new(local_as));
    let ifindex = c.u16("interface index")?;
    let afi = c.u16("address family")?;
    let peer_ip = read_ip(c, afi)?;
    let local_ip = read_ip(c, afi)?;

    match header.subtype {
        bgp4mp_subtype::MESSAGE | bgp4mp_subtype::MESSAGE_AS4 => {
            let cfg = CodecConfig { asn4: as4 };
            let (other, used) =
                decode_update_into(c.clone().take_rest(), cfg, &mut message.update)?;
            c.take("BGP message", used)?;
            if other.is_some() {
                // OPENs/KEEPALIVEs inside MESSAGE records are legal but rare;
                // surface them as empty updates so streaming callers can skip.
                message.update = RouteUpdate::default();
            }
            message.header = header;
            (message.peer_as, message.local_as, message.ifindex) = (peer_as, local_as, ifindex);
            (message.peer_ip, message.local_ip) = (peer_ip, local_ip);
            Ok(None)
        }
        bgp4mp_subtype::STATE_CHANGE | bgp4mp_subtype::STATE_CHANGE_AS4 => {
            let old_state = c.u16("old state")?;
            let new_state = c.u16("new state")?;
            Ok(Some(StateChange {
                header,
                peer_as,
                local_as,
                peer_ip,
                local_ip,
                old_state,
                new_state,
            }))
        }
        other => Err(MrtError::UnsupportedSubtype {
            mrt_type: header.mrt_type,
            subtype: other,
        }),
    }
}

fn parse_table_dump_v2(header: MrtHeader, c: &mut Cursor<'_>) -> Result<MrtRecord, MrtError> {
    match header.subtype {
        tdv2_subtype::PEER_INDEX_TABLE => {
            let collector_id = c.u32("collector id")?;
            let name_len = c.u16("view name length")? as usize;
            let name_bytes = c.take("view name", name_len)?;
            let view_name = String::from_utf8_lossy(name_bytes).into_owned();
            let peer_count = c.u16("peer count")? as usize;
            let mut peers = Vec::with_capacity(peer_count);
            for _ in 0..peer_count {
                let ptype = c.u8("peer type")?;
                let bgp_id = c.u32("peer bgp id")?;
                let ip = if ptype & 0x01 != 0 {
                    IpAddr::V6(Ipv6Addr::from(c.u128("peer ipv6")?))
                } else {
                    IpAddr::V4(Ipv4Addr::from(c.u32("peer ipv4")?))
                };
                let asn = if ptype & 0x02 != 0 {
                    c.u32("peer as4")?
                } else {
                    u32::from(c.u16("peer as2")?)
                };
                peers.push(PeerEntry {
                    bgp_id,
                    ip,
                    asn: Asn::new(asn),
                });
            }
            Ok(MrtRecord::PeerIndexTable(PeerIndexTable {
                collector_id,
                view_name,
                peers,
            }))
        }
        tdv2_subtype::RIB_IPV4_UNICAST | tdv2_subtype::RIB_IPV6_UNICAST => {
            let sequence = c.u32("rib sequence")?;
            let prefix = if header.subtype == tdv2_subtype::RIB_IPV4_UNICAST {
                Prefix::V4(bgpworms_wire::nlri::decode_v4(c)?)
            } else {
                Prefix::V6(bgpworms_wire::nlri::decode_v6(c)?)
            };
            let entry_count = c.u16("rib entry count")? as usize;
            let mut entries = Vec::with_capacity(entry_count);
            for _ in 0..entry_count {
                let peer_index = c.u16("rib peer index")?;
                let originated_time = c.u32("rib originated time")?;
                let attr_len = c.u16("rib attribute length")? as usize;
                let attr_bytes = c.take("rib attributes", attr_len)?;
                // RFC 6396 §4.3.4: RIB attributes always use 4-octet ASNs.
                let decoded = bgpworms_wire::decode_attributes(attr_bytes, CodecConfig::modern())?;
                entries.push(RibEntry {
                    peer_index,
                    originated_time,
                    attrs: decoded.attrs,
                });
            }
            Ok(MrtRecord::Rib(RibSnapshot {
                header,
                sequence,
                prefix,
                entries,
            }))
        }
        other => Err(MrtError::UnsupportedSubtype {
            mrt_type: header.mrt_type,
            subtype: other,
        }),
    }
}

impl Iterator for MrtReader<'_> {
    type Item = Result<MrtRecord, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Adapter over [`MrtReader`] that yields only BGP4MP update messages,
/// skipping state changes, RIB records, and unknown record types (each
/// still parsed, strictly).
pub struct UpdateStream<'a> {
    reader: MrtReader<'a>,
}

impl<'a> UpdateStream<'a> {
    /// Reads `archive` from its first byte.
    pub fn new(archive: &'a [u8]) -> Self {
        UpdateStream {
            reader: MrtReader::new(archive),
        }
    }

    /// Reads the next update into `message`, refilling its update's lists
    /// and attributes in place ([`decode_update_into`]): `Ok(true)` when it
    /// holds one, `Ok(false)` at clean end-of-archive. On `Err`, `message`
    /// holds no particular value. The iterator's items are this, called on
    /// a new message each.
    pub fn next_into(&mut self, message: &mut Bgp4mpMessage) -> Result<bool, MrtError> {
        while let Some((header, mut body)) = self.reader.next_raw()? {
            let update = match header.mrt_type {
                BGP4MP | BGP4MP_ET => parse_bgp4mp(header, &mut body, message)?.is_none(),
                _ => parse_record(header, &mut body).map(|_| false)?,
            };
            self.reader.filled(&body)?;
            if update {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl Iterator for UpdateStream<'_> {
    type Item = Result<Bgp4mpMessage, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut message = Bgp4mpMessage::default();
        (self.next_into(&mut message))
            .map(|read| read.then_some(message))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_archive_is_clean_eof() {
        let mut r = MrtReader::new(&[][..]);
        assert!(r.next_record().unwrap().is_none());
        assert_eq!(r.records_read, 0);
    }

    #[test]
    fn partial_header_is_truncation() {
        let mut r = MrtReader::new(&[0u8; 5][..]);
        assert!(matches!(
            r.next_record(),
            Err(MrtError::Truncated {
                what: "MRT common header"
            })
        ));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut h = vec![0u8; 12];
        h[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut r = MrtReader::new(h.as_slice());
        assert!(matches!(r.next_record(), Err(MrtError::BadRecordLength(_))));
    }

    #[test]
    fn unknown_type_surfaces_body() {
        let mut rec = vec![0u8; 12];
        rec[4..6].copy_from_slice(&999u16.to_be_bytes());
        rec[8..12].copy_from_slice(&3u32.to_be_bytes());
        rec.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let mut r = MrtReader::new(rec.as_slice());
        match r.next_record().unwrap().unwrap() {
            MrtRecord::Unknown { header, body } => {
                assert_eq!(header.mrt_type, 999);
                assert_eq!(body, vec![0xAA, 0xBB, 0xCC]);
            }
            other => panic!("expected unknown, got {other:?}"),
        }
        assert!(r.next_record().unwrap().is_none());
    }

    fn good_update_record() -> Vec<u8> {
        use bgpworms_types::{AsPath, PathAttributes, RouteUpdate};
        let attrs = PathAttributes {
            as_path: AsPath::from_asns([Asn::new(2), Asn::new(1)]),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            ..PathAttributes::default()
        };
        let update = RouteUpdate::announce("192.0.2.0/24".parse().unwrap(), attrs);
        let mut buf = Vec::new();
        crate::write::write_update(
            &mut buf,
            0,
            Asn::new(2),
            Asn::new(64_500),
            "10.0.0.2".parse().unwrap(),
            &update,
        )
        .unwrap();
        buf
    }

    /// A BGP4MP record whose body is fully present but carries a subtype
    /// this decoder cannot interpret — the canonical *skippable* error.
    fn unsupported_subtype_record() -> Vec<u8> {
        let mut rec = Vec::new();
        rec.extend_from_slice(&0u32.to_be_bytes());
        rec.extend_from_slice(&BGP4MP.to_be_bytes());
        rec.extend_from_slice(&99u16.to_be_bytes());
        // peer AS + local AS + ifindex + AFI(=1) + two IPv4 addresses.
        let body = {
            let mut b = vec![0u8; 6];
            b.extend_from_slice(&1u16.to_be_bytes());
            b.extend_from_slice(&[0u8; 8]);
            b
        };
        rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
        rec.extend_from_slice(&body);
        rec
    }

    /// A BGP4MP MESSAGE record whose (fully read) body ends mid-field —
    /// a *parse* truncation, not a stream truncation, so it is skippable.
    fn short_body_record() -> Vec<u8> {
        let mut rec = Vec::new();
        rec.extend_from_slice(&0u32.to_be_bytes());
        rec.extend_from_slice(&BGP4MP.to_be_bytes());
        rec.extend_from_slice(&crate::record::bgp4mp_subtype::MESSAGE.to_be_bytes());
        rec.extend_from_slice(&3u32.to_be_bytes());
        rec.extend_from_slice(&[0u8; 3]);
        rec
    }

    #[test]
    fn lossy_reader_skips_undecodable_records_and_tallies_by_kind() {
        use crate::error::MrtErrorKind;
        let good = good_update_record();
        let mut archive = Vec::new();
        archive.extend_from_slice(&good);
        archive.extend_from_slice(&unsupported_subtype_record());
        archive.extend_from_slice(&good);
        archive.extend_from_slice(&short_body_record());
        archive.extend_from_slice(&good);

        // Strict reading stops at the first bad record...
        let mut strict = MrtReader::new(archive.as_slice());
        assert!(strict.next_record().unwrap().is_some());
        assert!(strict.next_record().is_err());

        // ...lossy reading yields every good record and tallies the rest.
        let mut lossy = LossyMrtReader::new(archive.as_slice());
        let mut updates = 0;
        while let Some(record) = lossy.next_record().unwrap() {
            assert!(matches!(record, MrtRecord::Bgp4mp(_)));
            updates += 1;
        }
        assert_eq!(updates, 3);
        assert_eq!(
            lossy.records_read(),
            5,
            "skipped records still count as read"
        );
        assert_eq!(lossy.skipped().total(), 2);
        assert_eq!(lossy.skipped().count(MrtErrorKind::UnsupportedSubtype), 1);
        assert_eq!(lossy.skipped().count(MrtErrorKind::Truncated), 1);
        assert_eq!(lossy.skipped().count(MrtErrorKind::Bgp), 0);
        assert_eq!(
            lossy.skipped().to_string(),
            "truncated: 1, unsupported-subtype: 1"
        );
    }

    #[test]
    fn lossy_reader_still_stops_on_structural_damage() {
        // A record that *promises* more body than the stream holds: there
        // is no next-record boundary to skip to, so even the lossy reader
        // must report the stream as damaged.
        let mut rec = vec![0u8; 12];
        rec[8..12].copy_from_slice(&10u32.to_be_bytes());
        rec.extend_from_slice(&[1, 2, 3]);
        let mut lossy = LossyMrtReader::new(rec.as_slice());
        assert!(matches!(
            lossy.next_record(),
            Err(MrtError::Truncated {
                what: "MRT record body"
            })
        ));

        let mut clean = LossyMrtReader::new(&[][..]);
        assert!(clean.next_record().unwrap().is_none());
        assert_eq!(clean.skipped().to_string(), "none");
    }

    #[test]
    fn a_framing_error_ends_every_reader() {
        // A good record, a header declaring an implausible length, then
        // bytes that happen to form a valid record. Past the bad header
        // there is no record boundary: nothing after it is a record.
        let good = good_update_record();
        let mut archive = good.clone();
        archive.extend_from_slice(&[0, 0, 0, 0, 0, 16, 0, 4, 0xFF, 0xFF, 0xFF, 0xFF]);
        archive.extend_from_slice(&good);
        let bad = |e: &MrtError| matches!(e, MrtError::BadRecordLength(u32::MAX));

        let strict: Vec<_> = MrtReader::new(archive.as_slice()).collect();
        assert!(
            matches!(&strict[..], [Ok(_), Err(e)] if bad(e)),
            "{strict:?}"
        );
        let lossy: Vec<_> = LossyMrtReader::new(archive.as_slice()).collect();
        assert!(matches!(&lossy[..], [Ok(_), Err(e)] if bad(e)), "{lossy:?}");
        let updates: Vec<_> = UpdateStream::new(archive.as_slice()).collect();
        assert!(
            matches!(&updates[..], [Ok(_), Err(e)] if bad(e)),
            "{updates:?}"
        );
    }

    #[test]
    fn a_body_past_its_message_is_a_bad_length_when_strict_and_ignored_when_lossy() {
        // A good record whose body carries one stray byte after its BGP
        // message, then a good record.
        let good = good_update_record();
        let mut archive = good.clone();
        archive.push(0xEE);
        let length = good.len() as u32 - 12 + 1;
        archive[8..12].copy_from_slice(&length.to_be_bytes());
        archive.extend_from_slice(&good);

        let mut strict = MrtReader::new(archive.as_slice());
        assert!(matches!(
            strict.next_record(),
            Err(MrtError::BadRecordLength(l)) if l == length
        ));
        assert_eq!(strict.offset(), 0, "the failing record starts the archive");
        assert!(strict.next_record().unwrap().is_none(), "and ends the read");
        let updates: Vec<_> = UpdateStream::new(archive.as_slice()).collect();
        assert!(matches!(&updates[..], [Err(MrtError::BadRecordLength(_))]));

        let lossy: Vec<_> = LossyMrtReader::new(archive.as_slice()).collect();
        assert!(matches!(&lossy[..], [Ok(a), Ok(b)] if a == b), "{lossy:?}");
    }

    #[test]
    fn truncated_body_is_error() {
        let mut rec = vec![0u8; 12];
        rec[4..6].copy_from_slice(&999u16.to_be_bytes());
        rec[8..12].copy_from_slice(&10u32.to_be_bytes());
        rec.extend_from_slice(&[1, 2, 3]); // promised 10, provide 3
        let mut r = MrtReader::new(rec.as_slice());
        assert!(matches!(
            r.next_record(),
            Err(MrtError::Truncated {
                what: "MRT record body"
            })
        ));
    }
}
