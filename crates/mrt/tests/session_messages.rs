//! Session messages on the read rim: a BGP4MP MESSAGE record may hold an
//! OPEN or a KEEPALIVE instead of an UPDATE. Both readers hand a
//! well-formed one back as an empty update; an OPEN cut short inside its
//! body fails at its own record's offset, and reading goes on after it.

use bgpworms_mrt::record::bgp4mp_subtype::MESSAGE_AS4;
use bgpworms_mrt::{
    write_update_into, LossyMrtReader, MrtError, MrtErrorKind, MrtReader, MrtRecord, MrtWriter,
    BGP4MP,
};
use bgpworms_types::{AsPath, Asn, PathAttributes, RouteUpdate};
use std::net::IpAddr;

const PEER_AS: u32 = 64_500;
const LOCAL_AS: u32 = 64_496;

fn peer_ip() -> IpAddr {
    "192.0.2.1".parse().unwrap()
}

fn update() -> RouteUpdate {
    let attrs = PathAttributes {
        as_path: AsPath::from_asns([Asn::new(PEER_AS), Asn::new(1)]),
        next_hop: Some(peer_ip()),
        ..PathAttributes::default()
    };
    RouteUpdate::announce("198.51.100.0/24".parse().unwrap(), attrs)
}

/// A BGP4MP MESSAGE_AS4 body around one BGP message of `msg_type` whose
/// body is `bgp_body`.
fn message_record(msg_type: u8, bgp_body: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&PEER_AS.to_be_bytes());
    body.extend_from_slice(&LOCAL_AS.to_be_bytes());
    body.extend_from_slice(&[0, 0, 0, 1]); // ifindex 0, AFI IPv4
    body.extend_from_slice(&[192, 0, 2, 1, 192, 0, 2, 254]);
    body.extend_from_slice(&[0xFF; 16]);
    body.extend_from_slice(&(19 + bgp_body.len() as u16).to_be_bytes());
    body.push(msg_type);
    body.extend_from_slice(bgp_body);
    body
}

/// An OPEN body from AS 2914 with one capabilities parameter: 4-octet AS.
fn open_body() -> Vec<u8> {
    vec![
        4, 0x0B, 0x62, 0, 180, 192, 0, 2, 1, // version, AS, hold time, BGP id
        8, 2, 6, 65, 4, 0, 0, 0x0B, 0x62, // capabilities: 4-octet AS 2914
    ]
}

/// update, OPEN, KEEPALIVE, truncated OPEN, update — and where the
/// truncated OPEN's record starts.
fn archive() -> (Vec<u8>, usize) {
    let mut w = MrtWriter::new(Vec::new());
    let (peer, local) = (Asn::new(PEER_AS), Asn::new(LOCAL_AS));
    write_update_into(&mut w, 1, peer, local, peer_ip(), &update()).unwrap();
    let open = message_record(1, &open_body());
    w.write_record(2, BGP4MP, MESSAGE_AS4, &open).unwrap();
    w.write_record(3, BGP4MP, MESSAGE_AS4, &message_record(4, &[]))
        .unwrap();
    let head = w.into_inner();
    let at = head.len();
    let mut w = MrtWriter::new(head);
    // The parameters claim 8 bytes; the message ends after 6 of them.
    let mut cut = open_body();
    cut.truncate(cut.len() - 2);
    w.write_record(4, BGP4MP, MESSAGE_AS4, &message_record(1, &cut))
        .unwrap();
    write_update_into(&mut w, 5, peer, local, peer_ip(), &update()).unwrap();
    (w.into_inner(), at)
}

fn update_of(record: MrtRecord) -> RouteUpdate {
    match record {
        MrtRecord::Bgp4mp(m) => {
            assert_eq!(m.peer_as, Asn::new(PEER_AS));
            m.update
        }
        other => panic!("expected a BGP4MP message, got {other:?}"),
    }
}

#[test]
fn strict_reads_open_and_keepalive_as_empty_updates_and_fail_a_truncated_open_in_place() {
    let (bytes, truncated_at) = archive();
    let mut r = MrtReader::new(&bytes);
    assert_eq!(update_of(r.next_record().unwrap().unwrap()), update());
    assert_eq!(
        update_of(r.next_record().unwrap().unwrap()),
        RouteUpdate::default()
    );
    assert_eq!(
        update_of(r.next_record().unwrap().unwrap()),
        RouteUpdate::default()
    );
    let err = r.next_record().unwrap_err();
    assert!(
        matches!(err, MrtError::Truncated { .. }),
        "a truncated OPEN is a truncation, got {err:?}"
    );
    assert_eq!(r.offset(), truncated_at);
    assert_eq!(update_of(r.next_record().unwrap().unwrap()), update());
    assert!(r.next_record().unwrap().is_none());
}

#[test]
fn lossy_reads_open_and_keepalive_as_empty_updates_and_skips_a_truncated_open() {
    let (bytes, _) = archive();
    let mut r = LossyMrtReader::new(&bytes);
    let updates: Vec<RouteUpdate> = r.by_ref().map(|rec| update_of(rec.unwrap())).collect();
    assert_eq!(
        updates,
        vec![
            update(),
            RouteUpdate::default(),
            RouteUpdate::default(),
            update()
        ]
    );
    assert_eq!(r.records_read(), 5);
    assert_eq!(r.skipped().total(), 1);
    assert_eq!(r.skipped().count(MrtErrorKind::Truncated), 1);
}
