//! Route collectors: RIS/RouteViews/Isolario/PCH-like observation points
//! that peer with ASes and archive what they receive as MRT.
//!
//! Archiving allocates per archive, not per record: an observation's route
//! is copied into scratch attributes with `clone_from` (path and community
//! buffers are reused), `bgpworms_mrt` encodes them straight into its
//! writer's one body buffer, and the RIB dump finds each session's final
//! state with one sort instead of a map insert per observation.

use crate::route::Route;
use bgpworms_mrt::{MrtError, MrtWriter, PeerEntry, RibEntry, TableDumpWriter};
use bgpworms_types::{Asn, PathAttributes, Prefix, RouteUpdate};
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

/// What a collector peer session carries (§4.1: "Some BGP peers send full
/// routing tables, others partial views, and even others only their
/// customer routes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedKind {
    /// The peer exports its full best-path table.
    Full,
    /// The peer exports only customer and local routes.
    CustomerRoutesOnly,
}

/// A collector and its peering sessions.
#[derive(Debug, Clone)]
pub struct CollectorSpec {
    /// Collector name, e.g. `rrc00` or `route-views2`.
    pub name: String,
    /// Platform the collector belongs to (RIS / RV / IS / PCH).
    pub platform: String,
    /// BGP identifier used in MRT output.
    pub collector_id: u32,
    /// Peering sessions: (peer AS, feed kind).
    pub peers: Vec<(Asn, FeedKind)>,
}

/// One observation at a collector: a route announced (Some) or withdrawn
/// (None) by a peer session at a pseudo-time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorObservation {
    /// Episode pseudo-time (seconds).
    pub time: u32,
    /// The announcing peer.
    pub peer: Asn,
    /// The prefix.
    pub prefix: Prefix,
    /// The route as exported to the monitor; None = withdrawal.
    pub route: Option<Route>,
}

/// Deterministic fake address for a peer session (used in MRT records).
pub fn peer_ip(peer: Asn) -> IpAddr {
    let n = peer.get();
    IpAddr::V4(Ipv4Addr::new(
        198,
        18,
        ((n >> 8) & 0xFF) as u8,
        (n & 0xFF) as u8,
    ))
}

/// Overwrites `attrs` with what `route` carries on the session to the
/// monitor, keeping the buffers `attrs` already owns. Only the fields set
/// here are ever set on a scratch value, so the rest stay at their
/// defaults.
fn fill_attrs(attrs: &mut PathAttributes, route: &Route) {
    attrs.origin = route.origin;
    attrs.as_path.clone_from(&route.path);
    attrs.next_hop = Some(peer_ip(route.source.neighbor().unwrap_or(Asn::new(0))));
    attrs.communities.clone_from(&route.communities);
    attrs.large_communities.clone_from(&route.large_communities);
}

/// Serializes a collector's observations into a BGP4MP MESSAGE_AS4 update
/// archive (the format the analysis pipeline reads back).
pub fn observations_to_mrt(
    collector_local_as: Asn,
    observations: &[CollectorObservation],
) -> Result<Vec<u8>, MrtError> {
    let mut w = MrtWriter::new(Vec::new());
    // One scratch update per kind for the whole archive. The withdrawal's
    // attributes are never filled: an IPv6 withdrawal encodes them
    // (MP_UNREACH travels in the attribute section), and they must stay
    // blank whatever was announced before it.
    let mut announce = RouteUpdate::default();
    let mut withdraw = RouteUpdate::default();
    for obs in observations {
        let update = match &obs.route {
            Some(route) => {
                fill_attrs(&mut announce.attrs, route);
                announce.announced.clear();
                announce.announced.push(obs.prefix);
                &announce
            }
            None => {
                withdraw.withdrawn.clear();
                withdraw.withdrawn.push(obs.prefix);
                &withdraw
            }
        };
        bgpworms_mrt::write_update_into(
            &mut w,
            obs.time,
            obs.peer,
            collector_local_as,
            peer_ip(obs.peer),
            update,
        )?;
    }
    Ok(w.into_inner())
}

/// Builds a TABLE_DUMP_V2 RIB archive out of the *final* state implied by a
/// collector's observations (last announcement per (peer, prefix) wins).
pub fn observations_to_rib_mrt(
    collector_id: u32,
    view_name: &str,
    observations: &[CollectorObservation],
    dump_time: u32,
) -> Result<Vec<u8>, MrtError> {
    // Every peer that said anything is in the index table, withdrawn or not.
    let mut peers: Vec<Asn> = observations.iter().map(|obs| obs.peer).collect();
    peers.sort_unstable();
    peers.dedup();
    let peer_entries: Vec<PeerEntry> = peers
        .iter()
        .map(|p| PeerEntry {
            bgp_id: p.get(),
            ip: peer_ip(*p),
            asn: *p,
        })
        .collect();
    let mut writer = TableDumpWriter::new(
        Vec::new(),
        dump_time,
        collector_id,
        view_name,
        &peer_entries,
    )?;

    // Dump order is (prefix, peer); within one session's run of a prefix
    // the position puts the last word last.
    let mut order: Vec<(Prefix, Asn, usize)> = observations
        .iter()
        .enumerate()
        .map(|(at, obs)| (obs.prefix, obs.peer, at))
        .collect();
    order.sort_unstable();

    // One record's entries, reused prefix after prefix (attribute buffers
    // included); `live` of them belong to the prefix at hand.
    let mut entries: Vec<RibEntry> = Vec::new();
    for of_prefix in order.chunk_by(|a, b| a.0 == b.0) {
        let mut live = 0;
        for of_session in of_prefix.chunk_by(|a, b| a.1 == b.1) {
            let [.., (_, peer, last)] = *of_session else {
                continue; // `chunk_by` yields no empty runs
            };
            let obs = &observations[last];
            let Some(route) = &obs.route else {
                continue;
            };
            if live == entries.len() {
                entries.push(RibEntry {
                    peer_index: 0,
                    originated_time: 0,
                    attrs: PathAttributes::default(),
                });
            }
            // lint: infallible `peers` holds every observation's peer
            let index = peers.binary_search(&peer).expect("peer present");
            let entry = &mut entries[live];
            entry.peer_index =
                u16::try_from(index).map_err(|_| MrtError::FieldTooLong("peer index"))?;
            entry.originated_time = obs.time;
            fill_attrs(&mut entry.attrs, route);
            live += 1;
        }
        if live > 0 {
            writer.write_rib(of_prefix[0].0, &entries[..live])?;
        }
    }
    Ok(writer.into_inner())
}

/// A complete archived collector: update stream plus final RIB dump.
#[derive(Debug, Clone)]
pub struct CollectorArchive {
    /// Collector name.
    pub name: String,
    /// Platform name.
    pub platform: String,
    /// BGP4MP update archive bytes.
    pub updates_mrt: Vec<u8>,
    /// TABLE_DUMP_V2 RIB archive bytes.
    pub rib_mrt: Vec<u8>,
}

/// Archives every collector of a finished run.
pub fn archive_all(
    specs: &[CollectorSpec],
    observations: &BTreeMap<String, Vec<CollectorObservation>>,
    dump_time: u32,
) -> Result<Vec<CollectorArchive>, MrtError> {
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let obs = observations
            .get(&spec.name)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let local_as = Asn::new(64_496); // documentation ASN for the monitor
        out.push(CollectorArchive {
            name: spec.name.clone(),
            platform: spec.platform.clone(),
            updates_mrt: observations_to_mrt(local_as, obs)?,
            rib_mrt: observations_to_rib_mrt(spec.collector_id, &spec.name, obs, dump_time)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RouteAttrs, RouteSource};
    use bgpworms_mrt::{MrtReader, MrtRecord, UpdateStream};
    use bgpworms_types::{AsPath, Community, Origin};

    fn obs(time: u32, peer: u32, prefix: &str, announced: bool) -> CollectorObservation {
        let prefix: Prefix = prefix.parse().unwrap();
        CollectorObservation {
            time,
            peer: Asn::new(peer),
            prefix,
            route: announced.then(|| {
                let attrs = RouteAttrs {
                    path: AsPath::from_asns([Asn::new(peer), Asn::new(1)]),
                    origin: Origin::Igp,
                    communities: vec![Community::new(peer as u16, 100)],
                    large_communities: vec![],
                };
                Route::new(attrs, RouteSource::Ebgp(Asn::new(peer)), 0)
            }),
        }
    }

    #[test]
    fn update_archive_roundtrips() {
        let observations = vec![
            obs(10, 2, "10.0.0.0/16", true),
            obs(20, 2, "10.0.0.0/16", false),
            obs(30, 3, "20.0.0.0/16", true),
        ];
        let mrt = observations_to_mrt(Asn::new(64_496), &observations).unwrap();
        let msgs: Vec<_> = UpdateStream::new(mrt.as_slice())
            .map(|m| m.unwrap())
            .collect();
        assert_eq!(msgs.len(), 3);
        assert_eq!(msgs[0].header.timestamp, 10);
        assert_eq!(msgs[0].peer_as, Asn::new(2));
        assert_eq!(msgs[0].update.announced.len(), 1);
        assert_eq!(msgs[1].update.withdrawn.len(), 1);
        assert_eq!(
            msgs[2].update.attrs.communities,
            vec![Community::new(3, 100)]
        );
    }

    #[test]
    fn rib_archive_reflects_final_state() {
        let observations = vec![
            obs(10, 2, "10.0.0.0/16", true),
            obs(20, 2, "10.0.0.0/16", false), // withdrawn: not in RIB
            obs(30, 3, "20.0.0.0/16", true),
            obs(40, 2, "20.0.0.0/16", true),
        ];
        let mrt = observations_to_rib_mrt(7, "test", &observations, 99).unwrap();
        let mut reader = MrtReader::new(mrt.as_slice());
        let MrtRecord::PeerIndexTable(t) = reader.next_record().unwrap().unwrap() else {
            panic!("expected peer index table")
        };
        assert_eq!(t.view_name, "test");
        assert_eq!(t.peers.len(), 2);
        let mut rib_prefixes = Vec::new();
        let mut entry_counts = Vec::new();
        while let Some(rec) = reader.next_record().unwrap() {
            if let MrtRecord::Rib(r) = rec {
                rib_prefixes.push(r.prefix);
                entry_counts.push(r.entries.len());
            }
        }
        assert_eq!(rib_prefixes.len(), 1, "only 20/16 survives");
        assert_eq!(rib_prefixes[0], "20.0.0.0/16".parse::<Prefix>().unwrap());
        assert_eq!(entry_counts[0], 2, "both peers advertise it");
    }

    #[test]
    fn rib_archive_refuses_more_peers_than_a_peer_index_holds() {
        // Peer indices are two bytes: the 65 536th peer has none.
        let mut observations: Vec<CollectorObservation> = (1..=65_536)
            .map(|peer| obs(1, peer, "10.0.0.0/16", false))
            .collect();
        observations.push(obs(2, 65_536, "10.0.0.0/16", true));
        assert!(matches!(
            observations_to_rib_mrt(7, "test", &observations, 99),
            Err(MrtError::FieldTooLong("peer count"))
        ));
        observations.remove(0);
        let mrt = observations_to_rib_mrt(7, "test", &observations, 99).unwrap();
        let records: Vec<_> = MrtReader::new(mrt.as_slice()).map(|r| r.unwrap()).collect();
        let [MrtRecord::PeerIndexTable(table), MrtRecord::Rib(rib)] = records.as_slice() else {
            panic!("expected an index table and one RIB record, got {records:?}")
        };
        assert_eq!(table.peers.len(), 65_535);
        assert_eq!(rib.entries.len(), 1);
        assert_eq!(rib.entries[0].peer_index, 65_534, "the last peer, by index");
    }

    #[test]
    fn v6_withdrawal_after_an_announcement_carries_blank_attributes() {
        // MP_UNREACH rides in the attribute section, so an IPv6 withdrawal
        // encodes its update's attributes: the scratch update the archive
        // is written from must not leak the previous announcement's.
        let observations = vec![
            obs(10, 2, "2001:db8::/32", true),
            obs(20, 2, "2001:db8::/32", false),
        ];
        let mrt = observations_to_mrt(Asn::new(64_496), &observations).unwrap();
        let msgs: Vec<_> = UpdateStream::new(mrt.as_slice())
            .map(|m| m.unwrap())
            .collect();
        assert_eq!(
            msgs[0].update.attrs.communities,
            vec![Community::new(2, 100)]
        );
        assert_eq!(msgs[1].update.withdrawn, vec![observations[1].prefix]);
        assert_eq!(msgs[1].update.attrs, PathAttributes::default());
    }

    #[test]
    fn peer_ip_is_deterministic_and_distinct() {
        assert_eq!(peer_ip(Asn::new(5)), peer_ip(Asn::new(5)));
        assert_ne!(peer_ip(Asn::new(5)), peer_ip(Asn::new(6)));
    }

    #[test]
    fn archive_all_produces_per_collector_archives() {
        let specs = vec![CollectorSpec {
            name: "rrc00".into(),
            platform: "RIS".into(),
            collector_id: 1,
            peers: vec![(Asn::new(2), FeedKind::Full)],
        }];
        let mut observations = BTreeMap::new();
        observations.insert("rrc00".to_string(), vec![obs(1, 2, "10.0.0.0/16", true)]);
        let archives = archive_all(&specs, &observations, 50).unwrap();
        assert_eq!(archives.len(), 1);
        assert!(!archives[0].updates_mrt.is_empty());
        assert!(!archives[0].rib_mrt.is_empty());
    }
}
