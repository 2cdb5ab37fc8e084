//! Cross-crate integration: MRT as the honest interchange boundary —
//! archives written by the simulated collectors survive a disk round-trip,
//! the RIB dumps parse, everything is byte-deterministic per seed, and a
//! feed read in memory builds the set its archive parses to.

use bgpworms::monitor::groundtruth::feed_set;
use bgpworms::prelude::*;
use bgpworms::routesim::{archive_all, CollectorObservation};
use std::collections::BTreeMap;
use std::io::Write as _;

fn archives(seed: u64) -> Vec<bgpworms::routesim::CollectorArchive> {
    let topo = TopologyParams::tiny().seed(seed).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed },
    );
    let workload = Workload::generate(
        &topo,
        &alloc,
        &WorkloadParams {
            seed,
            ..Default::default()
        },
    );
    let sim = workload.simulation(&topo).compile();
    let result = sim.run(&workload.originations);
    bgpworms::routesim::archive_all(&workload.collectors, &result.observations, 1_525_132_800)
        .expect("archive")
}

#[test]
fn same_seed_produces_byte_identical_archives() {
    let a = archives(42);
    let b = archives(42);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        assert_eq!(
            x.updates_mrt, y.updates_mrt,
            "update archive {} differs",
            x.name
        );
        assert_eq!(x.rib_mrt, y.rib_mrt, "RIB archive {} differs", x.name);
    }
    let c = archives(43);
    let differs = a
        .iter()
        .zip(&c)
        .any(|(x, y)| x.updates_mrt != y.updates_mrt);
    assert!(differs, "different seeds produce different archives");
}

#[test]
fn archives_survive_disk_roundtrip() {
    let archives = archives(7);
    let dir = std::env::temp_dir().join("bgpworms-mrt-interchange-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    let mut total_updates = 0usize;
    for archive in &archives {
        let path = dir.join(format!("{}.mrt", archive.name));
        let mut f = std::fs::File::create(&path).expect("create");
        f.write_all(&archive.updates_mrt).expect("write");
        drop(f);

        // Read it back from disk like any external MRT consumer would.
        let bytes = std::fs::read(&path).expect("read");
        for msg in UpdateStream::new(&bytes) {
            let msg = msg.expect("clean parse from disk");
            assert!(msg.peer_as.get() > 0);
            total_updates += 1;
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(total_updates > 0, "archives contain updates");
}

#[test]
fn rib_dumps_parse_and_reference_valid_peers() {
    let archives = archives(11);
    let mut checked_entries = 0usize;
    for archive in &archives {
        let mut reader = MrtReader::new(archive.rib_mrt.as_slice());
        let first = reader.next_record().expect("read").expect("non-empty");
        let MrtRecord::PeerIndexTable(table) = first else {
            panic!("RIB archive must start with PEER_INDEX_TABLE");
        };
        while let Some(record) = reader.next_record().expect("read") {
            if let MrtRecord::Rib(rib) = record {
                for entry in &rib.entries {
                    let peer = table
                        .peers
                        .get(usize::from(entry.peer_index))
                        .expect("peer index valid");
                    // The RIB path head is reachable via that peer: the
                    // peer itself heads the path (it exported it).
                    let head = entry.attrs.as_path.head().expect("non-empty path");
                    assert_eq!(head, peer.asn, "{}: head vs peer", archive.name);
                    checked_entries += 1;
                }
            }
        }
    }
    assert!(checked_entries > 0, "RIBs contain entries");
}

#[test]
fn update_archives_only_contain_valid_bgp() {
    // Re-encode every parsed update and confirm it still decodes — the
    // full types → wire → MRT → wire → types loop.
    let archives = archives(13);
    let mut count = 0;
    for archive in archives.iter().take(3) {
        for msg in UpdateStream::new(archive.updates_mrt.as_slice()) {
            let msg = msg.expect("parse");
            let bytes = encode_update(&msg.update, CodecConfig::modern()).expect("encode");
            let (decoded, used) = decode_message(&bytes, CodecConfig::modern()).expect("decode");
            assert_eq!(used, bytes.len());
            match decoded {
                BgpMessage::Update(u) => assert_eq!(u, msg.update),
                other => panic!("expected update, got {other:?}"),
            }
            count += 1;
        }
    }
    assert!(count > 0);
}

/// One small world: a topology of `preset` whose stubs take 4-byte ASNs
/// at `four_byte` and whose workload is drawn from `seed`, run to the end.
/// A `deaf` world has one more collector, with no peer.
fn heard(
    preset: TopologyParams,
    seed: u64,
    four_byte: f64,
    deaf: bool,
) -> (
    Vec<CollectorSpec>,
    BTreeMap<String, Vec<CollectorObservation>>,
) {
    let topo = preset.seed(seed).four_byte_stubs(four_byte).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed },
    );
    let params = WorkloadParams {
        seed,
        ..Default::default()
    };
    let mut workload = Workload::generate(&topo, &alloc, &params);
    if deaf {
        workload.collectors.push(CollectorSpec {
            name: "deaf".into(),
            platform: "PCH".into(),
            collector_id: 99,
            peers: vec![],
        });
    }
    let result = workload
        .simulation(&topo)
        .compile()
        .run(&workload.originations);
    (workload.collectors, result.observations)
}

/// The feed read in memory builds the very set its MRT archive parses to
/// (`Debug`-equal, message counts included), over small worlds drawn from
/// their seeds: tiny and small, with and without 4-byte ASNs (and so
/// large communities), and with a collector that hears nothing.
#[test]
fn a_feed_read_in_memory_is_the_set_its_archive_parses_to() {
    let (mut four_byte_paths, mut large, mut silent, mut longest) = (0, 0, 0, 0);
    for case in 0..16u64 {
        let seed = 0x5EED + 7_919 * case;
        let four_byte = [0.12, 0.0, 0.3][case as usize % 3];
        let preset = match case % 4 {
            3 => TopologyParams::small(),
            _ => TopologyParams::tiny(),
        };
        let (collectors, observations) = heard(preset, seed, four_byte, case % 2 == 0);

        let archives = archive_all(&collectors, &observations, 1_525_132_800).expect("archive");
        let inputs: Vec<ArchiveInput> = archives.into_iter().map(ArchiveInput::from).collect();
        let parsed = ObservationSet::from_archives(&inputs).expect("parse");
        let read = feed_set(&collectors, &observations);
        assert_eq!(format!("{read:?}"), format!("{parsed:?}"), "case {case}");

        let carried = observations.values().flatten().filter_map(|o| o.carried());
        for c in carried {
            four_byte_paths += usize::from(c.path.asns().any(|a| a.as_u16().is_none()));
            large += usize::from(!c.large_communities.is_empty());
            longest = longest.max(c.path.hop_count());
        }
        silent += (read.messages.iter()).filter(|(_, _, n)| *n == 0).count();
    }
    eprintln!(
        "{four_byte_paths} announcements over a 4-byte ASN, {large} with a large community, \
         {silent} silent collectors, longest path {longest} ASes"
    );
    assert!(four_byte_paths > 0, "some path holds a 4-byte ASN");
    assert!(large > 0, "some announcement carries a large community");
    assert!(silent > 0, "some collector hears nothing");
    // A path of more than 255 ASes is archived as two AS_PATH segments,
    // and de-prepended segment by segment; none of these worlds builds one.
    assert!(longest <= 255, "a path of {longest} ASes");
}
