//! Property-based tests for the measurement pipeline: statistical
//! invariants of the ECDF/histogram toolkit, the MRT→observation parse,
//! the large-community accounting, and the dense filtering kernel against
//! the sparse-map implementation it replaced.

use bgpworms_core::{
    ArchiveInput, Ecdf, EdgeIndications, FilteringAnalysis, LargeCommunityAnalysis, ObservationSet,
    UpdateObservation,
};
use bgpworms_mrt::MrtWriter;
use bgpworms_types::{AsPath, Asn, Community, LargeCommunity, PathAttributes, Prefix, RouteUpdate};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Edges = BTreeMap<(Asn, Asn), EdgeIndications>;

/// The oracle: `FilteringAnalysis::compute` as it stood before the dense-id
/// store (PR 16), body verbatim, reading the owned records the set is built
/// from — so it shares neither the kernel nor the store with what it checks.
fn reference_filtering(records: &[UpdateObservation]) -> (Edges, BTreeSet<(Asn, Asn)>) {
    fn position_of(obs: &UpdateObservation, asn: Asn) -> Option<usize> {
        obs.path.iter().position(|&a| a == asn)
    }

    // Group announcement observations per prefix.
    let mut by_prefix: BTreeMap<Prefix, Vec<usize>> = BTreeMap::new();
    let all: Vec<_> = records.iter().filter(|o| !o.is_withdrawal).collect();
    let mut all_edges: BTreeSet<(Asn, Asn)> = BTreeSet::new();
    for (i, obs) in all.iter().enumerate() {
        by_prefix.entry(obs.prefix).or_default().push(i);
        for w in obs.path.windows(2) {
            // Announcement direction: w[1] exported to w[0].
            all_edges.insert((w[1], w[0]));
        }
    }

    let mut edges: BTreeMap<(Asn, Asn), EdgeIndications> = BTreeMap::new();

    for indices in by_prefix.values() {
        // Which ASes are known to have held community c (between tagger
        // and peer on some carrying path)?
        let mut holders: BTreeMap<Community, BTreeSet<Asn>> = BTreeMap::new();
        for &i in indices {
            let obs = all[i];
            for &c in &obs.communities {
                let Some(tagger_idx) = position_of(obs, c.owner()) else {
                    continue;
                };
                let entry = holders.entry(c).or_default();
                for &asn in &obs.path[..=tagger_idx] {
                    entry.insert(asn);
                }
            }
        }

        // Forward / filter indications per (community, announcement).
        for (&c, holder_set) in &holders {
            for &i in indices {
                let obs = all[i];
                let carries = obs.communities.contains(&c);
                let tagger_pos = position_of(obs, c.owner());
                if !carries && tagger_pos.is_none() {
                    // The tagger is not even on this path; the
                    // community plausibly never travelled here, so its
                    // absence is not evidence of filtering.
                    continue;
                }
                // Walk consecutive pairs (X at j+1 exports to Z at j).
                for j in 0..obs.path.len().saturating_sub(1) {
                    let z = obs.path[j];
                    let x = obs.path[j + 1];
                    if x == c.owner() {
                        // The tagger adding its own community is not a
                        // forwarding decision about foreign communities.
                        continue;
                    }
                    if !holder_set.contains(&x) {
                        continue;
                    }
                    // Only edges between the tagger and the monitor are
                    // informative on this path.
                    if tagger_pos.map(|t| j < t) != Some(true) {
                        continue;
                    }
                    let e = edges.entry((x, z)).or_default();
                    if carries {
                        e.forwarded += 1;
                    } else {
                        e.filtered += 1;
                    }
                }
            }
        }
    }

    (edges, all_edges)
}

fn record(
    prefix: u8,
    path: &[u32],
    comms: &[(u16, u16)],
    is_withdrawal: bool,
) -> UpdateObservation {
    UpdateObservation {
        platform: "RIS".into(),
        collector: "rrc00".into(),
        time: 0,
        peer: Asn::new(path.first().copied().unwrap_or(99)),
        prefix: format!("10.{prefix}.0.0/16").parse().unwrap(),
        path: path.iter().map(|&n| Asn::new(n)).collect(),
        raw_hop_count: path.len(),
        prepends: vec![],
        communities: comms.iter().map(|&(a, v)| Community::new(a, v)).collect(),
        large_communities: vec![],
        is_withdrawal,
    }
}

/// One of each shape the dense kernel can get wrong, on prefix 0.
fn shapes() -> Vec<UpdateObservation> {
    vec![
        // AS4 repeated non-consecutively: its first position is the tagger's
        // (AS3, a holder by the second path, sits below its later one).
        record(0, &[5, 4, 3, 4, 1], &[(4, 1)], false),
        record(0, &[3, 4, 1], &[(4, 1)], false),
        // An owner that is on no path, and one off this path only.
        record(0, &[6, 3, 1], &[(10, 1), (4, 1)], false),
        // Owner at position 0 (the peer) and at the origin.
        record(0, &[2, 1], &[(2, 5)], false),
        record(0, &[5, 3, 1], &[(1, 7)], false),
        record(0, &[6, 3, 1], &[], false),
        // AS7 never held 1:7: no indication on its edge.
        record(0, &[6, 7, 1], &[], false),
        // Two communities of one owner with different holder sets.
        record(0, &[4, 3, 2, 1], &[(2, 8)], false),
        record(0, &[5, 2, 1], &[(2, 9)], false),
        // A duplicate observation.
        record(0, &[5, 2, 1], &[(2, 9)], false),
        // A withdrawal in between; the attributes it should not have count
        // for nothing.
        record(0, &[9, 2, 1], &[(2, 9)], true),
        // An announcement with an empty path.
        record(0, &[], &[(2, 8), (1, 7)], false),
        // A 4-byte path ASN no community can own.
        record(0, &[400_000, 3, 2, 1], &[(2, 8)], false),
    ]
}

#[test]
fn dense_filtering_equals_the_reference_on_every_special_shape() {
    let records = shapes();
    let (edges, all_edges) = reference_filtering(&records);
    let dense = FilteringAnalysis::compute(&ObservationSet::from_observations(records, vec![]));
    assert_eq!(dense.edges, edges);
    assert_eq!(dense.all_edges, all_edges);
    // The shapes bite: both kinds of indication, and edges with neither.
    assert!(edges.values().any(|e| e.forwarded > 0));
    assert!(edges.values().any(|e| e.filtered > 0));
    assert!(edges.len() < all_edges.len());
}

/// ASNs random paths draw from: eight that can own a community, one that
/// cannot. Owners 9 and 10 are on no path.
const POOL: [u32; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 400_000];

proptest! {
    #[test]
    fn dense_filtering_equals_the_reference(
        random in proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(0usize..POOL.len(), 0..7),
                proptest::collection::vec((1u16..11, 1u16..3), 0..4),
                0u8..6,
            ),
            0..24,
        ),
        with_shapes in any::<bool>(),
    ) {
        let mut records = if with_shapes { shapes() } else { Vec::new() };
        for (prefix, path, comms, kind) in random {
            let path: Vec<u32> = path.into_iter().map(|i| POOL[i]).collect();
            let r = record(prefix, &path, &comms, kind == 0);
            if kind == 1 {
                records.push(r.clone());
            }
            records.push(r);
        }
        let (edges, all_edges) = reference_filtering(&records);
        let dense = FilteringAnalysis::compute(&ObservationSet::from_observations(records, vec![]));
        prop_assert_eq!(dense.edges, edges);
        prop_assert_eq!(dense.all_edges, all_edges);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(
        samples in proptest::collection::vec(-1e6f64..1e6, 0..200),
        probes in proptest::collection::vec(-1e6f64..1e6, 0..20),
    ) {
        let ecdf = Ecdf::new(samples.iter().copied());
        let mut sorted_probes = probes;
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &sorted_probes {
            let f = ecdf.fraction_at(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f + 1e-12 >= prev, "ECDF must be monotone");
            prev = f;
        }
        if let Some(max) = samples.iter().copied().fold(None, |m: Option<f64>, x| {
            Some(m.map_or(x, |m| m.max(x)))
        }) {
            prop_assert_eq!(ecdf.fraction_at(max), 1.0);
        }
    }

    #[test]
    fn ecdf_quantiles_are_samples_within_range(
        samples in proptest::collection::vec(0f64..100.0, 1..100),
        q in 0f64..=1.0,
    ) {
        let ecdf = Ecdf::new(samples.iter().copied());
        let v = ecdf.quantile(q).unwrap();
        prop_assert!(samples.contains(&v), "quantile must be an observed sample");
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min && v <= max);
    }

    #[test]
    fn observation_roundtrip_preserves_communities(
        path in proptest::collection::btree_set(1u32..5000, 1..6),
        comms in proptest::collection::btree_set(any::<u32>(), 0..8),
        larges in proptest::collection::btree_set(any::<(u32, u32, u32)>(), 0..4),
    ) {
        let path: Vec<Asn> = path.into_iter().map(Asn::new).collect();
        let communities: Vec<Community> =
            comms.into_iter().map(Community::from_u32).collect();
        let large_communities: Vec<LargeCommunity> = larges
            .into_iter()
            .map(|(g, l1, l2)| LargeCommunity::new(g, l1, l2))
            .collect();

        let mut attrs = PathAttributes {
            as_path: AsPath::from_asns(path.clone()),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            ..PathAttributes::default()
        };
        attrs.communities = communities.clone();
        attrs.large_communities = large_communities.clone();
        let prefix: Prefix = "10.0.0.0/16".parse().unwrap();
        let update = RouteUpdate::announce(prefix, attrs);

        let mut w = MrtWriter::new(Vec::new());
        bgpworms_mrt::write_update_into(
            &mut w,
            42,
            path[0],
            Asn::new(64_496),
            "10.0.0.2".parse().unwrap(),
            &update,
        )
        .unwrap();
        let set = ObservationSet::from_archives(&[ArchiveInput {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            mrt: w.into_inner(),
        }])
        .unwrap();

        prop_assert_eq!(set.observations.len(), 1);
        let obs = set.row(0).to_record();
        prop_assert_eq!(&obs.path, &path);
        // the codec normalizes (sorts) communities; compare as sets
        let mut want = communities;
        bgpworms_types::community::normalize(&mut want);
        let mut got = obs.communities.clone();
        bgpworms_types::community::normalize(&mut got);
        prop_assert_eq!(got, want);
        let mut want_large = large_communities;
        want_large.sort_unstable();
        let mut got_large = obs.large_communities.clone();
        got_large.sort_unstable();
        prop_assert_eq!(got_large, want_large);
    }

    #[test]
    fn large_analysis_fractions_bounded(
        n_plain in 0usize..20,
        n_large in 0usize..20,
    ) {
        let mut observations = Vec::new();
        for i in 0..(n_plain + n_large) {
            let large = if i < n_large {
                vec![LargeCommunity::new(400_000 + i as u32, 100, 0)]
            } else {
                vec![]
            };
            observations.push(UpdateObservation {
                platform: "RIS".into(),
                collector: "rrc00".into(),
                time: 0,
                peer: Asn::new(3),
                prefix: format!("10.{}.0.0/16", i % 200).parse().unwrap(),
                path: vec![Asn::new(3), Asn::new(2), Asn::new(1)],
                raw_hop_count: 3,
                prepends: vec![],
                communities: vec![],
                large_communities: large,
                is_withdrawal: false,
            });
        }
        let set = ObservationSet::from_observations(observations, vec![]);
        let a = LargeCommunityAnalysis::compute(&set);
        prop_assert_eq!(a.announcements as usize, n_plain + n_large);
        prop_assert_eq!(a.with_large as usize, n_large);
        prop_assert!((0.0..=1.0).contains(&a.large_fraction()));
        prop_assert!((0.0..=1.0).contains(&a.private_bundle_fraction()));
        prop_assert_eq!(a.distance_ecdf().len(), n_large);
    }
}
