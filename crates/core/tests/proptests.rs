//! Property-based tests for the measurement pipeline: statistical
//! invariants of the ECDF/histogram toolkit, the MRT→observation parse,
//! the large-community accounting, the dense filtering kernel against
//! the sparse-map implementation it replaced, and the store's
//! attribute-set table against a model that keeps every row's own copy.

use bgpworms_core::{
    ArchiveInput, Ecdf, EdgeIndications, FeedAttrs, FeedRow, FilteringAnalysis,
    LargeCommunityAnalysis, ObservationSet, UpdateObservation,
};
use bgpworms_mrt::MrtWriter;
use bgpworms_types::{
    AsPath, Asn, Community, LargeCommunity, PathAttributes, PathSegment, Prefix, RouteUpdate,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type Edges = BTreeMap<(Asn, Asn), EdgeIndications>;

/// The oracle: `FilteringAnalysis::compute` as it stood before the dense-id
/// store, body verbatim, reading owned records of the rows the set is built
/// from ([`Written::record`]) — so it shares neither the kernel nor the
/// store with what it checks.
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

/// One row of a hand-written feed heard at RIS `rrc00` at time 0, owning
/// what a [`FeedRow`] borrows.
#[derive(Debug, Clone)]
struct Written {
    prefix: Prefix,
    attrs: PathAttributes,
    is_withdrawal: bool,
}

impl Written {
    fn row(&self) -> FeedRow<'_> {
        FeedRow {
            time: 0,
            peer: self.attrs.as_path.head().unwrap_or(Asn::new(99)),
            prefix: self.prefix,
            announced: (!self.is_withdrawal).then(|| FeedAttrs::from(&self.attrs)),
        }
    }

    /// The row as the reference reads it: the path de-prepended, as the
    /// store keeps it.
    fn record(&self) -> UpdateObservation {
        UpdateObservation {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            time: 0,
            peer: self.row().peer,
            prefix: self.prefix,
            path: self.attrs.as_path.deprepended_asns().collect(),
            raw_hop_count: self.attrs.as_path.hop_count(),
            prepends: self.attrs.as_path.prepend_runs().collect(),
            communities: self.attrs.communities.clone(),
            large_communities: self.attrs.large_communities.clone(),
            is_withdrawal: self.is_withdrawal,
        }
    }
}

/// The set of a feed of `rows`, all at one session.
fn set(rows: &[Written]) -> ObservationSet {
    ObservationSet::from_rows([("RIS", "rrc00", rows.iter().map(Written::row))])
}

/// The reference's and the dense kernel's analyses of `rows`.
fn both_filterings(rows: &[Written]) -> ((Edges, BTreeSet<(Asn, Asn)>), FilteringAnalysis) {
    let records: Vec<UpdateObservation> = rows.iter().map(Written::record).collect();
    (
        reference_filtering(&records),
        FilteringAnalysis::compute(&set(rows)),
    )
}

fn record(prefix: u8, path: &[u32], comms: &[(u16, u16)], is_withdrawal: bool) -> Written {
    Written {
        prefix: format!("10.{prefix}.0.0/16").parse().unwrap(),
        attrs: PathAttributes {
            as_path: AsPath::from_asns(path.iter().map(|&n| Asn::new(n))),
            communities: comms.iter().map(|&(a, v)| Community::new(a, v)).collect(),
            ..PathAttributes::default()
        },
        is_withdrawal,
    }
}

/// One of each shape the dense kernel can get wrong, on prefix 0.
fn shapes() -> Vec<Written> {
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
        // A withdrawal in between; the attributes it carries count for
        // nothing.
        record(0, &[9, 2, 1], &[(2, 9)], true),
        // An announcement with an empty path.
        record(0, &[], &[(2, 8), (1, 7)], false),
        // A 4-byte path ASN no community can own.
        record(0, &[400_000, 3, 2, 1], &[(2, 8)], false),
    ]
}

#[test]
fn dense_filtering_equals_the_reference_on_every_special_shape() {
    let ((edges, all_edges), dense) = both_filterings(&shapes());
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

/// An attribute set of the pool a feed reuses: the path as (AS, run
/// length) hops, no two neighbours the same AS, and the communities.
#[derive(Debug, Clone)]
struct Pooled {
    hops: Vec<(Asn, usize)>,
    communities: Vec<Community>,
    large: Vec<LargeCommunity>,
}

/// How a row's attributes derive from its pooled set: as they are, or a
/// near miss that differs in one value the store must tell apart.
#[derive(Debug, Clone, Copy)]
enum Variant {
    Same,
    /// One community changed, or one added to none.
    Community,
    /// One large community changed, or one added to none.
    Large,
    /// One prepend moved to another hop: equal de-prepended path and hop
    /// count, other prepend runs.
    Prepend,
    /// The last two hops as an AS_SET: equal de-prepended path and
    /// prepend runs, one hop fewer.
    HopCount,
}

impl Pooled {
    fn attrs(&self, variant: Variant) -> PathAttributes {
        let (mut hops, mut communities, mut large) = (
            self.hops.clone(),
            self.communities.clone(),
            self.large.clone(),
        );
        let mut set_tail = false;
        match variant {
            Variant::Same => {}
            Variant::Community => match communities.first_mut() {
                Some(c) => *c = Community::from_u32(c.as_u32() ^ 1),
                None => communities.push(Community::new(3, 1)),
            },
            Variant::Large => match large.first_mut() {
                Some(l) => l.local2 ^= 1,
                None => large.push(LargeCommunity::new(3, 0, 0)),
            },
            Variant::Prepend => {
                if let Some(from) = hops.iter().position(|&(_, run)| run > 1) {
                    hops[from].1 -= 1;
                    let to = (from + 1) % hops.len();
                    hops[to].1 += 1;
                }
            }
            Variant::HopCount => {
                let n = hops.len();
                set_tail = n >= 2 && hops[n - 2].1 == 1 && hops[n - 1].1 == 1;
            }
        }
        let keep = hops.len() - if set_tail { 2 } else { 0 };
        let sequence = hops[..keep]
            .iter()
            .flat_map(|&(asn, run)| std::iter::repeat_n(asn, run));
        let mut segments = vec![PathSegment::Sequence(sequence.collect())];
        if set_tail {
            segments.push(PathSegment::Set(hops[keep..].iter().map(|h| h.0).collect()));
        }
        PathAttributes {
            as_path: AsPath::from_segments(segments),
            communities,
            large_communities: large,
            ..PathAttributes::default()
        }
    }
}

fn arb_pooled() -> impl Strategy<Value = Pooled> {
    (
        proptest::collection::vec((0usize..POOL.len(), 1usize..4), 0..6),
        proptest::collection::vec((1u16..11, 1u16..4), 0..4),
        proptest::collection::vec((0u32..3, 0u32..3), 0..3),
    )
        .prop_map(|(hops, communities, large)| {
            let mut hops: Vec<(Asn, usize)> = hops
                .into_iter()
                .map(|(i, run)| (Asn::new(POOL[i]), run))
                .collect();
            hops.dedup_by_key(|h| h.0);
            Pooled {
                hops,
                communities: communities
                    .into_iter()
                    .map(|(a, v)| Community::new(a, v))
                    .collect(),
                large: large
                    .into_iter()
                    .map(|(g, l)| LargeCommunity::new(g, l, 0))
                    .collect(),
            }
        })
}

/// A row of a drawn feed: peer, prefix, and for an announcement a pooled
/// set (modulo the pool's size) and how the row's attributes derive from
/// it: as they are at 0–3, else near miss `4 + k` of [`Variant::NEAR`].
type DrawnRow = (u32, u8, Option<(usize, u8)>);

impl Variant {
    const NEAR: [Variant; 4] = [
        Variant::Community,
        Variant::Large,
        Variant::Prepend,
        Variant::HopCount,
    ];

    fn of(draw: u8) -> Variant {
        draw.checked_sub(4)
            .map_or(Variant::Same, |k| Variant::NEAR[usize::from(k)])
    }
}

/// A feed over a pool of one to four attribute sets: one to four
/// sessions, each reusing the pool across peers and prefixes, withdrawals
/// interleaved.
fn arb_pooled_feed() -> impl Strategy<Value = (Vec<Pooled>, Vec<Vec<DrawnRow>>)> {
    let row = (1u32..4, 0u8..4, proptest::option::of((0usize..4, 0u8..8)));
    (
        proptest::collection::vec(arb_pooled(), 1..5),
        proptest::collection::vec(proptest::collection::vec(row, 0..12), 1..5),
    )
}

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
        let ((edges, all_edges), dense) = both_filterings(&records);
        prop_assert_eq!(dense.edges, edges);
        prop_assert_eq!(dense.all_edges, all_edges);
    }

    /// The store keeps each distinct attribute set once and reads every
    /// row back as the model, which keeps each row's own copy: its record,
    /// its edges and its owners' positions, and the distinct set count.
    #[test]
    fn the_attribute_set_table_reads_back_every_row(
        (pool, sessions) in arb_pooled_feed(),
    ) {
        const COLLECTORS: [&str; 4] = ["rrc00", "rrc01", "rrc02", "rrc03"];
        let mut rows = Vec::new();
        for (s, session) in sessions.iter().enumerate() {
            for (time, &(peer, prefix, announced)) in (0u32..).zip(session) {
                let prefix: Prefix = format!("10.{prefix}.0.0/16").parse().unwrap();
                let attrs = announced.map(|(k, draw)| pool[k % pool.len()].attrs(Variant::of(draw)));
                rows.push((COLLECTORS[s], time, Asn::new(peer), prefix, attrs));
            }
        }
        let set = ObservationSet::from_rows(COLLECTORS[..sessions.len()].iter().map(|&c| {
            let of_session = rows.iter().filter(move |r| r.0 == c);
            let feed = of_session.map(|(_, time, peer, prefix, attrs)| FeedRow {
                time: *time,
                peer: *peer,
                prefix: *prefix,
                announced: attrs.as_ref().map(FeedAttrs::from),
            });
            ("RIS", c, feed)
        }));

        let model: Vec<UpdateObservation> = rows
            .iter()
            .map(|(collector, time, peer, prefix, attrs)| {
                let path = attrs.as_ref().map(|a| &a.as_path);
                UpdateObservation {
                    platform: "RIS".into(),
                    collector: (*collector).into(),
                    time: *time,
                    peer: *peer,
                    prefix: *prefix,
                    path: path.map_or(Vec::new(), |p| p.deprepended_asns().collect()),
                    raw_hop_count: path.map_or(0, AsPath::hop_count),
                    prepends: path.map_or(Vec::new(), |p| p.prepend_runs().collect()),
                    communities: attrs.as_ref().map_or(Vec::new(), |a| a.communities.clone()),
                    large_communities: (attrs.as_ref())
                        .map_or(Vec::new(), |a| a.large_communities.clone()),
                    is_withdrawal: attrs.is_none(),
                }
            })
            .collect();
        let announced = || model.iter().filter(|r| !r.is_withdrawal);

        prop_assert_eq!(set.observations.len(), model.len());
        for (obs, want) in set.iter().zip(&model) {
            prop_assert_eq!(&obs.to_record(), want);
            let hops: Vec<(Asn, Asn)> =
                obs.edge_ids().iter().map(|&e| set.edges()[e as usize]).collect();
            let want_hops: Vec<(Asn, Asn)> = want.path.windows(2).map(|w| (w[1], w[0])).collect();
            prop_assert_eq!(hops, want_hops);
            let owners: Vec<Option<usize>> = obs.tags().map(|t| t.owner_pos).collect();
            let want_owners: Vec<Option<usize>> = (want.communities.iter())
                .map(|c| want.path.iter().position(|&a| a == c.owner()))
                .collect();
            prop_assert_eq!(owners, want_owners);
        }
        let edges: BTreeSet<(Asn, Asn)> = announced()
            .flat_map(|r| r.path.windows(2).map(|w| (w[1], w[0])))
            .collect();
        prop_assert_eq!(set.edges(), &edges.into_iter().collect::<Vec<_>>()[..]);
        let communities: BTreeSet<Community> =
            announced().flat_map(|r| r.communities.iter().copied()).collect();
        prop_assert_eq!(set.communities(), &communities.into_iter().collect::<Vec<_>>()[..]);
        let distinct: BTreeSet<_> = announced()
            .map(|r| (&r.path, &r.prepends, r.raw_hop_count, &r.communities, &r.large_communities))
            .collect();
        prop_assert_eq!(set.attribute_sets(), distinct.len());
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
        let mut rows = Vec::new();
        for i in 0..(n_plain + n_large) {
            let mut row = record((i % 200) as u8, &[3, 2, 1], &[], false);
            if i < n_large {
                row.attrs.large_communities = vec![LargeCommunity::new(400_000 + i as u32, 100, 0)];
            }
            rows.push(row);
        }
        let a = LargeCommunityAnalysis::compute(&set(&rows));
        prop_assert_eq!(a.announcements as usize, n_plain + n_large);
        prop_assert_eq!(a.with_large as usize, n_large);
        prop_assert!((0.0..=1.0).contains(&a.large_fraction()));
        prop_assert!((0.0..=1.0).contains(&a.private_bundle_fraction()));
        prop_assert_eq!(a.distance_ecdf().len(), n_large);
    }
}
