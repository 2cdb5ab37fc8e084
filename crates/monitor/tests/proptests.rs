//! Property-based tests for the passive-monitoring pipeline: attribution
//! invariants over random observation sets, score bounds, hygiene grade
//! monotonicity, and the shared per-prefix / per-community indexes against
//! the full scans they replaced.

use bgpworms_core::{FeedAttrs, FeedRow, FilteringAnalysis, ObservationSet};
use bgpworms_monitor::dictionary::{CommunityDictionary, CommunityKind, KindScore};
use bgpworms_monitor::groundtruth::{build, LabeledRunParams};
use bgpworms_monitor::hygiene::HygieneReport;
use bgpworms_monitor::tagger::{attribute, attribute_all, attribute_among};
use bgpworms_monitor::Monitor;
use bgpworms_routesim::WorkloadParams;
use bgpworms_topology::TopologyParams;
use bgpworms_types::{AsPath, Asn, Community, PathAttributes, Prefix};
use proptest::prelude::*;
use std::collections::BTreeSet;

const PREFIX: &str = "10.0.0.0/16";

/// One row of a hand-written feed, owning what a [`FeedRow`] borrows;
/// `attrs` is `None` for a withdrawal.
struct Written {
    peer: Asn,
    prefix: Prefix,
    attrs: Option<PathAttributes>,
}

/// An announcement of `prefix` over `path` from its first AS (or AS99, if
/// it has none), carrying `communities`.
fn announce(prefix: Prefix, path: &[u32], communities: Vec<Community>) -> Written {
    Written {
        peer: Asn::new(path.first().copied().unwrap_or(99)),
        prefix,
        attrs: Some(PathAttributes {
            as_path: AsPath::from_asns(path.iter().map(|&n| Asn::new(n))),
            communities,
            ..PathAttributes::default()
        }),
    }
}

fn obs(path: &[u32], tagged: bool, community: Community) -> Written {
    let communities = if tagged { vec![community] } else { vec![] };
    announce(PREFIX.parse().unwrap(), path, communities)
}

/// The set of a feed of `rows` heard at one session at time 0.
fn set(rows: &[Written]) -> ObservationSet {
    let rows = rows.iter().map(|r| FeedRow {
        time: 0,
        peer: r.peer,
        prefix: r.prefix,
        announced: r.attrs.as_ref().map(FeedAttrs::from),
    });
    ObservationSet::from_rows([("RIS", "rrc00", rows)])
}

/// The alert list `Monitor::run` returned on this labeled run (the one
/// `groundtruth.rs`'s own tests build) while the monitor still kept a
/// private `BTreeMap` of each prefix's announcements: the shared index
/// must not move one character of it.
#[test]
fn monitor_alerts_on_the_labeled_run_are_unchanged() {
    let run = build(&LabeledRunParams {
        topo: TopologyParams::small(),
        workload: WorkloadParams {
            blackhole_service_prob: 0.8,
            steering_service_prob: 0.7,
            ..WorkloadParams::default()
        },
        seed: 11,
        per_kind: 2,
    });
    let filters = FilteringAnalysis::compute(&run.observations);
    let alerts: Vec<String> = Monitor::new(&run.observations, &run.truth_dict)
        .with_filters(&filters)
        .with_topology(&run.topo)
        .run()
        .iter()
        .map(|a| a.to_string())
        .collect();
    let want = [
        "[Critical] rtbh-hijack 1.70.0.0/24 community 1:666 suspected [AS36] — \
         blackhole-tagged more-specific of 1.70.0.0/21 announced by {Asn(36)}, covering \
         prefix originated by {Asn(38)}",
        "[Critical] rtbh-third-party 1.85.0.0/20 community 3:666 suspected [AS9] — tagger \
         attribution over 22 tagged / 16 untagged paths puts the blackhole request at \
         [Asn(9)], not the origin {Asn(48)}",
        "[Critical] rtbh-hijack 1.92.0.0/24 community 1:666 suspected [AS44] — \
         blackhole-tagged paths claim adjacency AS54 → AS44 absent from the covering \
         prefix's paths (forged-origin signature)",
        "[Critical] rtbh-hijack 1.113.0.0/24 community 1:666 suspected [AS118] — \
         blackhole-tagged more-specific of 1.113.0.0/21 announced by {Asn(118)}, covering \
         prefix originated by {Asn(69)}",
        "[Critical] rtbh-hijack 1.138.0.0/24 community 1:666 suspected [AS33] — \
         blackhole-tagged paths claim adjacency AS85 → AS33 absent from the covering \
         prefix's paths (forged-origin signature)",
        "[Warning] rs-conflict 1.16.0.0/18 community 0:9 suspected [AS7] — update carries \
         suppress 0:9 conflicting with announce-to [125:9] for member 9 (evaluation-order \
         exploit shape, §7.5)",
        "[Warning] rs-conflict 1.21.0.0/19 community 0:7 suspected [AS9] — update carries \
         suppress 0:7 conflicting with announce-to [125:7] for member 7 (evaluation-order \
         exploit shape, §7.5)",
    ];
    assert_eq!(alerts, want);
}

/// Random non-empty loop-free path of 1..=6 ASes drawn from a small pool.
fn arb_path() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(1u32..30, 1..=6)
        .prop_map(|set| set.into_iter().collect::<Vec<u32>>())
        .prop_shuffle()
}

proptest! {
    /// `attribute_all` by its definition: for each prefix some announcement
    /// carries the community on, in `Prefix` order, `attribute_among` over
    /// a full scan for that prefix's announcements with a path.
    #[test]
    fn attribute_all_equals_the_full_scan_it_replaced(
        rows in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(1u32..9, 0..5), 0u8..4, 0u8..8),
            0..20,
        ),
        with_filters in any::<bool>(),
    ) {
        let wanted = Community::new(3, 1);
        let records: Vec<Written> = rows
            .iter()
            .map(|(prefix, path, tag, kind)| {
                // 3:1 alone, with company, another community, or none.
                let communities = [vec![wanted], vec![Community::new(2, 7), wanted],
                    vec![Community::new(2, 7)], vec![]][*tag as usize].clone();
                let prefix = format!("10.{prefix}.0.0/16").parse().unwrap();
                let announced = announce(prefix, path, communities);
                Written {
                    attrs: announced.attrs.filter(|_| *kind != 0),
                    ..announced
                }
            })
            .collect();
        let set = set(&records);
        let filters = FilteringAnalysis::compute(&set);
        let filters = with_filters.then_some(&filters);

        let carrying: BTreeSet<Prefix> = records
            .iter()
            .filter(|r| r.attrs.as_ref().is_some_and(|a| a.communities.contains(&wanted)))
            .map(|r| r.prefix)
            .collect();
        let want: Vec<String> = carrying
            .into_iter()
            .map(|p| {
                let scan = set
                    .announcements()
                    .filter(|o| o.prefix == p && !o.path().is_empty());
                format!("{:?}", attribute_among(scan, p, wanted, filters, true))
            })
            .collect();
        let got: Vec<String> = attribute_all(&set, wanted, filters)
            .iter()
            .map(|a| format!("{a:?}"))
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn attribution_candidates_lie_on_every_tagged_path(
        paths in proptest::collection::vec((arb_path(), any::<bool>()), 1..8),
    ) {
        let community = Community::new(99, 42);
        let observations: Vec<Written> = paths
            .iter()
            .map(|(p, tagged)| obs(p, *tagged, community))
            .collect();
        let set = set(&observations);
        let att = attribute(&set, PREFIX.parse().unwrap(), community, None);

        let tagged_paths: Vec<&Vec<u32>> = paths
            .iter()
            .filter(|(_, t)| *t)
            .map(|(p, _)| p)
            .collect();
        prop_assert_eq!(att.tagged_paths, tagged_paths.len());
        prop_assert_eq!(att.untagged_paths, paths.len() - tagged_paths.len());

        if tagged_paths.is_empty() {
            prop_assert!(att.candidates.is_empty());
        }
        for cand in &att.candidates {
            // every candidate is on every tagged path
            for p in &tagged_paths {
                prop_assert!(
                    p.contains(&cand.asn.get()),
                    "candidate {} absent from a tagged path {:?}",
                    cand.asn,
                    p
                );
            }
            // scores bounded by the owner-boosted maximum
            prop_assert!(cand.score > 0.0 && cand.score <= 1.5 + 1e-9);
        }
        // candidates are sorted by descending score
        prop_assert!(att
            .candidates
            .windows(2)
            .all(|w| w[0].score >= w[1].score - 1e-12));
        // the best set shares the maximum score
        let best = att.best_set();
        if let Some(first) = att.candidates.first() {
            prop_assert!(best.contains(&first.asn));
        }
    }

    #[test]
    fn kind_score_bounds(tp in 0usize..50, fp in 0usize..50, fn_ in 0usize..50) {
        let s = KindScore {
            true_positives: tp,
            false_positives: fp,
            false_negatives: fn_,
        };
        prop_assert!((0.0..=1.0).contains(&s.precision()));
        prop_assert!((0.0..=1.0).contains(&s.recall()));
        prop_assert!((0.0..=1.0).contains(&s.f1()));
        // F1 never exceeds the larger of precision/recall (harmonic mean)
        let (p, r) = (s.precision(), s.recall());
        prop_assert!(s.f1() <= p.max(r) + 1e-9);
    }

    #[test]
    fn hygiene_grades_are_complete_and_reserved_owners_excluded(
        paths in proptest::collection::vec(arb_path(), 1..10),
        owners in proptest::collection::vec(1u16..200, 1..10),
    ) {
        let mut dict = CommunityDictionary::new();
        let mut observations = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            let owner = owners[i % owners.len()];
            dict.insert(Community::new(owner, 666), CommunityKind::Blackhole);
            observations.push(obs(p, true, Community::new(owner, 666)));
            // sprinkle a reserved-owner community too
            observations.push(obs(p, true, Community::new(65_535, 666)));
        }
        let set = set(&observations);
        let report = HygieneReport::compute(&set, &dict, 3);
        // graded set matches per-AS keys and excludes reserved owners
        let graded: usize = report.grade_counts().values().sum();
        prop_assert_eq!(graded, report.per_as.len());
        prop_assert!(report.per_as.keys().all(|a| a.get() != 65_535 && !a.is_private()));
        // announcement counter matches input
        prop_assert_eq!(report.announcements as usize, paths.len() * 2);
    }

    #[test]
    fn attribution_owner_prior_never_changes_candidate_set(
        paths in proptest::collection::vec((arb_path(), any::<bool>()), 1..6),
    ) {
        // The prior reweights, it must not add or remove candidates.
        let community = Community::new(7, 666);
        let observations: Vec<Written> = paths
            .iter()
            .map(|(p, tagged)| obs(p, *tagged, community))
            .collect();
        let set = set(&observations);
        let prefix: Prefix = PREFIX.parse().unwrap();
        let with_prior = attribute_among(
            set.announcements(), prefix, community, None, true,
        );
        let without_prior = attribute_among(
            set.announcements(), prefix, community, None, false,
        );
        let a: BTreeSet<Asn> = with_prior.candidates.iter().map(|c| c.asn).collect();
        let b: BTreeSet<Asn> = without_prior.candidates.iter().map(|c| c.asn).collect();
        prop_assert_eq!(a, b);
    }
}
