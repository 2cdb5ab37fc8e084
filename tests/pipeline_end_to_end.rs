//! Cross-crate integration: the full measurement pipeline — generate,
//! propagate, archive as MRT, parse back, analyse — and the statistical
//! shapes the paper reports.

use bgpworms::prelude::*;

/// What the headline numbers are read from: one analysed world.
struct Analysed {
    usage: UsageAnalysis,
    propagation: PropagationAnalysis,
    filtering: FilteringAnalysis,
    /// The mean AS-path length over all announcements.
    mean_path_len: f64,
}

/// One of the paper's headline numbers and the band a generated world must
/// put it in.
struct Headline {
    /// What is measured, and where the paper reports it.
    what: &'static str,
    /// The paper's value.
    paper: f64,
    /// The accepted band, inclusive. The generated Internet is smaller and
    /// shallower than the real one (mean path 3.3 hops at `small`, 4.0 at
    /// `medium`), so a band says where this generator's worlds land, not
    /// the paper's precision.
    band: (f64, f64),
    measure: fn(&Analysed) -> f64,
}

/// The paper's headline numbers, as one table.
const HEADLINES: &[Headline] = &[
    Headline {
        what: "transit ASes forwarding foreign communities (§4.3)",
        paper: 0.14,
        band: (0.03, 0.6),
        measure: |a| a.propagation.forwarder_fraction(),
    },
    Headline {
        what: "updates carrying at least one community (§4.2)",
        paper: 0.75,
        band: (0.55, 1.0),
        measure: |a| a.usage.overall_fraction,
    },
    Headline {
        // The paper's "more than four hops, the mean path length", scaled
        // to the world's own mean as `repro fig5a` does.
        what: "communities travelling at least the mean path length (Fig 5a)",
        paper: 0.5,
        band: (0.05, 0.8),
        measure: |a| 1.0 - a.propagation.fig5a_all().fraction_at(a.mean_path_len - 1.0),
    },
    Headline {
        what: "updates carrying more than two communities (Fig 4a)",
        paper: 0.51,
        band: (0.1, 0.8),
        measure: |a| a.usage.fraction_more_than(2),
    },
    Headline {
        what: "AS edges with forwarding indications (§4.4, Fig 6)",
        paper: 0.04,
        band: (0.01, 0.3),
        measure: |a| a.filtering.fractions(0).0,
    },
    Headline {
        what: "AS edges with filtering indications (§4.4, Fig 6)",
        paper: 0.10,
        band: (0.03, 0.4),
        measure: |a| a.filtering.fractions(0).1,
    },
];

fn analyse(set: &ObservationSet) -> Analysed {
    let lens: Vec<usize> = set.announcements().map(|o| o.path().len()).collect();
    Analysed {
        usage: UsageAnalysis::compute(set),
        propagation: PropagationAnalysis::compute(set, &BlackholeDetector::conventional()),
        filtering: FilteringAnalysis::compute(set),
        mean_path_len: lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64,
    }
}

fn build_set(seed: u64) -> (Topology, ObservationSet) {
    build_world(TopologyParams::small(), seed)
}

fn build_world(params: TopologyParams, seed: u64) -> (Topology, ObservationSet) {
    let topo = params.seed(seed).build();
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
    let sim = workload.simulation(&topo).threads(4).compile();
    let result = sim.run(&workload.originations);
    assert!(result.converged, "propagation must converge");

    let archives = bgpworms::routesim::archive_all(&workload.collectors, &result.observations, 0)
        .expect("archive");
    let inputs: Vec<ArchiveInput> = archives.into_iter().map(ArchiveInput::from).collect();
    let set = ObservationSet::from_archives(&inputs).expect("parse");
    (topo, set)
}

#[test]
fn headline_numbers_land_in_their_bands() {
    let mut misses = Vec::new();
    for (scale, params) in [
        ("small", TopologyParams::small()),
        ("medium", TopologyParams::medium()),
    ] {
        let (_, set) = build_world(params, 2018);
        let analysed = analyse(&set);
        for h in HEADLINES {
            let value = (h.measure)(&analysed);
            let (lo, hi) = h.band;
            if !(lo..=hi).contains(&value) {
                misses.push(format!(
                    "{scale}: {} = {value:.3}, outside [{lo}, {hi}] (paper {})",
                    h.what, h.paper
                ));
            }
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}

#[test]
fn headline_shapes_hold() {
    let (_, set) = build_set(2018);
    let prop = PropagationAnalysis::compute(&set, &BlackholeDetector::conventional());

    // Fig 5a: blackhole communities travel no farther than communities in
    // general (median comparison).
    let all = prop.fig5a_all();
    assert!(all.len() > 100, "enough distance samples");
    let bh = prop.fig5a_blackhole();
    if let (Some(m_all), Some(m_bh)) = (all.quantile(0.5), bh.quantile(0.5)) {
        assert!(
            m_bh <= m_all + 1.0,
            "blackhole median {m_bh} vs all {m_all}"
        );
    }

    // Table 2 consistency: per-platform counts never exceed the total row,
    // and on-path + off-path cover every owner.
    let total = prop.table2.last().expect("total row");
    for row in &prop.table2[..prop.table2.len() - 1] {
        assert!(row.total <= total.total, "{} exceeds total", row.platform);
    }
    for row in &prop.table2 {
        assert!(row.on_path + row.off_path >= row.total);
        assert!(row.off_path_without_private <= row.off_path);
        assert!(row.without_collector_peer <= row.total);
    }
}

#[test]
fn table1_is_internally_consistent() {
    let (_, set) = build_set(7);
    let overview = DatasetOverview::compute(&set);
    let total = overview.total();
    for row in &overview.rows {
        assert_eq!(
            row.stub + row.transit,
            row.ases,
            "{}: stub+transit=ases partition",
            row.platform
        );
        assert!(row.origin <= row.ases);
        assert!(row.as_peers <= row.ip_peers);
        assert!(row.communities <= total.communities + row.communities); // sanity
    }
    // The total row dominates every platform row on set-cardinality fields.
    for row in &overview.rows[..overview.rows.len() - 1] {
        assert!(row.ases <= total.ases);
        assert!(row.v4_prefixes <= total.v4_prefixes);
        assert!(row.communities <= total.communities);
    }
    // Messages add up exactly.
    let platform_sum: u64 = overview.rows[..overview.rows.len() - 1]
        .iter()
        .map(|r| r.messages)
        .sum();
    assert_eq!(platform_sum, total.messages);
}

#[test]
fn filtering_analysis_shapes() {
    let (_, set) = build_set(2018);
    let filt = FilteringAnalysis::compute(&set);
    assert!(!filt.all_edges.is_empty());
    let (fwd, fil) = filt.fractions(0);
    // Fractions are over all observed edges and must be proper fractions;
    // the paper finds filtering indications more common than forwarding.
    assert!(fwd > 0.0 && fwd < 1.0);
    assert!(fil > 0.0 && fil < 1.0);
    assert!(fil >= fwd * 0.5, "filtering should be comparable or higher");
    // Mixed edges exist (§4.4's central observation).
    assert!(filt.mixed().count() > 0);
}

#[test]
fn observation_paths_are_valley_free() {
    // The propagation engine must only produce Gao–Rexford-compliant
    // paths; check every observed announcement against the topology.
    let (topo, set) = build_set(5);
    let mut checked = 0;
    for obs in set.announcements() {
        let verdict = bgpworms::topology::check_valley_free(&topo, obs.path());
        assert!(
            verdict.is_ok(),
            "path {:?} violates valley-freeness: {verdict:?}",
            obs.path()
        );
        checked += 1;
    }
    assert!(checked > 500, "checked {checked} paths");
}

#[test]
fn snapshot_is_deterministic() {
    let (_, a) = build_set(99);
    let (_, b) = build_set(99);
    assert_eq!(a.observations.len(), b.observations.len());
    assert_eq!(a.messages, b.messages);
    // Spot-check deep equality on a sample.
    for (x, y) in a.iter().zip(b.iter()).take(200) {
        assert_eq!(x.to_record(), y.to_record());
    }
}
