//! Cross-crate integration: the full measurement pipeline — generate,
//! propagate, archive as MRT, parse back, analyse — and the statistical
//! shapes the paper reports.

use bgpworms::prelude::*;

fn build_set(seed: u64) -> (Topology, ObservationSet) {
    let topo = TopologyParams::small().seed(seed).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams {
            seed,
            ..Default::default()
        },
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
    let inputs: Vec<ArchiveInput> = archives
        .into_iter()
        .map(|a| ArchiveInput {
            platform: a.platform,
            collector: a.name,
            mrt: a.updates_mrt,
        })
        .collect();
    let set = ObservationSet::from_archives(&inputs).expect("parse");
    (topo, set)
}

#[test]
fn headline_shapes_hold() {
    let (_, set) = build_set(2018);

    // §4.2: "more than 75 % of all BGP announcements … have at least one
    // community set" — we accept a generous band around it.
    let usage = UsageAnalysis::compute(&set);
    assert!(
        usage.overall_fraction > 0.55 && usage.overall_fraction <= 1.0,
        "community usage fraction {:.2} out of band",
        usage.overall_fraction
    );

    // §4.3: a sizeable minority of transit ASes forward foreign
    // communities (the paper: 2.2 K of 15.5 K ≈ 14 %).
    let prop = PropagationAnalysis::compute(&set, &BlackholeDetector::conventional());
    let frac = prop.forwarder_fraction();
    assert!(
        frac > 0.03 && frac < 0.6,
        "transit forwarder fraction {frac:.2} out of band"
    );

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
