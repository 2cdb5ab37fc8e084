//! Scale smoke tests: compile and converge one episode at each headline
//! topology scale. `#[ignore]`d because they take seconds to minutes in
//! release; CI runs them in the `scale-smoke` matrix job (one case per
//! scale, each under its own timeout), so neither big-topology path can
//! silently rot. Filter by name to run one case locally, e.g.
//! `cargo test --release --test scale_smoke -- --ignored internet`.
//!
//! Beyond "it finished", each case asserts a converged-route-count
//! invariant: a stub's announcement is a customer route everywhere, so
//! Gao–Rexford export must deliver it to (almost) every AS — a scheduler
//! or budget bug that silently drops part of the table cannot pass.

use bgpworms_routesim::{
    Campaign, CampaignSink, Origination, PrefixOutcome, RetainRoutes, SimSpec, Workload,
    WorkloadParams,
};
use bgpworms_topology::{
    addressing::AddressingParams, FullTableParams, PrefixAllocation, Tier, Topology, TopologyParams,
};
use bgpworms_types::{Asn, Community, Prefix};
use std::collections::BTreeSet;

/// Counts converged routes without retaining them — the smoke runs stream
/// through the campaign fold precisely so the Internet-scale case holds
/// O(1) state per prefix.
#[derive(Debug, Default, PartialEq)]
struct RouteCount(usize);

impl CampaignSink for RouteCount {
    fn fold(&mut self, _prefix: Prefix, outcome: PrefixOutcome) {
        self.0 += outcome.final_routes.map(|r| r.len()).unwrap_or(0);
    }
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// Compiles a session over `topo`, converges the first allocated prefix's
/// announcement, and checks convergence + route coverage + replay
/// determinism.
fn smoke(topo: &Topology, min_route_fraction_pct: usize) {
    let alloc = PrefixAllocation::assign(topo, AddressingParams::default());
    let (origin, prefix) = alloc.iter().next().expect("allocation non-empty");

    let sim = SimSpec::new(topo).retain(RetainRoutes::All).compile();
    let episodes = vec![Origination::announce(origin, prefix, vec![])];

    let run = Campaign::new(&sim).run(&episodes, RouteCount::default);
    assert!(run.converged, "run must converge within budget");
    assert!(run.events > 0);
    let floor = topo.len() * min_route_fraction_pct / 100;
    assert!(
        run.sink.0 >= floor,
        "only {} of {} ASes converged a route (floor {floor})",
        run.sink.0,
        topo.len()
    );

    // The session replays: a second streamed run over the same schedule is
    // bit-identical (the compile-once/run-many contract at scale).
    let rerun = Campaign::new(&sim).run(&episodes, RouteCount::default);
    assert_eq!(rerun.sink, run.sink);
    assert_eq!(rerun.events, run.events);

    // Cross-check against the session API: same events, same retained
    // route count, origin keeps its own route, and a full-result replay is
    // bit-identical — not just count-identical.
    let direct = sim.run(&episodes);
    assert!(direct.converged);
    assert_eq!(direct.events, run.events, "campaign diverged from run");
    assert_eq!(
        direct
            .final_routes
            .get(&prefix)
            .map(|m| m.len())
            .unwrap_or(0),
        run.sink.0,
        "streamed route count diverged from retained routes"
    );
    assert!(
        direct.route_at(origin, &prefix).is_some(),
        "origin retains its own route"
    );
    assert_eq!(sim.run(&episodes), direct, "full-result replay diverged");
}

#[test]
#[ignore = "multi-second large-topology run; exercised by the CI scale-smoke job"]
fn large_scale_smoke() {
    let topo = TopologyParams::large().seed(2018).build();
    assert!(
        topo.len() > 5_000,
        "large() drifted below headline scale: {} nodes",
        topo.len()
    );
    smoke(&topo, 95);
    unread_leaves_are_most_of_the_graph_and_change_nothing(&topo);
    delta_equals_fresh(&topo);
}

/// The generated workload's own schedule for a handful of origins spread
/// over the allocation, on an unretained and on a fully retained compile of
/// the same world: the first counts deliveries to unread leaves and drops
/// them, the second floods them in full, and both must hear the same. Each prefix's retained table must equal the one
/// `run_snapshot` (which floods every delivery) returns. The share of
/// unread nodes is asserted too, so a generator change that takes the
/// property away (a collector session on every stub, say) fails here
/// instead of quietly giving the speed-up back.
fn unread_leaves_are_most_of_the_graph_and_change_nothing(topo: &Topology) {
    let alloc = PrefixAllocation::assign(topo, AddressingParams::default());
    let workload = Workload::generate(topo, &alloc, &WorkloadParams::default());
    let origins: Vec<_> = alloc.iter().map(|(origin, _)| origin).collect();
    let picked: Vec<_> = (0..6)
        .map(|k| origins[k * (origins.len() - 1) / 5])
        .collect();
    let episodes: Vec<Origination> = workload
        .originations
        .iter()
        .filter(|ep| picked.contains(&ep.origin))
        .cloned()
        .collect();
    assert!(episodes.len() >= picked.len(), "every origin announces");

    let compile = |retain| {
        workload
            .simulation(topo)
            .threads(1)
            .retain(retain)
            .compile()
    };
    let unretained = compile(RetainRoutes::None);
    let share = unretained.unread_nodes() * 100 / topo.len();
    assert!(
        share > 80,
        "only {share} % of {} nodes are unread leaves: the elision has nothing to elide",
        topo.len()
    );
    let elided = unretained.run(&episodes);
    let retained = compile(RetainRoutes::All);
    let full = retained.run(&episodes);
    assert!(elided.converged && full.converged);
    assert!(elided.observations.values().any(|feed| !feed.is_empty()));
    assert_eq!(elided.observations, full.observations);
    assert_eq!(elided.events, full.events);
    assert!(elided.final_routes.is_empty() && !full.final_routes.is_empty());
    for (prefix, kept) in &full.final_routes {
        let own: Vec<Origination> = episodes
            .iter()
            .filter(|ep| ep.prefix == *prefix)
            .cloned()
            .collect();
        let (twin, _) = retained.run_snapshot(&own, *prefix);
        assert_eq!(kept, &twin.final_routes[prefix], "prefix {prefix}");
    }
}

#[test]
#[ignore = "Internet-scale (~62K-AS) run; exercised by the CI scale-smoke job"]
fn internet_scale_smoke() {
    let topo = TopologyParams::internet_cached();
    assert!(
        topo.len() >= 60_000,
        "internet() drifted below the paper's April-2018 scale: {} nodes",
        topo.len()
    );
    smoke(topo, 95);
    delta_equals_fresh(topo);
    report_peak_rss("internet");
}

/// Prints the test process's peak resident set (`VmHWM` in
/// `/proc/self/status`; nothing where that file is absent): the memory
/// one case takes at Internet scale. A report, not a gate; CI's
/// `scale-smoke` job copies the line to its summary.
fn report_peak_rss(case: &str) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return;
    };
    if let Some(peak) = status.lines().find_map(|l| l.strip_prefix("VmHWM:")) {
        println!(
            "scale-smoke {case}: peak resident set (VmHWM) {}",
            peak.trim()
        );
    }
}

/// One origin's plain announcement snapshotted, then re-announced with a
/// community as a delta on a session compiled apart (as the §7 sweeps
/// replay it): bit-identical to the fresh combined run, retained at every
/// AS and retained for a handful of stub readers (the §7 probe session's
/// shape, whose delta drops what its campaign drops). At
/// Internet scale the delta continues a clone of a whole-network scratch.
fn delta_equals_fresh(topo: &Topology) {
    let alloc = PrefixAllocation::assign(topo, AddressingParams::default());
    let (origin, prefix) = alloc.iter().next().expect("allocation non-empty");
    let stubs: Vec<Asn> = topo
        .ases()
        .filter(|node| node.tier == Tier::Stub)
        .map(|node| node.asn)
        .collect();
    let read = RetainRoutes::Prefixes {
        prefixes: BTreeSet::from([prefix]),
        readers: (0..5).map(|k| stubs[k * (stubs.len() - 1) / 4]).collect(),
    };
    for retain in [RetainRoutes::All, read] {
        let compile = || SimSpec::new(topo).retain(retain.clone()).compile();
        let plain = Origination::announce(origin, prefix, vec![]);
        let tagged = Origination::announce(origin, prefix, vec![Community::new(1, 7)]).at(100);
        let (_, snapshot) = compile().run_snapshot(std::slice::from_ref(&plain), prefix);
        let fresh = compile().run(&[plain, tagged.clone()]);
        assert!(fresh.converged);
        assert_eq!(
            compile().run_delta(&snapshot, &[tagged]),
            fresh,
            "delta diverged from the fresh combined run under {retain:?}"
        );
    }
}

#[test]
#[ignore = "Internet-scale full-table sample; exercised by the CI scale-smoke job"]
fn full_table_smoke() {
    // A sampled full-table campaign on the full ~62K-AS Internet: a few
    // origins' entire (deaggregated) announcement sets, flood-memoized.
    // Locks in that the class structure survives at headline scale —
    // same-origin duplicates must actually fold — and that the memoized
    // fold agrees with the unmemoized one on real Internet floods.
    let topo = TopologyParams::internet_cached();
    let alloc = PrefixAllocation::assign(topo, AddressingParams::default())
        .deaggregate(topo, FullTableParams::default());

    // Origin-preserving sample: the first few origins with a multi-prefix
    // (deaggregated) allocation, whole allocation each, ~hundreds of
    // prefixes total.
    let mut episodes: Vec<Origination> = Vec::new();
    let mut origins = 0;
    for (origin, prefix) in alloc.iter() {
        if episodes.last().is_none_or(|last| last.origin != origin) {
            if origins >= 8 {
                break;
            }
            origins += 1;
        }
        episodes.push(Origination::announce(origin, prefix, vec![]));
    }
    assert!(
        episodes.len() > origins,
        "sample must contain duplicate-class prefixes"
    );

    let sim = SimSpec::new(topo).compile();
    let campaign = Campaign::new(&sim);
    let stats = campaign.class_stats(&episodes);
    assert!(
        stats.classes < stats.prefixes,
        "deaggregated same-origin prefixes must share classes: {} classes / {} prefixes",
        stats.classes,
        stats.prefixes
    );

    let memoized = campaign.run(&episodes, RouteCount::default);
    assert!(memoized.converged, "full-table sample must converge");
    assert_eq!(memoized.class_sims, stats.classes as u64);
    assert_eq!(
        memoized.class_sims + memoized.class_hits,
        stats.prefixes as u64
    );

    // Spot-check soundness at scale: the unmemoized fold agrees.
    let plain = Campaign::unmemoized_reference(&sim).run(&episodes, RouteCount::default);
    assert_eq!(
        memoized.sink, plain.sink,
        "memoized fold diverged at Internet scale"
    );
    assert_eq!(memoized.events, plain.events);
    report_peak_rss("full_table");
}
