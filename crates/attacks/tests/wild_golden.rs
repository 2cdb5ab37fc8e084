//! Seeded golden-fixture regression tests for the six §7 wild experiments.
//!
//! Each test runs one experiment on a fixed `TopologyParams::small()` world
//! and asserts the exact summary numbers it produced when the fixture was
//! recorded. The experiments are deterministic end to end (seeded topology,
//! seeded workload, deterministic engine), so any drift here means an engine
//! or harness change shifted the reproduction numbers — which must be a
//! conscious decision (re-record the fixture in the same PR), never an
//! accident of a refactor.
//!
//! The values were recorded before the `Campaign` streaming-sink migration
//! and re-verified after it, so they also pin that migration as
//! semantics-preserving.

use bgpworms_attacks::wild::{
    extended_survey, full_table, propagation_check, routeserver_experiment, rtbh_experiment,
    steering_experiment, survey,
};
use bgpworms_routesim::{Workload, WorkloadParams};
use bgpworms_topology::{
    addressing::AddressingParams, FullTableParams, PrefixAllocation, TopologyParams,
};
use bgpworms_types::Asn;

/// The §7.6 survey fixture parameters (small world, capped corpus).
fn survey_params() -> survey::SurveyParams {
    survey::SurveyParams {
        topo: TopologyParams::small().seed(2018),
        workload: WorkloadParams {
            blackhole_service_prob: 0.8,
            ..WorkloadParams::default()
        },
        n_vps: 24,
        max_communities: 40,
        verify_repeatability: true,
    }
}

/// The extended-survey fixture parameters (steering + location tagging on).
fn extended_params() -> survey::SurveyParams {
    survey::SurveyParams {
        topo: TopologyParams::small().seed(8),
        workload: WorkloadParams {
            blackhole_service_prob: 0.8,
            steering_service_prob: 0.7,
            location_tag_prob: 0.6,
            ..WorkloadParams::default()
        },
        n_vps: 24,
        max_communities: 120,
        verify_repeatability: false,
    }
}

#[test]
fn golden_survey() {
    let report = survey::run(&survey_params());
    let summary = (
        report.communities_tested,
        report.effective.len(),
        report.affected_vps.len(),
        report.total_vps,
        report.repeatable,
    );
    println!("GOLDEN survey: {summary:?}");
    assert_eq!(summary, GOLDEN_SURVEY, "survey fixture drifted");
    let hops: Vec<(usize, usize)> = report
        .hop_distribution
        .iter()
        .map(|(&h, &n)| (h, n))
        .collect();
    assert_eq!(
        hops.as_slice(),
        GOLDEN_SURVEY_HOPS,
        "survey hop distribution drifted"
    );
}

const GOLDEN_SURVEY: (usize, usize, usize, usize, Option<bool>) = (20, 2, 10, 24, Some(true));
const GOLDEN_SURVEY_HOPS: &[(usize, usize)] = &[(0, 10), (1, 8)];

#[test]
fn golden_likely_survey() {
    let report = extended_survey::likely_survey(&extended_params());
    let summary = (
        report.verified.tested,
        report.verified.effective,
        report.verified.affected_vps.len(),
        report.likely.tested,
        report.likely.effective,
        report.likely.affected_vps.len(),
    );
    println!("GOLDEN likely: {summary:?}");
    assert_eq!(summary, GOLDEN_LIKELY, "likely-survey fixture drifted");
}

const GOLDEN_LIKELY: (usize, usize, usize, usize, usize, usize) = (19, 5, 14, 23, 0, 0);

#[test]
fn golden_steering_survey() {
    let report = extended_survey::steering_survey(&extended_params());
    let summary = (
        report.tested,
        report.effective.len(),
        report.effective.values().copied().sum::<usize>(),
        report.reachability_lost,
        report.total_vps,
    );
    println!("GOLDEN steering-survey: {summary:?}");
    assert_eq!(
        summary, GOLDEN_STEERING_SURVEY,
        "steering-survey fixture drifted"
    );
}

// At small() scale no prepend community moves a vantage point's path: the
// PEERING-like injector's many direct peer sessions give most ASes shorter
// routes that bypass the steering targets entirely (the tiny-world module
// test pins the nonzero-effect case). The zero row still locks the corpus
// size and — via `reachability_lost == 0` over every candidate run — the
// correctness of the per-candidate FIBs and traces.
const GOLDEN_STEERING_SURVEY: (usize, usize, usize, usize, usize) = (45, 0, 0, 0, 24);

#[test]
fn golden_location_injection() {
    let report =
        extended_survey::location_injection(&extended_params()).expect("two location taggers");
    let summary = (
        report.injected.len(),
        report.collectors_observing,
        report.collectors_with_contradiction,
        report.total_collectors,
    );
    println!("GOLDEN location: {summary:?}");
    assert_eq!(
        summary, GOLDEN_LOCATION,
        "location-injection fixture drifted"
    );
}

const GOLDEN_LOCATION: (usize, usize, usize, usize) = (2, 8, 6, 11);

#[test]
fn golden_propagation_check() {
    let report = propagation_check::run(
        &TopologyParams::small().seed(42),
        &WorkloadParams::default(),
    );
    let summary = (
        report.research.forwarders.len(),
        report.research.ases_on_paths.len(),
        report.peering.forwarders.len(),
        report.peering.ases_on_paths.len(),
    );
    println!("GOLDEN propagation: {summary:?}");
    assert_eq!(
        summary, GOLDEN_PROPAGATION,
        "propagation-check fixture drifted"
    );
}

const GOLDEN_PROPAGATION: (usize, usize, usize, usize) = (4, 23, 6, 22);

#[test]
fn golden_routeserver_experiment() {
    let report = routeserver_experiment::run(
        &TopologyParams::small().seed(17),
        &WorkloadParams::default(),
    )
    .expect("route server found");
    let summary = (
        report.route_server,
        report.attackee,
        report.route_present_before,
        report.route_absent_after,
    );
    println!("GOLDEN routeserver: {summary:?}");
    assert_eq!(summary, GOLDEN_ROUTESERVER, "route-server fixture drifted");
}

const GOLDEN_ROUTESERVER: (Asn, Asn, bool, bool) = (Asn::new(125), Asn::new(6), true, true);

#[test]
fn golden_rtbh_experiment() {
    let wp = WorkloadParams {
        blackhole_service_prob: 0.9,
        ..WorkloadParams::default()
    };
    let report = rtbh_experiment::run(&TopologyParams::small().seed(11), &wp, false, 40)
        .expect("target found");
    let summary = (
        report.target,
        report.target_distance,
        report.target_blackholed,
        report.responsive_before,
        report.responsive_after,
        report.lost_vps.len(),
        report.total_vps,
    );
    println!("GOLDEN rtbh: {summary:?}");
    assert_eq!(summary, GOLDEN_RTBH, "RTBH fixture drifted");
}

const GOLDEN_RTBH: (Asn, usize, bool, usize, usize, usize, usize) =
    (Asn::new(2), 2, true, 40, 14, 26, 40);

#[test]
fn golden_steering_experiment() {
    let wp = WorkloadParams {
        steering_service_prob: 0.9,
        ..WorkloadParams::default()
    };
    let report = steering_experiment::run(&TopologyParams::small().seed(11), &wp)
        .expect("steering path found");
    let summary = (
        report.target,
        report.intermediate,
        report.prepended_observations,
        report.total_observations,
        report.local_pref_before,
        report.local_pref_after,
    );
    println!("GOLDEN steering: {summary:?}");
    assert_eq!(summary, GOLDEN_STEERING, "steering fixture drifted");
}

const GOLDEN_STEERING: (Asn, Asn, usize, usize, u32, u32) =
    (Asn::new(2), Asn::new(6), 15, 29, 120, 70);

#[test]
fn golden_full_table_sampled() {
    // A sampled full-table campaign over the deaggregated small() world:
    // pins the schedule size, the flood-equivalence class structure, and
    // the table-scale propagation/stripping counts — so both the
    // deaggregation generator and the memoized campaign path are locked.
    let topo = TopologyParams::small().seed(2018).build();
    let alloc = PrefixAllocation::assign(&topo, AddressingParams::default())
        .deaggregate(&topo, FullTableParams::default());
    let workload = Workload::policies(&topo, &alloc, &WorkloadParams::default());
    let report = full_table::run_full_table(&workload, &topo, &alloc, Some(alloc.len() / 2), 1);
    let run = &report.run;
    let summary = (
        report.prefixes(),
        report.classes(),
        run.class_sims,
        run.class_hits,
        run.converged,
        run.sink.observations,
        run.sink.tagged_observations,
    );
    println!("GOLDEN full-table: {summary:?}");
    assert_eq!(summary, GOLDEN_FULL_TABLE, "full-table fixture drifted");
}

const GOLDEN_FULL_TABLE: (usize, usize, u64, u64, bool, usize, usize) =
    (187, 67, 67, 120, true, 5461, 4012);
