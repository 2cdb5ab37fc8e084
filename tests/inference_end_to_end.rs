//! Cross-crate integration: the §8/§9 passive-monitoring pipeline end to
//! end — a labeled Internet with injected attacks of every class, the
//! detectors over the collectors' feed, and the evaluation against ground
//! truth.

use bgpworms::analysis::FilteringAnalysis;
use bgpworms::monitor::{groundtruth, DictionaryEval, DictionaryInference, HygieneReport, Monitor};
use bgpworms::prelude::*;

fn labeled_run() -> groundtruth::LabeledRun {
    groundtruth::build(&groundtruth::LabeledRunParams {
        topo: TopologyParams::small(),
        workload: WorkloadParams {
            blackhole_service_prob: 0.8,
            steering_service_prob: 0.7,
            ..WorkloadParams::default()
        },
        seed: 2018,
        per_kind: 3,
    })
}

#[test]
fn attack_inference_full_pipeline() {
    let run = labeled_run();
    assert!(run.injections.len() >= 10, "attack slots mostly filled");

    let filters = FilteringAnalysis::compute(&run.observations);
    let monitor = Monitor::new(&run.observations, &run.truth_dict)
        .with_filters(&filters)
        .with_topology(&run.topo);
    let alerts = monitor.run();
    let eval = groundtruth::evaluate(&run, &alerts);

    assert!(
        eval.recall() >= 0.6,
        "recall {:.2}; per-kind {:?}",
        eval.recall(),
        eval.per_kind
    );
    assert!(
        eval.precision() >= 0.6,
        "precision {:.2} ({} false alarms / {})",
        eval.precision(),
        eval.false_alarms,
        eval.attack_alerts
    );
    assert!(
        eval.attribution() >= 0.7,
        "attribution {:.2}",
        eval.attribution()
    );

    // Hijack-class attacks are the paper's headline scenario — they must
    // not be missed wholesale.
    let hijack = eval.per_kind["rtbh-hijack"];
    assert!(hijack.recall() >= 0.5, "hijack recall {:?}", hijack);
}

#[test]
fn dictionary_inference_recovers_blackhole_semantics() {
    let run = labeled_run();
    let (inferred, evidence) = DictionaryInference.infer(&run.observations);
    assert!(!evidence.is_empty());

    let eval = DictionaryEval::compare(&inferred, &run.truth_dict, &run.observations);
    let bh = eval.scores["blackhole"];
    assert!(
        bh.recall() >= 0.5,
        "behavioural blackhole inference should find observed services: {bh:?}"
    );
    let loc = eval.scores["location"];
    assert!(
        loc.precision() >= 0.8,
        "location-family inference should be precise: {loc:?}"
    );
}

#[test]
fn hygiene_report_on_a_benign_world() {
    // No injected attacks: grades exist, counters are consistent.
    let topo = TopologyParams::small().seed(7).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed: 7 },
    );
    let workload = Workload::generate(&topo, &alloc, &WorkloadParams::default());
    let sim = workload.simulation(&topo).threads(4).compile();
    let result = sim.run(&workload.originations);
    let set = groundtruth::feed_set(&workload.collectors, &result.observations);

    let dict = CommunityDictionary::from_workload(workload.configs.values());
    let report = HygieneReport::compute(&set, &dict, 3);

    assert_eq!(report.announcements, set.announcements().count() as u64);
    assert!(!report.per_as.is_empty());
    // NO_EXPORT is honoured by the simulator, so it can never be observed.
    assert_eq!(report.well_known_leaks, 0);
    // Grades cover every tracked AS.
    let graded: usize = report.grade_counts().values().sum();
    assert_eq!(graded, report.per_as.len());
    // Reserved/private owners are not graded.
    assert!(report
        .per_as
        .keys()
        .all(|a| a.get() != 65_535 && !a.is_private()));
}

#[test]
fn fake_location_injection_is_caught_by_the_monitor() {
    // §7.7 meets §8: inject contradictory location communities from a
    // stub, read the collectors' feed, and let the monitor flag the
    // contradiction from passive data alone.
    let topo = TopologyParams::small().seed(2018).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed: 2018 },
    );
    let params = WorkloadParams {
        location_tag_prob: 0.6,
        ..WorkloadParams::default()
    };
    let workload = Workload::generate(&topo, &alloc, &params);
    // One location-tagging transit; the injection claims *two* of its
    // ingress locations at once — a single AS cannot have received the
    // route in both LAX and FRA, which is the passively detectable
    // contradiction (different ASes tagging different locations is
    // ordinary multi-path reality).
    let tagger = workload
        .configs
        .values()
        .find(|c| c.tagging.tag_ingress_location && c.asn.as_u16().is_some())
        .map(|c| c.asn)
        .expect("a location tagger exists");
    let hi = tagger.as_u16().unwrap();
    let fake = vec![Community::new(hi, 201), Community::new(hi, 203)];
    // The injector is an ordinary stub announcing its own prefix with the
    // contradictory tags attached at origination.
    let injector = topo
        .ases()
        .find(|n| {
            n.tier == bgpworms::topology::Tier::Stub
                && !alloc.prefixes_of(n.asn).is_empty()
                && alloc.prefixes_of(n.asn)[0].is_v4()
        })
        .map(|n| n.asn)
        .expect("stub with a v4 prefix");
    let prefix = alloc.prefixes_of(injector)[0];

    let sim = workload.simulation(&topo).threads(4).compile();
    let result = sim.run(&[bgpworms::routesim::Origination::announce(
        injector,
        prefix,
        fake.clone(),
    )]);
    let set = groundtruth::feed_set(&workload.collectors, &result.observations);

    let dict = CommunityDictionary::from_workload(workload.configs.values());
    let monitor = Monitor::new(&set, &dict);
    let alerts: Vec<_> = monitor
        .location_alerts()
        .into_iter()
        .filter(|a| a.prefix == prefix)
        .collect();
    assert!(
        !alerts.is_empty(),
        "the §7.7 contradiction must surface as a ContradictoryLocation alert"
    );
    assert!(alerts
        .iter()
        .all(|a| a.kind == bgpworms::monitor::AlertKind::ContradictoryLocation));
}

#[test]
fn monitor_is_quiet_on_a_benign_world_apart_from_rtbh_lookalikes() {
    let topo = TopologyParams::small().seed(21).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed: 21 },
    );
    let workload = Workload::generate(&topo, &alloc, &WorkloadParams::default());
    let sim = workload.simulation(&topo).threads(4).compile();
    let result = sim.run(&workload.originations);
    let set = groundtruth::feed_set(&workload.collectors, &result.observations);
    let dict = CommunityDictionary::from_workload(workload.configs.values());
    let filters = FilteringAnalysis::compute(&set);

    let monitor = Monitor::new(&set, &dict)
        .with_filters(&filters)
        .with_topology(&topo);
    let alerts = monitor.run();
    // A benign world may still produce a handful of RTBH-shaped false
    // positives (origin absences the filter evidence cannot excuse), but
    // the monitor must not drown the operator.
    let critical = alerts
        .iter()
        .filter(|a| a.severity == bgpworms::monitor::Severity::Critical)
        .count();
    assert!(
        critical <= set.announcements().count() / 100,
        "{critical} critical alerts on a benign world"
    );
}
