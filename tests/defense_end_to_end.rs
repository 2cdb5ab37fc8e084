//! Cross-crate integration: the §8 scoped-propagation defense at workload
//! scale. Full adoption must kill multi-hop community relaying while the
//! collector carve-out keeps communities measurable.

use bgpworms::analysis::{PropagationAnalysis, UsageAnalysis};
use bgpworms::monitor::groundtruth::feed_set;
use bgpworms::prelude::*;

fn build(adoption: f64) -> ObservationSet {
    let topo = TopologyParams::small().seed(2018).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed: 2018 },
    );
    let params = WorkloadParams {
        scoped_defense_adoption: adoption,
        ..WorkloadParams::default()
    };
    let workload = Workload::generate(&topo, &alloc, &params);
    let sim = workload.simulation(&topo).threads(4).compile();
    let result = sim.run(&workload.originations);
    feed_set(&workload.collectors, &result.observations)
}

#[test]
fn full_defense_adoption_stops_transit_relaying_but_not_measurement() {
    let baseline_set = build(0.0);
    let defended_set = build(1.0);

    let detector = BlackholeDetector::conventional();
    let baseline = PropagationAnalysis::compute(&baseline_set, &detector);
    let defended = PropagationAnalysis::compute(&defended_set, &detector);

    // Multi-hop relaying of foreign communities disappears.
    assert!(
        baseline.forwarder_fraction() > 0.0,
        "baseline world has transit forwarders"
    );
    assert_eq!(
        defended.forwarders.len(),
        0,
        "full adoption leaves no transit AS relaying foreign communities"
    );

    // The collector carve-out keeps communities observable: the defense is
    // *not* the same as stripping everything.
    let defended_usage = UsageAnalysis::compute(&defended_set);
    assert!(
        defended_usage.overall_fraction > 0.4,
        "collector sessions still see communities ({:.2})",
        defended_usage.overall_fraction
    );

    // Propagation distance collapses toward the one-hop scope.
    let base_mean_ge2 = 1.0 - baseline.fig5a_all().fraction_at(1.0);
    let def_mean_ge2 = 1.0 - defended.fig5a_all().fraction_at(1.0);
    assert!(
        def_mean_ge2 < base_mean_ge2,
        "fewer communities travel ≥ 2 hops under the defense \
         (baseline {base_mean_ge2:.3}, defended {def_mean_ge2:.3})"
    );
}
