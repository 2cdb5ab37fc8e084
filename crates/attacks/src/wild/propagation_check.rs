//! §7.2 — propagation checking: announce a prefix tagged with a benign
//! community from each injection platform and count, at the collectors, how
//! many transit ASes forward it.
//!
//! The paper finds a stark asymmetry: the single-homed research network's
//! community is relayed by only ~7 transit providers, while PEERING's
//! (hundreds of sessions at ten PoPs) is relayed by >50 within half an hour
//! and 112 (of 434 ASes on observed paths) within a day.

use crate::conditions::BENIGN_VALUE;
use crate::wild::{InjectionPlatform, World};
use bgpworms_routesim::{Campaign, CampaignSink, Origination, PrefixOutcome, WorkloadParams};
use bgpworms_topology::TopologyParams;
use bgpworms_types::{Asn, Community, Prefix};
use std::collections::BTreeSet;

/// Result for one injection platform.
#[derive(Debug, Clone)]
pub struct PlatformPropagation {
    /// The platform.
    pub platform: InjectionPlatform,
    /// Distinct ASes observed relaying the benign community (including the
    /// collector peers that exported it to a monitor).
    pub forwarders: BTreeSet<Asn>,
    /// All ASes on any observed path for the test prefix (origin included)
    /// — the paper's "434 transit and origin ASes in the paths".
    pub ases_on_paths: BTreeSet<Asn>,
}

impl PlatformPropagation {
    /// Forwarders as a fraction of path ASes.
    pub fn forwarder_fraction(&self) -> f64 {
        if self.ases_on_paths.is_empty() {
            return 0.0;
        }
        self.forwarders.len() as f64 / self.ases_on_paths.len() as f64
    }
}

/// The full §7.2 experiment report.
#[derive(Debug, Clone)]
pub struct PropagationCheckReport {
    /// The single-homed research network.
    pub research: PlatformPropagation,
    /// The PEERING-like platform.
    pub peering: PlatformPropagation,
}

/// Runs the experiment on a freshly generated Internet.
pub fn run(
    topo_params: &TopologyParams,
    workload_params: &WorkloadParams,
) -> PropagationCheckReport {
    let mut world = World::generate(topo_params, workload_params);
    let research = world.attach_research_network();
    let peering = world.attach_peering_platform();

    // Both platforms probe over identical configs: one compiled session,
    // one run per platform.
    let sim = world.simulation().compile();
    let research_result = probe(&sim, research);
    let peering_result = probe(&sim, peering);

    PropagationCheckReport {
        research: research_result,
        peering: peering_result,
    }
}

/// Streaming aggregate for one platform probe: collector observations are
/// reduced to the forwarder/on-path AS sets the moment their prefix
/// finishes — the observation lists themselves are dropped in the fold, so
/// the probe retains O(distinct ASes), not O(observations).
struct PropagationSink {
    origin: Asn,
    benign: Community,
    forwarders: BTreeSet<Asn>,
    ases_on_paths: BTreeSet<Asn>,
}

impl CampaignSink for PropagationSink {
    fn fold(&mut self, _prefix: Prefix, outcome: PrefixOutcome) {
        for observations in &outcome.observations {
            for obs in observations {
                let Some(route) = &obs.route else { continue };
                let path = route.path.deprepended().to_vec();
                for &asn in &path {
                    if asn != self.origin {
                        self.ases_on_paths.insert(asn);
                    }
                }
                if route.has_community(self.benign) {
                    // Everyone between the origin (exclusive) and the
                    // monitor relayed the tag, including the collector
                    // peer itself.
                    for &asn in &path {
                        if asn != self.origin {
                            self.forwarders.insert(asn);
                        }
                    }
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.forwarders.extend(other.forwarders);
        self.ases_on_paths.extend(other.ases_on_paths);
    }
}

fn probe(
    sim: &bgpworms_routesim::CompiledSim<'_>,
    platform: InjectionPlatform,
) -> PlatformPropagation {
    let benign = Community::new(
        platform.asn.as_u16().expect("platform ASN fits"),
        BENIGN_VALUE,
    );
    let p = Prefix::V4(platform.prefix);
    let run = Campaign::new(sim).run(
        &[Origination::announce(platform.asn, p, vec![benign])],
        || PropagationSink {
            origin: platform.asn,
            benign,
            forwarders: BTreeSet::new(),
            ases_on_paths: BTreeSet::new(),
        },
    );
    PlatformPropagation {
        platform,
        forwarders: run.sink.forwarders,
        ases_on_paths: run.sink.ases_on_paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peering_outpropagates_the_research_network() {
        let report = run(
            &TopologyParams::small().seed(42),
            &WorkloadParams::default(),
        );
        assert!(
            !report.peering.forwarders.is_empty(),
            "PEERING's community must be seen somewhere"
        );
        assert!(
            report.peering.forwarders.len() >= report.research.forwarders.len(),
            "multi-session platform reaches at least as many forwarders \
             (peering {} vs research {})",
            report.peering.forwarders.len(),
            report.research.forwarders.len()
        );
        // Both platforms' prefixes propagate somewhere.
        assert!(!report.peering.ases_on_paths.is_empty());
        assert!(!report.research.ases_on_paths.is_empty());
        // Fractions are sane.
        assert!(report.peering.forwarder_fraction() <= 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(&TopologyParams::tiny().seed(5), &WorkloadParams::default());
        let b = run(&TopologyParams::tiny().seed(5), &WorkloadParams::default());
        assert_eq!(a.peering.forwarders, b.peering.forwarders);
        assert_eq!(a.research.forwarders, b.research.forwarders);
    }
}
