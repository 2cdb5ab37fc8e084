//! The §6 lab study: vendor default behaviour, community capacity, RTBH
//! preference, and the validation-ordering misconfiguration — each run as
//! a small controlled topology and reported as a finding.

use bgpworms_routesim::{
    BlackholeService, OriginValidation, Origination, RetainRoutes, RouterConfig, SimSpec, Vendor,
};
use bgpworms_topology::{EdgeKind, Tier, Topology};
use bgpworms_types::{Asn, Community, Prefix};
use std::fmt;

/// One lab finding.
#[derive(Debug, Clone)]
pub struct LabFinding {
    /// Short identifier.
    pub name: &'static str,
    /// What the experiment shows.
    pub description: &'static str,
    /// Whether the behaviour was observed.
    pub observed: bool,
}

impl fmt::Display for LabFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} — {}",
            if self.observed { "x" } else { " " },
            self.name,
            self.description
        )
    }
}

/// The lab chain: origin AS1 → middle AS2 (device under test) → AS3.
fn chain() -> Topology {
    let mut topo = Topology::new();
    topo.add_simple(Asn::new(1), Tier::Stub);
    topo.add_simple(Asn::new(2), Tier::Transit);
    topo.add_simple(Asn::new(3), Tier::Transit);
    topo.add_edge(Asn::new(2), Asn::new(1), EdgeKind::ProviderToCustomer);
    topo.add_edge(Asn::new(3), Asn::new(2), EdgeKind::ProviderToCustomer);
    topo
}

fn p() -> Prefix {
    "10.60.0.0/16".parse().expect("valid")
}

fn community_visible_at_as3(middle: RouterConfig) -> bool {
    let topo = chain();
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .configure(middle)
        .compile();
    let tag = Community::new(1, 77);
    let res = sim.run(&[Origination::announce(Asn::new(1), p(), vec![tag])]);
    res.route_at(Asn::new(3), &p())
        .map(|r| r.has_community(tag))
        .unwrap_or(false)
}

/// §6.1 — Juniper propagates communities by default.
fn juniper_propagates_by_default() -> LabFinding {
    let mut cfg = RouterConfig::defaults(Asn::new(2));
    cfg.vendor = Vendor::Juniper;
    cfg.send_community_configured = false;
    LabFinding {
        name: "juniper-default-propagation",
        description: "JunOS forwards received communities without explicit configuration",
        observed: community_visible_at_as3(cfg),
    }
}

/// §6.1 — Cisco requires explicit per-peer send-community.
fn cisco_requires_send_community() -> LabFinding {
    let mut cfg = RouterConfig::defaults(Asn::new(2));
    cfg.vendor = Vendor::Cisco;
    cfg.send_community_configured = false;
    let silent = !community_visible_at_as3(cfg);
    let mut cfg = RouterConfig::defaults(Asn::new(2));
    cfg.vendor = Vendor::Cisco;
    cfg.send_community_configured = true;
    let speaks = community_visible_at_as3(cfg);
    LabFinding {
        name: "cisco-send-community-required",
        description: "IOS sends no communities until send-community is configured per peer",
        observed: silent && speaks,
    }
}

/// §6.1 — Cisco caps added communities at 32; received ones ride along.
fn cisco_add_limit() -> LabFinding {
    let topo = chain();
    let mut middle = RouterConfig::defaults(Asn::new(2));
    middle.vendor = Vendor::Cisco;
    middle.send_community_configured = true;
    middle.tagging.egress_tags = (0..48).map(|i| Community::new(2, 5000 + i)).collect();
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .configure(middle)
        .compile();
    // The origin attaches 4 of its own; AS2 tries to add 48 more.
    let origin_tags: Vec<Community> = (0..4).map(|i| Community::new(1, i)).collect();
    let res = sim.run(&[Origination::announce(Asn::new(1), p(), origin_tags)]);
    let n = res
        .route_at(Asn::new(3), &p())
        .map(|r| r.communities.len())
        .unwrap_or(0);
    LabFinding {
        name: "cisco-32-add-limit",
        description: "IOS permits adding at most 32 communities on top of received ones",
        observed: n == 4 + 32,
    }
}

/// §6.2 — an accepted blackhole route wins best-path selection even against
/// a shorter path (local-pref raised per the RTBH white paper).
fn rtbh_preference_beats_shorter_path() -> LabFinding {
    // AS3 hears p from AS1 directly (short) and a blackhole-tagged copy via
    // AS2 (long).
    let mut topo = Topology::new();
    topo.add_simple(Asn::new(1), Tier::Stub);
    topo.add_simple(Asn::new(2), Tier::Transit);
    topo.add_simple(Asn::new(3), Tier::Transit);
    topo.add_edge(Asn::new(3), Asn::new(1), EdgeKind::ProviderToCustomer);
    topo.add_edge(Asn::new(2), Asn::new(1), EdgeKind::ProviderToCustomer);
    topo.add_edge(Asn::new(3), Asn::new(2), EdgeKind::ProviderToCustomer);
    let mut target = RouterConfig::defaults(Asn::new(3));
    target.services.blackhole = Some(BlackholeService::default());
    let mut attacker = RouterConfig::defaults(Asn::new(2));
    attacker.tagging.egress_tags = vec![Community::new(3, 666)];
    let sim = SimSpec::new(&topo)
        .retain(RetainRoutes::All)
        .configure(target)
        .configure(attacker)
        .compile();
    let victim: Prefix = "10.61.0.0/24".parse().expect("valid");
    let res = sim.run(&[Origination::announce(Asn::new(1), victim, vec![])]);
    let observed = res
        .route_at(Asn::new(3), &victim)
        .map(|r| r.blackholed && r.path.hop_count() == 2)
        .unwrap_or(false);
    LabFinding {
        name: "rtbh-preference",
        description: "blackhole-tagged routes override shortest-path selection",
        observed,
    }
}

/// §6.3 — the NANOG-tutorial route-map validates customer prefixes *after*
/// matching the blackhole community, so a blackhole-tagged hijack passes.
fn misordered_validation_enables_hijack() -> LabFinding {
    let run = |misordered: bool| -> bool {
        let mut topo = Topology::new();
        topo.add_simple(Asn::new(1), Tier::Stub);
        topo.add_simple(Asn::new(2), Tier::Transit);
        topo.add_simple(Asn::new(3), Tier::Transit);
        topo.add_edge(Asn::new(3), Asn::new(1), EdgeKind::ProviderToCustomer);
        topo.add_edge(Asn::new(3), Asn::new(2), EdgeKind::ProviderToCustomer);
        let victim: Prefix = "10.62.0.0/24".parse().expect("valid");
        let mut target = RouterConfig::defaults(Asn::new(3));
        target.services.blackhole = Some(BlackholeService::default());
        target.validation = OriginValidation::Irr {
            validate_after_blackhole: misordered,
        };
        let sim = SimSpec::new(&topo)
            .retain(RetainRoutes::All)
            .configure(target)
            .register_irr(victim, Asn::new(1))
            .register_rpki(victim, Asn::new(1))
            .compile();
        let res = sim.run(&[
            Origination::announce(Asn::new(1), victim, vec![]),
            Origination::announce(Asn::new(2), victim, vec![Community::new(3, 666)]).at(10),
        ]);
        res.route_at(Asn::new(3), &victim)
            .map(|r| r.blackholed)
            .unwrap_or(false)
    };
    LabFinding {
        name: "misordered-validation",
        description: "blackhole-before-validate route-maps accept blackhole-tagged hijacks",
        observed: run(true) && !run(false),
    }
}

/// Runs the full lab matrix.
pub fn run_all() -> Vec<LabFinding> {
    vec![
        juniper_propagates_by_default(),
        cisco_requires_send_community(),
        cisco_add_limit(),
        rtbh_preference_beats_shorter_path(),
        misordered_validation_enables_hijack(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lab_findings_reproduce() {
        for finding in run_all() {
            assert!(finding.observed, "lab finding not observed: {finding}");
        }
    }

    #[test]
    fn findings_have_distinct_names() {
        let findings = run_all();
        let mut names: Vec<_> = findings.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), findings.len());
    }

    #[test]
    fn display_marks_observed() {
        let f = LabFinding {
            name: "x",
            description: "y",
            observed: true,
        };
        assert!(f.to_string().starts_with("[x]"));
    }
}
