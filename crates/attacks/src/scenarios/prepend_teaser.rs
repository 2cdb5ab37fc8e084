//! The motivating example of §3.1 / Fig 2: remote abuse of a prepend
//! community service by an AS further down the announcement path.
//!
//! ```text
//!            AS6  (traffic source; customer of AS3 and AS5)
//!           /   \
//!        AS3     AS5        AS3 offers prepending via AS3:10n
//!           \   /
//!            AS4            (peers with AS3 and AS5)
//!             |
//!            AS2  (attacker; customer of AS4)
//!             |
//!            AS1  (origin of p; customer of AS2)
//! ```
//!
//! Baseline: AS6 sees equal-length paths via AS3 and AS5 and (by
//! deterministic tie-break) routes via AS3. The attacker AS2 tags the
//! announcement with `AS3:103` ("prepend ×3"); if AS4 forwards the foreign
//! community, AS3 prepends itself three times and AS6's traffic shifts to
//! AS5 — the malicious-interceptor / cost-imposition motivations of §3.1.

use crate::roles::AttackRoles;
use crate::scenarios::{ScenarioOutcome, ScenarioReport};
use bgpworms_dataplane::{trace, Fib};
use bgpworms_routesim::{
    ActScope, CommunityPropagationPolicy, Origination, RetainRoutes, RouterConfig, SimSpec,
};
use bgpworms_topology::{EdgeKind, Tier, Topology};
use bgpworms_types::{Asn, Community, Prefix};

/// Origin of p.
pub const ORIGIN: Asn = Asn::new(1);
/// The attacker.
pub const ATTACKER: Asn = Asn::new(2);
/// The prepend-service provider (community target).
pub const TARGET: Asn = Asn::new(3);
/// The transit AS between attacker and target (attackee candidate).
const TRANSIT: Asn = Asn::new(4);
/// The alternate path (possibly a malicious interceptor).
const INTERCEPTOR: Asn = Asn::new(5);
/// The remote traffic source whose routing is flipped.
pub const SOURCE: Asn = Asn::new(6);

/// Scenario knobs.
#[derive(Debug, Clone)]
pub struct PrependTeaser {
    /// Does the intermediate AS4 forward foreign communities?
    pub transit_forwards_communities: bool,
    /// Scope of AS3's steering service (the paper's lab uses Any; in the
    /// wild providers usually restrict to customers, §7.4).
    pub target_scope: ActScope,
    /// How many prepends the attacker requests (community `AS3:10n`).
    pub prepends: u8,
}

impl Default for PrependTeaser {
    fn default() -> Self {
        PrependTeaser {
            transit_forwards_communities: true,
            target_scope: ActScope::Any,
            prepends: 3,
        }
    }
}

impl PrependTeaser {
    /// The contested prefix.
    pub fn prefix() -> Prefix {
        "10.20.0.0/16".parse().expect("valid prefix")
    }

    fn build(&self) -> Topology {
        let mut topo = Topology::new();
        topo.add_simple(ORIGIN, Tier::Stub);
        topo.add_simple(ATTACKER, Tier::Transit);
        topo.add_simple(TRANSIT, Tier::Transit);
        topo.add_simple(TARGET, Tier::Transit);
        topo.add_simple(INTERCEPTOR, Tier::Transit);
        topo.add_simple(SOURCE, Tier::Stub);
        topo.add_edge(ATTACKER, ORIGIN, EdgeKind::ProviderToCustomer);
        topo.add_edge(TRANSIT, ATTACKER, EdgeKind::ProviderToCustomer);
        topo.add_edge(TRANSIT, TARGET, EdgeKind::PeerToPeer);
        topo.add_edge(TRANSIT, INTERCEPTOR, EdgeKind::PeerToPeer);
        topo.add_edge(TARGET, SOURCE, EdgeKind::ProviderToCustomer);
        topo.add_edge(INTERCEPTOR, SOURCE, EdgeKind::ProviderToCustomer);
        topo
    }

    /// Runs baseline vs. attack.
    pub fn run(&self) -> ScenarioReport {
        let topo = self.build();
        let p = Self::prefix();
        let host = u32::from(
            "10.20.0.1"
                .parse::<std::net::Ipv4Addr>()
                .expect("valid host"),
        );
        let prepend_value = 100 + u16::from(self.prepends);
        let prepend_community = Community::new(TARGET.as_u16().expect("small ASN"), prepend_value);

        let mut target_cfg = RouterConfig::defaults(TARGET);
        target_cfg
            .services
            .prepend
            .extend([(101u16, 1u8), (102, 2), (103, 3)]);
        target_cfg.services.steering_scope = self.target_scope;

        let mut transit_cfg = RouterConfig::defaults(TRANSIT);
        transit_cfg.propagation = if self.transit_forwards_communities {
            CommunityPropagationPolicy::ForwardAll
        } else {
            CommunityPropagationPolicy::StripAll
        };

        let spec = SimSpec::new(&topo)
            .retain(RetainRoutes::All)
            .configure(target_cfg)
            .configure(transit_cfg);

        // Baseline run.
        let baseline = spec
            .clone()
            .compile()
            .run(&[Origination::announce(ORIGIN, p, vec![])]);
        let base_fib = Fib::from_sim(&baseline);
        let base_trace = trace(&base_fib, SOURCE, host);

        // Attack: AS2 adds AS3's prepend community on egress (a config
        // lever, so the armed world compiles from a spec clone).
        let mut attacker_cfg = RouterConfig::defaults(ATTACKER);
        attacker_cfg.tagging.egress_tags = vec![prepend_community];
        let attacked = spec
            .configure(attacker_cfg)
            .compile()
            .run(&[Origination::announce(ORIGIN, p, vec![])]);
        let attack_fib = Fib::from_sim(&attacked);
        let attack_trace = trace(&attack_fib, SOURCE, host);

        let base_next = base_trace.path.get(1).copied();
        let attack_next = attack_trace.path.get(1).copied();
        let shifted = base_next == Some(TARGET) && attack_next == Some(INTERCEPTOR);
        let delivered = attack_trace.delivered();

        let target_export_len = attacked
            .route_at(SOURCE, &p)
            .map(|r| r.path.hop_count())
            .unwrap_or(0);

        ScenarioReport {
            name: "steering/prepend-teaser".into(),
            roles: AttackRoles {
                attacker: ATTACKER,
                attackee: TRANSIT,
                community_target: TARGET,
            },
            outcome: if shifted && delivered {
                ScenarioOutcome::Success
            } else {
                ScenarioOutcome::Blocked
            },
            evidence: vec![
                format!(
                    "baseline: {SOURCE} routes via {:?}, path {:?}",
                    base_next, base_trace.path
                ),
                format!(
                    "attack:   {SOURCE} routes via {:?}, path {:?}",
                    attack_next, attack_trace.path
                ),
                format!("best-path length at {SOURCE} after attack: {target_export_len}"),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_shifts_source_to_interceptor() {
        let report = PrependTeaser::default().run();
        assert!(report.succeeded(), "{report}");
    }

    #[test]
    fn stripping_transit_blocks_the_attack() {
        let report = PrependTeaser {
            transit_forwards_communities: false,
            ..PrependTeaser::default()
        }
        .run();
        assert!(!report.succeeded(), "{report}");
    }

    #[test]
    fn customers_only_scope_ignores_peer_announcement() {
        // AS3 learns the tagged route from its *peer* AS4; a customers-only
        // steering scope must ignore the community (§7.4's impediment).
        let report = PrependTeaser {
            target_scope: ActScope::CustomersOnly,
            ..PrependTeaser::default()
        }
        .run();
        assert!(!report.succeeded(), "{report}");
    }

    #[test]
    fn single_prepend_is_not_enough_to_flip() {
        // With one prepend the AS3 path is 5 vs 4 — still longer, so the
        // flip *does* happen; but with zero… use prepends beyond the
        // service table to check no-op: value 104 is not a service.
        let report = PrependTeaser {
            prepends: 4, // community AS3:104 — not offered
            ..PrependTeaser::default()
        }
        .run();
        assert!(!report.succeeded(), "unknown community value is inert");
    }
}
