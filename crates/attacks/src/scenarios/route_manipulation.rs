//! Route manipulation at an IXP route server — Fig 9 / §5.3 / §7.5.
//!
//! The route server offers control communities: `RS:peer` = announce to
//! that member, `0:peer` = do not announce to that member. Conflicting
//! communities expose the server's evaluation order; with suppress-first
//! (common, and publicly documented at large IXPs) the suppression wins and
//! the attackee member silently loses the route.

use crate::roles::AttackRoles;
use crate::scenarios::{ScenarioOutcome, ScenarioReport};
use bgpworms_routesim::{
    OriginValidation, Origination, RetainRoutes, RouterConfig, RsEvalOrder, SimSpec,
};
use bgpworms_topology::{EdgeKind, Tier, Topology};
use bgpworms_types::{Asn, Community, Prefix};

/// Variant of the Fig 9 attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsAttackVariant {
    /// No hijack: an intermediate provider adds a conflicting suppress
    /// community to the legitimate member's announcement (§7.5 summary).
    ConflictingCommunities,
    /// Hijack: the attacker originates the prefix at the route server with
    /// a suppress community; its (shorter) announcement wins best-path at
    /// the server.
    Hijack,
}

/// Scenario knobs.
#[derive(Debug, Clone)]
pub struct RouteManipulationScenario {
    /// Which variant runs.
    pub variant: RsAttackVariant,
    /// The route server's community evaluation order.
    pub eval_order: RsEvalOrder,
    /// Origin validation at the route server (some IXPs filter via IRR).
    pub validation: OriginValidation,
    /// Whether a hijacking attacker registered an IRR object.
    pub attacker_registers_irr: bool,
}

impl Default for RouteManipulationScenario {
    fn default() -> Self {
        RouteManipulationScenario {
            variant: RsAttackVariant::ConflictingCommunities,
            eval_order: RsEvalOrder::SuppressFirst,
            validation: OriginValidation::None,
            attacker_registers_irr: false,
        }
    }
}

/// Origin member (attackee 2 in the paper's figure).
pub const ORIGIN: Asn = Asn::new(21);
/// The attacker (intermediate provider or hijacking member).
pub const ATTACKER: Asn = Asn::new(22);
/// The member that loses the route (attackee 1).
const VICTIM_MEMBER: Asn = Asn::new(24);
/// The IXP route server (community target).
const ROUTE_SERVER: Asn = Asn::new(29);
/// Another innocent member, to show the route still reaches others.
const OTHER_MEMBER: Asn = Asn::new(25);

impl RouteManipulationScenario {
    /// The contested prefix.
    pub fn prefix() -> Prefix {
        "10.50.0.0/16".parse().expect("valid")
    }

    fn build_topology(&self) -> Topology {
        let mut topo = Topology::new();
        topo.add_simple(ORIGIN, Tier::Stub);
        topo.add_simple(ATTACKER, Tier::Transit);
        topo.add_simple(VICTIM_MEMBER, Tier::Transit);
        topo.add_simple(OTHER_MEMBER, Tier::Transit);
        topo.add_simple(ROUTE_SERVER, Tier::RouteServer);
        topo.add_edge(ROUTE_SERVER, VICTIM_MEMBER, EdgeKind::PeerToPeer);
        topo.add_edge(ROUTE_SERVER, OTHER_MEMBER, EdgeKind::PeerToPeer);
        match self.variant {
            RsAttackVariant::ConflictingCommunities => {
                // Origin reaches the RS through the attacker, its provider.
                topo.add_edge(ATTACKER, ORIGIN, EdgeKind::ProviderToCustomer);
                topo.add_edge(ROUTE_SERVER, ATTACKER, EdgeKind::PeerToPeer);
            }
            RsAttackVariant::Hijack => {
                // Legit route arrives via OTHER_MEMBER; attacker is a
                // member itself.
                topo.add_edge(OTHER_MEMBER, ORIGIN, EdgeKind::ProviderToCustomer);
                topo.add_edge(ROUTE_SERVER, ATTACKER, EdgeKind::PeerToPeer);
            }
        }
        topo
    }

    fn base_spec<'t>(&self, topo: &'t Topology, p: Prefix) -> SimSpec<'t> {
        let mut rs_cfg = RouterConfig::defaults(ROUTE_SERVER);
        rs_cfg.rs_eval_order = self.eval_order;
        rs_cfg.validation = self.validation;
        let mut spec = SimSpec::new(topo)
            .retain(RetainRoutes::All)
            .configure(rs_cfg)
            .register_irr(p, ORIGIN)
            .register_rpki(p, ORIGIN);
        if self.attacker_registers_irr {
            spec = spec.register_irr(p, ATTACKER);
        }
        spec
    }

    /// Runs the scenario.
    pub fn run(&self) -> ScenarioReport {
        let topo = self.build_topology();
        let p = Self::prefix();
        let rs16 = ROUTE_SERVER.as_u16().expect("small");
        let victim16 = VICTIM_MEMBER.as_u16().expect("small");
        let announce_victim = Community::new(rs16, victim16);
        let suppress_victim = Community::new(0, victim16);

        let legit = Origination::announce(ORIGIN, p, vec![announce_victim]);

        // Baseline: no attack lever anywhere. The hijack variant's lever is
        // an extra *episode*, so it reuses this same compiled session; only
        // the conflicting-communities variant (an egress-policy lever)
        // compiles an armed world.
        let spec = self.base_spec(&topo, p);
        let baseline_sim = spec.clone().compile();
        let baseline = baseline_sim.run(std::slice::from_ref(&legit));

        let armed_sim;
        let (attack_sim, episodes) = match self.variant {
            RsAttackVariant::ConflictingCommunities => {
                let mut attacker_cfg = RouterConfig::defaults(ATTACKER);
                attacker_cfg.tagging.egress_tags = vec![suppress_victim];
                armed_sim = spec.configure(attacker_cfg).compile();
                (&armed_sim, vec![legit])
            }
            RsAttackVariant::Hijack => (
                &baseline_sim,
                vec![
                    legit,
                    Origination::announce(ATTACKER, p, vec![suppress_victim]).at(100),
                ],
            ),
        };
        let attacked = attack_sim.run(&episodes);

        let base_has = baseline.route_at(VICTIM_MEMBER, &p).is_some();
        let attack_has = attacked.route_at(VICTIM_MEMBER, &p).is_some();
        let other_has = attacked.route_at(OTHER_MEMBER, &p).is_some();
        let success = base_has && !attack_has;

        ScenarioReport {
            name: format!(
                "route-manipulation/{}",
                match self.variant {
                    RsAttackVariant::ConflictingCommunities => "no-hijack",
                    RsAttackVariant::Hijack => "hijack",
                }
            ),
            roles: AttackRoles {
                attacker: ATTACKER,
                attackee: VICTIM_MEMBER,
                community_target: ROUTE_SERVER,
            },
            outcome: if success {
                ScenarioOutcome::Success
            } else {
                ScenarioOutcome::Blocked
            },
            evidence: vec![
                format!("baseline: {VICTIM_MEMBER} has route to {p}: {base_has}"),
                format!("attack:   {VICTIM_MEMBER} has route to {p}: {attack_has}"),
                format!("attack:   {OTHER_MEMBER} has route to {p}: {other_has}"),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicting_communities_suppress_first_succeeds() {
        let report = RouteManipulationScenario::default().run();
        assert!(report.succeeded(), "{report}");
    }

    #[test]
    fn conflicting_communities_announce_first_fails() {
        // §7.5: the attack hinges on the evaluation order.
        let report = RouteManipulationScenario {
            eval_order: RsEvalOrder::AnnounceFirst,
            ..RouteManipulationScenario::default()
        }
        .run();
        assert!(!report.succeeded(), "{report}");
    }

    #[test]
    fn hijack_variant_succeeds_without_validation() {
        let report = RouteManipulationScenario {
            variant: RsAttackVariant::Hijack,
            ..RouteManipulationScenario::default()
        }
        .run();
        assert!(report.succeeded(), "{report}");
    }

    #[test]
    fn hijack_variant_blocked_by_irr_filtering_unless_circumvented() {
        let blocked = RouteManipulationScenario {
            variant: RsAttackVariant::Hijack,
            validation: OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            ..RouteManipulationScenario::default()
        }
        .run();
        assert!(!blocked.succeeded(), "{blocked}");
        let circumvented = RouteManipulationScenario {
            variant: RsAttackVariant::Hijack,
            validation: OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            attacker_registers_irr: true,
            ..RouteManipulationScenario::default()
        }
        .run();
        assert!(circumvented.succeeded(), "{circumvented}");
    }

    #[test]
    fn other_members_keep_receiving_the_route() {
        let report = RouteManipulationScenario::default().run();
        assert!(report.succeeded());
        assert!(
            report
                .evidence
                .iter()
                .any(|l| l.contains(&format!("{OTHER_MEMBER} has route to")) && l.contains("true")),
            "surgical suppression: only the victim member loses the route\n{report}"
        );
    }
}
