//! Remotely triggered blackholing — Fig 7(a) (no hijack) and 7(b) (with
//! hijack).
//!
//! Topology (paper's Fig 7):
//!
//! ```text
//!        AS4 (traffic source, provider of AS3)
//!         |
//!        AS3 (community target: offers ASN:666 RTBH)
//!        /  \
//!      AS2   AS1 (attackee, originates p = 10.10.10.0/24)
//!        \  /
//!   (AS1 is also AS2's customer in the no-hijack variant)
//! ```
//!
//! *No hijack:* AS2 merely transits AS1's announcement but adds `AS3:666`
//! on egress; AS3 prefers the blackhole-tagged route (RTBH local-pref) even
//! though the path is longer, and installs a null route.
//!
//! *Hijack:* AS2 originates p itself, tagged `AS3:666`. Origin validation
//! at AS3 (when present and correctly ordered) blocks it — unless the
//! attacker polluted the IRR (§7.3) or the target checks the blackhole
//! community before validating (§6.3).

use crate::roles::AttackRoles;
use crate::scenarios::{ScenarioOutcome, ScenarioReport};
use bgpworms_dataplane::{trace, Fib, LookingGlass, TraceOutcome};
use bgpworms_routesim::router::blackhole_community_of;
use bgpworms_routesim::{
    ActScope, BlackholeService, CommunityPropagationPolicy, OriginValidation, Origination,
    RetainRoutes, RouterConfig, SimSpec,
};
use bgpworms_topology::{EdgeKind, Tier, Topology};
use bgpworms_types::{Asn, Community, Ipv4Prefix, Prefix};

/// Knobs for the RTBH scenario.
#[derive(Debug, Clone)]
pub struct RtbhScenario {
    /// Hijack variant (Fig 7b) instead of on-path tagging (Fig 7a).
    pub hijack: bool,
    /// Who may trigger the target's blackhole service.
    pub target_scope: ActScope,
    /// Origin validation at the target.
    pub validation: OriginValidation,
    /// Whether the attacker registered an IRR route object for the victim
    /// prefix (§7.3's circumvention).
    pub attacker_registers_irr: bool,
    /// Insert an intermediate AS between attacker and target with this
    /// community policy (None = direct session). Models the multi-hop
    /// necessary condition.
    pub intermediate: Option<CommunityPropagationPolicy>,
    /// Whether the attacker's router sends communities at all.
    pub attacker_sends_communities: bool,
    /// Local preference the target installs for accepted blackhole routes.
    /// `None` = the Cisco-white-paper raise (200), which makes blackhole
    /// routes "generally preferred even when the attacking AS path is
    /// longer" (§7.3). The ablation sets an ordinary value to show the
    /// preference rule is load-bearing.
    pub blackhole_local_pref: Option<u32>,
}

impl Default for RtbhScenario {
    fn default() -> Self {
        RtbhScenario {
            hijack: false,
            target_scope: ActScope::Any,
            validation: OriginValidation::None,
            attacker_registers_irr: false,
            intermediate: None,
            attacker_sends_communities: true,
            blackhole_local_pref: None,
        }
    }
}

/// Fixed cast of the scenario.
const ATTACKEE: Asn = Asn::new(1);
/// The attacker AS.
pub const ATTACKER: Asn = Asn::new(2);
/// The community target (blackhole provider).
pub const TARGET: Asn = Asn::new(3);
/// The upstream traffic source.
pub const SOURCE: Asn = Asn::new(4);
/// Optional intermediate between attacker and target.
const INTERMEDIATE: Asn = Asn::new(5);

impl RtbhScenario {
    /// The victim prefix.
    pub fn victim_prefix() -> Ipv4Prefix {
        "10.10.10.0/24".parse().expect("valid prefix")
    }

    fn build_topology(&self) -> Topology {
        let mut topo = Topology::new();
        topo.add_simple(ATTACKEE, Tier::Stub);
        topo.add_simple(ATTACKER, Tier::Transit);
        topo.add_simple(TARGET, Tier::Transit);
        topo.add_simple(SOURCE, Tier::Tier1);
        // AS3 provides transit to AS1; AS4 provides transit to AS3.
        topo.add_edge(TARGET, ATTACKEE, EdgeKind::ProviderToCustomer);
        topo.add_edge(SOURCE, TARGET, EdgeKind::ProviderToCustomer);
        if !self.hijack {
            // On-path variant: AS1 also announces via AS2.
            topo.add_edge(ATTACKER, ATTACKEE, EdgeKind::ProviderToCustomer);
        }
        // Attacker reaches the target either directly (as its customer) or
        // through an intermediate customer chain.
        match self.intermediate {
            None => topo.add_edge(TARGET, ATTACKER, EdgeKind::ProviderToCustomer),
            Some(_) => {
                topo.add_simple(INTERMEDIATE, Tier::Transit);
                topo.add_edge(TARGET, INTERMEDIATE, EdgeKind::ProviderToCustomer);
                topo.add_edge(INTERMEDIATE, ATTACKER, EdgeKind::ProviderToCustomer);
            }
        }
        topo
    }

    fn spec<'t>(&self, topo: &'t Topology, armed: bool) -> SimSpec<'t> {
        let mut target_cfg = RouterConfig::defaults(TARGET);
        target_cfg.services.blackhole = Some(BlackholeService {
            scope: self.target_scope,
            local_pref: self
                .blackhole_local_pref
                .unwrap_or(BlackholeService::default().local_pref),
            ..BlackholeService::default()
        });
        target_cfg.validation = self.validation;

        let mut attacker_cfg = RouterConfig::defaults(ATTACKER);
        attacker_cfg.send_community_configured = self.attacker_sends_communities;
        attacker_cfg.vendor = bgpworms_routesim::Vendor::Cisco; // gate applies
        if armed && !self.hijack {
            // Fig 7a: the attacker tags the transited announcement.
            attacker_cfg.tagging.egress_tags = vec![self.blackhole_community()];
        }

        // Ground truth registries: victim owns p.
        let p = Prefix::V4(Self::victim_prefix());
        let mut spec = SimSpec::new(topo)
            .retain(RetainRoutes::All)
            .configure(target_cfg)
            .configure(attacker_cfg)
            .register_irr(p, ATTACKEE)
            .register_rpki(p, ATTACKEE);
        if let Some(policy) = &self.intermediate {
            let mut mid = RouterConfig::defaults(INTERMEDIATE);
            mid.propagation = policy.clone();
            spec = spec.configure(mid);
        }
        if self.attacker_registers_irr {
            spec = spec.register_irr(p, ATTACKER);
        }
        spec
    }

    fn blackhole_community(&self) -> Community {
        blackhole_community_of(TARGET).expect("small ASN")
    }

    /// Runs baseline and attack, returning the report.
    pub fn run(&self) -> ScenarioReport {
        let topo = self.build_topology();
        let p = Prefix::V4(Self::victim_prefix());
        let host = u32::from(
            "10.10.10.1"
                .parse::<std::net::Ipv4Addr>()
                .expect("valid host"),
        );

        // Hijack variant: baseline and attack share one config world (the
        // lever is an extra *episode*), so one compiled session runs both.
        // No-hijack variant: the lever is the attacker's egress policy, so
        // the armed world compiles separately.
        let baseline_sim = self.spec(&topo, false).compile();
        let baseline = baseline_sim.run(&[Origination::announce(ATTACKEE, p, vec![])]);
        let base_fib = Fib::from_sim(&baseline);
        let base_trace = trace(&base_fib, SOURCE, host);

        let armed_sim;
        let sim = if self.hijack {
            &baseline_sim
        } else {
            armed_sim = self.spec(&topo, true).compile();
            &armed_sim
        };
        let mut episodes = vec![Origination::announce(ATTACKEE, p, vec![])];
        if self.hijack {
            episodes
                .push(Origination::announce(ATTACKER, p, vec![self.blackhole_community()]).at(100));
        }
        // (In the no-hijack variant the attacker's router adds the
        // community via its egress policy — no extra episode needed.)
        let attacked = sim.run(&episodes);
        let attack_fib = Fib::from_sim(&attacked);
        let attack_trace = trace(&attack_fib, SOURCE, host);

        let lg = LookingGlass::new(&attacked);
        let target_blackholed = attacked
            .route_at(TARGET, &p)
            .map(|r| r.blackholed)
            .unwrap_or(false);

        // Success: the victim was reachable before, the target installed
        // the null route, and traffic no longer arrives — dropped either at
        // the target itself or upstream of it, because the accepted RTBH
        // route carries NO_EXPORT and withdraws the path from providers.
        let success = base_trace.outcome == TraceOutcome::Delivered
            && attack_trace.outcome != TraceOutcome::Delivered
            && target_blackholed;

        let mut evidence = vec![
            format!(
                "baseline trace {SOURCE}→{p}: {:?} via {:?}",
                base_trace.outcome, base_trace.path
            ),
            format!(
                "attack   trace {SOURCE}→{p}: {:?} via {:?}",
                attack_trace.outcome, attack_trace.path
            ),
        ];
        evidence.extend(lg.show(TARGET, &p).lines().map(str::to_string));

        ScenarioReport {
            name: format!("rtbh/{}", if self.hijack { "hijack" } else { "no-hijack" }),
            roles: AttackRoles {
                attacker: ATTACKER,
                attackee: ATTACKEE,
                community_target: TARGET,
            },
            outcome: if success {
                ScenarioOutcome::Success
            } else {
                ScenarioOutcome::Blocked
            },
            evidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hijack_rtbh_succeeds_by_default() {
        let report = RtbhScenario::default().run();
        assert!(report.succeeded(), "{report}");
        assert!(
            report.evidence.iter().any(|l| l.contains("Null0")),
            "looking glass shows null route"
        );
    }

    #[test]
    fn hijack_rtbh_succeeds_without_validation() {
        let report = RtbhScenario {
            hijack: true,
            ..RtbhScenario::default()
        }
        .run();
        assert!(report.succeeded(), "{report}");
    }

    #[test]
    fn validation_blocks_hijack_but_not_onpath() {
        let strict = OriginValidation::Irr {
            validate_after_blackhole: false,
        };
        let hijack = RtbhScenario {
            hijack: true,
            validation: strict,
            ..RtbhScenario::default()
        }
        .run();
        assert!(!hijack.succeeded(), "validated hijack must fail:\n{hijack}");
        let onpath = RtbhScenario {
            hijack: false,
            validation: strict,
            ..RtbhScenario::default()
        }
        .run();
        assert!(
            onpath.succeeded(),
            "on-path attack needs no hijack and passes validation:\n{onpath}"
        );
    }

    #[test]
    fn irr_pollution_circumvents_validation() {
        let report = RtbhScenario {
            hijack: true,
            validation: OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            attacker_registers_irr: true,
            ..RtbhScenario::default()
        }
        .run();
        assert!(report.succeeded(), "{report}");
    }

    #[test]
    fn misordered_validation_lets_hijack_through() {
        let report = RtbhScenario {
            hijack: true,
            validation: OriginValidation::Irr {
                validate_after_blackhole: true,
            },
            ..RtbhScenario::default()
        }
        .run();
        assert!(report.succeeded(), "§6.3 misconfiguration:\n{report}");
    }

    #[test]
    fn strict_rpki_blocks_even_with_irr_pollution() {
        let report = RtbhScenario {
            hijack: true,
            validation: OriginValidation::Strict,
            attacker_registers_irr: true,
            ..RtbhScenario::default()
        }
        .run();
        assert!(!report.succeeded(), "{report}");
    }

    #[test]
    fn community_stripping_intermediate_blocks_attack() {
        let report = RtbhScenario {
            intermediate: Some(CommunityPropagationPolicy::StripAll),
            ..RtbhScenario::default()
        }
        .run();
        assert!(!report.succeeded(), "necessary condition fails:\n{report}");
        let forwarding = RtbhScenario {
            intermediate: Some(CommunityPropagationPolicy::ForwardAll),
            ..RtbhScenario::default()
        }
        .run();
        assert!(forwarding.succeeded(), "{forwarding}");
    }

    #[test]
    fn attacker_without_send_community_fails() {
        let report = RtbhScenario {
            attacker_sends_communities: false,
            ..RtbhScenario::default()
        }
        .run();
        assert!(!report.succeeded(), "{report}");
    }

    #[test]
    fn customers_only_scope_still_reachable_for_customer_attacker() {
        // The attacker is the target's customer in this topology, so even
        // CustomersOnly scope triggers — matching §7.3's finding that RTBH
        // is the easiest attack.
        let report = RtbhScenario {
            target_scope: ActScope::CustomersOnly,
            ..RtbhScenario::default()
        }
        .run();
        assert!(report.succeeded(), "{report}");
    }
}
