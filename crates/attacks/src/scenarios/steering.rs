//! Traffic steering — Fig 8(a): prepend community + hijack routes traffic
//! through a monitor; Fig 8(b): a local-pref "backup" community forces the
//! attackee to shift all its egress traffic to one link.

use crate::roles::AttackRoles;
use crate::scenarios::{ScenarioOutcome, ScenarioReport};
use bgpworms_dataplane::{trace, Fib};
use bgpworms_routesim::{
    ActScope, OriginValidation, Origination, RetainRoutes, RouterConfig, SimSpec,
};
use bgpworms_topology::{EdgeKind, Tier, Topology};
use bgpworms_types::{Asn, Community, Prefix};

// ---------------------------------------------------------------------
// Fig 8(a): prepend steering with hijack.
// ---------------------------------------------------------------------

/// Fig 8(a) knobs.
#[derive(Debug, Clone)]
pub struct PrependHijackScenario {
    /// Scope of the target's steering services.
    pub target_scope: ActScope,
    /// Origin validation at the target.
    pub validation: OriginValidation,
    /// Whether the attacker registered an IRR object for the victim prefix.
    pub attacker_registers_irr: bool,
}

impl Default for PrependHijackScenario {
    fn default() -> Self {
        PrependHijackScenario {
            target_scope: ActScope::CustomersOnly,
            validation: OriginValidation::None,
            attacker_registers_irr: false,
        }
    }
}

/// Victim origin of p.
const VICTIM: Asn = Asn::new(1);
/// Attacker (customer of the community target).
pub const ATTACKER: Asn = Asn::new(2);
/// Community target offering prepend services.
pub const TARGET: Asn = Asn::new(3);
/// Intermediate transit on the legitimate path toward the target.
const MIDDLE: Asn = Asn::new(4);
/// The "monitor" path the traffic gets steered through.
const MONITOR: Asn = Asn::new(5);
/// Traffic source whose routing flips.
pub const SOURCE: Asn = Asn::new(6);
/// Transit between the monitor and the victim.
const MONITOR_UPSTREAM: Asn = Asn::new(7);

impl PrependHijackScenario {
    /// The victim prefix.
    pub fn prefix() -> Prefix {
        "10.30.0.0/16".parse().expect("valid")
    }

    fn build(&self) -> Topology {
        let mut topo = Topology::new();
        for (asn, tier) in [
            (VICTIM, Tier::Stub),
            (ATTACKER, Tier::Stub),
            (TARGET, Tier::Transit),
            (MIDDLE, Tier::Transit),
            (MONITOR, Tier::Transit),
            (SOURCE, Tier::Stub),
            (MONITOR_UPSTREAM, Tier::Transit),
        ] {
            topo.add_simple(asn, tier);
        }
        // Legit path to target: 1 → 4 → 3 (both customer links).
        topo.add_edge(MIDDLE, VICTIM, EdgeKind::ProviderToCustomer);
        topo.add_edge(TARGET, MIDDLE, EdgeKind::ProviderToCustomer);
        // Monitor path: 1 → 7 → 5.
        topo.add_edge(MONITOR_UPSTREAM, VICTIM, EdgeKind::ProviderToCustomer);
        topo.add_edge(MONITOR, MONITOR_UPSTREAM, EdgeKind::ProviderToCustomer);
        // Attacker is a customer of the target.
        topo.add_edge(TARGET, ATTACKER, EdgeKind::ProviderToCustomer);
        // Source multihomes to target and monitor.
        topo.add_edge(TARGET, SOURCE, EdgeKind::ProviderToCustomer);
        topo.add_edge(MONITOR, SOURCE, EdgeKind::ProviderToCustomer);
        topo
    }

    /// Runs baseline vs. attack.
    pub fn run(&self) -> ScenarioReport {
        let topo = self.build();
        let p = Self::prefix();
        let host = u32::from(
            "10.30.0.1"
                .parse::<std::net::Ipv4Addr>()
                .expect("valid host"),
        );
        let prepend2 = Community::new(TARGET.as_u16().expect("small"), 422);

        let mut target_cfg = RouterConfig::defaults(TARGET);
        target_cfg
            .services
            .prepend
            .extend([(421u16, 1u8), (422, 2)]);
        target_cfg.services.steering_scope = self.target_scope;
        target_cfg.validation = self.validation;
        let mut spec = SimSpec::new(&topo)
            .retain(RetainRoutes::All)
            .configure(target_cfg)
            .register_irr(p, VICTIM)
            .register_rpki(p, VICTIM);
        if self.attacker_registers_irr {
            spec = spec.register_irr(p, ATTACKER);
        }
        // The attack lever is an extra episode: one session, two runs.
        let sim = spec.compile();

        let legit = Origination::announce(VICTIM, p, vec![]);
        let baseline = sim.run(std::slice::from_ref(&legit));
        let base_fib = Fib::from_sim(&baseline);
        let base_trace = trace(&base_fib, SOURCE, host);

        let hijack = Origination::announce(ATTACKER, p, vec![prepend2]).at(100);
        let attacked = sim.run(&[legit, hijack]);
        let attack_fib = Fib::from_sim(&attacked);
        let attack_trace = trace(&attack_fib, SOURCE, host);

        // Success per the paper: the source's traffic is rerouted via the
        // monitor AND still reaches the victim (interception, not outage).
        let base_via = base_trace.path.get(1).copied();
        let attack_via = attack_trace.path.get(1).copied();
        let steered = base_via == Some(TARGET) && attack_via == Some(MONITOR);
        let delivered = attack_trace.delivered() && attack_trace.path.last() == Some(&VICTIM);

        ScenarioReport {
            name: "steering/prepend-hijack".into(),
            roles: AttackRoles {
                attacker: ATTACKER,
                attackee: VICTIM,
                community_target: TARGET,
            },
            outcome: if steered && delivered {
                ScenarioOutcome::Success
            } else {
                ScenarioOutcome::Blocked
            },
            evidence: vec![
                format!("baseline: {SOURCE} → {:?}", base_trace.path),
                format!("attack:   {SOURCE} → {:?}", attack_trace.path),
            ],
        }
    }
}

// ---------------------------------------------------------------------
// Fig 8(b): local-pref steering without hijack.
// ---------------------------------------------------------------------

/// Fig 8(b) knobs.
#[derive(Debug, Clone)]
pub struct LocalPrefScenario {
    /// Scope of the attackee's local-pref service. The attacker announces
    /// from a *provider-side* path, so `CustomersOnly` blocks the attack —
    /// the paper's reason for rating steering "hard".
    pub target_scope: ActScope,
}

impl Default for LocalPrefScenario {
    fn default() -> Self {
        LocalPrefScenario {
            target_scope: ActScope::Any,
        }
    }
}

/// Origin of p (far side).
const LP_ORIGIN: Asn = Asn::new(15);
/// The attackee *and* community target (its own local-pref communities are
/// abused against it).
const LP_ATTACKEE: Asn = Asn::new(11);
/// The attacker: one of the attackee's providers.
const LP_ATTACKER: Asn = Asn::new(12);
/// The alternate (expensive) provider the traffic is forced through.
const LP_OTHER: Asn = Asn::new(14);

impl LocalPrefScenario {
    /// The steered prefix.
    pub fn prefix() -> Prefix {
        "10.40.0.0/16".parse().expect("valid")
    }

    /// Runs baseline vs. attack.
    pub fn run(&self) -> ScenarioReport {
        let mut topo = Topology::new();
        for (asn, tier) in [
            (LP_ORIGIN, Tier::Stub),
            (LP_ATTACKEE, Tier::Stub),
            (LP_ATTACKER, Tier::Transit),
            (LP_OTHER, Tier::Transit),
        ] {
            topo.add_simple(asn, tier);
        }
        // Origin is a customer of both transits.
        topo.add_edge(LP_ATTACKER, LP_ORIGIN, EdgeKind::ProviderToCustomer);
        topo.add_edge(LP_OTHER, LP_ORIGIN, EdgeKind::ProviderToCustomer);
        // The attackee buys transit from both.
        topo.add_edge(LP_ATTACKER, LP_ATTACKEE, EdgeKind::ProviderToCustomer);
        topo.add_edge(LP_OTHER, LP_ATTACKEE, EdgeKind::ProviderToCustomer);

        let p = Self::prefix();
        let backup = Community::new(LP_ATTACKEE.as_u16().expect("small"), 70);

        let mut attackee_cfg = RouterConfig::defaults(LP_ATTACKEE);
        attackee_cfg.services.local_pref.insert(70, 70);
        attackee_cfg.services.steering_scope = self.target_scope;
        let spec = SimSpec::new(&topo)
            .retain(RetainRoutes::All)
            .configure(attackee_cfg);

        let baseline = spec
            .clone()
            .compile()
            .run(&[Origination::announce(LP_ORIGIN, p, vec![])]);
        let base_via = baseline
            .route_at(LP_ATTACKEE, &p)
            .and_then(|r| r.source.neighbor());

        // Attack: the attacker tags its announcements with the attackee's
        // "backup" community — a config lever, so the armed world compiles
        // from a clone of the baseline spec.
        let mut attacker_cfg = RouterConfig::defaults(LP_ATTACKER);
        attacker_cfg.tagging.egress_tags = vec![backup];
        let attacked = spec
            .configure(attacker_cfg)
            .compile()
            .run(&[Origination::announce(LP_ORIGIN, p, vec![])]);
        let attack_route = attacked.route_at(LP_ATTACKEE, &p);
        let attack_via = attack_route.and_then(|r| r.source.neighbor());
        let best_lp = attack_route.map(|r| r.local_pref).unwrap_or(0);

        let success = base_via == Some(LP_ATTACKER) && attack_via == Some(LP_OTHER);

        ScenarioReport {
            name: "steering/local-pref".into(),
            roles: AttackRoles {
                attacker: LP_ATTACKER,
                attackee: LP_ATTACKEE,
                community_target: LP_ATTACKEE,
            },
            outcome: if success {
                ScenarioOutcome::Success
            } else {
                ScenarioOutcome::Blocked
            },
            evidence: vec![
                format!(
                    "baseline egress: via {}",
                    base_via
                        .map(|a| a.to_string())
                        .unwrap_or_else(|| "-".into())
                ),
                format!(
                    "attack egress:   via {} (winning local-pref {best_lp}; \
                     the {LP_ATTACKER} path was demoted to the service value)",
                    attack_via
                        .map(|a| a.to_string())
                        .unwrap_or_else(|| "-".into())
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepend_hijack_steers_through_monitor() {
        let report = PrependHijackScenario::default().run();
        assert!(report.succeeded(), "{report}");
    }

    #[test]
    fn prepend_hijack_blocked_by_validation() {
        let report = PrependHijackScenario {
            validation: OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            ..PrependHijackScenario::default()
        }
        .run();
        assert!(!report.succeeded(), "{report}");
        // …until the attacker updates the IRR (§7.4: "IRR records … are
        // typically checked, but the check can be circumvented").
        let report = PrependHijackScenario {
            validation: OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            attacker_registers_irr: true,
            ..PrependHijackScenario::default()
        }
        .run();
        assert!(report.succeeded(), "{report}");
    }

    #[test]
    fn customers_only_scope_accepts_customer_attacker() {
        // The attacker is the target's customer, so even CustomersOnly
        // triggers the prepend.
        let report = PrependHijackScenario {
            target_scope: ActScope::CustomersOnly,
            ..PrependHijackScenario::default()
        }
        .run();
        assert!(report.succeeded(), "{report}");
    }

    #[test]
    fn local_pref_attack_moves_egress_link() {
        let report = LocalPrefScenario::default().run();
        assert!(report.succeeded(), "{report}");
        assert!(
            report
                .evidence
                .iter()
                .any(|l| l.contains(&format!("attack egress:   via {LP_OTHER}"))),
            "egress moved to the alternate provider:\n{report}"
        );
    }

    #[test]
    fn local_pref_attack_blocked_by_customer_scope() {
        // The attacker is the attackee's *provider*: a customers-only
        // service scope ignores the community — the flattening-of-the-
        // Internet impediment from §7.4.
        let report = LocalPrefScenario {
            target_scope: ActScope::CustomersOnly,
        }
        .run();
        assert!(!report.succeeded(), "{report}");
    }

    #[test]
    fn roles_are_reported() {
        let report = LocalPrefScenario::default().run();
        assert_eq!(report.roles.attackee, report.roles.community_target);
    }
}
