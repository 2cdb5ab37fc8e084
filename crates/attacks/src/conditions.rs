//! Necessary and sufficient condition checks from §5.4.
//!
//! *Necessary:* communities must propagate beyond a single AS along the
//! path from the attacker to the community target, and the target's
//! community service must be known. *Sufficient:* the attacker must be
//! able to advertise prefixes with the chosen communities (or hijack
//! community-tagged prefixes), with propagation holding on every AS along
//! the way.
//!
//! The propagation check mirrors the paper's own method (§7.2): announce a
//! prefix tagged with a *benign* community — high bits the attacker's ASN,
//! low bits a value not seen in the wild — and observe whether it arrives
//! at the target.

use bgpworms_routesim::{Origination, RetainRoutes, RouterConfig, SimSpec};
use bgpworms_topology::Topology;
use bgpworms_types::{Asn, Community, Prefix};
use std::collections::BTreeMap;

/// The benign low-16 value used for propagation probes (not a service
/// value in any generated workload).
pub const BENIGN_VALUE: u16 = 54_321;

/// A probe prefix reserved for condition checks.
pub fn probe_prefix() -> Prefix {
    "192.0.2.0/24".parse().expect("valid")
}

/// Results of the condition checks for one (attacker, target) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionReport {
    /// The attacker.
    pub attacker: Asn,
    /// The community target.
    pub target: Asn,
    /// Necessary: a benign community from the attacker reaches the target.
    pub community_propagates: bool,
    /// Necessary: the target offers at least one community service.
    pub service_known: bool,
    /// Sufficient: the attacker's router is configured to send communities.
    pub can_advertise_tagged: bool,
    /// Sufficient (hijack variants): an origin-hijacked announcement of
    /// `victim_prefix` is accepted at the target. `None` when not checked.
    pub hijack_accepted: Option<bool>,
}

impl ConditionReport {
    /// Necessary conditions hold.
    pub fn necessary(&self) -> bool {
        self.community_propagates && self.service_known
    }

    /// Sufficient conditions hold for the non-hijack attack.
    pub fn sufficient_tagging(&self) -> bool {
        self.necessary() && self.can_advertise_tagged
    }
}

/// Runs the condition checks on a configured topology.
///
/// `victim_prefix` enables the hijack check: the attacker announces it
/// with a forged origin-free path and we test acceptance at the target.
pub fn check_conditions(
    topo: &Topology,
    configs: &BTreeMap<Asn, RouterConfig>,
    irr: &bgpworms_routesim::IrrDatabase,
    rpki: &bgpworms_routesim::IrrDatabase,
    attacker: Asn,
    target: Asn,
    victim_prefix: Option<Prefix>,
) -> ConditionReport {
    let attacker_cfg = configs
        .get(&attacker)
        .cloned()
        .unwrap_or_else(|| RouterConfig::defaults(attacker));
    let target_cfg = configs
        .get(&target)
        .cloned()
        .unwrap_or_else(|| RouterConfig::defaults(target));

    let can_advertise_tagged = attacker_cfg.sends_communities();
    let service_known = target_cfg.services.any()
        || topo
            .node(target)
            .map(|n| n.tier == bgpworms_topology::Tier::RouteServer)
            .unwrap_or(false);

    // Propagation probe (§7.2 style).
    let benign = attacker
        .as_u16()
        .map(|hi| Community::new(hi, BENIGN_VALUE))
        .unwrap_or_else(|| Community::new(65_000, BENIGN_VALUE));
    // The spec borrows configs and registries; only the probe registration
    // below clones the (small) registries, never the config map.
    let sim = SimSpec::new(topo)
        .configs(configs)
        .irr(irr)
        .rpki(rpki)
        .retain(RetainRoutes::All)
        // Register the probe prefix so validation along the way passes —
        // the probe tests community propagation, not hijackability.
        .register_irr(probe_prefix(), attacker)
        .register_rpki(probe_prefix(), attacker)
        .compile();
    let res = sim.run(&[Origination::announce(
        attacker,
        probe_prefix(),
        vec![benign],
    )]);
    let community_propagates = res
        .route_at(target, &probe_prefix())
        .map(|r| r.has_community(benign))
        .unwrap_or(false);

    // Hijack probe: a pure borrow — nothing is cloned to compile this one.
    let hijack_accepted = victim_prefix.map(|p| {
        let sim = SimSpec::new(topo)
            .configs(configs)
            .irr(irr)
            .rpki(rpki)
            .retain(RetainRoutes::All)
            .compile();
        let res = sim.run(&[Origination::announce(attacker, p, vec![])]);
        res.route_at(target, &p)
            .map(|r| r.path.contains(attacker))
            .unwrap_or(false)
    });

    ConditionReport {
        attacker,
        target,
        community_propagates,
        service_known,
        can_advertise_tagged,
        hijack_accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_routesim::{
        BlackholeService, CommunityPropagationPolicy, IrrDatabase, OriginValidation,
    };
    use bgpworms_topology::{EdgeKind, Tier};

    /// 1 (attacker) —cust-of→ 2 (middle) —cust-of→ 3 (target w/ RTBH).
    fn chain(middle_policy: CommunityPropagationPolicy) -> (Topology, BTreeMap<Asn, RouterConfig>) {
        let mut topo = Topology::new();
        topo.add_simple(Asn::new(1), Tier::Stub);
        topo.add_simple(Asn::new(2), Tier::Transit);
        topo.add_simple(Asn::new(3), Tier::Transit);
        topo.add_edge(Asn::new(2), Asn::new(1), EdgeKind::ProviderToCustomer);
        topo.add_edge(Asn::new(3), Asn::new(2), EdgeKind::ProviderToCustomer);
        let mut configs = BTreeMap::new();
        let mut mid = RouterConfig::defaults(Asn::new(2));
        mid.propagation = middle_policy;
        configs.insert(Asn::new(2), mid);
        let mut target = RouterConfig::defaults(Asn::new(3));
        target.services.blackhole = Some(BlackholeService::default());
        configs.insert(Asn::new(3), target);
        (topo, configs)
    }

    #[test]
    fn necessary_conditions_hold_on_forwarding_chain() {
        let (topo, configs) = chain(CommunityPropagationPolicy::ForwardAll);
        let report = check_conditions(
            &topo,
            &configs,
            &IrrDatabase::new(),
            &IrrDatabase::new(),
            Asn::new(1),
            Asn::new(3),
            None,
        );
        assert!(report.community_propagates);
        assert!(report.service_known);
        assert!(report.necessary());
        assert!(report.sufficient_tagging());
        assert_eq!(report.hijack_accepted, None);
    }

    #[test]
    fn stripping_middle_breaks_necessary_condition() {
        let (topo, configs) = chain(CommunityPropagationPolicy::StripAll);
        let report = check_conditions(
            &topo,
            &configs,
            &IrrDatabase::new(),
            &IrrDatabase::new(),
            Asn::new(1),
            Asn::new(3),
            None,
        );
        assert!(!report.community_propagates);
        assert!(!report.necessary());
    }

    #[test]
    fn hijack_probe_respects_validation() {
        let (topo, mut configs) = chain(CommunityPropagationPolicy::ForwardAll);
        let victim: Prefix = "10.99.0.0/16".parse().unwrap();
        let mut irr = IrrDatabase::new();
        let mut rpki = IrrDatabase::new();
        irr.register(victim, Asn::new(77));
        rpki.register(victim, Asn::new(77));

        // Without validation anywhere, the hijack lands.
        let report = check_conditions(
            &topo,
            &configs,
            &irr,
            &rpki,
            Asn::new(1),
            Asn::new(3),
            Some(victim),
        );
        assert_eq!(report.hijack_accepted, Some(true));

        // Turn on validation at the target.
        configs.get_mut(&Asn::new(3)).unwrap().validation = OriginValidation::Irr {
            validate_after_blackhole: false,
        };
        let report = check_conditions(
            &topo,
            &configs,
            &irr,
            &rpki,
            Asn::new(1),
            Asn::new(3),
            Some(victim),
        );
        assert_eq!(report.hijack_accepted, Some(false));
    }

    #[test]
    fn no_service_means_no_necessary_condition() {
        let (topo, mut configs) = chain(CommunityPropagationPolicy::ForwardAll);
        configs.get_mut(&Asn::new(3)).unwrap().services = Default::default();
        let report = check_conditions(
            &topo,
            &configs,
            &IrrDatabase::new(),
            &IrrDatabase::new(),
            Asn::new(1),
            Asn::new(3),
            None,
        );
        assert!(!report.service_known);
        assert!(!report.necessary());
    }
}
