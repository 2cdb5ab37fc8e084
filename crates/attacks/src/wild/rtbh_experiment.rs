//! §7.3 — RTBH in the wild: blackhole a /24 via a provider two AS hops from
//! the injection point, and validate on both planes (looking glass next-hop
//! to null; Atlas probes losing reachability).
//!
//! Mirrors the paper's method: first infer community propagation from the
//! injection point (the research network announces from a single location;
//! only community-propagating upstreams are useful), then select a target
//! that "both supports RTBH and offers a public looking glass" — i.e. a
//! candidate where the effect is observable — and validate before/after
//! with Atlas pings plus the target's looking glass.

use crate::wild::InjectionPlatform;
use bgpworms_dataplane::{AtlasPlatform, Fib};
use bgpworms_routesim::{
    Campaign, CampaignSink, Origination, RetainRoutes, RouterConfig, Workload, WorkloadParams,
};
use bgpworms_topology::{
    addressing::AddressingParams, EdgeKind, PrefixAllocation, Tier, Topology, TopologyParams,
};
use bgpworms_types::{Asn, Community, Prefix};
use std::collections::BTreeSet;

/// Outcome of one RTBH wild experiment.
#[derive(Debug, Clone)]
pub struct RtbhWildReport {
    /// The injection platform.
    pub injector: InjectionPlatform,
    /// The chosen community target (RTBH provider ≥ 2 hops away).
    pub target: Asn,
    /// AS-hop distance from the injector to the target.
    pub target_distance: usize,
    /// Whether this was the hijack variant.
    pub hijack: bool,
    /// Looking glass at the target showed the null route.
    pub target_blackholed: bool,
    /// Vantage points responsive before the blackhole announcement.
    pub responsive_before: usize,
    /// Vantage points responsive after.
    pub responsive_after: usize,
    /// Vantage points that lost reachability.
    pub lost_vps: Vec<Asn>,
    /// Total vantage points.
    pub total_vps: usize,
}

impl RtbhWildReport {
    /// The experiment succeeded: target null-routed and the data plane
    /// confirms at least one vantage point lost reachability.
    pub fn succeeded(&self) -> bool {
        self.target_blackholed && !self.lost_vps.is_empty()
    }
}

/// True if `asn`'s egress policy forwards foreign communities toward its
/// providers — the condition the §7.2 propagation probe establishes before
/// the blackhole experiment targets anything beyond the first hop.
fn forwards_foreign_upward(workload: &Workload, asn: Asn) -> bool {
    use bgpworms_routesim::CommunityPropagationPolicy as P;
    workload
        .configs
        .get(&asn)
        .map(|c| {
            c.sends_communities()
                && match &c.propagation {
                    P::ForwardAll | P::StripOwn => true,
                    P::StripAll | P::StripUnknown | P::ScopedToReceiver => false,
                    P::Selective { to_providers, .. } => *to_providers,
                }
        })
        .unwrap_or(false)
}

/// Candidate targets: RTBH-offering providers of the (community-
/// propagating) upstream, i.e. two AS hops from the injector.
fn candidate_targets(topo: &Topology, workload: &Workload, upstream: Asn) -> Vec<(Asn, usize)> {
    let mut out: Vec<(Asn, usize)> = topo
        .providers_of(upstream)
        .filter(|p2| {
            workload
                .configs
                .get(p2)
                .and_then(|c| c.services.blackhole.as_ref())
                // The experiment announces a /24, so the service must accept
                // /24 blackholes and act for non-customers.
                .map(|bh| bh.scope == bgpworms_routesim::ActScope::Any && bh.min_prefix_len <= 24)
                .unwrap_or(false)
        })
        .map(|p2| (p2, 2))
        .collect();
    // Fall back to the upstream itself when it offers the service.
    if workload
        .configs
        .get(&upstream)
        .and_then(|c| c.services.blackhole.as_ref())
        .is_some()
    {
        out.push((upstream, 1));
    }
    out
}

/// Runs the experiment. With `hijack`, the /24 belongs to a victim stub and
/// the attacker registers an IRR route object first (§7.3's circumvention).
pub fn run(
    topo_params: &TopologyParams,
    workload_params: &WorkloadParams,
    hijack: bool,
    n_vps: usize,
) -> Option<RtbhWildReport> {
    let mut topo = topo_params.build();
    let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
    let mut workload = Workload::generate(&topo, &alloc, workload_params);

    // Single-homed injector behind a community-propagating transit (the
    // paper's research network announced from one physical location; only
    // the propagating upstream mattered).
    let upstream = topo
        .ases()
        .filter(|n| n.tier == Tier::Transit)
        .map(|n| n.asn)
        .find(|a| forwards_foreign_upward(&workload, *a))?;
    let injector_asn = Asn::new(65_010);
    let injector_prefix: bgpworms_types::Ipv4Prefix = "100.64.0.0/24".parse().expect("valid");
    topo.add_simple(injector_asn, Tier::Stub);
    topo.add_edge(upstream, injector_asn, EdgeKind::ProviderToCustomer);
    workload
        .configs
        .insert(injector_asn, RouterConfig::defaults(injector_asn));
    workload
        .irr
        .register(Prefix::V4(injector_prefix), injector_asn);
    workload
        .rpki
        .register(Prefix::V4(injector_prefix), injector_asn);
    let injector = InjectionPlatform {
        asn: injector_asn,
        prefix: injector_prefix,
    };

    // The blackholed /24: the injector's own (non-hijack) or a /24 cut from
    // a victim stub's space (hijack).
    let bh_prefix = if hijack {
        let victim = topo.ases().find(|n| {
            n.tier == Tier::Stub
                && n.asn != injector.asn
                && alloc.prefixes_of(n.asn).iter().any(|p| p.as_v4().is_some())
        })?;
        let parent = alloc
            .prefixes_of(victim.asn)
            .iter()
            .find_map(|p| p.as_v4())?;
        let sub = parent.subnets(24).ok()?.first().copied()?;
        // §7.3: the hijack "required updating the IRR".
        workload.irr.register(Prefix::V4(sub), injector.asn);
        sub
    } else {
        injector.prefix
    };

    // Vantage points + their prefixes (for reverse paths).
    let atlas = AtlasPlatform::sample(&topo, &alloc, n_vps, 7);
    let mut episodes: Vec<Origination> = Vec::new();
    let mut retained: BTreeSet<Prefix> = BTreeSet::new();
    for &(vp, _) in &atlas.vantage_points {
        for prefix in alloc.prefixes_of(vp) {
            if prefix.is_v4() {
                episodes.push(Origination::announce(vp, *prefix, vec![]));
                retained.insert(*prefix);
            }
        }
    }
    let p = Prefix::V4(bh_prefix);
    retained.insert(p);
    let target_addr = AtlasPlatform::target_in(bh_prefix);

    // One session for the whole experiment: the baseline and every
    // candidate target replay different episode schedules on it.
    let sim = workload
        .simulation(&topo)
        .retain(RetainRoutes::Prefixes(retained))
        .compile();

    // Baseline: the vantage points' own prefixes stream straight into
    // forwarding actions, while the plain announcement of the blackholed
    // /24 converges once and is captured as a snapshot — every candidate
    // target below replays against it as a delta re-convergence.
    let vp_fib = Campaign::new(&sim).run(&episodes, Fib::default).sink;
    let (_, baseline) = sim.run_snapshot(&[Origination::announce(injector.asn, p, vec![])], p);
    let mut base_fib = vp_fib.clone();
    if let Some(finals) = &baseline.baseline_outcome().final_routes {
        base_fib.insert_routes(p, finals);
    }
    let before = atlas.ping_campaign(&base_fib, target_addr);

    // Try each candidate target until the effect is demonstrable (the
    // paper likewise *selected* a provider where validation was possible).
    // Each candidate is one delta replay on the shared baseline snapshot —
    // it costs the community's blast radius, not a fresh Internet.
    let mut last: Option<RtbhWildReport> = None;
    for (target, target_distance) in candidate_targets(&topo, &workload, upstream) {
        let target_bh = Community::new(target.as_u16().expect("small"), 666);
        let outcome = sim.run_delta_prefix(
            &baseline,
            &[Origination::announce(injector.asn, p, vec![target_bh]).at(600)],
        );
        let target_blackholed = outcome
            .final_routes
            .as_ref()
            .and_then(|finals| finals.get(&target))
            .map(|route| route.blackholed)
            .unwrap_or(false);
        let mut attacked_fib = vp_fib.clone();
        attacked_fib.fold(p, outcome);
        let after = atlas.ping_campaign(&attacked_fib, target_addr);

        let report = RtbhWildReport {
            injector,
            target,
            target_distance,
            hijack,
            target_blackholed,
            responsive_before: before.responsive_count(),
            responsive_after: after.responsive_count(),
            lost_vps: before.lost_vps(&after),
            total_vps: atlas.vantage_points.len(),
        };
        if report.succeeded() {
            return Some(report);
        }
        last = Some(report);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> (TopologyParams, WorkloadParams) {
        // High service density so a target is always found in the small
        // test topology.
        let wp = WorkloadParams {
            blackhole_service_prob: 0.9,
            ..WorkloadParams::default()
        };
        (TopologyParams::small().seed(11), wp)
    }

    #[test]
    fn non_hijack_rtbh_blackholes_in_the_wild() {
        let (tp, wp) = params();
        let report = run(&tp, &wp, false, 40).expect("target found");
        assert!(report.target_blackholed, "looking glass shows null route");
        assert!(
            report.responsive_after < report.responsive_before,
            "Atlas loses vantage points ({} -> {})",
            report.responsive_before,
            report.responsive_after
        );
        assert!(report.succeeded());
        assert!(report.target_distance >= 1);
    }

    #[test]
    fn hijack_rtbh_with_irr_update_succeeds() {
        let (tp, wp) = params();
        let report = run(&tp, &wp, true, 40).expect("target found");
        assert!(report.hijack);
        assert!(
            report.target_blackholed,
            "hijacked /24 blackholed at target"
        );
        assert!(report.succeeded());
    }
}
