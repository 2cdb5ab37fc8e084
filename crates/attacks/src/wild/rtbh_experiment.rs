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

use crate::wild::{vantage, InjectionPlatform, World};
use bgpworms_routesim::{Workload, WorkloadParams};
use bgpworms_topology::{Tier, Topology, TopologyParams};
use bgpworms_types::{Asn, Community, Prefix};

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
    let mut world = World::generate(topo_params, workload_params);

    // Single-homed injector behind a community-propagating transit (the
    // paper's research network announced from one physical location; only
    // the propagating upstream mattered).
    let upstream = world
        .tier(Tier::Transit)
        .find(|a| forwards_foreign_upward(&world.workload, *a))?;
    let injector = world.attach_single_homed(upstream);

    // The blackholed /24: the injector's own (non-hijack) or a /24 cut from
    // a victim stub's space (hijack).
    let bh_prefix = if hijack {
        let parent = world
            .tier(Tier::Stub)
            .filter(|&stub| stub != injector.asn)
            .find_map(|stub| world.alloc.prefixes_of(stub).iter().find_map(|p| p.as_v4()))?;
        let sub = parent.subnets(24).ok()?.first().copied()?;
        // §7.3: the hijack "required updating the IRR".
        world.workload.irr.register(Prefix::V4(sub), injector.asn);
        sub
    } else {
        injector.prefix
    };

    // One session for the whole experiment: the vantage points' reverse
    // paths, the plain announcement of the blackholed /24 (the baseline)
    // and every candidate target below replay on it.
    let (atlas, baseline, session) = vantage::build(&world, injector.asn, bh_prefix, n_vps);

    // Try each candidate target until the effect is demonstrable (the
    // paper likewise *selected* a provider where validation was possible).
    // Each candidate is one delta replay on the shared baseline snapshot —
    // it costs the community's blast radius, not a fresh Internet.
    let mut last: Option<RtbhWildReport> = None;
    for (target, target_distance) in candidate_targets(&world.topo, &world.workload, upstream) {
        let target_bh = Community::new(target.as_u16().expect("small"), 666);
        let (outcome, attacked_fib) = baseline.candidate(&session, &[target_bh]);
        let target_blackholed = outcome
            .final_routes
            .as_ref()
            .and_then(|finals| finals.get(&target))
            .map(|route| route.blackholed)
            .unwrap_or(false);
        let after = atlas.ping_campaign(&attacked_fib, baseline.target_addr);

        let report = RtbhWildReport {
            injector,
            target,
            target_distance,
            hijack,
            target_blackholed,
            responsive_before: baseline.responsive.responsive_count(),
            responsive_after: after.responsive_count(),
            lost_vps: baseline.responsive.lost_vps(&after),
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
