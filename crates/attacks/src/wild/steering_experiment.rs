//! §7.4 — traffic steering in the wild: prepend and local-pref communities
//! sent through an intermediate *customer* of the target (business
//! relationships gate steering services; the paper could only trigger them
//! along customer chains).

use crate::wild::{InjectionPlatform, World};
use bgpworms_dataplane::LookingGlass;
use bgpworms_routesim::{
    ActScope, Origination, RetainRoutes, RouterConfig, Workload, WorkloadParams,
};
use bgpworms_topology::{Topology, TopologyParams};
use bgpworms_types::{Asn, Community, Prefix};

/// Report of the steering wild experiment.
#[derive(Debug, Clone)]
pub struct SteeringWildReport {
    /// The injection platform.
    pub injector: InjectionPlatform,
    /// The community target offering steering services.
    pub target: Asn,
    /// The intermediate customer of the target on the injection path.
    pub intermediate: Asn,
    /// Collector observations whose AS path shows the target prepended
    /// (≥ 2 consecutive occurrences) during the prepend attack.
    pub prepended_observations: usize,
    /// Collector observations of the prefix during the attack (any path).
    pub total_observations: usize,
    /// Local-pref at the target before the local-pref community.
    pub local_pref_before: u32,
    /// Local-pref at the target after.
    pub local_pref_after: u32,
}

impl SteeringWildReport {
    /// Prepend experiment succeeded: prepended paths visible at collectors.
    pub fn prepend_succeeded(&self) -> bool {
        self.prepended_observations > 0
    }

    /// Local-pref experiment succeeded: the target demoted the route.
    pub fn local_pref_succeeded(&self) -> bool {
        self.local_pref_after < self.local_pref_before
    }
}

/// All `(target, intermediate)` pairs where the intermediate is
/// simultaneously a provider (or peer) of the injector and a customer of a
/// steering target. The paper's experiments retried setups until one
/// produced collector-visible effects, so the caller gets every candidate
/// in deterministic order rather than only the first.
fn find_steering_paths(topo: &Topology, workload: &Workload, injector: Asn) -> Vec<(Asn, Asn)> {
    let firsts: Vec<Asn> = topo
        .providers_of(injector)
        .chain(topo.peers_of(injector))
        .collect();
    let mut out = Vec::new();
    for mid in &firsts {
        for target in topo.providers_of(*mid) {
            let offers = workload
                .configs
                .get(&target)
                .map(|c| !c.services.prepend.is_empty() && !c.services.local_pref.is_empty())
                .unwrap_or(false);
            if offers {
                out.push((target, *mid));
            }
        }
    }
    out
}

/// Runs both steering experiments (prepend, then local-pref).
pub fn run(
    topo_params: &TopologyParams,
    workload_params: &WorkloadParams,
) -> Option<SteeringWildReport> {
    let mut world = World::generate(topo_params, workload_params);
    let injector = world.attach_peering_platform();

    let candidates = find_steering_paths(&world.topo, &world.workload, injector.asn);
    let p = Prefix::V4(injector.prefix);

    // Try every candidate pair until one produces the canonical outcome;
    // the strongest partial result seen so far stays the fallback, so the
    // report is never empty when a steering path exists at all.
    let mut best: Option<SteeringWildReport> = None;
    for (target, intermediate) in candidates {
        // Steering services in the wild act on customer announcements; the
        // intermediate *is* the target's customer, so CustomersOnly works.
        // The override lives only in this candidate's spec (configure
        // copy-on-writes the config map); the shared workload stays
        // untouched.
        let mut target_cfg = world
            .workload
            .configs
            .get(&target)
            .cloned()
            .unwrap_or_else(|| RouterConfig::defaults(target));
        target_cfg.services.steering_scope = ActScope::CustomersOnly;

        let target16 = target.as_u16().expect("small");
        let prepend2 = Community::new(target16, 422);
        let fallback = Community::new(target16, 70);

        // One compiled session per candidate config; all three runs
        // (prepend, local-pref baseline, local-pref tagged) replay on it.
        let sim = world
            .simulation()
            .retain(RetainRoutes::Prefixes([p].into_iter().collect()))
            .configure(target_cfg)
            .compile();

        // --- Prepend experiment. ---
        let attacked = sim.run(&[Origination::announce(injector.asn, p, vec![prepend2])]);
        let mut prepended = 0usize;
        let mut total = 0usize;
        for observations in attacked.observations.values() {
            for obs in observations {
                let Some(route) = &obs.route else { continue };
                total += 1;
                let raw = route.path.to_vec();
                let has_prepend = raw.windows(2).any(|w| w[0] == target && w[1] == target);
                if has_prepend {
                    prepended += 1;
                }
            }
        }

        // --- Local-pref experiment (baseline, then tagged). The baseline
        // run captures a converged snapshot, so the tagged announcement is
        // a delta re-convergence instead of a second full run — the A/B
        // pair costs roughly one convergence plus the community's blast
        // radius. ---
        let (base, snap) = sim.run_snapshot(&[Origination::announce(injector.asn, p, vec![])], p);
        let lp_before = LookingGlass::new(&base)
            .route(target, &p)
            .map(|r| r.local_pref)
            .unwrap_or(0);
        let tagged = sim.run_delta(
            &snap,
            &[Origination::announce(injector.asn, p, vec![fallback]).at(600)],
        );
        let lp_after = LookingGlass::new(&tagged)
            .route(target, &p)
            .map(|r| r.local_pref)
            .unwrap_or(0);

        let report = SteeringWildReport {
            injector,
            target,
            intermediate,
            prepended_observations: prepended,
            total_observations: total,
            local_pref_before: lp_before,
            local_pref_after: lp_after,
        };

        // Canonical success: prepending visible at collectors AND the
        // local-pref community demoted the route to the advertised service
        // value (70). A candidate where the demotion merely flipped the
        // best path to a peer route shows the service acted but is a
        // weaker observation, so the search keeps looking — keeping the
        // strongest partial result (most effects observed) as fallback.
        if report.prepend_succeeded() && report.local_pref_after == 70 {
            return Some(report);
        }
        let strength = |r: &SteeringWildReport| {
            (
                usize::from(r.prepend_succeeded()),
                usize::from(r.local_pref_succeeded()),
                r.prepended_observations,
            )
        };
        if best
            .as_ref()
            .is_none_or(|b| strength(&report) > strength(b))
        {
            best = Some(report);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> (TopologyParams, WorkloadParams) {
        let wp = WorkloadParams {
            steering_service_prob: 0.9,
            ..WorkloadParams::default()
        };
        (TopologyParams::small().seed(11), wp)
    }

    #[test]
    fn prepend_visible_at_collectors_and_local_pref_demoted() {
        let (tp, wp) = params();
        let report = run(&tp, &wp).expect("steering path found");
        assert!(
            report.prepend_succeeded(),
            "prepended paths at collectors: {}/{}",
            report.prepended_observations,
            report.total_observations
        );
        assert!(
            report.local_pref_succeeded(),
            "local-pref {} -> {}",
            report.local_pref_before,
            report.local_pref_after
        );
        assert_eq!(report.local_pref_after, 70);
    }

    #[test]
    fn intermediate_is_customer_of_target() {
        let (tp, wp) = params();
        let report = run(&tp, &wp).expect("steering path found");
        // Rebuild the same topology to check the relationship.
        let topo = tp.build();
        assert_eq!(
            topo.role_of(report.target, report.intermediate),
            Some(bgpworms_topology::Role::Customer)
        );
    }
}
