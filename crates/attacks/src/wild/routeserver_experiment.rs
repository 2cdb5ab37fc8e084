//! §7.5 — route manipulation at a real (generated) IXP route server: the
//! injector, a direct member, first announces with an announce-to
//! community, then adds the conflicting suppress community; the evaluation
//! order decides, and the attackee member silently loses the route.

use crate::wild::{InjectionPlatform, World};
use bgpworms_routesim::{Origination, RetainRoutes, WorkloadParams};
use bgpworms_topology::{Tier, TopologyParams};
use bgpworms_types::{Asn, Community, Prefix};
use std::collections::BTreeSet;

/// Report of the route-server wild experiment.
#[derive(Debug, Clone)]
pub struct RouteServerWildReport {
    /// The injection platform (a direct member of the route server).
    pub injector: InjectionPlatform,
    /// The route server used.
    pub route_server: Asn,
    /// The attackee member.
    pub attackee: Asn,
    /// The attackee had the route with only the announce community.
    pub route_present_before: bool,
    /// The attackee lost the route once the conflicting suppress community
    /// was added.
    pub route_absent_after: bool,
}

impl RouteServerWildReport {
    /// The conflict resolved to suppression (suppress-first order).
    pub fn succeeded(&self) -> bool {
        self.route_present_before && self.route_absent_after
    }
}

/// Runs the experiment.
pub fn run(
    topo_params: &TopologyParams,
    workload_params: &WorkloadParams,
) -> Option<RouteServerWildReport> {
    let mut world = World::generate(topo_params, workload_params);

    // Pick the first route server, then attach a dedicated injector that
    // announces *only* through the route-server session — mirroring how
    // PEERING scopes an experiment announcement to one PoP.
    let route_server = world.tier(Tier::RouteServer).next()?;
    let injector = world.attach_route_server_member(route_server);
    let attackee = world
        .topo
        .peers_of(route_server)
        .find(|m| *m != injector.asn)?;

    let rs16 = route_server.as_u16().expect("small");
    let attackee16 = attackee.as_u16().expect("small");
    let announce_to = Community::new(rs16, attackee16);
    let suppress_to = Community::new(0, attackee16);
    let p = Prefix::V4(injector.prefix);

    // One compiled session, two episode schedules; only the attackee's
    // route is read.
    let sim = world
        .simulation()
        .retain(RetainRoutes::Prefixes {
            prefixes: BTreeSet::from([p]),
            readers: BTreeSet::from([attackee]),
        })
        .compile();

    // Step 1: announce-to only.
    let before = sim.run(&[Origination::announce(injector.asn, p, vec![announce_to])]);
    let route_present_before = before.route_at(attackee, &p).is_some();

    // Step 2: announce-to + conflicting suppress-to.
    let after = sim.run(&[Origination::announce(
        injector.asn,
        p,
        vec![announce_to, suppress_to],
    )]);
    let route_absent_after = after.route_at(attackee, &p).is_none();

    Some(RouteServerWildReport {
        injector,
        route_server,
        attackee,
        route_present_before,
        route_absent_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicting_communities_suppress_the_attackee_route() {
        let report = run(
            &TopologyParams::small().seed(17),
            &WorkloadParams::default(),
        )
        .expect("route server found");
        assert!(
            report.route_present_before,
            "announce-to community delivers the route first: {report:?}"
        );
        assert!(
            report.route_absent_after,
            "suppress-first evaluation removes it: {report:?}"
        );
        assert!(report.succeeded());
    }

    #[test]
    fn an_unread_attackee_is_read_because_it_is_listed() {
        // At small seed 112 the attackee is an unread leaf: no customer, no
        // collector session, not a route server. The session keeps its
        // route only because it lists the attackee among its readers;
        // without that, the route would read absent before the conflict
        // too.
        let (tp, wp) = (TopologyParams::small().seed(112), WorkloadParams::default());
        let report = run(&tp, &wp).expect("route server found");
        let world = World::generate(&tp, &wp);
        let attackee = report.attackee;
        let mut heard = world.workload.collectors.iter().flat_map(|c| &c.peers);
        assert!(
            world.topo.node(attackee).expect("a member").tier != Tier::RouteServer
                && world.topo.customers_of(attackee).next().is_none()
                && !heard.any(|&(peer, _)| peer == attackee),
            "the attackee is no longer an unread leaf: pick another seed"
        );
        assert!(report.succeeded(), "{report:?}");
    }

    #[test]
    fn attackee_differs_from_injector() {
        let report = run(
            &TopologyParams::small().seed(18),
            &WorkloadParams::default(),
        )
        .expect("route server found");
        assert_ne!(report.attackee, report.injector.asn);
        assert_ne!(report.route_server, report.attackee);
    }
}
