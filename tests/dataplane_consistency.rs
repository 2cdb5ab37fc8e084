//! Cross-crate integration: control-plane / data-plane agreement — FIBs
//! derived from converged RIBs deliver to the true origin, blackholes drop
//! where the control plane says they do, Atlas campaigns agree with
//! individual pings, no packet is forwarded into a leaf that does not
//! originate its prefix, and a delivered packet follows the AS path of the
//! route it was sent on.

use bgpworms::dataplane::FibAction;
use bgpworms::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn converged_world(seed: u64) -> (Topology, PrefixAllocation, bgpworms::routesim::SimResult) {
    let topo = TopologyParams::tiny().seed(seed).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed },
    );
    let workload = Workload::generate(
        &topo,
        &alloc,
        &WorkloadParams {
            seed,
            rtbh_episode_prob: 0.0, // plain world for delivery checks
            ..Default::default()
        },
    );
    let sim = workload
        .simulation(&topo)
        .retain(RetainRoutes::All)
        .compile();
    // Base announcements only (no churn/withdraw noise): announce every
    // allocated prefix once.
    let episodes: Vec<_> = alloc
        .iter()
        .map(|(asn, p)| Origination::announce(asn, p, vec![]))
        .collect();
    let result = sim.run(&episodes);
    assert!(result.converged);
    (topo, alloc, result)
}

#[test]
fn every_delivered_trace_ends_at_the_true_origin() {
    let (topo, alloc, result) = converged_world(3);
    let fib = Fib::from_sim(&result);
    let mut delivered = 0;
    let mut unreachable = 0;
    for (origin, prefix) in alloc.iter() {
        let Some(p4) = prefix.as_v4() else { continue };
        let host = PrefixAllocation::host_in(p4);
        for node in topo.ases().take(20) {
            if node.tier == Tier::RouteServer {
                continue;
            }
            let t = trace(&fib, node.asn, host);
            match t.outcome {
                bgpworms::dataplane::TraceOutcome::Delivered => {
                    assert_eq!(
                        t.path.last(),
                        Some(&origin),
                        "trace from {} for {prefix} ended at {:?}",
                        node.asn,
                        t.path.last()
                    );
                    delivered += 1;
                }
                bgpworms::dataplane::TraceOutcome::Loop => {
                    panic!(
                        "forwarding loop from {} to {prefix}: {:?}",
                        node.asn, t.path
                    )
                }
                _ => unreachable += 1,
            }
        }
    }
    assert!(
        delivered > 100,
        "most traces deliver ({delivered} ok, {unreachable} not)"
    );
}

#[test]
fn control_plane_blackhole_equals_data_plane_drop() {
    // A world with RTBH episodes: wherever the retained control plane says
    // `blackholed`, the FIB must null-route, and vice versa.
    let seed = 17;
    let topo = TopologyParams::tiny().seed(seed).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams { seed },
    );
    let workload = Workload::generate(
        &topo,
        &alloc,
        &WorkloadParams {
            seed,
            rtbh_episode_prob: 1.0,
            ..Default::default()
        },
    );
    let sim = workload
        .simulation(&topo)
        .retain(RetainRoutes::All)
        .compile();
    // Stop before the withdrawals so the blackholes are live at the end.
    let episodes: Vec<_> = workload
        .originations
        .iter()
        .filter(|o| !o.withdraw)
        .cloned()
        .collect();
    let result = sim.run(&episodes);
    let fib = Fib::from_sim(&result);

    let mut blackholed_routes = 0;
    for (prefix, per_as) in &result.final_routes {
        let Some(p4) = prefix.as_v4() else { continue };
        let host = PrefixAllocation::host_in(p4);
        for (asn, route) in per_as.iter() {
            let (matched, action) = fib
                .lookup(*asn, host)
                .expect("retained route implies FIB entry");
            if matched != p4 {
                continue; // a more specific prefix shadows this one
            }
            if route.blackholed {
                assert_eq!(
                    action,
                    bgpworms::dataplane::FibAction::Null,
                    "{asn} says blackholed but FIB forwards for {prefix}"
                );
                blackholed_routes += 1;
            } else {
                assert_ne!(
                    action,
                    bgpworms::dataplane::FibAction::Null,
                    "{asn} FIB nulls a non-blackholed route for {prefix}"
                );
            }
        }
    }
    assert!(
        blackholed_routes > 0,
        "the RTBH workload blackholed something"
    );
}

#[test]
fn atlas_campaign_agrees_with_individual_pings() {
    let (topo, alloc, result) = converged_world(9);
    let fib = Fib::from_sim(&result);
    let atlas = AtlasPlatform::sample(&topo, &alloc, 8, 1);
    let target = alloc
        .iter()
        .find_map(|(_, p)| p.as_v4())
        .map(AtlasPlatform::target_in)
        .expect("a v4 prefix exists");
    let campaign = atlas.ping_campaign(&fib, target);
    for &(vp, src) in &atlas.vantage_points {
        let individual = ping(&fib, vp, src, target);
        assert_eq!(
            campaign.responsive[&vp],
            individual.responsive(),
            "campaign vs individual ping disagree at {vp}"
        );
    }
}

#[test]
fn looking_glass_matches_retained_routes() {
    let (topo, alloc, result) = converged_world(21);
    let lg = LookingGlass::new(&result);
    let mut shown = 0;
    for (origin, prefix) in alloc.iter().take(10) {
        for node in topo.ases().take(10) {
            let text = lg.show(node.asn, &prefix);
            match result.route_at(node.asn, &prefix) {
                Some(route) => {
                    assert!(text.contains("AS path"), "{text}");
                    if route.path.is_empty() {
                        assert_eq!(node.asn, origin);
                    }
                    shown += 1;
                }
                None => assert!(text.contains("not in table"), "{text}"),
            }
        }
    }
    assert!(shown > 0);
}

#[test]
fn no_fib_entry_forwards_into_a_leaf_that_does_not_originate() {
    // A packet stands at a leaf only where it starts or where it is
    // delivered: a next hop is the AS a route was learned from, which
    // exported it, and an AS with no customer and no route-server role
    // exports only what it originates (Gao–Rexford). Leaf-ness is read off
    // the topology's roles alone; an AS carrying a collector session is not
    // excused, so this covers every AS a flood may leave without routes.
    // Over generated Internets with their whole workload (route servers,
    // churn, RTBH, withdrawals), fully retained, every column is read entry
    // by entry.
    let mut forwards = 0;
    for seed in 0..12 {
        let topo = TopologyParams::tiny().seed(seed).build();
        let alloc = PrefixAllocation::assign(
            &topo,
            bgpworms::topology::addressing::AddressingParams { seed },
        );
        let workload = Workload::generate(
            &topo,
            &alloc,
            &WorkloadParams {
                seed,
                ..Default::default()
            },
        );
        let sim = workload
            .simulation(&topo)
            .retain(RetainRoutes::All)
            .compile();
        let result = sim.run(&workload.originations);
        let mut origins: BTreeMap<Prefix, BTreeSet<Asn>> = BTreeMap::new();
        for o in &workload.originations {
            origins.entry(o.prefix).or_default().insert(o.origin);
        }
        let leaf = |asn: Asn| {
            topo.node(asn).expect("in the topology").tier != Tier::RouteServer
                && topo.customers_of(asn).next().is_none()
        };
        for (prefix, finals) in &result.final_routes {
            let Some(p4) = prefix.as_v4() else { continue };
            // The prefix's column alone, so every lookup reads its entry.
            let mut column = Fib::default();
            column.insert_routes(*prefix, finals);
            let host = PrefixAllocation::host_in(p4);
            for &asn in finals.keys() {
                if let Some((_, FibAction::Forward(next))) = column.lookup(asn, host) {
                    assert!(
                        !leaf(next) || origins[prefix].contains(&next),
                        "seed {seed}: {asn} forwards {prefix} into leaf {next}"
                    );
                    forwards += 1;
                }
            }
        }
    }
    assert!(forwards > 1_000, "only {forwards} forwarding entries read");
}

#[test]
fn a_delivered_trace_follows_the_as_path_of_the_route_at_its_source() {
    // A route's AS path names the ASes its announcement crossed, nearest
    // first: each one prepended itself on export (once, or more for a
    // prepend), and a route server, which is transparent, did not. A packet
    // sent on the route is forwarded back along those ASes. So wherever an
    // AS holds a route and a traceroute from it is delivered, the trace
    // after its first hop must be the route's AS path with consecutive
    // repeats collapsed, and the path may name no route server. Each
    // prefix's column is read alone, so no other prefix's entry steers a
    // lookup.
    //
    // The trace is compared with its route-server hops left out. A member
    // imports a route-server route as `RouteSource::Ebgp(rs)`, so its FIB
    // forwards into the route server, which forwards to the member that
    // announced; `action_of`'s `RouteSource::RouteServer` arm, which would
    // send the packet to that member directly, is never reached (ROADMAP
    // item 13).
    let mut compared = 0;
    for seed in [3, 9, 21] {
        let (topo, _, result) = converged_world(seed);
        let route_server = |asn: &Asn| topo.node(*asn).map(|n| n.tier) == Some(Tier::RouteServer);
        for (prefix, finals) in &result.final_routes {
            let Some(p4) = prefix.as_v4() else { continue };
            let mut column = Fib::default();
            column.insert_routes(*prefix, finals);
            let host = PrefixAllocation::host_in(p4);
            for (&asn, route) in finals.iter() {
                assert!(
                    !route.path.asns().any(|hop| route_server(&hop)),
                    "seed {seed}: {asn} holds {prefix} on {}, through a route server",
                    route.path
                );
                if route_server(&asn) {
                    continue;
                }
                let t = trace(&column, asn, host);
                if !t.delivered() {
                    continue;
                }
                let mut hops = route.path.to_vec();
                hops.dedup();
                let forwarded: Vec<Asn> = t.path[1..]
                    .iter()
                    .copied()
                    .filter(|hop| !route_server(hop))
                    .collect();
                assert_eq!(
                    forwarded, hops,
                    "seed {seed}: {asn} toward {prefix} on {}, traced {:?}",
                    route.path, t.path
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 1_000, "only {compared} traces compared");
}
