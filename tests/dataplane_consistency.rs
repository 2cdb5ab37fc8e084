//! Cross-crate integration: control-plane / data-plane agreement — FIBs
//! derived from converged RIBs deliver to the true origin, blackholes drop
//! where the control plane says they do, and Atlas campaigns agree with
//! individual pings.

use bgpworms::prelude::*;

fn converged_world(seed: u64) -> (Topology, PrefixAllocation, bgpworms::routesim::SimResult) {
    let topo = TopologyParams::tiny().seed(seed).build();
    let alloc = PrefixAllocation::assign(
        &topo,
        bgpworms::topology::addressing::AddressingParams {
            seed,
            ..Default::default()
        },
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
        bgpworms::topology::addressing::AddressingParams {
            seed,
            ..Default::default()
        },
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
