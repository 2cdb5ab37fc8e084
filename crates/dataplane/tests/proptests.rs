//! Property-based tests for the data plane: longest-prefix-match
//! correctness by differential testing, and traceroute termination on
//! adversarial (loopy) forwarding tables.

use bgpworms_dataplane::{trace, Fib, FibAction, TraceOutcome};
use bgpworms_routesim::{FinalRoutes, Route, RouteSource};
use bgpworms_types::{Asn, Ipv4Prefix, Prefix};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len).expect("len ok"))
}

fn arb_action() -> impl Strategy<Value = FibAction> {
    prop_oneof![
        (1u32..50).prop_map(|n| FibAction::Forward(Asn::new(n))),
        Just(FibAction::Deliver),
        Just(FibAction::Null),
    ]
}

/// Addresses and prefixes drawn from a pool small enough that columns
/// collide, nest and get overwritten.
fn pool_addr() -> impl Strategy<Value = u32> {
    (10u32..12, 0u32..2, 0u32..2, 0u32..2).prop_map(|(a, b, c, d)| a << 24 | b << 16 | c << 8 | d)
}

fn pool_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    let len = prop_oneof![Just(0u8), Just(7), Just(8), Just(16), Just(24), Just(32)];
    (pool_addr(), len).prop_map(|(addr, len)| Ipv4Prefix::new(addr, len).expect("len ok"))
}

fn pool_entry() -> impl Strategy<Value = (Asn, FibAction)> {
    ((1u32..7).prop_map(Asn::new), arb_action())
}

/// One mutation of a [`Fib`], or a fork of it.
#[derive(Debug, Clone)]
enum FibOp {
    /// `Fib::insert`.
    Insert(Asn, Ipv4Prefix, FibAction),
    /// `Fib::insert_routes`: one prefix's converged routes become a column.
    Fold(Ipv4Prefix, Vec<(Asn, FibAction)>),
    /// `Fib::merge` of a FIB built from these inserts.
    Merge(Vec<(Asn, Ipv4Prefix, FibAction)>),
    /// Clone the FIB, set the original aside, keep mutating the clone.
    Fork,
}

fn arb_fib_op() -> impl Strategy<Value = FibOp> {
    let insert = || (pool_entry(), pool_prefix()).prop_map(|((asn, act), p)| (asn, p, act));
    prop_oneof![
        insert().prop_map(|(asn, p, act)| FibOp::Insert(asn, p, act)),
        (pool_prefix(), proptest::collection::vec(pool_entry(), 0..8))
            .prop_map(|(p, column)| FibOp::Fold(p, column)),
        proptest::collection::vec(insert(), 0..8).prop_map(FibOp::Merge),
        Just(FibOp::Fork),
    ]
}

/// The flat model a [`Fib`] must answer like: one action per (AS, network,
/// length), longest containing prefix wins.
type FibModel = BTreeMap<(Asn, u32, u8), FibAction>;

fn model_lookup(model: &FibModel, asn: Asn, ip: u32) -> Option<(Ipv4Prefix, FibAction)> {
    model
        .iter()
        .filter(|((a, ..), _)| *a == asn)
        .map(|(&(_, net, len), &action)| (Ipv4Prefix::new(net, len).expect("stored"), action))
        .filter(|(p, _)| p.contains(ip))
        .max_by_key(|(p, _)| p.len())
}

/// A converged route whose forwarding action is `action`.
fn route_for(action: FibAction) -> Route {
    let mut route = Route::originate(vec![]);
    match action {
        FibAction::Deliver => {}
        FibAction::Null => route.blackholed = true,
        FibAction::Forward(next) => route.source = RouteSource::Ebgp(next),
    }
    route
}

proptest! {
    #[test]
    fn fib_answers_like_a_flat_model_and_clones_are_isolated(
        ops in proptest::collection::vec(arb_fib_op(), 0..40),
        probes in proptest::collection::vec(prop_oneof![pool_addr(), any::<u32>()], 1..12),
    ) {
        let check = |fib: &Fib, model: &FibModel| {
            let ases: BTreeSet<Asn> = model.keys().map(|k| k.0).collect();
            assert_eq!(fib.len(), ases.len());
            assert_eq!(fib.is_empty(), model.is_empty());
            for asn in (0..8).map(Asn::new) {
                for &ip in &probes {
                    let want = model_lookup(model, asn, ip);
                    assert_eq!(fib.lookup(asn, ip), want, "lookup at {asn} for {ip:#x}");
                    assert_eq!(fib.lookup_naive(asn, ip), want, "naive at {asn} for {ip:#x}");
                }
            }
        };
        let (mut fib, mut model) = (Fib::default(), FibModel::new());
        let mut set_aside: Vec<(Fib, FibModel)> = Vec::new();
        for op in ops {
            match op {
                FibOp::Insert(asn, p, action) => {
                    fib.insert(asn, p, action);
                    model.insert((asn, p.network(), p.len()), action);
                }
                FibOp::Fold(p, column) => {
                    let finals: FinalRoutes =
                        column.iter().map(|&(asn, action)| (asn, route_for(action))).collect();
                    fib.insert_routes(Prefix::V4(p), &finals);
                    for (asn, action) in column {
                        model.insert((asn, p.network(), p.len()), action);
                    }
                }
                FibOp::Merge(inserts) => {
                    let mut other = Fib::default();
                    for (asn, p, action) in inserts {
                        other.insert(asn, p, action);
                        model.insert((asn, p.network(), p.len()), action);
                    }
                    fib.merge(&other);
                }
                FibOp::Fork => {
                    let clone = fib.clone();
                    set_aside.push((std::mem::replace(&mut fib, clone), model.clone()));
                }
            }
            check(&fib, &model);
        }
        // Copy-on-write isolation: whatever happened to a clone afterwards,
        // every FIB set aside still answers like its model of that moment.
        for (original, model) in &set_aside {
            check(original, model);
        }
    }

    #[test]
    fn fast_lookup_equals_naive_scan(
        entries in proptest::collection::vec((arb_prefix(), arb_action()), 0..40),
        probes in proptest::collection::vec(any::<u32>(), 0..20),
    ) {
        let asn = Asn::new(1);
        let mut fib = Fib::default();
        for (p, a) in &entries {
            fib.insert(asn, *p, *a);
        }
        for &ip in &probes {
            let fast = fib.lookup(asn, ip);
            let naive = fib.lookup_naive(asn, ip);
            // Both must agree on the matched prefix length (the action of
            // the longest match is whatever was inserted last for that
            // exact prefix, identically in both paths).
            prop_assert_eq!(
                fast.map(|(p, _)| p.len()),
                naive.map(|(p, _)| p.len()),
                "LPM length mismatch at {}",
                std::net::Ipv4Addr::from(ip)
            );
            prop_assert_eq!(fast, naive);
        }
    }

    #[test]
    fn trace_always_terminates_with_consistent_outcome(
        edges in proptest::collection::vec((1u32..30, 1u32..30), 0..60),
        dst in any::<u32>(),
        deliver_at in 1u32..30,
    ) {
        // Random (possibly loopy) forwarding graph over a default route.
        let default = Ipv4Prefix::new(0, 0).expect("default");
        let mut fib = Fib::default();
        for &(from, to) in &edges {
            fib.insert(Asn::new(from), default, FibAction::Forward(Asn::new(to)));
        }
        fib.insert(Asn::new(deliver_at), default, FibAction::Deliver);

        let t = trace(&fib, Asn::new(1), dst);
        // Bounded length (MAX_HOPS plus endpoints).
        prop_assert!(t.path.len() <= 70);
        prop_assert_eq!(t.path.first(), Some(&Asn::new(1)));
        match t.outcome {
            TraceOutcome::Delivered => {
                prop_assert_eq!(t.path.last(), Some(&Asn::new(deliver_at)));
            }
            TraceOutcome::Loop => {
                // The repeated AS is recorded at the tail.
                let last = *t.path.last().unwrap();
                prop_assert!(
                    t.path.len() > 60 || t.path.iter().filter(|&&a| a == last).count() >= 2
                );
            }
            TraceOutcome::Unreachable | TraceOutcome::Blackholed => {}
        }
        // Apart from a final loop-back hop, no AS repeats.
        let body = &t.path[..t.path.len().saturating_sub(1)];
        let mut seen = std::collections::BTreeSet::new();
        prop_assert!(body.iter().all(|a| seen.insert(*a)), "body repeats: {:?}", t.path);
    }

    #[test]
    fn blackhole_host_route_always_wins_over_covering_forward(
        net in any::<u32>(),
        len in 8u8..=24,
        offset in any::<u32>(),
    ) {
        // A /32 null route inside a covering Forward prefix — the §7.3
        // "next-hop changed to a null interface" situation.
        let covering = Ipv4Prefix::new(net, len).expect("len ok");
        let span = covering.num_addresses() as u32; // len ≤ 24 ⇒ fits u32
        let host_ip = covering.network().wrapping_add(offset % span);
        let host = Ipv4Prefix::new(host_ip, 32).expect("host route");
        let asn = Asn::new(1);
        let mut fib = Fib::default();
        fib.insert(asn, covering, FibAction::Forward(Asn::new(2)));
        fib.insert(asn, host, FibAction::Null);
        let (matched, action) = fib.lookup(asn, host_ip).expect("covered");
        prop_assert_eq!(matched.len(), 32);
        prop_assert_eq!(action, FibAction::Null);
        // Neighboring addresses in the covering prefix still forward.
        if span > 1 {
            let other = covering.network().wrapping_add((offset + 1) % span);
            if other != host_ip {
                let (m2, a2) = fib.lookup(asn, other).expect("covered");
                prop_assert_eq!(m2, covering);
                prop_assert_eq!(a2, FibAction::Forward(Asn::new(2)));
            }
        }
    }
}
