//! Property tests locking in the engine's determinism guarantees:
//!
//! * **Parallel determinism** — `threads = 1` and `threads = N` must
//!   produce **identical** [`SimResult`]s (events, observations, final
//!   routes, convergence) on arbitrary topologies, policy assignments, and
//!   episode schedules — not just the single hand-built case in the unit
//!   suite. The guarantee is structural (per-prefix isolation + ordered
//!   merge), so it must survive any input.
//! * **Session reuse** — a [`CompiledSim`] is a pure function of its spec:
//!   running the same episodes twice on one session is bit-identical, and
//!   equals a fresh compile (`compile→run ≡ compile→run→run`), across
//!   `threads = 1/N`. This is what makes the compile-once/run-many A/B
//!   methodology sound.
//! * **Batching transparency** — the interned-arena engine converges each
//!   episode with dirty-set batched export recomputes; a PR 2-shaped
//!   reference loop (per-import immediate re-export, no dirty set, no
//!   best-id skip) built from the same `NodeState` policy code must
//!   reach the **same fixed point** on arbitrary worlds. Batching and
//!   interning are throughput levers, never semantic ones.
//! * **Collector-sweep transparency** — the engine asks a collector session
//!   for news only when its peer's export pass ran, and answers from what
//!   the pass already worked out. The same reference loop asks **every**
//!   session after **every** episode, the long way
//!   (`NodeState::export_for`: rescan the RIB, re-derive the export), and
//!   must report the same observations, row for row.
//! * **Scratch-reuse transparency** — a multi-prefix schedule runs every
//!   prefix on a worker's recycled `SimScratch` (generation-stamped flat
//!   RIB arrays, reset arena/queue/dirty set), while a schedule of one
//!   prefix per `run` call gives each prefix a factory-fresh scratch. The
//!   combined run must equal the union of the single-prefix runs — on
//!   arbitrary worlds and on schedules engineered to interleave wide and
//!   narrow flood footprints, so stale stamped state from a big flood can
//!   never leak into a later prefix.
//! * **Delta-re-convergence transparency** — restoring a converged
//!   [`bgpworms_routesim::SimSnapshot`] of one prefix's schedule and
//!   converging only appended perturbation episodes (`run_delta` /
//!   `run_delta_prefix`) must be bit-identical to rerunning that prefix's
//!   combined schedule from scratch — alone or inside the whole schedule,
//!   at `threads = 1/N` — on arbitrary worlds, for withdrawals and
//!   community-changing perturbations alike. Snapshots are a replay
//!   shortcut, never a semantic one.
//! * **Elision and parking transparency** — a campaign flood counts
//!   deliveries to *unread leaves* (no customer, no collector session, not
//!   a route server): it drops them when the prefix is unretained, and
//!   parks them when it is retained, each parked leaf importing what each
//!   of its slots received last, once, before the retention sweep.
//!   `run_snapshot`'s capture flood simulates every delivery and is the
//!   oracle: on worlds built to contain every shape a leaf can hide behind,
//!   the unretained session must report its observations, events and
//!   convergence, and the retained campaign, memoized or not, its final
//!   routes as well.
//! * **An oracle that shares no code with the engine** — every check above
//!   is the engine agreeing with a variant of itself (the reference loop
//!   drives the engine's own `NodeState` policy). On policy-free,
//!   IXP-free generated internets, a three-phase valley-free search over a
//!   bare edge list must name, per AS, the route `run` converges to: whether
//!   it holds one, the class of neighbour it came from, its hop count and
//!   its next hop.
//! * **Well-known communities keep their scope** — the paper's §3/§6
//!   semantics read off the RFCs, not off `router.rs`: in a converged
//!   arbitrary world no AS's route was learned from a neighbour whose own
//!   route carries `NO_EXPORT` or `NO_ADVERTISE`, none over a peer link
//!   from one whose route carries `NO_PEER`, and an RTBH target that
//!   blackholes a route puts itself under that statement by adding
//!   `NO_EXPORT`.
//! * **Blackholing stays inside its offer** — likewise read off the
//!   configs, not off `router.rs`: a converged route is blackholed only at
//!   an AS that offers RTBH, only for a prefix at least the offer's
//!   `min_prefix_len` long, only when it carries the trigger community, and
//!   under `CustomersOnly` only when a customer sent it.
//! * **The §8 defense scopes what it forwards** — read off
//!   `ScopedToReceiver`'s doc comment: a route learned from a defended AS
//!   carries no community that AS forwarded unless the receiver owns it,
//!   with the comment's exemptions (well-known values, the sender's own
//!   tags; collector sessions are not read).
//! * **Derivation-cache transparency** — the arena answers a repeated
//!   import derivation (same advertisement, same policy outcome, any
//!   receiver) from a cache instead of cloning and re-interning. A stream
//!   of random deliveries through one long-lived arena must install, id for
//!   id, the routes that replaying every delivery on a cold arena (always a
//!   miss: clone → apply effects and tags → intern) and interning the
//!   results into a twin arena yields, and both arenas must end equally
//!   long.

use bgpworms_routesim::route::RouteArena;
use bgpworms_routesim::router::{NodeState, RibEntry, ValidationCtx};
use bgpworms_routesim::{
    ActScope, BlackholeService, Campaign, CampaignSink, CollectorObservation, CollectorSpec,
    CommunityPropagationPolicy, CompiledSim, FeedKind, FinalRoutes, IrrDatabase, OriginValidation,
    Origination, PrefixOutcome, RetainRoutes, Route, RouteId, RouteSource, RouterConfig, SimResult,
    SimSpec, MONITOR_ASN,
};
use bgpworms_topology::{EdgeKind, NodeId, Role, Tier, Topology, TopologyParams};
use bgpworms_types::{Asn, Community, Prefix};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Raw material for a random topology + workload; the test body assembles
/// it (indices are taken modulo the node count, so every draw is valid).
#[derive(Debug, Clone)]
struct RawWorld {
    n_nodes: usize,
    tiers: Vec<u8>,
    edges: Vec<(usize, usize, bool)>,
    policies: Vec<(usize, u8)>,
    episodes: Vec<RawEpisode>,
    collector_peers: Vec<(usize, bool)>,
}

#[derive(Debug, Clone)]
struct RawEpisode {
    origin: usize,
    prefix_octet: u8,
    community: u16,
    time: u32,
    withdraw: bool,
}

fn arb_world() -> impl Strategy<Value = RawWorld> {
    (
        4usize..16,
        proptest::collection::vec(0u8..4, 16),
        proptest::collection::vec((0usize..16, 0usize..16, any::<bool>()), 3..40),
        proptest::collection::vec((0usize..16, 0u8..6), 0..8),
        proptest::collection::vec(
            (0usize..16, 0u8..6, 0u16..1000, 0u32..5000, any::<bool>()),
            1..16,
        ),
        proptest::collection::vec((0usize..16, any::<bool>()), 1..4),
    )
        .prop_map(
            |(n_nodes, tiers, edges, policies, episodes, collector_peers)| RawWorld {
                n_nodes,
                tiers,
                edges,
                policies,
                episodes: episodes
                    .into_iter()
                    .map(
                        |(origin, prefix_octet, community, time, withdraw)| RawEpisode {
                            origin,
                            prefix_octet,
                            community,
                            time,
                            withdraw,
                        },
                    )
                    .collect(),
                collector_peers,
            },
        )
}

/// Assembles the simulation input out of the raw draws.
fn build_world(
    raw: &RawWorld,
) -> (
    Topology,
    Vec<RouterConfig>,
    Vec<CollectorSpec>,
    Vec<Origination>,
) {
    let n = raw.n_nodes;
    let mut topo = Topology::new();
    for i in 0..n {
        let tier = match raw.tiers[i % raw.tiers.len()] {
            0 => Tier::Tier1,
            1 => Tier::Transit,
            2 => Tier::Stub,
            _ if i == n - 1 => Tier::RouteServer, // at most one route server
            _ => Tier::Transit,
        };
        topo.add_simple(Asn::new(i as u32 + 1), tier);
    }
    for &(a, b, p2c) in &raw.edges {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        let kind = if p2c {
            EdgeKind::ProviderToCustomer
        } else {
            EdgeKind::PeerToPeer
        };
        topo.add_edge(Asn::new(a as u32 + 1), Asn::new(b as u32 + 1), kind);
    }

    let mut configs = Vec::new();
    for &(idx, policy) in &raw.policies {
        let asn = Asn::new((idx % n) as u32 + 1);
        let mut cfg = RouterConfig::defaults(asn);
        cfg.propagation = match policy {
            0 => CommunityPropagationPolicy::ForwardAll,
            1 => CommunityPropagationPolicy::StripAll,
            2 => CommunityPropagationPolicy::StripOwn,
            3 => CommunityPropagationPolicy::StripUnknown,
            4 => CommunityPropagationPolicy::ScopedToReceiver,
            _ => CommunityPropagationPolicy::Selective {
                to_customers: true,
                to_peers: false,
                to_providers: true,
            },
        };
        configs.push(cfg);
    }

    let collectors = vec![CollectorSpec {
        name: "prop".into(),
        platform: "RIS".into(),
        collector_id: 1,
        peers: raw
            .collector_peers
            .iter()
            .map(|&(idx, full)| {
                (
                    Asn::new((idx % n) as u32 + 1),
                    if full {
                        FeedKind::Full
                    } else {
                        FeedKind::CustomerRoutesOnly
                    },
                )
            })
            .collect(),
    }];

    let originations = raw
        .episodes
        .iter()
        .map(|e| {
            let prefix: Prefix = format!("10.{}.0.0/16", e.prefix_octet)
                .parse()
                .expect("valid prefix");
            let origin = Asn::new((e.origin % n) as u32 + 1);
            if e.withdraw {
                Origination::withdrawal(origin, prefix, e.time)
            } else {
                Origination::announce(
                    origin,
                    prefix,
                    vec![Community::new(e.community % 16, e.community)],
                )
                .at(e.time)
            }
        })
        .collect();

    (topo, configs, collectors, originations)
}

/// A raw world plus every shape an unread leaf can hide behind, so that
/// dropping deliveries to unread leaves has something to get wrong: a
/// collector session *on* a stub (101, which is therefore read), a stub
/// reached only through an IXP route server (102 behind 100), a stub that
/// originates the first prefix *after* another origin did (103, MOAS — and
/// one that prefers its provider's route to its own, so whether its
/// announcement leaves it depends on what it imported before), a
/// forged-origin episode at a stub (104), and withdrawals of all of it.
fn with_unread_shapes(
    raw: &RawWorld,
) -> (
    Topology,
    Vec<RouterConfig>,
    Vec<CollectorSpec>,
    Vec<Origination>,
) {
    let (mut topo, mut configs, mut collectors, mut originations) = build_world(raw);
    let asn = Asn::new;
    let (first, last) = (asn(1), asn(raw.n_nodes as u32));
    let [rs, heard, behind_rs, moas, forger] = [100, 101, 102, 103, 104].map(asn);
    topo.add_simple(rs, Tier::RouteServer);
    for stub in [heard, behind_rs, moas, forger] {
        topo.add_simple(stub, Tier::Stub);
    }
    for member in [first, asn(2), behind_rs] {
        topo.add_edge(member, rs, EdgeKind::PeerToPeer);
    }
    topo.add_edge(first, heard, EdgeKind::ProviderToCustomer);
    topo.add_edge(first, moas, EdgeKind::ProviderToCustomer);
    topo.add_edge(last, moas, EdgeKind::ProviderToCustomer);
    topo.add_edge(asn(2), forger, EdgeKind::ProviderToCustomer);
    let mut obedient = RouterConfig::defaults(moas);
    obedient.local_pref.provider = 251;
    configs.push(obedient);
    collectors.push(CollectorSpec {
        name: "stubs".into(),
        platform: "RV".into(),
        collector_id: 2,
        peers: vec![(heard, FeedKind::Full), (last, FeedKind::Full)],
    });

    let prefix = originations[0].prefix;
    let after = originations.iter().map(|o| o.time).max().unwrap_or(0);
    let tags = |v: u16| vec![Community::new(v % 16, v)];
    originations.extend([
        Origination::announce(first, prefix, tags(1)).at(after + 100),
        Origination::announce(moas, prefix, tags(2)).at(after + 200),
        Origination::announce(forger, prefix, tags(3))
            .at(after + 300)
            .forging(first),
        Origination::withdrawal(first, prefix, after + 400),
        Origination::withdrawal(moas, prefix, after + 500),
        Origination::withdrawal(forger, prefix, after + 600),
    ]);
    let behind: Prefix = "10.200.0.0/16".parse().expect("valid prefix");
    originations.extend([
        Origination::announce(behind_rs, behind, tags(4)),
        Origination::announce(heard, behind, tags(5)).at(100),
        Origination::withdrawal(behind_rs, behind, 200),
    ]);
    (topo, configs, collectors, originations)
}

/// Builds the spec for a raw world (compilation left to the caller so each
/// property can exercise a different compile/run shape).
fn spec_for<'a>(
    topo: &'a Topology,
    configs: Vec<RouterConfig>,
    collectors: Vec<CollectorSpec>,
) -> SimSpec<'a> {
    let mut spec = SimSpec::new(topo).retain(RetainRoutes::All);
    for cfg in configs {
        spec = spec.configure(cfg);
    }
    for c in collectors {
        spec = spec.collector(c);
    }
    spec
}

/// Per-prefix router storage of the reference engine: four plain `Vec`s
/// indexed by node (no flat slot arrays, no stamps), viewed one node at a
/// time through the engine's [`NodeState`] policy code.
struct RefRouters<'t> {
    topo: &'t Topology,
    prefix: Prefix,
    rib_in: Vec<Vec<Option<RibEntry>>>,
    local: Vec<Option<RouteId>>,
    exported: Vec<Vec<Option<RouteId>>>,
    last_emit_best: Vec<Option<Option<RouteId>>>,
}

impl<'t> RefRouters<'t> {
    fn new(topo: &'t Topology, prefix: Prefix) -> Self {
        let degrees = || topo.node_ids().map(|id| topo.neighbors_ix(id).len());
        RefRouters {
            topo,
            prefix,
            rib_in: degrees().map(|d| vec![None; d]).collect(),
            local: vec![None; topo.len()],
            exported: degrees().map(|d| vec![None; d]).collect(),
            last_emit_best: vec![None; topo.len()],
        }
    }

    fn node(&mut self, id: NodeId) -> NodeState<'_> {
        let (i, node) = (id.index(), self.topo.node_by_id(id));
        NodeState::new(
            node.asn,
            node.tier == Tier::RouteServer,
            self.prefix,
            &mut self.rib_in[i],
            &mut self.local[i],
            &mut self.exported[i],
            &mut self.last_emit_best[i],
        )
    }
}

/// The final best route per (prefix, AS) of the reference engine below, or
/// `None` when the event budget blows (oscillating worlds are excluded from
/// the comparison by both sides).
fn reference_final_routes(
    topo: &Topology,
    configs: &[RouterConfig],
    originations: &[Origination],
) -> Option<ReferenceRoutes> {
    reference_run(topo, configs, &[], originations).map(|(finals, _)| finals)
}

/// The reference engine's final best route per (prefix, AS).
type ReferenceRoutes = BTreeMap<Prefix, BTreeMap<Asn, Route>>;

/// What the reference engine's collectors recorded, per collector name, in
/// the engine's merge order.
type ReferenceFeeds = BTreeMap<String, Vec<CollectorObservation>>;

/// A PR 2-shaped reference engine over the *same* `NodeState` policy
/// code: FIFO event queue, and every import immediately recomputes the
/// receiver's exports (no dirty set, no best-id skip). After every episode
/// it asks every collector session what its peer exports to the monitor —
/// `NodeState::export_for`, a RIB scan and a fresh derivation each time —
/// and records an observation when that changed: the full sweep the engine
/// used to run, kept as the oracle of the one it runs now. Returns the
/// final best route per (prefix, AS) and the collectors' feeds, or `None`
/// when the event budget blows.
fn reference_run(
    topo: &Topology,
    configs: &[RouterConfig],
    collectors: &[CollectorSpec],
    originations: &[Origination],
) -> Option<(ReferenceRoutes, ReferenceFeeds)> {
    let inverse = |role: Role| match role {
        Role::Customer => Role::Provider,
        Role::Provider => Role::Customer,
        Role::Peer => Role::Peer,
    };
    // `SimSpec::configure` semantics: a later config for the same ASN
    // replaces the earlier one (the raw worlds do produce duplicates).
    let mut by_asn: BTreeMap<Asn, &RouterConfig> = BTreeMap::new();
    for cfg in configs {
        by_asn.insert(cfg.asn, cfg);
    }
    let dense_cfgs: Vec<RouterConfig> = topo
        .node_ids()
        .map(|id| {
            let asn = topo.asn_of(id);
            by_asn
                .get(&asn)
                .map(|c| (*c).clone())
                .unwrap_or_else(|| RouterConfig::defaults(asn))
        })
        .collect();
    let irr = IrrDatabase::new();
    let rpki = IrrDatabase::new();
    let vctx = ValidationCtx {
        irr: &irr,
        rpki: &rpki,
    };
    let budget = (topo.adjacency_len() as u64 * 64).max(10_000);

    let mut by_prefix: BTreeMap<Prefix, Vec<&Origination>> = BTreeMap::new();
    for o in originations {
        by_prefix.entry(o.prefix).or_default().push(o);
    }
    for eps in by_prefix.values_mut() {
        eps.sort_by_key(|o| o.time);
    }

    struct Ev {
        from: NodeId,
        to: NodeId,
        to_slot: usize,
        sender_role: Role,
        route: Option<RouteId>,
    }

    // Sessions in spec order; peers outside the topology have none.
    let sessions: Vec<(&str, NodeId, Role)> = collectors
        .iter()
        .flat_map(|spec| {
            spec.peers
                .iter()
                .map(move |peer| (spec.name.as_str(), peer))
        })
        .filter_map(|(name, &(peer, feed))| {
            let monitor_role = match feed {
                FeedKind::Full => Role::Customer,
                FeedKind::CustomerRoutesOnly => Role::Peer,
            };
            Some((name, topo.node_id(peer)?, monitor_role))
        })
        .collect();
    let mut feeds: ReferenceFeeds = collectors
        .iter()
        .map(|spec| (spec.name.clone(), Vec::new()))
        .collect();

    let mut out = BTreeMap::new();
    for (prefix, episodes) in by_prefix {
        let mut arena = RouteArena::new();
        let mut routers = RefRouters::new(topo, prefix);
        let mut queue: VecDeque<Ev> = VecDeque::new();
        let mut events = 0u64;
        let mut advertised: Vec<Option<RouteId>> = vec![None; sessions.len()];

        // Per-import immediate re-export, exactly the pre-batching shape.
        let emit = |id: NodeId,
                    routers: &mut RefRouters<'_>,
                    arena: &mut RouteArena,
                    queue: &mut VecDeque<Ev>,
                    dense_cfgs: &[RouterConfig]| {
            let cfg = &dense_cfgs[id.index()];
            let mut router = routers.node(id);
            for (slot, (nb, role, _), rev) in topo.adjacency_with_reverse_ix(id) {
                let new = router.export_for(cfg, topo.asn_of(nb), role, arena);
                if let Some(update) = router.diff_export(slot, new) {
                    queue.push_back(Ev {
                        from: id,
                        to: nb,
                        to_slot: rev as usize,
                        sender_role: inverse(role),
                        route: update,
                    });
                }
            }
        };

        for ep in episodes {
            let Some(origin) = topo.node_id(ep.origin) else {
                continue;
            };
            assert!(ep.forged_origin.is_none(), "reference skips forged paths");
            let local = (!ep.withdraw).then(|| {
                arena.intern(
                    Route::originate(ep.communities.clone())
                        .with_large_communities(ep.large_communities.clone()),
                )
            });
            routers.node(origin).set_local(local);
            emit(origin, &mut routers, &mut arena, &mut queue, &dense_cfgs);
            while let Some(ev) = queue.pop_front() {
                events += 1;
                if events > budget {
                    return None;
                }
                let cfg = &dense_cfgs[ev.to.index()];
                routers.node(ev.to).import(
                    cfg,
                    topo.asn_of(ev.from),
                    ev.to_slot,
                    ev.sender_role,
                    ev.route,
                    &mut arena,
                    vctx,
                );
                emit(ev.to, &mut routers, &mut arena, &mut queue, &dense_cfgs);
            }
            for (&(name, peer, monitor_role), was) in sessions.iter().zip(&mut advertised) {
                let cfg = &dense_cfgs[peer.index()];
                let now = routers
                    .node(peer)
                    .export_for(cfg, MONITOR_ASN, monitor_role, &mut arena);
                if now != *was {
                    *was = now;
                    feeds
                        .get_mut(name)
                        .expect("collector registered")
                        .push(CollectorObservation {
                            time: ep.time,
                            peer: topo.asn_of(peer),
                            prefix,
                            route: now.map(|id| arena.get(id).clone()),
                        });
                }
            }
        }

        let mut finals = BTreeMap::new();
        for id in topo.node_ids() {
            if let Some(best) = routers.node(id).best(&arena) {
                finals.insert(topo.asn_of(id), best.clone());
            }
        }
        out.insert(prefix, finals);
    }
    for feed in feeds.values_mut() {
        feed.sort_by_key(|o| (o.time, o.peer, o.prefix));
    }
    Some((out, feeds))
}

/// Where the valley-free oracle says an AS got its route from, best first —
/// the order of the default local preferences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LearnedFrom {
    Itself,
    Customer,
    Peer,
    Provider,
}

/// What one AS holds at the fixed point: (class, hop count, next hop).
type Held = (LearnedFrom, usize, Option<Asn>);

/// Gao–Rexford routing to one origin over a bare edge list, the textbook
/// way and with none of the engine's code: up the customer cone level by
/// level, one hop across a peering, then down the provider cone. A node
/// keeps the first class that reaches it, then the fewest hops, then the
/// lowest next-hop ASN — `Route::prefer`'s documented order under default
/// local preferences. (Deliberately naive: maps, whole-graph rescans.)
///
/// `tag` is the well-known community the origination carries, if any, read
/// here straight from RFC 1997 and RFC 3765 with every AS its own
/// confederation: a `NO_EXPORT` or `NO_ADVERTISE` route never leaves the AS
/// that holds it, and a `NO_PEER` route crosses no peering.
fn valley_free_oracle(
    edges: &[(Asn, Asn, EdgeKind)],
    origin: Asn,
    tag: Option<Community>,
) -> BTreeMap<Asn, Held> {
    let mut providers: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
    let mut peers: BTreeMap<Asn, Vec<Asn>> = BTreeMap::new();
    for &(a, b, kind) in edges {
        match kind {
            EdgeKind::ProviderToCustomer => providers.entry(b).or_default().push(a),
            EdgeKind::PeerToPeer => {
                peers.entry(a).or_default().push(b);
                peers.entry(b).or_default().push(a);
            }
        }
    }
    let none = Vec::new();
    // The better of what `at` holds and `(class, hops, via)`.
    let offer = |held: &mut BTreeMap<Asn, Held>, at: Asn, candidate: Held| {
        let slot = held.entry(at).or_insert(candidate);
        *slot = (*slot).min(candidate);
    };

    let mut held = BTreeMap::from([(origin, (LearnedFrom::Itself, 0, None))]);
    if tag == Some(Community::NO_EXPORT) || tag == Some(Community::NO_ADVERTISE) {
        return held;
    }
    // Up: an AS tells its providers what its customers (or it) announced.
    // Level by level, so the first offer to reach a provider is a shortest.
    let mut level = vec![origin];
    while !level.is_empty() {
        let mut next = BTreeMap::new();
        for &customer in &level {
            let hops = held[&customer].1 + 1;
            for &provider in providers.get(&customer).unwrap_or(&none) {
                if !held.contains_key(&provider) {
                    offer(
                        &mut next,
                        provider,
                        (LearnedFrom::Customer, hops, Some(customer)),
                    );
                }
            }
        }
        level = next.keys().copied().collect();
        held.extend(next);
    }
    // Across: the same routes, and only those, cross one peering.
    let uphill = held.clone();
    for (&asn, &(_, hops, _)) in &uphill {
        if tag == Some(Community::NO_PEER) {
            break;
        }
        for &peer in peers.get(&asn).unwrap_or(&none) {
            if !uphill.contains_key(&peer) {
                offer(&mut held, peer, (LearnedFrom::Peer, hops + 1, Some(asn)));
            }
        }
    }
    // Down: everybody tells their customers whatever they hold; repeat
    // until a sweep over all customers changes nothing.
    let upper = held.clone();
    loop {
        let before = held.clone();
        for (&customer, of) in &providers {
            if upper.contains_key(&customer) {
                continue;
            }
            for &provider in of {
                if let Some(&(_, hops, _)) = before.get(&provider) {
                    offer(
                        &mut held,
                        customer,
                        (LearnedFrom::Provider, hops + 1, Some(provider)),
                    );
                }
            }
        }
        if held == before {
            return held;
        }
    }
}

/// The independent oracle against the engine: IXP-free generated internets
/// (a transparent route server is policy), default configs, a handful of
/// origins spread over the AS list, each announcing one prefix untagged and
/// one per scope-limiting well-known community (default configs forward
/// communities, so the tag rides every hop). It reads retained
/// `final_routes`, so it also holds retention to mean *every* AS, unread
/// leaves included.
#[test]
fn converged_routes_match_a_valley_free_search_that_shares_no_code() {
    let presets = [TopologyParams::tiny(), TopologyParams::small()];
    for preset in presets {
        for seed in 0..64 {
            let topo = TopologyParams {
                n_ixp: 0,
                ..preset.clone()
            }
            .seed(seed)
            .build();
            let edges: Vec<(Asn, Asn, EdgeKind)> = topo
                .to_caida_lines()
                .into_iter()
                .map(|line| (line.a, line.b, line.kind))
                .collect();
            let ases: Vec<Asn> = topo.ases().map(|node| node.asn).collect();
            let origins = [0, ases.len() / 3, ases.len() / 2, ases.len() - 1].map(|i| ases[i]);
            let tags = [
                None,
                Some(Community::NO_EXPORT),
                Some(Community::NO_ADVERTISE),
                Some(Community::NO_PEER),
            ];
            let mut cases: Vec<(Prefix, Asn, Option<Community>)> = Vec::new();
            for tag in tags {
                for origin in origins {
                    let prefix = format!("10.{}.0.0/16", cases.len());
                    cases.push((prefix.parse().expect("valid prefix"), origin, tag));
                }
            }
            let schedule: Vec<Origination> = cases
                .iter()
                .map(|&(prefix, origin, tag)| {
                    Origination::announce(origin, prefix, tag.into_iter().collect())
                })
                .collect();
            let run = SimSpec::new(&topo)
                .retain(RetainRoutes::All)
                .compile()
                .run(&schedule);
            assert!(run.converged);

            for &(prefix, origin, tag) in &cases {
                let oracle = valley_free_oracle(&edges, origin, tag);
                for &asn in &ases {
                    let prefs = RouterConfig::defaults(asn).local_pref;
                    let engine = run.route_at(asn, &prefix).map(|route| {
                        let class = match route.source {
                            RouteSource::Local => LearnedFrom::Itself,
                            _ if route.local_pref == prefs.customer => LearnedFrom::Customer,
                            _ if route.local_pref == prefs.peer => LearnedFrom::Peer,
                            _ if route.local_pref == prefs.provider => LearnedFrom::Provider,
                            _ => panic!("{asn}: local-pref {} is no class's", route.local_pref),
                        };
                        (class, route.path.hop_count(), route.source.neighbor())
                    });
                    assert_eq!(
                        engine,
                        oracle.get(&asn).copied(),
                        "seed {seed}, {} ASes, origin {origin}, tag {tag:?}: AS {asn} (class, hops, \
                         next hop)",
                        ases.len()
                    );
                }
            }
        }
    }
}

/// The scratch-reuse oracle: runs every prefix of `originations` in its own
/// [`CompiledSim::run`] call — each call builds a factory-fresh per-worker
/// scratch, so no prefix can see another's state — and merges the
/// single-prefix results into the [`SimResult`] the combined run should
/// produce (same merge rules as the engine: summed events, ANDed
/// convergence, per-prefix route maps keyed by prefix, observations sorted
/// by `(time, peer, prefix)`).
fn fresh_state_reference(sim: &CompiledSim<'_>, originations: &[Origination]) -> SimResult {
    let mut by_prefix: BTreeMap<Prefix, Vec<Origination>> = BTreeMap::new();
    for o in originations {
        by_prefix.entry(o.prefix).or_default().push(o.clone());
    }
    let mut out = SimResult {
        converged: true,
        ..SimResult::default()
    };
    for name in sim.collector_names() {
        out.observations.entry(name.clone()).or_default();
    }
    for single in by_prefix.into_values() {
        let res = sim.run(&single);
        out.events += res.events;
        out.converged &= res.converged;
        for (name, mut obs) in res.observations {
            out.observations
                .get_mut(&name)
                .expect("collector registered")
                .append(&mut obs);
        }
        for (prefix, routes) in res.final_routes {
            let previous = out.final_routes.insert(prefix, routes);
            assert!(previous.is_none(), "one run per prefix");
        }
    }
    for obs in out.observations.values_mut() {
        obs.sort_by_key(|o| (o.time, o.peer, o.prefix));
    }
    out
}

/// Keyed streaming aggregate for the campaign properties: retains every
/// [`PrefixOutcome`] under its prefix, so equality between two campaign
/// runs is full structural equality of everything the engine produced.
/// `fold` inserts, `merge` unions — per-prefix keying makes the aggregate
/// independent of how the driver chunked the work, which is exactly the
/// property the campaign API promises to *any* deterministic sink.
#[derive(Debug, Default, PartialEq)]
struct KeyedSink(BTreeMap<Prefix, PrefixOutcome>);

impl CampaignSink for KeyedSink {
    fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
        let previous = self.0.insert(prefix, outcome);
        assert!(previous.is_none(), "prefix {prefix} folded twice");
    }
    fn merge(&mut self, other: Self) {
        for (prefix, outcome) in other.0 {
            self.fold(prefix, outcome);
        }
    }
}

/// Rebuilds the [`SimResult`] a plain [`CompiledSim::run`] would have
/// produced from a [`KeyedSink`] aggregate — what `run` does to finish its
/// own sink, re-derived independently on top of the streaming API.
fn rebuild_sim_result(sim: &CompiledSim<'_>, agg: &KeyedSink) -> SimResult {
    let names = sim.collector_names();
    let mut out = SimResult {
        converged: true,
        ..SimResult::default()
    };
    for name in names {
        out.observations.entry(name.clone()).or_default();
    }
    for (prefix, outcome) in &agg.0 {
        out.events += outcome.events;
        out.converged &= outcome.converged;
        for (ci, obs) in outcome.observations.iter().enumerate() {
            if !obs.is_empty() {
                out.observations
                    .get_mut(&names[ci])
                    .expect("collector registered")
                    .extend(obs.iter().cloned());
            }
        }
        if let Some(routes) = &outcome.final_routes {
            out.final_routes.insert(*prefix, routes.clone());
        }
    }
    for obs in out.observations.values_mut() {
        obs.sort_by_key(|o| (o.time, o.peer, o.prefix));
    }
    out
}

proptest! {
    // Full 256-case corpus by default (the shim's DEFAULT_CASES); set
    // PROPTEST_CASES in the environment to dial a CI job down without
    // touching this file.
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn threads_never_change_results_on_random_worlds(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let mut sim = spec_for(&topo, configs, collectors).compile();

        let seq = sim.run(&originations);
        sim.set_threads(threads);
        let par = sim.run(&originations);

        // Full structural equality: events, convergence, every collector
        // observation, every retained route.
        prop_assert_eq!(&seq, &par);
    }

    #[test]
    fn threads_never_change_results_on_generated_internets(seed in 0u64..64, threads in 2usize..6) {
        let topo = TopologyParams::tiny().seed(seed).build();
        let alloc = bgpworms_topology::PrefixAllocation::assign(
            &topo,
            bgpworms_topology::addressing::AddressingParams::default(),
        );
        let originations: Vec<Origination> = alloc
            .iter()
            .map(|(asn, prefix)| Origination::announce(asn, prefix, vec![]))
            .collect();
        let mut sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let seq = sim.run(&originations);
        sim.set_threads(threads);
        let par = sim.run(&originations);
        prop_assert_eq!(&seq, &par);
    }

    /// Session reuse: one compiled session replayed is bit-identical to
    /// itself and to a fresh compile of the same spec —
    /// `compile→run ≡ compile→run→run` — across `threads = 1/N`.
    #[test]
    fn session_reuse_is_bit_identical_on_random_worlds(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let spec = spec_for(&topo, configs, collectors);

        let session: CompiledSim<'_> = spec.clone().compile();
        let first = session.run(&originations);
        let second = session.run(&originations);
        prop_assert_eq!(&first, &second, "rerun on one session diverged");

        let fresh = spec.clone().compile().run(&originations);
        prop_assert_eq!(&first, &fresh, "session run diverged from fresh compile");

        // The same holds when the reused session runs parallel.
        let mut par_session = spec.threads(threads).compile();
        let par_first = par_session.run(&originations);
        let par_second = par_session.run(&originations);
        prop_assert_eq!(&par_first, &par_second, "parallel rerun diverged");
        prop_assert_eq!(&first, &par_first, "parallel session diverged from sequential");
        // …and thread count can change mid-session without recompiling.
        par_session.set_threads(1);
        prop_assert_eq!(&par_session.run(&originations), &first);
    }

    /// Batching transparency: the dirty-set batched, arena-interned engine
    /// must reach the same fixed point as the PR 2-shaped per-import
    /// re-export reference loop on arbitrary worlds — across `threads =
    /// 1/N` and on a reused session (`compile→run→run`). Batched export
    /// diffing reorders *when* exports are recomputed, never *what* the
    /// converged routes are.
    #[test]
    fn batched_engine_matches_per_import_reference(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, _collectors, originations) = build_world(&raw);
        let Some(reference) = reference_final_routes(&topo, &configs, &originations) else {
            // Oscillating world: the reference blew its budget; the batched
            // engine flags the same worlds via `converged`, nothing to compare.
            return Ok(());
        };

        let mut spec = SimSpec::new(&topo).retain(RetainRoutes::All);
        for cfg in configs {
            spec = spec.configure(cfg);
        }
        let mut sim = spec.compile();
        let run = sim.run(&originations);
        prop_assert!(run.converged, "reference converged but batched engine did not");
        let owned = |model: &BTreeMap<Asn, Route>| -> Vec<(Asn, Route)> {
            model.iter().map(|(asn, route)| (*asn, route.clone())).collect()
        };
        let reference_tables: BTreeMap<Prefix, FinalRoutes> = reference
            .iter()
            .map(|(prefix, model)| (*prefix, owned(model).into_iter().collect()))
            .collect();
        prop_assert_eq!(&run.final_routes, &reference_tables, "batched fixed point diverged");

        // `FinalRoutes` reads like the map it replaced, and its
        // representation is canonical: the same pairs collected in the
        // opposite order are the same value, field by field.
        for (prefix, model) in &reference {
            let finals = &run.final_routes[prefix];
            prop_assert_eq!(finals.len(), model.len());
            prop_assert_eq!(finals.is_empty(), model.is_empty());
            prop_assert!(finals.iter().eq(model.iter()));
            prop_assert!(finals.keys().eq(model.keys()));
            prop_assert!(finals.values().eq(model.values()));
            for node in topo.ases() {
                prop_assert_eq!(finals.get(&node.asn), model.get(&node.asn));
                prop_assert_eq!(finals.contains_key(&node.asn), model.contains_key(&node.asn));
            }
            let reversed: FinalRoutes = owned(model).into_iter().rev().collect();
            prop_assert_eq!(&reversed, finals, "collection order leaked into the value");
        }

        // The equivalence survives sharding and session reuse.
        sim.set_threads(threads);
        let par = sim.run(&originations);
        prop_assert_eq!(&par.final_routes, &reference_tables);
        prop_assert_eq!(&sim.run(&originations), &par, "rerun diverged");
    }

    /// Collector-sweep transparency: on worlds whose first prefix is walked
    /// through a whole lifecycle (announce, duplicate, community-perturbed
    /// re-announce, withdraw, re-announce after the withdrawal) on top of
    /// the random schedule, heard over full and customer-only feeds by
    /// random peers plus the peers whose exports no per-role memo can
    /// answer (the route server, every `ScopedToReceiver` AS), the engine's
    /// feeds equal the reference's full sweep — at `threads = 1/N`, and,
    /// for that prefix's rows, when the lifecycle arrives as a delta on a
    /// snapshot of the prefix's own earlier episodes.
    #[test]
    fn collector_sweep_matches_the_full_sweep_reference(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, mut collectors, baseline) = build_world(&raw);
        let first = &baseline[0];
        let (origin, prefix) = (first.origin, first.prefix);
        let after = baseline.iter().map(|o| o.time).max().expect("episodes drawn");
        let tags = |v: u16| vec![Community::new(v % 16, v)];
        let delta = vec![
            Origination::announce(origin, prefix, tags(7)).at(after + 100),
            Origination::announce(origin, prefix, tags(7)).at(after + 200),
            Origination::announce(origin, prefix, tags(8)).at(after + 300),
            Origination::withdrawal(origin, prefix, after + 400),
            Origination::announce(origin, prefix, tags(8)).at(after + 500),
        ];
        let mut originations = baseline.clone();
        originations.extend(delta.iter().cloned());

        let scoped = configs
            .iter()
            .filter(|c| c.propagation == CommunityPropagationPolicy::ScopedToReceiver)
            .map(|c| c.asn);
        let route_server = topo.ases().filter(|n| n.tier == Tier::RouteServer).map(|n| n.asn);
        let hard: Vec<Asn> = scoped.chain(route_server).collect();
        collectors.push(CollectorSpec {
            name: "hard".into(),
            platform: "RV".into(),
            collector_id: 2,
            peers: hard
                .iter()
                .flat_map(|&asn| [(asn, FeedKind::Full), (asn, FeedKind::CustomerRoutesOnly)])
                .collect(),
        });

        let Some((_, reference)) = reference_run(&topo, &configs, &collectors, &originations)
        else {
            return Ok(()); // oscillating world, nothing to compare
        };
        let mut sim = spec_for(&topo, configs, collectors).compile();
        let run = sim.run(&originations);
        prop_assert!(run.converged, "reference converged but the engine did not");
        prop_assert_eq!(&run.observations, &reference, "the sweep missed or invented news");

        sim.set_threads(threads);
        prop_assert_eq!(&sim.run(&originations).observations, &reference, "sharded sweep diverged");

        let own = |eps: &[Origination]| -> Vec<Origination> {
            eps.iter().filter(|o| o.prefix == prefix).cloned().collect()
        };
        let (_, snap) = sim.run_snapshot(&own(&baseline), prefix);
        let replayed = sim.run_delta(&snap, &delta);
        let reference_rows: ReferenceFeeds = reference
            .iter()
            .map(|(name, feed)| {
                (name.clone(), feed.iter().filter(|o| o.prefix == prefix).cloned().collect())
            })
            .collect();
        prop_assert_eq!(&replayed.observations, &reference_rows, "delta sweep diverged");
        prop_assert_eq!(&replayed, &sim.run(&own(&originations)));
    }

    /// Churn-heavy schedules — every episode immediately applied twice —
    /// exercise the steady-state skip: applying an origination is
    /// idempotent, so each duplicate must converge with **zero** extra
    /// propagation events and zero extra observations, making the doubled
    /// schedule's result bit-identical to the plain one. (The per-prefix
    /// episode sort is stable, so a same-time duplicate stays adjacent.)
    #[test]
    fn duplicated_episodes_are_free_and_deterministic(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let churny: Vec<Origination> = originations
            .iter()
            .flat_map(|o| [o.clone(), o.clone()])
            .collect();

        let mut sim = spec_for(&topo, configs, collectors).compile();
        let base = sim.run(&originations);
        let churned = sim.run(&churny);
        prop_assert_eq!(
            &base, &churned,
            "idempotent duplicate episodes must be event-free steady state"
        );

        sim.set_threads(threads);
        prop_assert_eq!(&sim.run(&churny), &churned, "sharded churny run diverged");
    }

    /// Session reuse on generated internets: interleaving *different*
    /// schedules on one session must not leak state between runs.
    #[test]
    fn interleaved_schedules_do_not_contaminate_a_session(seed in 0u64..32) {
        let topo = TopologyParams::tiny().seed(seed).build();
        let alloc = bgpworms_topology::PrefixAllocation::assign(
            &topo,
            bgpworms_topology::addressing::AddressingParams::default(),
        );
        let baseline: Vec<Origination> = alloc
            .iter()
            .map(|(asn, prefix)| Origination::announce(asn, prefix, vec![]))
            .collect();
        let mut attacked = baseline.clone();
        if let Some(first) = attacked.first().cloned() {
            attacked.push(
                Origination::announce(
                    first.origin,
                    first.prefix,
                    vec![Community::new(666, 666)],
                )
                .at(first.time + 1000),
            );
        }

        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let base_1 = sim.run(&baseline);
        let attack_1 = sim.run(&attacked);
        let base_2 = sim.run(&baseline);
        let attack_2 = sim.run(&attacked);
        prop_assert_eq!(&base_1, &base_2, "baseline polluted by attack run");
        prop_assert_eq!(&attack_1, &attack_2, "attack run not reproducible");
    }

    /// Campaign differential: the chunked streaming fold over `N` worker
    /// threads must equal the collect-then-fold single-threaded reference
    /// (one thread, then a plain sequential fold of the
    /// collected outcomes) — and rebuilding a [`SimResult`] from the
    /// streamed aggregate (`rebuild_sim_result`, the merge written out
    /// independently here) must be bit-identical to [`CompiledSim::run`],
    /// the same driver finished by the engine. Streaming, chunking, and
    /// sharding are memory/throughput levers, never semantic ones.
    #[test]
    fn campaign_streaming_equals_collect_then_fold(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let mut sim = spec_for(&topo, configs, collectors).compile();

        // Reference: collect every per-prefix outcome single-threaded,
        // then fold the collection sequentially outside the driver. (On
        // worlds this small the driver chunks every schedule per prefix,
        // so the two campaign runs differ in worker count, not chunk
        // shape; the *independent* part is the cross-check at the end,
        // which holds `CompiledSim::run`'s finishing step to this file's
        // own merge.)
        let collected = Campaign::new(&sim).run(&originations, KeyedSink::default);
        let mut reference = KeyedSink::default();
        for (prefix, outcome) in collected.sink.0 {
            reference.fold(prefix, outcome);
        }

        // Streamed: parallel workers.
        sim.set_threads(threads);
        let streamed = Campaign::new(&sim).run(&originations, KeyedSink::default);
        prop_assert_eq!(&streamed.sink, &reference, "streaming fold diverged");
        prop_assert_eq!(streamed.events, collected.events);
        prop_assert_eq!(streamed.converged, collected.converged);

        // And the streamed aggregate carries everything `run` produces.
        let direct = sim.run(&originations);
        let rebuilt = rebuild_sim_result(&sim, &streamed.sink);
        prop_assert_eq!(&rebuilt, &direct, "campaign lost or reordered data");
    }

    /// Scratch reuse ≡ fresh state per prefix: a combined multi-prefix run
    /// (threads = 1 ⇒ every prefix recycles one worker scratch, in prefix
    /// order) must equal the merge of one single-prefix `run` call per
    /// prefix (each on a factory-fresh scratch) — and the same through the
    /// sharded path and the streaming campaign driver, whose workers each
    /// recycle their own scratch across claimed chunks.
    #[test]
    fn scratch_reuse_equals_fresh_state_per_prefix(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let mut sim = spec_for(&topo, configs, collectors).compile();

        let reference = fresh_state_reference(&sim, &originations);
        let combined = sim.run(&originations);
        prop_assert_eq!(&combined, &reference, "sequential scratch reuse leaked state");

        sim.set_threads(threads);
        prop_assert_eq!(&sim.run(&originations), &reference, "sharded scratch reuse leaked state");

        let streamed = Campaign::new(&sim).run(&originations, KeyedSink::default);
        prop_assert_eq!(
            &rebuild_sim_result(&sim, &streamed.sink),
            &reference,
            "campaign scratch reuse leaked state"
        );
    }

    /// Interleaved flood footprints: a schedule alternating wide floods
    /// (plain announcements that reach the whole graph) with narrow ones
    /// (`NO_ADVERTISE` pins the route to its origin, so the prefix touches
    /// one node) must not let a big flood's generation-stamped leftovers
    /// surface in a later prefix — in either interleaving order, with a
    /// withdrawal churning one wide prefix in between.
    #[test]
    fn interleaved_flood_footprints_do_not_leak(seed in 0u64..32, narrow_first in any::<bool>()) {
        let topo = TopologyParams::tiny().seed(seed).build();
        let alloc = bgpworms_topology::PrefixAllocation::assign(
            &topo,
            bgpworms_topology::addressing::AddressingParams::default(),
        );
        let origins: Vec<Asn> = alloc.iter().map(|(asn, _)| asn).collect();
        prop_assert!(origins.len() >= 2, "tiny() always allocates prefixes");

        // Prefixes are processed in ascending prefix order, so the
        // third-octet index pins the big/tiny/big interleaving exactly.
        let mut originations = Vec::new();
        let mut churned = false;
        for k in 0..6u8 {
            let prefix: Prefix = format!("10.{k}.0.0/16").parse().expect("valid prefix");
            let origin = origins[k as usize % origins.len()];
            let narrow = (k % 2 == 0) == narrow_first;
            let communities = if narrow {
                vec![Community::NO_ADVERTISE]
            } else {
                vec![Community::new(7, 70 + u16::from(k))]
            };
            originations.push(Origination::announce(origin, prefix, communities));
            if !churned && !narrow {
                // Churn the first wide prefix (whichever position the
                // interleaving order puts it at): announce then withdraw,
                // leaving stamped-but-routeless state behind for later
                // prefixes in both orders.
                originations.push(Origination::withdrawal(origin, prefix, 500));
                churned = true;
            }
        }

        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let reference = fresh_state_reference(&sim, &originations);
        let combined = sim.run(&originations);
        prop_assert_eq!(&combined, &reference, "footprint interleaving leaked state");
    }

    /// Checkpoint/resume: stopping a campaign after any number of chunks
    /// and resuming it — even with a different worker count — must be
    /// bit-identical to the uninterrupted run.
    #[test]
    fn campaign_checkpoint_resume_equals_uninterrupted(
        raw in arb_world(),
        threads in 2usize..6,
        stop_after in 1usize..5,
    ) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let mut sim = spec_for(&topo, configs, collectors).compile();
        let full = Campaign::new(&sim).run(&originations, KeyedSink::default);

        let campaign = Campaign::new(&sim);
        let (cp, _finished) = campaign.run_chunks(
            &originations,
            campaign.begin(KeyedSink::default()),
            KeyedSink::default,
            stop_after,
        );
        // Resume under a different thread count: the checkpoint must not
        // bake any scheduling state in.
        sim.set_threads(threads);
        let resumed = Campaign::new(&sim).resume(&originations, cp, KeyedSink::default);
        prop_assert_eq!(&resumed.sink, &full.sink, "resume diverged");
        prop_assert_eq!(resumed.events, full.events);
        prop_assert_eq!(resumed.chunks, full.chunks);
        prop_assert_eq!(resumed.converged, full.converged);
        prop_assert_eq!(
            (resumed.class_sims, resumed.class_hits),
            (full.class_sims, full.class_hits),
            "resumed class statistics diverged from uninterrupted run"
        );
    }

    /// Flood memoization: replaying one class representative's outcome for
    /// every class member must be bit-identical to simulating each member
    /// individually — on arbitrary worlds, across `threads = 1/N`, with
    /// identical class-hit counters on both paths.
    #[test]
    fn memoization_never_changes_campaign_output(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let mut sim = spec_for(&topo, configs, collectors).compile();
        for t in [1, threads] {
            sim.set_threads(t);
            let memoized = Campaign::new(&sim).run(&originations, KeyedSink::default);
            let plain = Campaign::unmemoized_reference(&sim).run(&originations, KeyedSink::default);
            prop_assert_eq!(&memoized.sink, &plain.sink, "memoized fold diverged, threads = {}", t);
            prop_assert_eq!(memoized.events, plain.events);
            prop_assert_eq!(memoized.converged, plain.converged);
            prop_assert_eq!(
                (memoized.class_sims, memoized.class_hits),
                (plain.class_sims, plain.class_hits),
                "class counters depend on the execution strategy"
            );
            prop_assert_eq!(
                memoized.class_sims + memoized.class_hits,
                memoized.sink.0.len() as u64,
                "counters must partition the prefix set"
            );
        }
    }

    /// Delta re-convergence ≡ fresh run: snapshot the converged baseline of
    /// one prefix's own schedule on an arbitrary world, append arbitrary
    /// perturbations (community-changing announcements and withdrawals),
    /// and the replay must be bit-identical to flooding the combined
    /// schedule from scratch — as the `run_delta` result against a fresh
    /// `run`, and as the `run_delta_prefix` outcome against what the prefix
    /// folds to inside the *whole* world's schedule, at `threads = 1/N` on
    /// the fresh side. Capture and replay never depend on the thread count.
    #[test]
    fn delta_reconvergence_equals_fresh_run(
        raw in arb_world(),
        threads in 2usize..6,
        perturbations in proptest::collection::vec(
            (0usize..16, 0u16..1000, any::<bool>()),
            1..4,
        ),
    ) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let mut sim = spec_for(&topo, configs, collectors).compile();

        // Perturb the first episode's prefix, strictly after its baseline.
        let target = originations[0].prefix;
        let baseline: Vec<Origination> = originations
            .iter()
            .filter(|o| o.prefix == target)
            .cloned()
            .collect();
        let last_time = baseline
            .iter()
            .map(|o| o.time)
            .max()
            .expect("the target prefix has at least one episode");
        let delta: Vec<Origination> = perturbations
            .iter()
            .enumerate()
            .map(|(k, &(origin, community, withdraw))| {
                let origin = Asn::new((origin % raw.n_nodes) as u32 + 1);
                let time = last_time + 100 * (k as u32 + 1);
                if withdraw {
                    Origination::withdrawal(origin, target, time)
                } else {
                    Origination::announce(
                        origin,
                        target,
                        vec![Community::new(community % 16, community)],
                    )
                    .at(time)
                }
            })
            .collect();
        let mut combined = baseline.clone();
        combined.extend(delta.iter().cloned());
        let mut whole = originations.clone();
        whole.extend(delta.iter().cloned());

        let (base, snap) = sim.run_snapshot(&baseline, target);
        prop_assert_eq!(&base, &sim.run(&baseline), "run_snapshot changed the run");
        let replayed = sim.run_delta(&snap, &delta);
        let outcome = sim.run_delta_prefix(&snap, &delta);

        for t in [1, threads] {
            sim.set_threads(t);
            prop_assert_eq!(
                &sim.run(&combined), &replayed,
                "delta diverged from the fresh combined run, threads = {}", t
            );
            let streamed = Campaign::new(&sim).run(&whole, KeyedSink::default);
            prop_assert_eq!(
                &streamed.sink.0[&target], &outcome,
                "delta diverged from the prefix's fold in the whole schedule, threads = {}", t
            );
        }

        // `threads` shards prefixes only: the capture and its replay at
        // `threads = N` are the `threads = 1` ones.
        let (par_base, par_snap) = sim.run_snapshot(&baseline, target);
        prop_assert_eq!(&par_base, &base, "capturing run diverged");
        prop_assert_eq!(&par_snap, &snap, "capture diverged");
        prop_assert_eq!(&sim.run_delta_prefix(&par_snap, &delta), &outcome);
    }

    /// Elided ≡ full. An unretained campaign flood counts deliveries to
    /// unread leaves (no customer, no collector session, not a route server)
    /// and drops them; a retained one parks them (see the next property);
    /// `run_snapshot`'s capture flood simulates every delivery. On worlds
    /// forced to hold the shapes that could tell them apart (see
    /// `with_unread_shapes`), the `RetainRoutes::None` session must report
    /// the observations, events and convergence of the same spec compiled
    /// `RetainRoutes::All`, at `threads = 1/N`, and per prefix exactly what
    /// `run_snapshot` of the prefix's own episodes reports.
    #[test]
    fn unretained_floods_equal_retained_and_snapshot_floods(
        raw in arb_world(),
        threads in 2usize..6,
    ) {
        let (topo, configs, collectors, originations) = with_unread_shapes(&raw);
        let spec = spec_for(&topo, configs, collectors);
        let mut elided = spec.clone().retain(RetainRoutes::None).compile();
        let mut full = spec.compile();
        prop_assert!(elided.unread_nodes() >= 3, "the three added stubs are unread");
        prop_assert_eq!(elided.unread_nodes(), full.unread_nodes());

        for t in [1, threads] {
            elided.set_threads(t);
            full.set_threads(t);
            let (got, want) = (elided.run(&originations), full.run(&originations));
            prop_assert!(got.final_routes.is_empty() && !want.final_routes.is_empty());
            prop_assert_eq!(&got.observations, &want.observations, "threads = {}", t);
            prop_assert_eq!(got.events, want.events, "threads = {}", t);
            prop_assert_eq!(got.converged, want.converged, "threads = {}", t);
        }

        let mut by_prefix: BTreeMap<Prefix, Vec<Origination>> = BTreeMap::new();
        for o in &originations {
            by_prefix.entry(o.prefix).or_default().push(o.clone());
        }
        for (prefix, own) in by_prefix {
            let (captured, _) = elided.run_snapshot(&own, prefix);
            prop_assert_eq!(&elided.run(&own), &captured, "prefix {}", prefix);
        }
    }

    /// Parked ≡ full. A retained campaign flood parks a delivery to an
    /// unread leaf that does not originate: the raw route goes into the
    /// leaf's slot, with no admission and no dirty mark, so the leaf runs no
    /// export pass. Before the retention sweep each parked leaf imports what
    /// each of its slots received last, once. `run_snapshot(..).0` floods
    /// every delivery and is the un-parked oracle: on worlds forced to hold
    /// every shape a leaf can hide behind (`with_unread_shapes`), a retained
    /// campaign, memoized and not, at `threads = 1/N`, must fold for each
    /// prefix the final routes, observations, events and convergence that
    /// `run_snapshot` of the prefix's own episodes returns.
    #[test]
    fn retained_campaign_floods_equal_their_snapshot_twins(
        raw in arb_world(),
        threads in 2usize..6,
    ) {
        let (topo, configs, collectors, originations) = with_unread_shapes(&raw);
        let mut sim = spec_for(&topo, configs, collectors).compile();
        let mut by_prefix: BTreeMap<Prefix, Vec<Origination>> = BTreeMap::new();
        for o in &originations {
            by_prefix.entry(o.prefix).or_default().push(o.clone());
        }
        let twins: BTreeMap<Prefix, SimResult> = by_prefix
            .iter()
            .map(|(&prefix, own)| (prefix, sim.run_snapshot(own, prefix).0))
            .collect();

        for t in [1, threads] {
            sim.set_threads(t);
            for (memoized, campaign) in [
                (true, Campaign::new(&sim)),
                (false, Campaign::unmemoized_reference(&sim)),
            ] {
                let run = campaign.run(&originations, KeyedSink::default);
                prop_assert_eq!(run.sink.0.len(), twins.len());
                for (prefix, outcome) in run.sink.0 {
                    let one = KeyedSink(BTreeMap::from([(prefix, outcome)]));
                    let folded = rebuild_sim_result(&sim, &one);
                    prop_assert_eq!(
                        &folded, &twins[&prefix],
                        "prefix {}, threads = {}, memoized = {}", prefix, t, memoized
                    );
                }
            }
        }
    }

    /// Cache hit ≡ clone + apply + intern. Random receivers (ordinary and
    /// route-server, with ingress tagging, RTBH with and without
    /// `set_no_export`, steering services, vendor caps and local-pref
    /// overrides drawn per delivery) import a small pool of advertisements
    /// from random senders through **one** arena, so repeats hit its
    /// derivation cache. Each delivery is replayed on a cold arena — where
    /// it cannot hit — and the replay's route is interned into a twin; the
    /// two must agree on verdict, route content, route id and length.
    #[test]
    fn import_through_the_derivation_cache_equals_clone_apply_intern(
        deliveries in proptest::collection::vec(
            (1u32..5, 0u16..256, 1u32..4, 0u8..3, 0usize..4),
            1..40,
        ),
    ) {
        let irr = IrrDatabase::new();
        let rpki = IrrDatabase::new();
        let vctx = ValidationCtx { irr: &irr, rpki: &rpki };
        // Every receiver's steering and blackhole communities ride on some
        // advertisement, so the services below do fire.
        let steer: Vec<Community> =
            (1..5).flat_map(|r| [Community::new(r, 70), Community::new(r, 422)]).collect();
        let pool = [
            vec![],
            vec![Community::BLACKHOLE],
            steer,
            vec![Community::new(2, 666), Community::NO_EXPORT],
        ];
        let advert = |ix: usize, sender: u32| {
            let mut r = Route::originate(pool[ix].clone());
            r.path = [sender + 100, 200].into_iter().map(Asn::new).collect();
            r.local_pref = 0;
            r
        };
        // One delivery on `arena`: the verdict and the installed route.
        let deliver = |arena: &mut RouteArena, recv: u32, bits: u16, sender: u32, role: u8, ix: usize| {
            let mut cfg = RouterConfig::defaults(Asn::new(recv));
            cfg.tagging.tag_origin_class = bits & 1 != 0;
            cfg.tagging.tag_ingress_location = bits & 2 != 0;
            if bits & 4 != 0 {
                cfg.services.blackhole = Some(BlackholeService {
                    set_no_export: bits & 8 != 0,
                    ..BlackholeService::default()
                });
            }
            if bits & 16 != 0 {
                cfg.services.local_pref.insert(70, 70);
                cfg.services.prepend.insert(422, 2);
            }
            if bits & 32 != 0 {
                cfg.vendor = bgpworms_routesim::Vendor::Cisco;
            }
            if bits & 64 != 0 {
                cfg.local_pref.peer += 5;
            }
            let is_route_server = bits & 128 != 0;
            let role = [Role::Customer, Role::Peer, Role::Provider][usize::from(role)];
            let incoming = arena.intern(advert(ix, sender));
            let (mut rib_in, mut local, mut exported, mut last) = ([None], None, [None], None);
            let prefix = "10.0.0.0/24".parse().expect("valid prefix");
            let mut node = NodeState::new(
                Asn::new(recv), is_route_server, prefix,
                &mut rib_in, &mut local, &mut exported, &mut last,
            );
            let verdict = node.import(&cfg, Asn::new(sender + 100), 0, role, Some(incoming), arena, vctx);
            (verdict, node.best(arena).cloned())
        };

        let mut warm = RouteArena::new();
        let mut twin = RouteArena::new();
        for &(recv, bits, sender, role, ix) in &deliveries {
            let (verdict, got) = deliver(&mut warm, recv, bits, sender, role, ix);
            let mut cold = RouteArena::new();
            let (cold_verdict, want) = deliver(&mut cold, recv, bits, sender, role, ix);
            prop_assert_eq!(verdict, cold_verdict);
            prop_assert_eq!(&got, &want, "a cached derivation changed the imported route");
            twin.intern(advert(ix, sender));
            if let (Some(got), Some(want)) = (got, want) {
                // Hash-consing makes `intern` of stored content the lookup
                // of its id: on `warm` it must find the RIB's route.
                let len = warm.len();
                let id = warm.intern(got);
                prop_assert_eq!(warm.len(), len, "the installed route was not in the arena");
                prop_assert_eq!(twin.intern(want), id, "ids drifted from arrival order");
            }
            prop_assert_eq!(warm.len(), twin.len());
        }
        prop_assert_eq!(&warm, &twin);
    }

    /// Memoization under prefix-sensitive policy: worlds seasoned with
    /// origin validation (against *partially* registered IRR/RPKI, so the
    /// registration bits genuinely split classes), blackhole length floors,
    /// tight `max_prefix_len_v4`, and exact-prefix targeted-egress tagging
    /// (which forces singleton classes). The classifier must split — never
    /// merge — across every one of these features, keeping
    /// memoized ≡ unmemoized bit-for-bit.
    #[test]
    fn memoization_survives_prefix_sensitive_policies(
        raw in arb_world(),
        threads in 2usize..6,
        picks in proptest::collection::vec((0usize..16, 0u8..4), 1..6),
    ) {
        let (topo, mut configs, collectors, originations) = build_world(&raw);
        let n = raw.n_nodes;
        for (i, &(idx, kind)) in picks.iter().enumerate() {
            let asn = Asn::new((idx % n) as u32 + 1);
            let mut cfg = RouterConfig::defaults(asn);
            match kind {
                0 => cfg.validation = OriginValidation::Irr { validate_after_blackhole: false },
                1 => cfg.validation = OriginValidation::Strict,
                2 => {
                    cfg.services.blackhole = Some(BlackholeService::default());
                    cfg.max_prefix_len_v4 = 14; // the /16 schedule is "too specific"
                }
                _ => {
                    let target = originations[i % originations.len()].prefix;
                    cfg.tagging.targeted_egress = vec![(target, Community::new(64_511, 1))];
                }
            }
            configs.push(cfg);
        }
        let mut spec = spec_for(&topo, configs, collectors);
        // Partial registration: every other episode's (prefix, origin) pair
        // goes into the registries, so validation outcomes differ between
        // same-origin prefixes.
        for (i, o) in originations.iter().enumerate() {
            if i % 2 == 0 {
                spec = spec.register_irr(o.prefix, o.origin).register_rpki(o.prefix, o.origin);
            }
        }
        let mut sim = spec.compile();
        for t in [1, threads] {
            sim.set_threads(t);
            let memoized = Campaign::new(&sim).run(&originations, KeyedSink::default);
            let plain = Campaign::unmemoized_reference(&sim).run(&originations, KeyedSink::default);
            prop_assert_eq!(
                &memoized.sink, &plain.sink,
                "memoization corrupted a prefix-sensitive world, threads = {}", t
            );
            prop_assert_eq!(memoized.events, plain.events);
        }
    }

    /// ROADMAP item 3(b), first property — *well-known-community routes
    /// never appear beyond their scope* — stated from the RFCs over what a
    /// converged run retains, with no `router.rs` helper: every
    /// announcement of one drawn origin additionally carries `NO_EXPORT`,
    /// `NO_ADVERTISE` (RFC 1997: not beyond the receiving AS, not to any
    /// peer), `NO_PEER` (RFC 3765: not over bilateral peering) or
    /// `BLACKHOLE`, which a drawn RTBH target answers by adding `NO_EXPORT`
    /// itself. Then no AS's final route was learned from a neighbour whose
    /// own final route for the prefix carries `NO_EXPORT` or `NO_ADVERTISE`,
    /// and none over a peer link from an AS whose route carries `NO_PEER`
    /// (an IXP route server redistributes multilaterally and is outside
    /// RFC 3765's wording as an announcer; a member announcing *to* it is
    /// held to `NO_PEER` like any other peer).
    #[test]
    fn well_known_communities_keep_routes_inside_their_scope(
        raw in arb_world(),
        (tag, tagged, target) in (0usize..4, 0usize..16, 0usize..16),
    ) {
        let (topo, mut configs, collectors, mut originations) = build_world(&raw);
        let well_known = [
            Community::NO_EXPORT,
            Community::NO_ADVERTISE,
            Community::NO_PEER,
            Community::BLACKHOLE,
        ][tag];
        let origin = originations[tagged % originations.len()].origin;
        for o in originations.iter_mut().filter(|o| o.origin == origin && !o.withdraw) {
            o.communities.push(well_known);
        }
        let target = Asn::new((target % raw.n_nodes) as u32 + 1);
        let mut rtbh = RouterConfig::defaults(target);
        rtbh.services.blackhole = Some(BlackholeService {
            min_prefix_len: 16, // the schedule's prefixes are /16s
            set_no_export: true,
            ..BlackholeService::default()
        });
        configs.push(rtbh);
        let res = spec_for(&topo, configs, collectors).compile().run(&originations);
        if !res.converged {
            return Ok(()); // an oscillating world has no converged state to read
        }

        for (prefix, finals) in &res.final_routes {
            // What puts a blackholing target under the statement below.
            if let Some(blackholed) = finals.get(&target).filter(|route| route.blackholed) {
                prop_assert!(blackholed.communities.contains(&Community::NO_EXPORT));
            }
            for (&asn, route) in finals.iter() {
                let Some(from) = route.source.neighbor() else {
                    continue; // its own origination
                };
                let Some(theirs) = finals.get(&from) else {
                    panic!("{asn} learned {prefix} from {from}, which holds no route");
                };
                for scoped in [Community::NO_EXPORT, Community::NO_ADVERTISE] {
                    prop_assert!(
                        !theirs.communities.contains(&scoped),
                        "{asn} learned {prefix} from {from}, whose route carries {scoped}"
                    );
                }
                let over_peering = topo.role_of(asn, from) == Some(Role::Peer);
                let from_route_server =
                    topo.node(from).is_some_and(|n| n.tier == Tier::RouteServer);
                if over_peering && !from_route_server {
                    prop_assert!(
                        !theirs.communities.contains(&Community::NO_PEER),
                        "{asn} learned {prefix} over peering from {from}, whose route is NO_PEER"
                    );
                }
            }
        }
    }

    /// ROADMAP item 3(b), second property — *a blackhole community is
    /// honoured only by ASes offering the service, only at or beyond the
    /// service's `min_prefix_len`, and only within its scope* — stated over
    /// what a converged run retains, the configs and the topology, with no
    /// `router.rs` helper. One drawn origin tags its announcements with
    /// `BLACKHOLE` or with one offering AS's own `hi:666`; two or three
    /// drawn ASes offer RTBH, each with a length floor of 8, 16 or 24 (the
    /// schedule's prefixes are /16s, so 24 never fires) and a drawn scope.
    #[test]
    fn blackholing_is_honoured_only_where_offered_long_enough_and_in_scope(
        raw in arb_world(),
        (tagged, own, target) in (0usize..16, any::<bool>(), 0usize..4),
        offers in proptest::collection::vec((0usize..16, 0usize..3, any::<bool>()), 2..4),
    ) {
        let (topo, configs, collectors, mut originations) = build_world(&raw);
        let asn_of = |i: usize| Asn::new((i % raw.n_nodes) as u32 + 1);
        let mut resolved: BTreeMap<Asn, RouterConfig> =
            configs.into_iter().map(|cfg| (cfg.asn, cfg)).collect();
        for &(at, floor, customers_only) in &offers {
            let asn = asn_of(at);
            let cfg = resolved.entry(asn).or_insert_with(|| RouterConfig::defaults(asn));
            cfg.services.blackhole = Some(BlackholeService {
                min_prefix_len: [8, 16, 24][floor],
                scope: if customers_only { ActScope::CustomersOnly } else { ActScope::Any },
                ..BlackholeService::default()
            });
        }
        let trigger = if own {
            let target = asn_of(offers[target % offers.len()].0);
            Community::new(target.as_u16().expect("a 2-byte test ASN"), 666)
        } else {
            Community::BLACKHOLE
        };
        let origin = originations[tagged % originations.len()].origin;
        for o in originations.iter_mut().filter(|o| o.origin == origin && !o.withdraw) {
            o.communities.push(trigger);
        }
        let res = spec_for(&topo, resolved.values().cloned().collect(), collectors)
            .compile()
            .run(&originations);
        if !res.converged {
            return Ok(()); // an oscillating world has no converged state to read
        }

        for (prefix, finals) in &res.final_routes {
            for (&asn, route) in finals.iter().filter(|(_, route)| route.blackholed) {
                let Some(offer) = resolved.get(&asn).and_then(|cfg| cfg.services.blackhole.as_ref())
                else {
                    panic!("{asn} blackholed {prefix} without offering RTBH");
                };
                prop_assert!(
                    prefix.len() >= offer.min_prefix_len,
                    "{asn} blackholed {prefix}, shorter than its floor /{}", offer.min_prefix_len
                );
                let own = asn.as_u16().map(|hi| Community::new(hi, offer.value));
                prop_assert!(
                    route.communities.contains(&Community::BLACKHOLE)
                        || own.is_some_and(|own| route.communities.contains(&own)),
                    "{asn} blackholed {prefix} without a trigger"
                );
                if offer.scope == ActScope::CustomersOnly {
                    let from = route.source.neighbor();
                    prop_assert!(
                        from.is_some_and(|from| topo.role_of(asn, from) == Some(Role::Customer)),
                        "{asn} blackholed {prefix} for {from:?}, which is not its customer"
                    );
                }
            }
        }
    }

    /// ROADMAP item 3(b), third property — *the §8 defense sends a receiver
    /// only what the receiver owns* — read off `ScopedToReceiver`'s doc
    /// comment, not off `router.rs`, over what a converged run retains, the
    /// configs and the topology. One to three drawn ASes run the defense
    /// (over `build_world`'s own policy draws), each tagging its ingress
    /// class and adding an egress tag or not. Then every community on a
    /// route that an AS R learned from a defended, ordinary AS N is R's own,
    /// well-known, or one N adds itself (its ingress tags, as its own route
    /// records them, and its egress tags). Collector sessions are exempt
    /// and not read. The retained run parks deliveries to unread leaves, so
    /// this also checks what a parked leaf resolves to.
    #[test]
    fn a_scoped_to_receiver_as_forwards_each_receiver_only_its_own_communities(
        raw in arb_world(),
        defended in proptest::collection::vec((0usize..16, 0u8..4), 1..4),
    ) {
        let (topo, mut configs, collectors, originations) = build_world(&raw);
        let egress_tag = Community::new(15, 4242);
        for &(at, tags) in &defended {
            let mut cfg = RouterConfig::defaults(Asn::new((at % raw.n_nodes) as u32 + 1));
            cfg.propagation = CommunityPropagationPolicy::ScopedToReceiver;
            cfg.tagging.tag_origin_class = tags & 1 != 0;
            if tags & 2 != 0 {
                cfg.tagging.egress_tags.push(egress_tag);
            }
            configs.push(cfg);
        }
        // The config each AS runs: a later entry for an AS replaces an
        // earlier one, as `SimSpec::configure` does.
        let resolved: BTreeMap<Asn, RouterConfig> =
            configs.iter().map(|cfg| (cfg.asn, cfg.clone())).collect();
        let res = spec_for(&topo, configs, collectors).compile().run(&originations);
        if !res.converged {
            return Ok(()); // an oscillating world has no converged state to read
        }

        for (prefix, finals) in &res.final_routes {
            for (&asn, route) in finals.iter() {
                let Some(from) = route.source.neighbor() else {
                    continue; // its own origination
                };
                let Some(cfg) = resolved.get(&from) else {
                    continue; // a default config forwards everything
                };
                let defended = cfg.propagation == CommunityPropagationPolicy::ScopedToReceiver;
                if !defended || topo.node(from).is_some_and(|n| n.tier == Tier::RouteServer) {
                    continue; // a route server never reads its propagation policy
                }
                let Some(theirs) = finals.get(&from) else {
                    panic!("{asn} learned {prefix} from {from}, which holds no route");
                };
                let added: Vec<Community> = theirs
                    .own_tags
                    .iter()
                    .flatten()
                    .chain(&cfg.tagging.egress_tags)
                    .copied()
                    .collect();
                for &c in &route.communities {
                    prop_assert!(
                        asn.as_u16() == Some(c.asn_part())
                            || c.well_known().is_some()
                            || added.contains(&c),
                        "{asn} holds {c} on {prefix} from {from}, which runs ScopedToReceiver"
                    );
                }
            }
        }
    }
}
