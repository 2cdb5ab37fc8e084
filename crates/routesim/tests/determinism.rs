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
//! * **Collector-sweep transparency under a budget cut** — a flood cut by
//!   its event budget leaves nodes holding routes no export pass looked
//!   at; the engine reads them off the nodes the cut left dirty, after the
//!   records of the passes that ran. Cut at every budget below its
//!   converged delivery count, it must report what a reference with the
//!   engine's own batching, cut at the same delivery, hears by asking
//!   every session the long way.
//! * **Scratch-reuse transparency** — a multi-prefix schedule runs every
//!   prefix on a worker's recycled `SimScratch` (generation-stamped flat
//!   RIB arrays, reset arena/queue/dirty set), while a schedule of one
//!   prefix per `run` call gives each prefix a factory-fresh scratch. The
//!   combined run must equal the union of the single-prefix runs — on
//!   arbitrary worlds and on schedules engineered to interleave wide and
//!   narrow flood footprints, so stale stamped state from a big flood can
//!   never leak into a later prefix.
//! * **Delta-re-convergence transparency** — continuing a converged
//!   [`bgpworms_routesim::SimSnapshot`] of one prefix's schedule and
//!   converging only appended perturbation episodes (`run_delta` /
//!   `run_delta_prefix`) must be bit-identical to rerunning that prefix's
//!   combined schedule from scratch — alone or inside the whole schedule,
//!   at `threads = 1/N`, on the snapshot's session or one compiled apart
//!   — on arbitrary worlds, for withdrawals and
//!   community-changing perturbations alike. Snapshots are a replay
//!   shortcut, never a semantic one.
//! * **Elision transparency** — a campaign flood counts deliveries to
//!   *unread leaves* (no customer, no collector session, not a route
//!   server): it drops them unless the session is `RetainRoutes::All`,
//!   which floods in full. `run_snapshot`'s flood simulates every delivery
//!   and is the oracle: on worlds built to contain every shape a leaf can
//!   hide behind, the unretained session must report its observations,
//!   events and convergence, and the `All` campaign, memoized or not, at
//!   `threads = 1/N`, its final routes as well.
//! * **`Prefixes` retention keeps what a packet can meet** — a campaign
//!   under `RetainRoutes::Prefixes` drops the deliveries to unread leaves
//!   that neither originate nor are readers: its outcome is the `All`
//!   campaign's with the final routes restricted to every other AS, key
//!   set and all.
//! * **A snapshot and delta keep what their campaign keeps** — a delta on
//!   a snapshot's clone under `RetainRoutes::Prefixes` drops the
//!   deliveries a campaign flood drops, exempting the baseline's
//!   originators as well as its own, and the retention sweep of the
//!   snapshot and of the delta skips the leaves the campaign never
//!   reached: `run_snapshot` + `run_delta_prefix` is the `Prefixes`
//!   campaign of baseline ++ delta, and the `All` one restricted to the
//!   same key set.
//! * **Collector sessions are passive taps** — compiling a world without
//!   its collectors changes what is observed and which stubs are unread,
//!   never the routes, the event count or convergence, through `run` and
//!   through a snapshot plus a delta.
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
//! * **A stripping AS passes nothing on** — read off `StripAll`'s doc
//!   comment: a collector that hears a route through a `StripAll` AS
//!   strictly between the origin and its peer hears none of the
//!   communities or large communities the origin announced, unless an AS
//!   nearer the collector adds the value itself.
//! * **Communities held are a fold over the path** — read off the
//!   propagation-policy, vendor and tagging doc comments: on worlds that
//!   draw vendors, `send-community` and ingress and egress tags, every
//!   retained route carries exactly the origination's list folded hop by
//!   hop along its own AS path.
//! * **Action communities settle at the stable-paths fixed point** — read
//!   off the `BlackholeService`, `CommunityServices`, `LocalPrefByRole`,
//!   `OriginValidation`, `IrrDatabase::is_registered` and `Route::prefer`
//!   doc comments: on worlds where every AS forwards every community or
//!   runs the §8 defense, some offer RTBH or steering, some validate
//!   origins against partly registered IRR and RPKI and a few hold 4-byte
//!   ASNs (which own no RFC 1997 community), a whole-table best
//!   response iterated to a fixed point names, per AS, the AS path and
//!   local-pref the engine converges to.
//! * **A registry answers what a scan of its objects answers** — read off
//!   the `IrrDatabase::is_registered` doc comment: over route objects that
//!   nest, repeat and sit side by side in both families, a bulk-loaded and
//!   a one-by-one-registered database are one table, and either finds a
//!   covering object exactly when a scan of every object does.

use bgpworms_routesim::route::RouteArena;
use bgpworms_routesim::router::{NodeState, RibEntry, ValidationCtx};
use bgpworms_routesim::{
    prepend_value, ActScope, BlackholeService, Campaign, CampaignSink, CollectorObservation,
    CollectorSpec, CommunityPropagationPolicy, CompiledSim, FeedKind, FinalRoutes, FloodStats,
    IrrDatabase, OriginValidation, Origination, PrefixOutcome, RetainRoutes, Route, RouteId,
    RouteSource, RouterConfig, RsEvalOrder, SimResult, SimSpec, Vendor, BLACKHOLE_VALUE,
    LOCATION_TAG_VALUES, MONITOR_ASN, ORIGIN_CLASS_VALUES,
};
use bgpworms_topology::{EdgeKind, NodeId, Role, Tier, Topology, TopologyParams};
use bgpworms_types::{Asn, Community, Ipv4Prefix, Ipv6Prefix, LargeCommunity, Prefix};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// What `arb_world()` does not draw and the community fold reads, per AS
/// (indexed like the nodes): the §6.1 vendor and `send-community` knob,
/// the `TaggingConfig` ingress and egress tags, and the three flags a
/// `Selective` policy of the AS gets.
#[derive(Debug, Clone)]
struct RawTagging {
    cisco: bool,
    send_configured: bool,
    location: bool,
    origin_class: bool,
    /// 0 or 1: no egress tag; 2: one; 3: 33, one past Cisco's cap.
    egress: u8,
    selective: (bool, bool, bool),
}

/// A seasoned `arb_world()` for the community fold (a copy, so the draws of
/// every other property stay where they are): per AS a `RawTagging`, and
/// per episode a community owned by a drawn AS plus, or not, a well-known
/// value (`GRACEFUL_SHUTDOWN`, which no policy acts on, or `NO_PEER`).
fn arb_tagged_world() -> impl Strategy<Value = (RawWorld, Vec<RawTagging>, Vec<(usize, u8)>)> {
    let tagging = (
        0u8..4,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..4,
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(vendor, send_configured, location, origin_class, egress, selective)| RawTagging {
                cisco: vendor == 0,
                send_configured,
                location,
                origin_class,
                egress,
                selective,
            },
        );
    (
        arb_world(),
        proptest::collection::vec(tagging, 16),
        proptest::collection::vec((0usize..16, 0u8..3), 16),
    )
}

/// Assembles the simulation input out of the raw draws, the `i`-th AS
/// numbered `i + 1`.
fn build_world(
    raw: &RawWorld,
) -> (
    Topology,
    Vec<RouterConfig>,
    Vec<CollectorSpec>,
    Vec<Origination>,
) {
    build_numbered_world(raw, |i| Asn::new(i as u32 + 1))
}

/// [`build_world`] with the `i`-th AS numbered `asn_of(i)`.
fn build_numbered_world(
    raw: &RawWorld,
    asn_of: impl Fn(usize) -> Asn,
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
        topo.add_simple(asn_of(i), tier);
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
        topo.add_edge(asn_of(a), asn_of(b), kind);
    }

    let mut configs = Vec::new();
    for &(idx, policy) in &raw.policies {
        let asn = asn_of(idx % n);
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
                    asn_of(idx % n),
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
            let origin = asn_of(e.origin % n);
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
/// originates the first prefix *after* another origin did (103, MOAS: a
/// retained table keeps a route at every originator, and after its
/// withdrawal that route is one it learned from its providers, so it must
/// keep hearing them), a forged-origin episode at a stub (104), and
/// withdrawals of all of it.
fn with_unread_shapes(
    raw: &RawWorld,
) -> (
    Topology,
    Vec<RouterConfig>,
    Vec<CollectorSpec>,
    Vec<Origination>,
) {
    let (mut topo, configs, mut collectors, mut originations) = build_world(raw);
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

/// The reference engine's final best route per (prefix, AS).
type ReferenceRoutes = BTreeMap<Prefix, BTreeMap<Asn, Route>>;

/// What the reference engine's collectors recorded, per collector name, in
/// the engine's merge order.
type ReferenceFeeds = BTreeMap<String, Vec<CollectorObservation>>;

/// A reference engine over the *same* `NodeState` policy code: FIFO event
/// queue, and every import immediately recomputes the receiver's exports
/// (no dirty set, no best-id skip). After every episode it asks every
/// collector session what its peer exports to the monitor —
/// `NodeState::export_for`, a RIB scan and a fresh derivation each time —
/// and records an observation when that changed. Returns the final best
/// route per (prefix, AS) and the collectors' feeds, or `None` when the
/// event budget blows.
///
/// It witnesses two claims, both in
/// `collector_sweep_matches_the_full_sweep_reference`: the batched engine
/// reaches the per-import loop's fixed point, and the engine's collector
/// sweep equals the full sweep it replaced.
fn reference_run(
    topo: &Topology,
    configs: &[RouterConfig],
    collectors: &[CollectorSpec],
    originations: &[Origination],
) -> Option<(ReferenceRoutes, ReferenceFeeds)> {
    let world = RefWorld::new(topo, configs, collectors);
    let budget = (topo.adjacency_len() as u64 * 64).max(10_000);
    let mut feeds = world.empty_feeds();
    let mut out = BTreeMap::new();
    for (prefix, episodes) in by_prefix(originations) {
        let mut flood = RefFlood::new(&world, prefix);
        for ep in episodes {
            let Some(origin) = flood.originate(ep) else {
                continue;
            };
            // Per-import immediate re-export, exactly the pre-batching shape.
            flood.emit(origin);
            while let Some(ev) = flood.queue.pop_front() {
                flood.events += 1;
                if flood.events > budget {
                    return None;
                }
                let to = flood.import(ev);
                flood.emit(to);
            }
            flood.sweep(ep.time, &mut feeds);
        }

        let mut finals = BTreeMap::new();
        for id in topo.node_ids() {
            if let Some(best) = flood.routers.node(id).best(&flood.arena) {
                finals.insert(topo.asn_of(id), best.clone());
            }
        }
        out.insert(prefix, finals);
    }
    sort_feeds(&mut feeds);
    Some((out, feeds))
}

/// The engine's own batching, cut where its event budget cuts it: after
/// an origination, a FIFO queue is drained between export rounds over
/// the dirty nodes in ascending order, every delivery counts against
/// `budget`, and the first one past it abandons the queue and the dirty
/// set — nodes keep what they imported without an export pass, and no
/// later episode delivers anything. After every episode it asks every
/// session the long way, as `reference_run` does. It witnesses
/// `a_cut_flood_reports_what_every_session_holds`: the engine's sweep of
/// a flood cut by its budget equals the full sweep.
fn cut_flood_reference(
    topo: &Topology,
    configs: &[RouterConfig],
    collectors: &[CollectorSpec],
    originations: &[Origination],
    budget: u64,
) -> ReferenceFeeds {
    let world = RefWorld::new(topo, configs, collectors);
    let mut feeds = world.empty_feeds();
    for (prefix, episodes) in by_prefix(originations) {
        let mut flood = RefFlood::new(&world, prefix);
        let mut dirty: BTreeSet<NodeId> = BTreeSet::new();
        for ep in episodes {
            let Some(origin) = flood.originate(ep) else {
                continue;
            };
            dirty.insert(origin);
            'converge: while !dirty.is_empty() {
                for id in std::mem::take(&mut dirty) {
                    flood.emit(id);
                }
                while let Some(ev) = flood.queue.pop_front() {
                    flood.events += 1;
                    if flood.events > budget {
                        flood.queue.clear();
                        break 'converge;
                    }
                    dirty.insert(flood.import(ev));
                }
            }
            dirty.clear();
            flood.sweep(ep.time, &mut feeds);
        }
    }
    sort_feeds(&mut feeds);
    feeds
}

/// A schedule's episodes per prefix, each prefix's in time order (stable,
/// as the engine orders them).
fn by_prefix(originations: &[Origination]) -> BTreeMap<Prefix, Vec<&Origination>> {
    let mut by_prefix: BTreeMap<Prefix, Vec<&Origination>> = BTreeMap::new();
    for o in originations {
        by_prefix.entry(o.prefix).or_default().push(o);
    }
    for eps in by_prefix.values_mut() {
        eps.sort_by_key(|o| o.time);
    }
    by_prefix
}

/// A feed in `SimResult`'s order.
fn sort_feeds(feeds: &mut ReferenceFeeds) {
    for feed in feeds.values_mut() {
        feed.sort_by_key(|o| (o.time, o.peer, o.prefix));
    }
}

/// What the reference engines read of a world: dense per-node configs and
/// the collector sessions.
struct RefWorld<'t> {
    topo: &'t Topology,
    configs: Vec<RouterConfig>,
    collectors: Vec<String>,
    /// Sessions in spec order: collector name, peer, the monitor's role.
    /// Peers outside the topology have none.
    sessions: Vec<(String, NodeId, Role)>,
    /// The IRR and the RPKI: the raw worlds register nothing.
    registry: IrrDatabase,
}

impl<'t> RefWorld<'t> {
    fn new(topo: &'t Topology, configs: &[RouterConfig], collectors: &[CollectorSpec]) -> Self {
        // `SimSpec::configure` semantics: a later config for the same ASN
        // replaces the earlier one (the raw worlds do produce duplicates).
        let mut by_asn: BTreeMap<Asn, &RouterConfig> = BTreeMap::new();
        for cfg in configs {
            by_asn.insert(cfg.asn, cfg);
        }
        let configs = topo
            .node_ids()
            .map(|id| {
                let asn = topo.asn_of(id);
                by_asn
                    .get(&asn)
                    .map(|c| (*c).clone())
                    .unwrap_or_else(|| RouterConfig::defaults(asn))
            })
            .collect();
        let sessions = collectors
            .iter()
            .flat_map(|spec| spec.peers.iter().map(move |peer| (&spec.name, peer)))
            .filter_map(|(name, &(peer, feed))| {
                let monitor_role = match feed {
                    FeedKind::Full => Role::Customer,
                    FeedKind::CustomerRoutesOnly => Role::Peer,
                };
                Some((name.clone(), topo.node_id(peer)?, monitor_role))
            })
            .collect();
        RefWorld {
            topo,
            configs,
            collectors: collectors.iter().map(|spec| spec.name.clone()).collect(),
            sessions,
            registry: IrrDatabase::new(),
        }
    }

    fn empty_feeds(&self) -> ReferenceFeeds {
        let names = self.collectors.iter().cloned();
        names.map(|name| (name, Vec::new())).collect()
    }
}

/// One update in flight in a reference flood.
struct RefEvent {
    from: NodeId,
    to: NodeId,
    to_slot: usize,
    sender_role: Role,
    route: Option<RouteId>,
}

/// One prefix's flood in a reference engine: the routers, the arena, the
/// queue, the delivery count, and what each session last heard.
struct RefFlood<'w, 't> {
    world: &'w RefWorld<'t>,
    prefix: Prefix,
    routers: RefRouters<'t>,
    arena: RouteArena,
    queue: VecDeque<RefEvent>,
    events: u64,
    advertised: Vec<Option<RouteId>>,
}

impl<'w, 't> RefFlood<'w, 't> {
    fn new(world: &'w RefWorld<'t>, prefix: Prefix) -> Self {
        RefFlood {
            world,
            prefix,
            routers: RefRouters::new(world.topo, prefix),
            arena: RouteArena::new(),
            queue: VecDeque::new(),
            events: 0,
            advertised: vec![None; world.sessions.len()],
        }
    }

    /// Applies `ep` at its origin, which it returns (`None` outside the
    /// topology).
    fn originate(&mut self, ep: &Origination) -> Option<NodeId> {
        let origin = self.world.topo.node_id(ep.origin)?;
        assert!(ep.forged_origin.is_none(), "reference skips forged paths");
        let local = (!ep.withdraw).then(|| {
            self.arena.intern(
                Route::originate(ep.communities.clone())
                    .with_large_communities(ep.large_communities.clone()),
            )
        });
        self.routers.node(origin).set_local(local);
        Some(origin)
    }

    /// Recomputes every export of `id` and queues the changed ones, in
    /// slot order.
    fn emit(&mut self, id: NodeId) {
        let topo = self.world.topo;
        let cfg = &self.world.configs[id.index()];
        let mut router = self.routers.node(id);
        for (slot, &(nb, role, rev)) in topo.neighbors_ix(id).iter().enumerate() {
            let new = router.export_for(cfg, topo.asn_of(nb), role, &mut self.arena);
            if let Some(update) = router.diff_export(slot, new) {
                let sender_role = match role {
                    Role::Customer => Role::Provider,
                    Role::Provider => Role::Customer,
                    Role::Peer => Role::Peer,
                };
                self.queue.push_back(RefEvent {
                    from: id,
                    to: nb,
                    to_slot: rev as usize,
                    sender_role,
                    route: update,
                });
            }
        }
    }

    /// Delivers `ev` and returns its receiver.
    fn import(&mut self, ev: RefEvent) -> NodeId {
        let vctx = ValidationCtx {
            irr: &self.world.registry,
            rpki: &self.world.registry,
        };
        self.routers.node(ev.to).import(
            &self.world.configs[ev.to.index()],
            self.world.topo.asn_of(ev.from),
            ev.to_slot,
            ev.sender_role,
            ev.route,
            &mut self.arena,
            vctx,
            &mut FloodStats::default(),
        );
        ev.to
    }

    /// Asks every session what its peer exports to the monitor —
    /// `NodeState::export_for`, a RIB scan and a fresh derivation — and
    /// records an observation at `time` where that changed.
    fn sweep(&mut self, time: u32, feeds: &mut ReferenceFeeds) {
        let world = self.world;
        for ((name, peer, monitor_role), was) in world.sessions.iter().zip(&mut self.advertised) {
            let cfg = &world.configs[peer.index()];
            let now = self.routers.node(*peer).export_for(
                cfg,
                MONITOR_ASN,
                *monitor_role,
                &mut self.arena,
            );
            if now != *was {
                *was = now;
                let feed = feeds.get_mut(name).expect("collector registered");
                feed.push(CollectorObservation {
                    time,
                    peer: world.topo.asn_of(*peer),
                    prefix: self.prefix,
                    route: now.map(|id| self.arena.get(id).clone()),
                });
            }
        }
    }
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

/// The five-way split of a campaign's feeds — first, path change,
/// community-only, duplicate, withdrawal, as `bgpworms_routesim::UpdateKind`
/// orders them — classified here per (collector, peer, prefix) in feed
/// order: an announcement where the peer held nothing is a first; else it
/// changed the path, or only the communities, or nothing.
fn feed_split(sink: &KeyedSink) -> [u64; 5] {
    let mut split = [0; 5];
    for outcome in sink.0.values() {
        for feed in &outcome.observations {
            let mut held: BTreeMap<Asn, &Route> = BTreeMap::new();
            for obs in feed {
                let kind = match (&obs.route, held.get(&obs.peer)) {
                    (None, _) => 4,
                    (Some(_), None) => 0,
                    (Some(now), Some(was)) if now.path != was.path => 1,
                    (Some(now), Some(was))
                        if now.communities != was.communities
                            || now.large_communities != was.large_communities =>
                    {
                        2
                    }
                    (Some(_), Some(_)) => 3,
                };
                split[kind] += 1;
                match &obs.route {
                    Some(route) => held.insert(obs.peer, route),
                    None => held.remove(&obs.peer),
                };
            }
        }
    }
    split
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
        let spec = spec_for(&topo, configs, collectors);

        let seq = spec.clone().compile().run(&originations);
        let par = spec.threads(threads).compile().run(&originations);

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
        let spec = SimSpec::new(&topo).retain(RetainRoutes::All);
        let seq = spec.clone().compile().run(&originations);
        let par = spec.threads(threads).compile().run(&originations);
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
        let par_session = spec.threads(threads).compile();
        let par_first = par_session.run(&originations);
        let par_second = par_session.run(&originations);
        prop_assert_eq!(&par_first, &par_second, "parallel rerun diverged");
        prop_assert_eq!(&first, &par_first, "parallel session diverged from sequential");
    }

    /// Batching and collector-sweep transparency: on worlds whose first
    /// prefix is walked through a whole lifecycle (announce, duplicate,
    /// community-perturbed re-announce, withdraw, re-announce after the
    /// withdrawal) on top of the random schedule, heard over full and
    /// customer-only feeds by random peers plus the peers whose exports no
    /// per-role memo can answer (the route server, every `ScopedToReceiver`
    /// AS), the dirty-set batched engine reaches the per-import reference's
    /// fixed point and its feeds equal the reference's full sweep — at
    /// `threads = 1/N`, on a reused session, and, for that prefix's rows,
    /// when the lifecycle arrives as a delta on a snapshot of the prefix's
    /// own earlier episodes. Batching reorders *when* exports are
    /// recomputed, never *what* the converged routes are.
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

        let Some((finals, reference)) = reference_run(&topo, &configs, &collectors, &originations)
        else {
            // Oscillating world: the reference blew its budget; the engine
            // flags the same worlds via `converged`, nothing to compare.
            return Ok(());
        };
        let spec = spec_for(&topo, configs, collectors);
        let sim = spec.clone().compile();
        let run = sim.run(&originations);
        prop_assert!(run.converged, "reference converged but the engine did not");
        let owned = |model: &BTreeMap<Asn, Route>| -> Vec<(Asn, Route)> {
            model.iter().map(|(asn, route)| (*asn, route.clone())).collect()
        };
        let reference_tables: BTreeMap<Prefix, FinalRoutes> = finals
            .iter()
            .map(|(prefix, model)| (*prefix, owned(model).into_iter().collect()))
            .collect();
        prop_assert_eq!(&run.final_routes, &reference_tables, "batched fixed point diverged");
        prop_assert_eq!(&run.observations, &reference, "the sweep missed or invented news");

        // `FinalRoutes` reads like the map it replaced, and its
        // representation is canonical: the same pairs collected in the
        // opposite order are the same value, field by field.
        for (prefix, model) in &finals {
            let held = &run.final_routes[prefix];
            prop_assert_eq!(held.len(), model.len());
            prop_assert_eq!(held.is_empty(), model.is_empty());
            prop_assert!(held.iter().eq(model.iter()));
            prop_assert!(held.keys().eq(model.keys()));
            prop_assert!(held.values().eq(model.values()));
            for node in topo.ases() {
                prop_assert_eq!(held.get(&node.asn), model.get(&node.asn));
                prop_assert_eq!(held.contains_key(&node.asn), model.contains_key(&node.asn));
            }
            let reversed: FinalRoutes = owned(model).into_iter().rev().collect();
            prop_assert_eq!(&reversed, held, "collection order leaked into the value");
        }

        // Both equivalences survive sharding and session reuse.
        let sim = spec.threads(threads).compile();
        let par = sim.run(&originations);
        prop_assert_eq!(&par.observations, &reference, "sharded sweep diverged");
        prop_assert_eq!(&par.final_routes, &reference_tables, "sharded fixed point diverged");
        prop_assert_eq!(&sim.run(&originations), &par, "rerun diverged");

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

    /// Collector-sweep transparency where the flood is cut: each prefix of
    /// a random world, heard by random full and customer-only sessions, is
    /// flooded again at every event budget below what its converged flood
    /// delivers. A cut flood leaves its dirty nodes without their export
    /// pass, so a node can hold a route no pass looked at; the engine
    /// sweeps them from the cut's records, and its feed must be the one
    /// `cut_flood_reference` records by asking every session the long way
    /// after every episode — row for row, whether the session drops
    /// deliveries to unread leaves or retains every route.
    #[test]
    fn a_cut_flood_reports_what_every_session_holds(raw in arb_world()) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let spec = spec_for(&topo, configs.clone(), collectors.clone());
        let sessions = [spec.clone().retain(RetainRoutes::None).compile(), spec.compile()];
        for (prefix, episodes) in by_prefix(&originations) {
            let own: Vec<Origination> = episodes.into_iter().cloned().collect();
            let whole = sessions[0].run(&own);
            if !whole.converged {
                continue; // oscillating: its budget is the default one
            }
            for budget in 0..whole.events {
                let reference = cut_flood_reference(&topo, &configs, &collectors, &own, budget);
                for sim in &sessions {
                    let cut = sim.clone().with_event_budget(budget).run(&own);
                    prop_assert!(!cut.converged, "{} cut at {}", prefix, budget);
                    prop_assert_eq!(&cut.observations, &reference, "{} cut at {}", prefix, budget);
                }
            }
        }
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

        let spec = spec_for(&topo, configs, collectors);
        let sim = spec.clone().compile();
        let base = sim.run(&originations);
        let churned = sim.run(&churny);
        prop_assert_eq!(
            &base, &churned,
            "idempotent duplicate episodes must be event-free steady state"
        );

        let sim = spec.threads(threads).compile();
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
        let spec = spec_for(&topo, configs, collectors);
        let sim = spec.clone().compile();

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
        let sim = spec.threads(threads).compile();
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
        let spec = spec_for(&topo, configs, collectors);
        let sim = spec.clone().compile();

        let reference = fresh_state_reference(&sim, &originations);
        let combined = sim.run(&originations);
        prop_assert_eq!(&combined, &reference, "sequential scratch reuse leaked state");

        let sim = spec.threads(threads).compile();
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
        let spec = spec_for(&topo, configs, collectors);
        let sim = spec.clone().compile();
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
        let sim = spec.threads(threads).compile();
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
    /// identical class-hit counters on both paths. So must the flood
    /// counters (a replay reports its representative's, so they also check
    /// the classifier), which hold their own books: unread drops and
    /// admissions partition the deliveries, a converged campaign drains
    /// exactly its events, nothing mints without an intern, and the
    /// five-way split of emitted updates is the feed's.
    #[test]
    fn memoization_never_changes_campaign_output(raw in arb_world(), threads in 2usize..6) {
        let (topo, configs, collectors, originations) = build_world(&raw);
        let one_session_per_peer = collectors.iter().all(|c| {
            let peers: BTreeSet<Asn> = c.peers.iter().map(|&(asn, _)| asn).collect();
            peers.len() == c.peers.len()
        });
        let spec = spec_for(&topo, configs, collectors);
        let mut sequential = None;
        for t in [1, threads] {
            let sim = spec.clone().threads(t).compile();
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

            let stats = memoized.stats;
            prop_assert_eq!(stats, plain.stats, "a replay reported other counters, threads = {}", t);
            prop_assert_eq!(*sequential.get_or_insert(stats), stats, "threads = {}", t);
            let admitted: u64 = stats.admissions.iter().sum();
            prop_assert_eq!(stats.dropped_unread + admitted, stats.deliveries);
            if memoized.converged {
                prop_assert_eq!(stats.deliveries, memoized.events);
            }
            prop_assert!(stats.mints <= stats.interns);
            let feeds = memoized.sink.0.values().flat_map(|o| o.observations.iter());
            let emitted: usize = feeds.map(Vec::len).sum();
            prop_assert_eq!(stats.updates.iter().sum::<u64>(), emitted as u64);
            if one_session_per_peer {
                prop_assert_eq!(stats.updates, feed_split(&memoized.sink), "threads = {}", t);
            }
        }
    }

    /// Delta re-convergence ≡ fresh run: snapshot the converged baseline of
    /// one prefix's own schedule on an arbitrary world, append arbitrary
    /// perturbations (community-changing announcements and withdrawals),
    /// and the replay must be bit-identical to flooding the combined
    /// schedule from scratch — as the `run_delta` result against a fresh
    /// `run`, and as the `run_delta_prefix` outcome against what the prefix
    /// folds to inside the *whole* world's schedule, at `threads = 1/N` on
    /// the fresh side. Snapshot and replay never depend on the thread count,
    /// nor on which session compiled over the world replays the snapshot.
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
        let spec = spec_for(&topo, configs, collectors);
        let sim = spec.clone().compile();

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
        if outcome.0.converged {
            let added = outcome.0.events - snap.baseline_outcome().events;
            prop_assert_eq!(outcome.1.deliveries, added, "a delta drains what it adds");
        }

        for t in [1, threads] {
            let sim = spec.clone().threads(t).compile();
            prop_assert_eq!(
                &sim.run(&combined), &replayed,
                "delta diverged from the fresh combined run, threads = {}", t
            );
            let streamed = Campaign::new(&sim).run(&whole, KeyedSink::default);
            prop_assert_eq!(
                &streamed.sink.0[&target], &outcome.0,
                "delta diverged from the prefix's fold in the whole schedule, threads = {}", t
            );
        }

        // A snapshot outlives its session: a separately compiled
        // `threads = N` session continues `snap` to the same outcome, and its
        // own snapshot flood is the `threads = 1` one — counters included.
        let sim = spec.threads(threads).compile();
        prop_assert_eq!(&sim.run_delta_prefix(&snap, &delta), &outcome);
        let (par_base, par_snap) = sim.run_snapshot(&baseline, target);
        prop_assert_eq!(&par_base, &base, "snapshot run diverged");
        prop_assert_eq!(par_snap.stats(), snap.stats(), "snapshot counters diverged");
        prop_assert_eq!(&sim.run_delta_prefix(&par_snap, &delta), &outcome);
    }

    /// Elided ≡ full. An unretained campaign flood counts deliveries to
    /// unread leaves (no customer, no collector session, not a route server)
    /// and drops them; an `All` one floods in full (see the next property);
    /// `run_snapshot`'s flood simulates every delivery. On worlds
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
        let elided = spec.clone().retain(RetainRoutes::None).compile();
        let full = spec.clone().compile();
        prop_assert!(elided.unread_nodes() >= 3, "the three added stubs are unread");
        prop_assert_eq!(elided.unread_nodes(), full.unread_nodes());

        for t in [1, threads] {
            let spec = spec.clone().threads(t);
            let (elided, full) = (spec.clone().retain(RetainRoutes::None).compile(), spec.compile());
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

    /// Campaign ≡ snapshot. A `RetainRoutes::All` campaign flood simulates
    /// every delivery, as `run_snapshot(..).0` does, but on a recycled
    /// scratch, through the class memo and on a worker pool: on worlds
    /// forced to hold every shape a leaf can hide behind
    /// (`with_unread_shapes`), an `All` campaign, memoized and not, at
    /// `threads = 1/N`, must fold for each prefix the final routes,
    /// observations, events and convergence that `run_snapshot` of the
    /// prefix's own episodes returns.
    #[test]
    fn retained_campaign_floods_equal_their_snapshot_twins(
        raw in arb_world(),
        threads in 2usize..6,
    ) {
        let (topo, configs, collectors, originations) = with_unread_shapes(&raw);
        let spec = spec_for(&topo, configs, collectors);
        let sim = spec.clone().compile();
        let mut by_prefix: BTreeMap<Prefix, Vec<Origination>> = BTreeMap::new();
        for o in &originations {
            by_prefix.entry(o.prefix).or_default().push(o.clone());
        }
        let twins: BTreeMap<Prefix, SimResult> = by_prefix
            .iter()
            .map(|(&prefix, own)| (prefix, sim.run_snapshot(own, prefix).0))
            .collect();

        for t in [1, threads] {
            let sim = spec.clone().threads(t).compile();
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

    /// `Prefixes` retention keeps the routes a packet can meet. A campaign
    /// over a `RetainRoutes::Prefixes` session drops every delivery to an
    /// unread leaf that neither originates the prefix nor is a listed
    /// reader, where an `All` campaign floods it in full. On worlds forced
    /// to hold every shape a leaf can hide behind (`with_unread_shapes`),
    /// with random readers, each prefix's outcome must be the
    /// `RetainRoutes::All` campaign's with its final routes restricted to
    /// the ASes that are not unread leaves, the readers and the prefix's
    /// originators — that key set exactly, no leaf more — and identical
    /// events, observations and convergence, memoized and not, at
    /// `threads = 1/N`. Leaf-ness is read off the topology and the
    /// collector sessions here, not asked of the engine.
    #[test]
    fn forwarding_retention_keeps_every_route_a_packet_can_meet(
        raw in arb_world(),
        threads in 2usize..6,
        picks in proptest::collection::vec(0usize..32, 1..6),
    ) {
        let (topo, configs, collectors, originations) = with_unread_shapes(&raw);
        let heard: BTreeSet<Asn> = collectors
            .iter()
            .flat_map(|c| c.peers.iter().map(|&(peer, _)| peer))
            .collect();
        let spec = spec_for(&topo, configs, collectors);
        let asns: Vec<Asn> = topo.ases().map(|node| node.asn).collect();
        let readers: BTreeSet<Asn> = picks.iter().map(|&k| asns[k % asns.len()]).collect();
        let mut origins: BTreeMap<Prefix, BTreeSet<Asn>> = BTreeMap::new();
        for o in &originations {
            origins.entry(o.prefix).or_default().insert(o.origin);
        }
        let forwarding = RetainRoutes::Prefixes {
            prefixes: origins.keys().copied().collect(),
            readers: readers.clone(),
        };
        let leaf = |asn: &Asn| {
            topo.node(*asn).is_some_and(|node| node.tier != Tier::RouteServer)
                && !heard.contains(asn)
                && topo.customers_of(*asn).next().is_none()
        };

        for t in [1, threads] {
            let spec = spec.clone().threads(t);
            let full = spec.clone().compile();
            let want = Campaign::new(&full).run(&originations, KeyedSink::default);
            let sim = spec.retain(forwarding.clone()).compile();
            for (memoized, campaign) in [
                (true, Campaign::new(&sim)),
                (false, Campaign::unmemoized_reference(&sim)),
            ] {
                let got = campaign.run(&originations, KeyedSink::default);
                prop_assert_eq!(got.events, want.events);
                prop_assert_eq!(got.converged, want.converged);
                prop_assert_eq!(got.sink.0.len(), want.sink.0.len());
                for (prefix, reference) in &want.sink.0 {
                    let finals = reference.final_routes.as_ref().expect("retained");
                    let met = finals
                        .iter()
                        .filter(|(asn, _)| {
                            !leaf(asn) || readers.contains(asn) || origins[prefix].contains(asn)
                        })
                        .map(|(asn, route)| (*asn, route.clone()))
                        .collect();
                    let expected = PrefixOutcome {
                        final_routes: Some(met),
                        ..reference.clone()
                    };
                    prop_assert_eq!(
                        &got.sink.0[prefix], &expected,
                        "prefix {}, threads = {}, memoized = {}", prefix, t, memoized
                    );
                }
            }
        }
    }

    /// A snapshot and a delta keep what their campaign keeps. Under
    /// `RetainRoutes::Prefixes` a delta on a snapshot's clone drops every
    /// delivery to an unread leaf that originates neither in the delta nor
    /// in the baseline and is not a reader, and the retention sweep of
    /// the snapshot's flood and of the delta skips those leaves. On worlds
    /// forced to hold every shape a leaf can hide behind
    /// (`with_unread_shapes`), with random readers other than its two
    /// originating leaves, the first prefix's baseline takes three deltas:
    /// one re-originates at the MOAS leaf, which announced and withdrew in
    /// the baseline; one withdraws a baseline origin; and one adds a second
    /// origin beside that leaf left standing as the baseline's last
    /// originator. `run_snapshot` and then `run_delta_prefix` must give the
    /// `Prefixes` campaign of the same schedule, and the `RetainRoutes::All`
    /// campaign with its final routes restricted to the ASes that are not
    /// unread leaves, the readers and the schedule's originators — key set
    /// and all — with identical events, observations and convergence; and
    /// an `All` session must continue the same snapshot to the `All`
    /// campaign, unrestricted. Leaf-ness is read off the
    /// topology and the collector sessions here, not asked of the engine.
    #[test]
    fn forwarding_snapshots_and_deltas_keep_what_a_forwarding_campaign_keeps(
        raw in arb_world(),
        picks in proptest::collection::vec(0usize..32, 1..6),
        (second, gone, community) in (0usize..16, 0usize..16, 0u16..1000),
    ) {
        let (topo, configs, collectors, originations) = with_unread_shapes(&raw);
        let heard: BTreeSet<Asn> = collectors
            .iter()
            .flat_map(|c| c.peers.iter().map(|&(peer, _)| peer))
            .collect();
        let spec = spec_for(&topo, configs, collectors);
        let (moas, forger) = (Asn::new(103), Asn::new(104));
        let asns: Vec<Asn> = topo.ases().map(|node| node.asn).collect();
        let readers: BTreeSet<Asn> = picks
            .iter()
            .map(|&k| asns[k % asns.len()])
            .filter(|asn| ![moas, forger].contains(asn))
            .collect();
        let target = originations[0].prefix;
        let forwarding = RetainRoutes::Prefixes {
            prefixes: BTreeSet::from([target]),
            readers: readers.clone(),
        };
        let leaf = |asn: &Asn| {
            topo.node(*asn).is_some_and(|node| node.tier != Tier::RouteServer)
                && !heard.contains(asn)
                && topo.customers_of(*asn).next().is_none()
        };
        prop_assert!(leaf(&moas) && leaf(&forger));
        let full = spec.clone().compile();
        let sim = spec.retain(forwarding).compile();

        let withdrawn: Vec<Origination> = originations
            .iter()
            .filter(|o| o.prefix == target)
            .cloned()
            .collect();
        let after = withdrawn.iter().map(|o| o.time).max().unwrap_or(0) + 100;
        let tags = vec![Community::new(community % 16, community)];
        let mut standing = withdrawn.clone();
        standing.push(Origination::announce(moas, target, vec![]).at(after));
        let gone = withdrawn[gone % withdrawn.len()].origin;
        let second = Asn::new((second % raw.n_nodes) as u32 + 1);
        let cases = [
            (&withdrawn, Origination::announce(moas, target, tags.clone()).at(after)),
            (&withdrawn, Origination::withdrawal(gone, target, after)),
            (&standing, Origination::announce(second, target, tags).at(after + 100)),
        ];
        for (baseline, delta) in cases {
            let mut combined = baseline.clone();
            combined.push(delta.clone());
            let (base, snap) = sim.run_snapshot(baseline, target);
            prop_assert_eq!(&base, &sim.run(baseline), "snapshot ≢ its campaign");
            let (got, _) = sim.run_delta_prefix(&snap, std::slice::from_ref(&delta));
            let campaign = Campaign::new(&sim).run(&combined, KeyedSink::default);
            prop_assert_eq!(&got, &campaign.sink.0[&target], "delta {:?}", delta);

            let originators: BTreeSet<Asn> = combined.iter().map(|o| o.origin).collect();
            let reference = Campaign::new(&full).run(&combined, KeyedSink::default);
            let reference = &reference.sink.0[&target];
            let finals = reference.final_routes.as_ref().expect("retained");
            let met = finals
                .iter()
                .filter(|(asn, _)| {
                    !leaf(asn) || readers.contains(asn) || originators.contains(asn)
                })
                .map(|(asn, route)| (*asn, route.clone()))
                .collect();
            let expected = PrefixOutcome {
                final_routes: Some(met),
                ..reference.clone()
            };
            prop_assert_eq!(&got, &expected, "delta {:?}", delta);
            // An `All` session continues the same snapshot in full.
            let (whole, _) = full.run_delta_prefix(&snap, std::slice::from_ref(&delta));
            prop_assert_eq!(&whole, reference, "retained delta {:?}", delta);
        }
    }

    /// Collector sessions are passive taps. A collector reads what its
    /// peers export and exports nothing back, so compiling the same world
    /// with `.collectors(&[])` drops the observations and turns a stub that
    /// only a collector read into an unread leaf (`with_unread_shapes`
    /// puts one there), and nothing else: both sessions `RetainRoutes::All`,
    /// `run` must return the same final routes, events and convergence, and
    /// so must `run_snapshot` of the first prefix's episodes followed by one
    /// `run_delta_prefix`.
    #[test]
    fn collector_sessions_are_passive_taps(
        raw in arb_world(),
        (origin, community, withdraw) in (0usize..16, 0u16..1000, any::<bool>()),
    ) {
        let (topo, configs, collectors, originations) = with_unread_shapes(&raw);
        let spec = spec_for(&topo, configs, collectors);
        let tapped = spec.clone().compile();
        let untapped = spec.collectors(&[]).compile();
        prop_assert!(untapped.unread_nodes() > tapped.unread_nodes());

        let (got, want) = (untapped.run(&originations), tapped.run(&originations));
        prop_assert!(got.observations.is_empty());
        prop_assert_eq!(&got.final_routes, &want.final_routes);
        prop_assert_eq!(got.events, want.events);
        prop_assert_eq!(got.converged, want.converged);

        let target = originations[0].prefix;
        let baseline: Vec<Origination> = originations
            .iter()
            .filter(|o| o.prefix == target)
            .cloned()
            .collect();
        let after = baseline.iter().map(|o| o.time).max().unwrap_or(0) + 100;
        let origin = Asn::new((origin % raw.n_nodes) as u32 + 1);
        let delta = if withdraw {
            Origination::withdrawal(origin, target, after)
        } else {
            let tags = vec![Community::new(community % 16, community)];
            Origination::announce(origin, target, tags).at(after)
        };
        let outcomes = [&untapped, &tapped].map(|sim| {
            let (base, snap) = sim.run_snapshot(&baseline, target);
            let (outcome, _) = sim.run_delta_prefix(&snap, std::slice::from_ref(&delta));
            (base, outcome)
        });
        let [(got_base, got), (want_base, want)] = outcomes;
        prop_assert_eq!(&got_base.final_routes, &want_base.final_routes);
        prop_assert_eq!(got_base.events, want_base.events);
        prop_assert_eq!(got_base.converged, want_base.converged);
        prop_assert_eq!(&got.final_routes, &want.final_routes);
        prop_assert_eq!(got.events, want.events);
        prop_assert_eq!(got.converged, want.converged);
    }

    /// Memoization under prefix-sensitive policy: worlds seasoned with
    /// origin validation (against *partially* registered IRR/RPKI, so the
    /// registration bits genuinely split classes), blackhole length floors
    /// (one at the schedule's own /16 length), and exact-prefix
    /// targeted-egress tagging
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
                    // A /16 floor: the /16 schedule sits on a threshold.
                    cfg.services.blackhole = Some(BlackholeService {
                        min_prefix_len: 16,
                        ..BlackholeService::default()
                    });
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
        for t in [1, threads] {
            let sim = spec.clone().threads(t).compile();
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
                let own = asn.as_u16().map(|hi| Community::new(hi, BLACKHOLE_VALUE));
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
    /// and not read. The run retains `RetainRoutes::All`, so it reads the
    /// routes of the unread leaves too.
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

    /// ROADMAP item 3(b) — *a community stripped at AS k is never observed
    /// at a collector on a path that runs through k and continues past it*
    /// — read off `StripAll`'s doc comment, not off `router.rs`, over what
    /// the collectors saw, the configs and the topology. One to three
    /// drawn ASes strip everything they received (over `build_world`'s own
    /// policy draws), and every announcement also carries a large community
    /// of its origin's. Then an observation whose AS path runs through a
    /// stripping AS strictly between the origin and the collector peer
    /// carries none of the values its origin announced the prefix with,
    /// unless an AS between the stripper and the collector adds that value
    /// itself (its egress tags, its prefix-targeted tags, or its own
    /// ingress tags when it tags; `arb_world()` draws no `TaggingConfig`,
    /// so no value is exempt yet). Withdrawals carry nothing to check.
    #[test]
    fn a_strip_all_as_passes_on_none_of_the_origins_values(
        raw in arb_world(),
        stripping in proptest::collection::vec(0usize..16, 1..4),
    ) {
        let (topo, mut configs, collectors, mut originations) = build_world(&raw);
        for o in originations.iter_mut().filter(|o| !o.withdraw) {
            let local = o.communities.first().map_or(0, |c| u32::from(c.value_part()));
            o.large_communities.push(LargeCommunity::new(o.origin.get(), 1, local));
        }
        for &at in &stripping {
            let mut cfg = RouterConfig::defaults(Asn::new((at % raw.n_nodes) as u32 + 1));
            cfg.propagation = CommunityPropagationPolicy::StripAll;
            configs.push(cfg);
        }
        // The config each AS runs: a later entry for an AS replaces an
        // earlier one, as `SimSpec::configure` does.
        let resolved: BTreeMap<Asn, RouterConfig> =
            configs.iter().map(|cfg| (cfg.asn, cfg.clone())).collect();
        let res = spec_for(&topo, configs, collectors).compile().run(&originations);

        for obs in res.observations.values().flatten() {
            let Some(route) = &obs.route else {
                continue; // a withdrawal
            };
            let path = route.path.to_vec();
            let (Some(&peer), Some(&origin)) = (path.first(), path.last()) else {
                continue;
            };
            // The first stripping AS from the collector's side that is
            // neither the peer nor the origin.
            let Some(k) = path.iter().position(|&asn| {
                asn != peer
                    && asn != origin
                    && resolved.get(&asn).is_some_and(|cfg| {
                        cfg.propagation == CommunityPropagationPolicy::StripAll
                    })
            }) else {
                continue;
            };
            let announced = originations
                .iter()
                .filter(|o| o.origin == origin && o.prefix == obs.prefix && !o.withdraw);
            let communities: Vec<Community> =
                announced.clone().flat_map(|o| o.communities.iter().copied()).collect();
            let large: Vec<LargeCommunity> =
                announced.flat_map(|o| o.large_communities.iter().copied()).collect();
            // What the ASes between the stripper and the collector add.
            let adds = |c: Community| {
                path[..k].iter().any(|asn| {
                    resolved.get(asn).is_some_and(|cfg| {
                        let tags = &cfg.tagging;
                        tags.egress_tags.contains(&c)
                            || tags.targeted_egress.contains(&(obs.prefix, c))
                            || ((tags.tag_ingress_location || tags.tag_origin_class)
                                && asn.as_u16() == Some(c.asn_part()))
                    })
                })
            };
            for c in &route.communities {
                prop_assert!(
                    !communities.contains(c) || adds(*c),
                    "{peer} reported {c} on {} past {}, which strips everything",
                    obs.prefix,
                    path[k]
                );
            }
            for c in &route.large_communities {
                prop_assert!(
                    !large.contains(c),
                    "{peer} reported {c} on {} past {}, which strips everything",
                    obs.prefix,
                    path[k]
                );
            }
        }
    }

    /// ROADMAP item 9(i) — *communities held, as a fold over the path* —
    /// read off the doc comments of `CommunityPropagationPolicy`, `Vendor`,
    /// `TaggingConfig` and `Route::own_tags`, not off `router.rs`, over what
    /// a converged run retains, the configs and the topology. The world is
    /// `arb_tagged_world()`: no route server (the fold walks the AS path,
    /// which a route server is not on) and no RTBH service. Then every
    /// retained route's `communities` are the list its origin announces
    /// the prefix with (its last episode), folded hop by hop along the
    /// route's own path; at each hop `from → to`:
    /// * `from`'s policy keeps what `from` holds, its own originations
    ///   included: all, none, all but its own, only its own and well-known
    ///   ones, all or none by the role `to` plays for `from` (`Selective`),
    ///   or only those `to` owns (`ScopedToReceiver`);
    /// * `from` adds what it tagged at ingress and its egress tags, at most
    ///   32 of them under Cisco, in `TaggingConfig`'s field order;
    /// * a Cisco `from` without `send-community` sends nothing (§6.1);
    /// * the list is a set (sorted, deduplicated) once exported.
    ///
    /// `to` records its own ingress tags apart (`Route::own_tags`): `own:100`
    /// / `110` / `120` by the role `from` plays for it, and the location
    /// bucket of `from`'s ASN.
    #[test]
    fn communities_held_are_the_origination_folded_along_the_path(
        (raw, tagging, extra) in arb_tagged_world(),
    ) {
        let mut raw = raw;
        let n = raw.n_nodes;
        let last_tier = &mut raw.tiers[(n - 1) % 16];
        if *last_tier == 3 {
            *last_tier = 1; // `build_world` would make it a route server
        }
        let (topo, configs, collectors, mut originations) = build_world(&raw);
        let asn_of = |i: usize| Asn::new((i % n) as u32 + 1);
        let hi_of = |asn: Asn| asn.as_u16().expect("a 2-byte test ASN");
        for (k, o) in originations.iter_mut().enumerate().filter(|(_, o)| !o.withdraw) {
            let (owner, well_known) = extra[k % extra.len()];
            o.communities.push(Community::new(hi_of(asn_of(owner)), 7));
            match well_known {
                1 => o.communities.push(Community::new(0xFFFF, 0)), // GRACEFUL_SHUTDOWN
                2 => o.communities.push(Community::NO_PEER),
                _ => {}
            }
        }
        // The config each AS runs: a later entry for an AS replaces an
        // earlier one, as `SimSpec::configure` does; then seasoned.
        let mut resolved: BTreeMap<Asn, RouterConfig> =
            configs.into_iter().map(|cfg| (cfg.asn, cfg)).collect();
        for (i, t) in tagging.iter().enumerate().take(n) {
            let asn = asn_of(i);
            let cfg = resolved.entry(asn).or_insert_with(|| RouterConfig::defaults(asn));
            if t.cisco {
                cfg.vendor = Vendor::Cisco;
            }
            cfg.send_community_configured = t.send_configured;
            cfg.tagging.tag_ingress_location = t.location;
            cfg.tagging.tag_origin_class = t.origin_class;
            let count = match t.egress {
                2 => 1,
                3 => 33,
                _ => 0,
            };
            cfg.tagging.egress_tags = (0..count).map(|v| Community::new(hi_of(asn), 5000 + v)).collect();
            if let CommunityPropagationPolicy::Selective { .. } = cfg.propagation {
                let (to_customers, to_peers, to_providers) = t.selective;
                cfg.propagation =
                    CommunityPropagationPolicy::Selective { to_customers, to_peers, to_providers };
            }
        }
        let res = spec_for(&topo, resolved.values().cloned().collect(), collectors)
            .compile()
            .run(&originations);
        if !res.converged {
            return Ok(()); // an oscillating world has no converged state to read
        }

        // What each origin announces each prefix with: its last episode in
        // time order (ties in schedule order), unless that withdrew.
        let mut by_time: Vec<&Origination> = originations.iter().collect();
        by_time.sort_by_key(|o| o.time);
        let announced: BTreeMap<(Prefix, Asn), Option<&Vec<Community>>> = by_time
            .iter()
            .map(|o| ((o.prefix, o.origin), (!o.withdraw).then_some(&o.communities)))
            .collect();
        // `TaggingConfig`: what `at` adds on import from `sender`.
        let ingress_tags = |at: Asn, sender: Asn| -> Vec<Community> {
            let tagging = &resolved[&at].tagging;
            let mut tags = Vec::new();
            if tagging.tag_origin_class {
                let class = match topo.role_of(at, sender).expect("adjacent") {
                    Role::Customer => ORIGIN_CLASS_VALUES[0],
                    Role::Peer => ORIGIN_CLASS_VALUES[1],
                    Role::Provider => ORIGIN_CLASS_VALUES[2],
                };
                tags.push(Community::new(hi_of(at), class));
            }
            if tagging.tag_ingress_location {
                let bucket = sender.get() as usize % LOCATION_TAG_VALUES.len();
                tags.push(Community::new(hi_of(at), LOCATION_TAG_VALUES[bucket]));
            }
            tags
        };
        // The policy, vendor and tagging docs: what `from` sends `to`.
        let export = |from: Asn, held: &[Community], own: &[Community], to: Asn| {
            let cfg = &resolved[&from];
            let role = topo.role_of(from, to).expect("adjacent");
            let mut out: Vec<Community> = held
                .iter()
                .copied()
                .filter(|c| match cfg.propagation {
                    CommunityPropagationPolicy::ForwardAll => true,
                    CommunityPropagationPolicy::StripAll => false,
                    CommunityPropagationPolicy::StripOwn => c.asn_part() != hi_of(from),
                    CommunityPropagationPolicy::StripUnknown => {
                        c.asn_part() == hi_of(from) || c.well_known().is_some()
                    }
                    CommunityPropagationPolicy::Selective { to_customers, to_peers, to_providers } => {
                        match role {
                            Role::Customer => to_customers,
                            Role::Peer => to_peers,
                            Role::Provider => to_providers,
                        }
                    }
                    CommunityPropagationPolicy::ScopedToReceiver => c.asn_part() == hi_of(to),
                })
                .collect();
            let mut added: Vec<Community> =
                own.iter().chain(&cfg.tagging.egress_tags).copied().collect();
            if cfg.vendor == Vendor::Cisco {
                added.truncate(32);
            }
            out.extend(added);
            if cfg.vendor == Vendor::Cisco && !cfg.send_community_configured {
                out.clear();
            }
            out.sort_unstable();
            out.dedup();
            out
        };

        for (prefix, finals) in &res.final_routes {
            for (&asn, route) in finals.iter() {
                let path = route.path.to_vec(); // the sender first, the origin last
                let origin = path.last().copied().unwrap_or(asn);
                let Some(Some(list)) = announced.get(&(*prefix, origin)) else {
                    panic!("{asn} holds {prefix} from {origin}, which does not announce it");
                };
                let mut held = (*list).clone();
                let mut own = Vec::new();
                let hops: Vec<Asn> = path.iter().rev().copied().chain([asn]).collect();
                for hop in hops.windows(2) {
                    held = export(hop[0], &held, &own, hop[1]);
                    own = ingress_tags(hop[1], hop[0]);
                }
                prop_assert_eq!(
                    &route.communities, &held,
                    "{} holds {} over {:?}", asn, prefix, path
                );
                let mut recorded: Vec<Community> = route.own_tags.iter().flatten().copied().collect();
                recorded.sort_unstable();
                own.sort_unstable();
                prop_assert_eq!(recorded, own, "{} tagged {} on import", asn, prefix);
            }
        }
    }

    /// ROADMAP item 3(b) — *a forged origin is rejected wherever IRR/RPKI
    /// validation is configured* — read off `OriginValidation`'s doc
    /// comments, not off `router.rs`, over what a converged run retains,
    /// the configs and the registries. `Irr` checks a learned route's
    /// origin against the IRR, which an attacker can pollute; `Strict`
    /// checks it against the RPKI-like registry; `Irr {
    /// validate_after_blackhole: true }` acts on the blackhole community
    /// first, so a route it blackholes skips validation there (§6.3).
    ///
    /// The world is seasoned as `memoization_survives_prefix_sensitive_
    /// policies` seasons it: every other (prefix, origin) pair goes into
    /// both registries, and the IRR also holds a route object for the first
    /// attacker. Each attack announces a drawn prefix from a drawn origin
    /// (a hijack, unless the draw hits a registered pair) or forges a drawn
    /// origin (`Origination::forging`), with or without `BLACKHOLE`; the
    /// mis-ordered validators offer RTBH down to /16, so a tagged /16 is
    /// blackholed there. Validation reads only the path's last AS, so a
    /// forged route passes exactly when the origin it claims is registered:
    /// origin validation cannot see a type-1 hijack (§5).
    #[test]
    fn validating_ases_hold_only_routes_from_registered_origins(
        raw in arb_world(),
        validators in proptest::collection::vec((0usize..16, 0u8..3), 1..5),
        attacks in proptest::collection::vec((0usize..16, 0usize..16, 0usize..16, 0u8..4), 1..4),
    ) {
        let (topo, mut configs, collectors, mut originations) = build_world(&raw);
        let asn_of = |i: usize| Asn::new((i % raw.n_nodes) as u32 + 1);
        let (mut irr, mut rpki) = (IrrDatabase::new(), IrrDatabase::new());
        for o in originations.iter().step_by(2) {
            irr.register(o.prefix, o.origin);
            rpki.register(o.prefix, o.origin);
        }
        let after = originations.iter().map(|o| o.time).max().unwrap_or(0);
        for (i, &(attacker, target, claimed, kind)) in attacks.iter().enumerate() {
            let attacker = asn_of(attacker);
            let prefix = originations[target % originations.len()].prefix;
            if i == 0 {
                irr.register(prefix, attacker); // §7.3: "easy to circumvent"
            }
            let tags = if kind & 1 != 0 { vec![Community::BLACKHOLE] } else { vec![] };
            let attack = Origination::announce(attacker, prefix, tags).at(after + 100 * (i as u32 + 1));
            originations.push(if kind & 2 != 0 { attack.forging(asn_of(claimed)) } else { attack });
        }
        for &(at, kind) in &validators {
            let mut cfg = RouterConfig::defaults(asn_of(at));
            cfg.validation = match kind {
                0 => OriginValidation::Irr { validate_after_blackhole: false },
                1 => OriginValidation::Irr { validate_after_blackhole: true },
                _ => OriginValidation::Strict,
            };
            if kind == 1 {
                cfg.services.blackhole = Some(BlackholeService {
                    min_prefix_len: 16,
                    ..BlackholeService::default()
                });
            }
            configs.push(cfg);
        }
        // The config each AS runs: a later entry for an AS replaces an
        // earlier one, as `SimSpec::configure` does.
        let resolved: BTreeMap<Asn, RouterConfig> =
            configs.iter().map(|cfg| (cfg.asn, cfg.clone())).collect();
        let res = spec_for(&topo, configs, collectors)
            .irr(&irr)
            .rpki(&rpki)
            .compile()
            .run(&originations);
        if !res.converged {
            return Ok(()); // an oscillating world has no converged state to read
        }

        for (prefix, finals) in &res.final_routes {
            for (&asn, route) in finals.iter() {
                if route.source.neighbor().is_none() {
                    continue; // its own origination
                }
                let registry = match resolved.get(&asn).map(|cfg| cfg.validation) {
                    Some(OriginValidation::Irr { validate_after_blackhole }) => {
                        if validate_after_blackhole && route.blackholed {
                            continue; // the §6.3 route-map acted before validating
                        }
                        &irr
                    }
                    Some(OriginValidation::Strict) => &rpki,
                    _ => continue,
                };
                let origin = route.path.origin();
                prop_assert!(
                    origin.is_some_and(|origin| registry.is_registered(prefix, origin)),
                    "{asn} validates but holds {prefix} from unregistered origin {origin:?}"
                );
            }
        }
    }
}

/// What `arb_world()` does not draw and the action-community oracle reads,
/// per AS (indexed like the nodes): an RTBH offer as (scope `Any`, floor
/// 8/16/24, `set_no_export`, raise to 150/200/300), and the steering
/// services as their scope (`Any` or not) — each present or not — whether
/// the AS runs the `ScopedToReceiver` defense, and its origin validation
/// (2: `Irr`; 3 or 4: `Irr` validating after the blackhole check; 5:
/// `Strict`; anything else `None`), and whether it runs a Cisco router
/// (else a Juniper one) with `send-community` configured.
#[derive(Debug, Clone)]
struct RawServices {
    blackhole: Option<(bool, u8, bool, u8)>,
    steering: Option<bool>,
    scoped: bool,
    validation: u8,
    cisco: bool,
    send_configured: bool,
}

impl RawServices {
    fn validation(&self) -> OriginValidation {
        match self.validation {
            2 => OriginValidation::Irr {
                validate_after_blackhole: false,
            },
            3 | 4 => OriginValidation::Irr {
                validate_after_blackhole: true,
            },
            5 => OriginValidation::Strict,
            _ => OriginValidation::None,
        }
    }
}

/// The action-community values a drawn episode may address to a drawn AS:
/// RTBH, one to three prepends, and the three steering local-prefs.
const ACTION_VALUES: [u16; 7] = [
    BLACKHOLE_VALUE,
    prepend_value(1),
    prepend_value(2),
    prepend_value(3),
    70,
    80,
    90,
];

/// The communities drawn for one episode: (owner, index into
/// [`ACTION_VALUES`]) each.
type Addressed = Vec<(usize, u8)>;

/// What one episode draws for origin validation: the route objects of its
/// (prefix, origin) pair (0 or 1: none; 2: an IRR object only, §7.3's
/// pollution; 3: both an IRR and an RPKI object for the covering
/// `10.0.0.0/8`; anything else both for the prefix), and whether its origin
/// tags RFC 7999's `BLACKHOLE` as well (0: it does, the §6.3
/// blackhole-tagged hijack).
type Registered = (u8, u8);

/// Up to two (AS, alias) index pairs: the AS takes the 4-byte number
/// `65 536 + alias's ASN` (see [`four_byte_numbering`]).
type FourByte = Vec<(usize, usize)>;

/// Per 4-byte AS, in index order: which of the neighbours its RTBH scope
/// admits tags its alias's `k:666` (an index, taken modulo their number).
type AliasTaggers = Vec<usize>;

/// A seasoned `arb_world()` for the action-community oracle (a copy, so the
/// draws of every other property stay where they are): per AS a
/// `RawServices`; per episode up to three communities addressed to drawn
/// ASes, each one of [`ACTION_VALUES`]; per episode a [`Registered`]; the
/// [`FourByte`] ASes; and their [`AliasTaggers`].
fn arb_serviced_world() -> impl Strategy<
    Value = (
        RawWorld,
        Vec<RawServices>,
        Vec<Addressed>,
        Vec<Registered>,
        FourByte,
        AliasTaggers,
    ),
> {
    let services = (
        proptest::option::of((any::<bool>(), 0u8..3, any::<bool>(), 0u8..3)),
        proptest::option::of(any::<bool>()),
        any::<bool>(),
    );
    let addressed = proptest::collection::vec((0usize..16, 0u8..7), 0..4);
    // Validation and route objects are drawn after the rest, and vendors
    // after those, so every earlier draw stays what it was before the
    // oracle read the later ones.
    let drawn = (
        arb_world(),
        proptest::collection::vec(services, 16),
        proptest::collection::vec(addressed, 16),
        proptest::collection::vec(0u8..10, 16),
        proptest::collection::vec((0u8..6, 0u8..4), 16),
    );
    let vendors = proptest::collection::vec((any::<bool>(), any::<bool>()), 16);
    // 4-byte ASes come after those, and their alias taggers last of all,
    // for the same reason.
    let four_byte = proptest::collection::vec((0usize..16, 0usize..16), 0..3);
    let taggers = proptest::collection::vec(0usize..16, 2);
    (drawn, vendors, four_byte, taggers).prop_map(
        |((world, services, addressed, validations, objects), vendors, four_byte, taggers)| {
            let services = (services.into_iter().zip(validations).zip(vendors))
                .map(
                    |(((blackhole, steering, scoped), validation), (cisco, send_configured))| {
                        RawServices {
                            blackhole,
                            steering,
                            scoped,
                            validation,
                            cisco,
                            send_configured,
                        }
                    },
                )
                .collect();
            (world, services, addressed, objects, four_byte, taggers)
        },
    )
}

/// The ASN of each of `n` AS indices under `drawn`: an AS a pair names
/// first takes `65 536 + k`, where `k` is the 2-byte ASN of the pair's
/// alias, and every other AS `i` keeps `i + 1`. A pair is skipped when its
/// AS is its alias or either is already in an earlier pair, so every alias
/// stays a 2-byte AS of the world and no two ASes share a number. A
/// truncating `as u16` of a 4-byte AS's number is its alias's.
fn four_byte_numbering(n: usize, drawn: &FourByte) -> Vec<Asn> {
    let mut asns: Vec<Asn> = (1..=n as u32).map(Asn::new).collect();
    let mut paired = BTreeSet::new();
    for &(at, alias) in drawn {
        let (at, alias) = (at % n, alias % n);
        if at != alias && !paired.contains(&at) && !paired.contains(&alias) {
            asns[at] = Asn::new(65_536 + alias as u32 + 1);
            paired.extend([at, alias]);
        }
    }
    asns
}

/// The route objects the stable-paths oracle validates against, as
/// (prefix, origin) pairs; the engine reads the same pairs registered in
/// two `IrrDatabase`s.
#[derive(Debug, Default)]
struct Registries {
    irr: Vec<(Prefix, Asn)>,
    rpki: Vec<(Prefix, Asn)>,
}

/// True if `origin` has an object among `objects` that covers `prefix`
/// (`IrrDatabase::is_registered`: the prefix itself or a less specific
/// one), by a scan of every object.
fn registered(objects: &[(Prefix, Asn)], prefix: &Prefix, origin: Asn) -> bool {
    (objects.iter()).any(|&(object, asn)| asn == origin && object.covers(prefix))
}

/// A route object drawn over an address pool: (IPv6, pool member, length
/// before it is reduced to the family's range, origin).
type RawObject = (bool, usize, u8, u32);

fn arb_raw_object() -> impl Strategy<Value = RawObject> {
    (any::<bool>(), 0usize..4, any::<u8>(), 1u32..4)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// An `IrrDatabase` loaded in bulk and one filled by `register` in
    /// shuffled order are the same table, and it answers `is_registered`
    /// as [`registered`]'s scan does. Objects and queries come from a pool
    /// of four addresses per family that share a drawn number of high
    /// bits, so equal, nested and sibling prefixes all come up, at every
    /// length from /0 to /32 and /128, with repeats.
    #[test]
    fn a_registry_answers_what_a_scan_of_its_objects_answers(
        base in any::<u128>(),
        shared in any::<u8>(),
        pool in proptest::collection::vec(any::<u128>(), 4),
        raw in proptest::collection::vec(arb_raw_object(), 1..32),
        repeats in proptest::collection::vec(any::<usize>(), 0..8),
        order in proptest::collection::vec(any::<u64>(), 40),
        queries in proptest::collection::vec(arb_raw_object(), 1..32),
    ) {
        let object = |(v6, member, len, asn): RawObject| -> (Prefix, Asn) {
            let prefix = if v6 {
                let high = u128::MAX.checked_shl(128 - u32::from(shared % 129)).unwrap_or(0);
                let addr = base & high | pool[member] & !high;
                Prefix::V6(Ipv6Prefix::new(addr, len % 129).expect("len <= 128"))
            } else {
                let high = u32::MAX.checked_shl(32 - u32::from(shared % 33)).unwrap_or(0);
                let addr = base as u32 & high | pool[member] as u32 & !high;
                Prefix::V4(Ipv4Prefix::new(addr, len % 33).expect("len <= 32"))
            };
            (prefix, Asn::new(asn))
        };
        let mut objects: Vec<(Prefix, Asn)> = raw.into_iter().map(object).collect();
        let again: Vec<_> = repeats.iter().map(|k| objects[k % objects.len()]).collect();
        objects.extend(again);
        let bulk: IrrDatabase = objects.iter().copied().collect();
        let mut shuffled: Vec<_> = order.iter().zip(&objects).collect();
        shuffled.sort_unstable();
        let mut one_by_one = IrrDatabase::new();
        for (_, &(prefix, asn)) in shuffled {
            one_by_one.register(prefix, asn);
        }
        prop_assert_eq!(format!("{bulk:?}"), format!("{one_by_one:?}"));
        for (prefix, asn) in queries.into_iter().map(object).chain(objects.iter().copied()) {
            let scan = registered(&objects, &prefix, asn);
            prop_assert_eq!(bulk.is_registered(&prefix, asn), scan, "{} for {}", prefix, asn);
        }
    }
}

/// One AS's route in the stable-paths oracle: the AS path as a route
/// stores it (the sender first, the origin last), its local-pref, the
/// communities it carries, the neighbour it was learned from (`None`: its
/// own origination) and the prepends a steering community asked of it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Offer {
    path: Vec<Asn>,
    local_pref: u32,
    communities: BTreeSet<Community>,
    from: Option<Asn>,
    prepends: u8,
}

/// The stable-paths problem of Griffin, Shepherd and Wilfong for one
/// prefix, solved by iterating a whole-table best response from `start`:
/// every round, every AS takes its best offer among its own origination
/// and what each neighbour exports of the route it held the round before,
/// until a round changes nothing (`None` if `rounds` pass first). From no
/// routes at all it finds a fixed point; from a converged engine's routes,
/// one round tells whether they are one. Every rule is read off
/// a doc comment or an RFC, with none of `router.rs`:
///
/// * export — never back to the neighbour the route came from; RFC 1997's
///   `NO_EXPORT`/`NO_ADVERTISE` keep a route in the AS that holds it and
///   RFC 3765's `NO_PEER` keeps it off peerings; Gao–Rexford: a route
///   learned from a peer or a provider goes to customers only; the
///   exporter prepends itself once plus the prepends a community asked of
///   it. `ForwardAll` passes every community on, and `ScopedToReceiver`
///   only those whose high half is the receiver's ASN; `Vendor`: a Juniper
///   router sends them, a Cisco one only with `send-community` configured,
///   and otherwise sends none;
/// * import — a path holding the importer is a loop; `OriginValidation`:
///   an `Irr` validator rejects a route whose origin (the path's last AS)
///   has no IRR object covering the prefix (`IrrDatabase::is_registered`:
///   the prefix itself or a less specific one), unless it validates after
///   the blackhole check and the `BlackholeService` below fires; a `Strict`
///   one rejects an origin with no covering RPKI object; local-pref is
///   `LocalPrefByRole`'s for the role the sender plays; `BlackholeService`:
///   `ASN:666` (or RFC 7999's `BLACKHOLE`) raises it to the service's
///   `local_pref` when the scope admits the sender and the prefix is at
///   least `min_prefix_len` long, and adds `NO_EXPORT` under
///   `set_no_export`; `CommunityServices`: within `steering_scope`, a
///   local-pref community sets its value (the highest-valued one of
///   several), after any raise, and the prepend communities ask for the
///   most prepends any of them names. A 4-byte AS owns no RFC 1997
///   community: only RFC 7999's `BLACKHOLE` triggers its RTBH offer, no
///   steering value addresses it, and a `ScopedToReceiver` exporter
///   forwards it nothing;
/// * best — an AS that originates the prefix holds its own route,
///   whatever local-pref a learned one has (Cisco weighs a locally
///   originated route 32768, above any learned one; Juniper prefers a
///   static or aggregate route to BGP's 170), at `Route::originate`'s
///   local-pref, 250; any other ranks what it learned by `Route::prefer`'s
///   order: local-pref (higher wins), AS-path length (shorter), origin
///   code and MED (every route here is IGP with MED 0), neighbour ASN
///   (lower);
/// * route server — a transparent hop (RFC 7947): it re-exports a member's
///   route to every other member, Gao–Rexford aside, without prepending
///   itself or the prepends a community asked of it, honours `NO_EXPORT`
///   and `NO_ADVERTISE` but not `NO_PEER`, and sends communities whatever
///   its vendor and propagation policy. It applies the std row of
///   arouteserver's control table for member `peer`: `0:peer` do not
///   announce to it, `rs:peer` announce to it, `0:rs` announce to no
///   member; a `0:peer` and `rs:peer` pair is settled by `RsEvalOrder`
///   (suppress or announce rule first), a member neither names takes
///   `0:rs`'s word, and the server strips every row it reads (`0:m`,
///   `rs:m` for each member `m`, `0:rs`) before it re-exports. It tags
///   every route it imports with `rs:(100 + sender mod 5)`
///   (`RouterConfig::rs_eval_order`).
fn stable_paths_oracle(
    topo: &Topology,
    configs: &BTreeMap<Asn, RouterConfig>,
    registries: &Registries,
    prefix: Prefix,
    originated: &BTreeMap<Asn, &Vec<Community>>,
    start: BTreeMap<Asn, Offer>,
    rounds: usize,
) -> Option<BTreeMap<Asn, Offer>> {
    // The high half of the RFC 1997 communities `asn` owns, if it owns any.
    let hi = |asn: Asn| asn.as_u16();
    // A route server's control rows name 2-byte ASes: no route-server
    // world holds a 4-byte AS.
    let rs_hi = |asn: Asn| hi(asn).expect("a 2-byte route server or member");
    let servers: BTreeSet<Asn> = (topo.ases())
        .filter(|node| node.tier == Tier::RouteServer)
        .map(|node| node.asn)
        .collect();
    let export = |from: Asn, held: &Offer, to: Asn| -> Option<(Vec<Asn>, BTreeSet<Community>)> {
        let role = topo.role_of(from, to).expect("adjacent");
        let scoped = [Community::NO_EXPORT, Community::NO_ADVERTISE];
        if servers.contains(&from) {
            if held.from == Some(to) || scoped.iter().any(|c| held.communities.contains(c)) {
                return None;
            }
            let (rs, peer) = (rs_hi(from), rs_hi(to));
            let names = |c: Community| held.communities.contains(&c);
            let (suppress, announce) = (
                names(Community::new(0, peer)),
                names(Community::new(rs, peer)),
            );
            let per_peer = match configs[&from].rs_eval_order {
                RsEvalOrder::SuppressFirst if suppress => Some(false),
                RsEvalOrder::AnnounceFirst if announce => Some(true),
                _ if suppress || announce => Some(announce),
                _ => None,
            };
            if !per_peer.unwrap_or(!names(Community::new(0, rs))) {
                return None;
            }
            let members: BTreeSet<u16> = topo.neighbors(from).map(|(m, _)| rs_hi(m)).collect();
            let mut communities = held.communities.clone();
            communities.retain(|c| {
                let row =
                    (c.asn_part() == 0 || c.asn_part() == rs) && members.contains(&c.value_part());
                !row && *c != Community::new(0, rs)
            });
            return Some((held.path.clone(), communities));
        }
        if held.from == Some(to)
            || scoped.iter().any(|c| held.communities.contains(c))
            || (role == Role::Peer && held.communities.contains(&Community::NO_PEER))
        {
            return None;
        }
        let from_customer = held
            .from
            .is_none_or(|learned| topo.role_of(from, learned) == Some(Role::Customer));
        if !from_customer && role != Role::Customer {
            return None;
        }
        let prepended = std::iter::repeat_n(from, 1 + usize::from(held.prepends));
        let path = prepended.chain(held.path.iter().copied()).collect();
        let mut communities = held.communities.clone();
        if configs[&from].propagation == CommunityPropagationPolicy::ScopedToReceiver {
            communities.retain(|c| Some(c.asn_part()) == hi(to));
        }
        if configs[&from].vendor == Vendor::Cisco && !configs[&from].send_community_configured {
            communities.clear();
        }
        Some((path, communities))
    };
    let import =
        |at: Asn, sender: Asn, (path, mut communities): (Vec<Asn>, BTreeSet<Community>)| {
            if path.contains(&at) {
                return None;
            }
            let cfg = &configs[&at];
            let role = topo.role_of(at, sender).expect("adjacent");
            let admits = |scope: ActScope| scope == ActScope::Any || role == Role::Customer;
            let blackhole = cfg.services.blackhole.as_ref().filter(|bh| {
                let own = hi(at).map(|hi| Community::new(hi, BLACKHOLE_VALUE));
                (own.into_iter().chain([Community::BLACKHOLE])).any(|c| communities.contains(&c))
                    && admits(bh.scope)
                    && prefix.len() >= bh.min_prefix_len
            });
            let origin = *path.last().expect("an exported path names its origin");
            let valid = match cfg.validation {
                OriginValidation::None => true,
                OriginValidation::Irr {
                    validate_after_blackhole,
                } => {
                    let skipped = validate_after_blackhole && blackhole.is_some();
                    skipped || registered(&registries.irr, &prefix, origin)
                }
                OriginValidation::Strict => registered(&registries.rpki, &prefix, origin),
            };
            if !valid {
                return None;
            }
            let mut local_pref = match role {
                Role::Customer => cfg.local_pref.customer,
                Role::Peer => cfg.local_pref.peer,
                Role::Provider => cfg.local_pref.provider,
            };
            if let Some(bh) = blackhole {
                local_pref = bh.local_pref;
                if bh.set_no_export {
                    communities.insert(Community::NO_EXPORT);
                }
            }
            if servers.contains(&at) {
                let bucket = (sender.get() % 5) as u16;
                communities.insert(Community::new(rs_hi(at), 100 + bucket));
            }
            let mut prepends = 0;
            if admits(cfg.services.steering_scope) {
                let asked = |value: u16| {
                    hi(at).is_some_and(|hi| communities.contains(&Community::new(hi, value)))
                };
                let services = &cfg.services;
                if let Some((_, &lp)) = services.local_pref.iter().rev().find(|(&v, _)| asked(v)) {
                    local_pref = lp;
                }
                let requested = services.prepend.iter().filter(|(&v, _)| asked(v));
                prepends = requested.map(|(_, &n)| n).max().unwrap_or(0);
            }
            Some(Offer {
                path,
                local_pref,
                communities,
                from: Some(sender),
                prepends,
            })
        };
    let rank = |offer: &Offer| {
        let neighbour = offer.from.map_or(0, Asn::get);
        (
            std::cmp::Reverse(offer.local_pref),
            offer.path.len(),
            neighbour,
        )
    };

    let mut held = start;
    for _ in 0..rounds {
        let mut next = BTreeMap::new();
        for node in topo.ases() {
            let at = node.asn;
            let own = originated.get(&at).map(|communities| Offer {
                path: Vec::new(),
                local_pref: 250,
                communities: communities.iter().copied().collect(),
                from: None,
                prepends: 0,
            });
            let learned = topo.neighbors(at).filter_map(|(nb, _)| {
                let offered = export(nb, held.get(&nb)?, at)?;
                import(at, nb, offered)
            });
            if let Some(best) = own.or_else(|| learned.min_by_key(rank)) {
                next.insert(at, best);
            }
        }
        if next == held {
            return Some(held);
        }
        held = next;
    }
    None
}

/// arouteserver's `AS2_only_to_AS1_s` (SNIPPETS.md) on the five-node
/// world of `attacks::scenarios::route_manipulation`, its ASes
/// `[origin, sender, named, other, server]`: member `sender` sends route
/// server `server` its customer `origin`'s prefix tagged `0:server`
/// (announce to no member) and `server:named` (announce to member
/// `named`). Under `order`, the engine's routes and the stable-paths
/// oracle's fixed point, per AS: AS path, local-pref, sender and the
/// communities it holds (for the engine, those it received and its own
/// ingress tags).
fn only_to_named(
    [origin, sender, named, other, server]: [Asn; 5],
    order: RsEvalOrder,
) -> [BTreeMap<Asn, Offer>; 2] {
    let mut topo = Topology::new();
    topo.add_simple(origin, Tier::Stub);
    for member in [sender, named, other] {
        topo.add_simple(member, Tier::Transit);
    }
    topo.add_simple(server, Tier::RouteServer);
    topo.add_edge(server, named, EdgeKind::PeerToPeer);
    topo.add_edge(server, other, EdgeKind::PeerToPeer);
    topo.add_edge(sender, origin, EdgeKind::ProviderToCustomer);
    topo.add_edge(server, sender, EdgeKind::PeerToPeer);
    let prefix: Prefix = "2.0.1.0/24".parse().expect("valid prefix");
    let hi = |asn: Asn| asn.as_u16().expect("a 2-byte test ASN");
    let communities = vec![
        Community::new(0, hi(server)),
        Community::new(hi(server), hi(named)),
    ];
    let originated = BTreeMap::from([(origin, &communities)]);
    let mut configs: BTreeMap<Asn, RouterConfig> = (topo.ases())
        .map(|node| (node.asn, RouterConfig::defaults(node.asn)))
        .collect();
    configs.get_mut(&server).expect("configured").rs_eval_order = order;
    let episode = Origination::announce(origin, prefix, communities.clone());
    let res = spec_for(&topo, configs.values().cloned().collect(), Vec::new())
        .compile()
        .run(&[episode]);
    assert!(res.converged, "{order:?}");
    let engine = held_offers(&res, prefix);
    let oracle = stable_paths_oracle(
        &topo,
        &configs,
        &Registries::default(),
        prefix,
        &originated,
        BTreeMap::new(),
        16,
    )
    .expect("a five-node world settles");
    [engine, oracle]
}

/// The routes a run's ASes hold for `prefix`, as the oracle states them:
/// the communities are those each route received plus its own ingress tags.
fn held_offers(res: &SimResult, prefix: Prefix) -> BTreeMap<Asn, Offer> {
    (res.final_routes.get(&prefix).into_iter())
        .flat_map(|finals| finals.iter())
        .map(|(&asn, route)| {
            let own = route.own_tags.iter().flatten();
            let offer = Offer {
                path: route.path.to_vec(),
                local_pref: route.local_pref,
                communities: route.communities.iter().chain(own).copied().collect(),
                from: route.source.neighbor(),
                prepends: route.pending_prepend,
            };
            (asn, offer)
        })
        .collect()
}

/// [`only_to_named`] on ASes 21, 22, 24, 25 and 29: of the server's other
/// members only 24 receives the prefix, under either evaluation order, and
/// the engine's routes (AS path, local-pref, sender) are the oracle's
/// fixed point. Communities are left out: the engine strips `rs:v` only
/// for `v` above 104 (ROADMAP item 1, PR 47's FOUND line), so `29:24`
/// reaches member 24, where the oracle strips every row that names a
/// member.
#[test]
fn a_route_server_announces_only_to_the_member_its_std_controls_name() {
    let asns = [21, 22, 24, 25, 29].map(Asn::new);
    let [_, _, named, other, _] = asns;
    let chosen = |routes: BTreeMap<Asn, Offer>| -> BTreeMap<Asn, (Vec<Asn>, u32, Option<Asn>)> {
        (routes.into_iter())
            .map(|(asn, offer)| (asn, (offer.path, offer.local_pref, offer.from)))
            .collect()
    };
    for order in [RsEvalOrder::SuppressFirst, RsEvalOrder::AnnounceFirst] {
        let [engine, oracle] = only_to_named(asns, order).map(chosen);
        let receivers = |routes: &BTreeMap<Asn, _>| {
            let members = [named, other].into_iter();
            members
                .filter(|m| routes.contains_key(m))
                .collect::<Vec<_>>()
        };
        assert_eq!(receivers(&oracle), [named], "{order:?}: the oracle");
        assert_eq!(receivers(&engine), [named], "{order:?}: the engine");
        assert_eq!(engine, oracle, "{order:?}");
    }
}

/// [`only_to_named`] on ASes above 104 (origin 121, sender 127, named
/// 124, other 125, server 129), where the engine's `rs:v` stripping and
/// the std table's rows agree, so communities are compared too: the
/// server strips `0:129` and `129:124` and tags what it learns from 127
/// with `129:102`, which is all member 124 holds. The sender is 127, not
/// 122, so its bucket mod 5 (2) is no remainder mod 4.
#[test]
fn a_route_server_tags_what_it_learns_and_strips_the_rows_it_reads() {
    let asns = [121, 127, 124, 125, 129].map(Asn::new);
    let [_, _, named, other, _] = asns;
    for order in [RsEvalOrder::SuppressFirst, RsEvalOrder::AnnounceFirst] {
        let [engine, oracle] = only_to_named(asns, order);
        let held =
            |routes: &BTreeMap<Asn, Offer>| routes.get(&named).map(|o| o.communities.clone());
        let tag = BTreeSet::from([Community::new(129, 102)]);
        assert_eq!(held(&oracle), Some(tag.clone()), "{order:?}: the oracle");
        assert_eq!(held(&engine), Some(tag), "{order:?}: the engine");
        assert!(!engine.contains_key(&other), "{order:?}");
        assert_eq!(engine, oracle, "{order:?}");
    }
}

/// A 4-byte AS owns no RFC 1997 community, on a world where a truncating
/// `as u16` would give it one: AS 65 556 reads as AS 20 in 16 bits. Its
/// customer 10 tags `20:666` and `20:70`, which would raise it to its RTBH
/// local-pref (300) or steer it to 70; its customer 20 exports under
/// `ScopedToReceiver` and tags `20:1`, which would reach it. The engine's
/// routes (communities included) are the oracle's fixed point: 65 556
/// holds 10's route at its customer local-pref, and 20's with no community.
#[test]
fn a_four_byte_as_owns_no_rfc1997_community() {
    let [origin, alias, wide] = [10, 20, 65_556].map(Asn::new);
    let mut topo = Topology::new();
    topo.add_simple(wide, Tier::Transit);
    for stub in [origin, alias] {
        topo.add_simple(stub, Tier::Stub);
        topo.add_edge(wide, stub, EdgeKind::ProviderToCustomer);
    }
    let mut configs: BTreeMap<Asn, RouterConfig> = (topo.ases())
        .map(|node| (node.asn, RouterConfig::defaults(node.asn)))
        .collect();
    let services = &mut configs.get_mut(&wide).expect("configured").services;
    services.blackhole = Some(BlackholeService {
        min_prefix_len: 16,
        local_pref: 300,
        ..BlackholeService::default()
    });
    services.local_pref = BTreeMap::from([(70, 70)]);
    services.steering_scope = ActScope::Any;
    configs.get_mut(&alias).expect("configured").propagation =
        CommunityPropagationPolicy::ScopedToReceiver;
    let prefix = |s: &str| -> Prefix { s.parse().expect("valid prefix") };
    let episodes = [
        Origination::announce(
            origin,
            prefix("10.1.0.0/16"),
            vec![Community::new(20, BLACKHOLE_VALUE), Community::new(20, 70)],
        ),
        Origination::announce(alias, prefix("10.2.0.0/16"), vec![Community::new(20, 1)]),
    ];
    let res = spec_for(&topo, configs.values().cloned().collect(), Vec::new())
        .compile()
        .run(&episodes);
    assert!(res.converged);
    for ep in &episodes {
        let originated = BTreeMap::from([(ep.origin, &ep.communities)]);
        let oracle = stable_paths_oracle(
            &topo,
            &configs,
            &Registries::default(),
            ep.prefix,
            &originated,
            BTreeMap::new(),
            16,
        )
        .expect("a three-node world settles");
        assert_eq!(held_offers(&res, ep.prefix), oracle, "{}", ep.prefix);
        let at_wide = &oracle[&wide];
        let customer = RouterConfig::defaults(wide).local_pref.customer;
        assert_eq!(at_wide.local_pref, customer, "{}", ep.prefix);
        if ep.origin == alias {
            assert!(at_wide.communities.is_empty(), "{:?}", at_wide.communities);
        }
    }
}

/// ROADMAP item 9(ii) — *action communities settle where the documents
/// say*: RTBH raises, steering local-prefs and requested prepends, over
/// worlds where every AS forwards every community or runs the
/// `ScopedToReceiver` defense, some validate origins against partly
/// registered IRR and RPKI, some run Cisco routers that send no
/// communities, up to two hold 4-byte ASNs whose low 16 bits are another
/// AS's (one that offers RTBH hears its alias's `k:666` from a neighbour
/// its scope admits), and no route server intervenes. Per prefix,
/// [`stable_paths_oracle`] iterates a whole-table best response to a fixed
/// point; wherever it and the engine both converge, the engine's routes
/// (AS path, local-pref, communities, sender, requested prepends) are a
/// fixed point of the same best response, and equal to the oracle's on
/// all but a bounded few prefixes, where BGP settled in another stable
/// state. Draws where either side does not converge are skipped, and the
/// test says how many were compared, in how many the defense moved a route (against the
/// oracle's fixed point with every AS forwarding every community), in how
/// many validation did (against the one with no AS validating), and in
/// how many a silent exporter did (against the one with every AS sending
/// communities).
///
/// Cisco's cap of 32 added communities cannot bind here: `RouterConfig::
/// defaults` configures no tagging, a route carries at most two ingress
/// tags when it does (origin class and location), and no AS adds egress
/// tags. So the oracle states the send-community default alone.
#[test]
fn action_communities_settle_at_the_stable_paths_fixed_point() {
    let cases = ProptestConfig::default().cases;
    let strategy = arb_serviced_world();
    let mut rng = TestRng::deterministic(concat!(
        module_path!(),
        "::action_communities_settle_at_the_stable_paths_fixed_point"
    ));
    let (mut compared, mut acted, mut scoped, mut validated) = (0u32, 0u32, 0u32, 0u32);
    let (mut silenced, mut wedged, mut wide, mut tagged_wide) = (0u32, 0u32, 0u32, 0u32);
    // What is compared with the oracle's fixed point from no routes:
    // (AS path, local-pref) per AS.
    let chosen = |fixed_point: BTreeMap<Asn, Offer>| -> BTreeMap<Asn, (Vec<Asn>, u32)> {
        fixed_point
            .into_iter()
            .map(|(asn, offer)| (asn, (offer.path, offer.local_pref)))
            .collect()
    };
    for case in 0..cases {
        let (mut raw, services, addressed, objects, four_byte, taggers) =
            strategy.generate(&mut rng);
        let n = raw.n_nodes;
        let last_tier = &mut raw.tiers[(n - 1) % 16];
        if *last_tier == 3 {
            *last_tier = 1; // `build_world` would make it a route server
        }
        let numbering = four_byte_numbering(n, &four_byte);
        wide += numbering
            .iter()
            .filter(|asn| asn.as_u16().is_none())
            .count() as u32;
        let asn_of = |i: usize| numbering[i % n];
        let (topo, _, collectors, mut originations) = build_numbered_world(&raw, asn_of);
        for (k, o) in originations
            .iter_mut()
            .enumerate()
            .filter(|(_, o)| !o.withdraw)
        {
            for &(owner, value) in &addressed[k % addressed.len()] {
                let Some(owner) = asn_of(owner).as_u16() else {
                    continue; // a 4-byte AS owns no RFC 1997 community
                };
                o.communities
                    .push(Community::new(owner, ACTION_VALUES[usize::from(value)]));
            }
            if objects[k % objects.len()].1 == 0 {
                o.communities.push(Community::BLACKHOLE);
            }
        }
        // A (prefix, origin) pair's first episode draws its route objects.
        let mut registries = Registries::default();
        let mut drawn = BTreeSet::new();
        for (o, &(kind, _)) in originations.iter().zip(&objects) {
            if !drawn.insert((o.prefix, o.origin)) {
                continue;
            }
            let covering = "10.0.0.0/8".parse().expect("valid prefix");
            match kind {
                0 | 1 => {}
                2 => registries.irr.push((o.prefix, o.origin)),
                _ => {
                    let object = if kind == 3 { covering } else { o.prefix };
                    registries.irr.push((object, o.origin));
                    registries.rpki.push((object, o.origin));
                }
            }
        }
        let mut configs = BTreeMap::new();
        for (i, offered) in services.iter().enumerate().take(n) {
            let mut cfg = RouterConfig::defaults(asn_of(i)); // `ForwardAll`
            cfg.validation = offered.validation();
            if offered.cisco {
                cfg.vendor = Vendor::Cisco;
            }
            cfg.send_community_configured = offered.send_configured;
            if offered.scoped {
                cfg.propagation = CommunityPropagationPolicy::ScopedToReceiver;
            }
            let scope = |any: bool| {
                if any {
                    ActScope::Any
                } else {
                    ActScope::CustomersOnly
                }
            };
            if let Some((any, floor, set_no_export, raise)) = offered.blackhole {
                cfg.services.blackhole = Some(BlackholeService {
                    min_prefix_len: [8, 16, 24][usize::from(floor)],
                    set_no_export,
                    scope: scope(any),
                    local_pref: [150, 200, 300][usize::from(raise)],
                });
            } else if cfg.validation
                == (OriginValidation::Irr {
                    validate_after_blackhole: true,
                })
            {
                // The §6.3 misconfiguration is a route-map in front of an
                // RTBH service, so an AS that has it offers one.
                cfg.services.blackhole = Some(BlackholeService {
                    min_prefix_len: 16,
                    ..BlackholeService::default()
                });
            }
            if let Some(any) = offered.steering {
                cfg.services.prepend = (1..=3).map(|n| (prepend_value(n), n)).collect();
                cfg.services.local_pref = [(70, 70), (80, 80), (90, 90)].into_iter().collect();
                cfg.services.steering_scope = scope(any);
            }
            configs.insert(cfg.asn, cfg);
        }
        // Each 4-byte AS that offers RTBH hears its alias's `k:666` from a
        // neighbour its scope admits, on a /24 that neighbour originates and
        // both registries cover, so origin validation passes it: a
        // truncating `as u16` would trigger the offer there.
        let wide_ases = numbering
            .iter()
            .enumerate()
            .filter(|(_, asn)| asn.as_u16().is_none());
        for ((i, &asn), &pick) in wide_ases.zip(&taggers) {
            let Some(offer) = &configs[&asn].services.blackhole else {
                continue;
            };
            let in_scope: Vec<Asn> = topo
                .neighbors(asn)
                .filter(|&(_, role)| offer.scope == ActScope::Any || role == Role::Customer)
                .map(|(neighbour, _)| neighbour)
                .collect();
            let Some(&tagger) = in_scope.get(pick % in_scope.len().max(1)) else {
                continue;
            };
            let prefix: Prefix = format!("10.255.{i}.0/24").parse().expect("valid prefix");
            let alias = u16::try_from(asn.get() - 65_536).expect("an alias is a 2-byte AS");
            let tagged = vec![Community::new(alias, BLACKHOLE_VALUE)];
            originations.push(Origination::announce(tagger, prefix, tagged));
            registries.irr.push((prefix, tagger));
            registries.rpki.push((prefix, tagger));
            tagged_wide += 1;
        }
        let (mut irr, mut rpki) = (IrrDatabase::new(), IrrDatabase::new());
        for &(prefix, origin) in &registries.irr {
            irr.register(prefix, origin);
        }
        for &(prefix, origin) in &registries.rpki {
            rpki.register(prefix, origin);
        }
        let res = spec_for(&topo, configs.values().cloned().collect(), collectors)
            .irr(&irr)
            .rpki(&rpki)
            .compile()
            .run(&originations);
        if !res.converged {
            continue; // an oscillating world has no converged state to read
        }

        // What each origin announces each prefix with: its last episode in
        // time order (ties in schedule order), unless that withdrew.
        let mut by_time: Vec<&Origination> = originations.iter().collect();
        by_time.sort_by_key(|o| o.time);
        let mut announced: BTreeMap<Prefix, BTreeMap<Asn, Option<&Vec<Community>>>> =
            BTreeMap::new();
        for o in by_time {
            let list = (!o.withdraw).then_some(&o.communities);
            announced
                .entry(o.prefix)
                .or_default()
                .insert(o.origin, list);
        }
        // The same world with the defense, and then validation, switched
        // off, to tell the draws in which each moved a route.
        let mut forwarding_all = configs.clone();
        for cfg in forwarding_all.values_mut() {
            cfg.propagation = CommunityPropagationPolicy::ForwardAll;
        }
        let mut unvalidated = configs.clone();
        for cfg in unvalidated.values_mut() {
            cfg.validation = OriginValidation::None;
        }
        let mut sending = configs.clone();
        for cfg in sending.values_mut() {
            cfg.send_community_configured = true;
        }
        let mut settled = Vec::new();
        let (mut defended, mut checked, mut silent) = (false, false, false);
        for (&prefix, origins) in &announced {
            let originated = origins
                .iter()
                .filter_map(|(&origin, list)| Some((origin, (*list)?)))
                .collect();
            let oracle = |configs| {
                let rounds = 4 * n + 8;
                stable_paths_oracle(
                    &topo,
                    configs,
                    &registries,
                    prefix,
                    &originated,
                    BTreeMap::new(),
                    rounds,
                )
                .map(chosen)
            };
            match oracle(&configs) {
                Some(fixed_point) => {
                    defended |= oracle(&forwarding_all).as_ref() != Some(&fixed_point);
                    checked |= oracle(&unvalidated).as_ref() != Some(&fixed_point);
                    silent |= oracle(&sending).as_ref() != Some(&fixed_point);
                    settled.push((prefix, originated, fixed_point));
                }
                None => break,
            }
        }
        if settled.len() < announced.len() {
            continue; // the best response did not settle within its bound
        }
        let mut moved = false;
        for (prefix, originated, fixed_point) in settled {
            let finals: BTreeMap<Asn, Offer> = (res.final_routes.get(&prefix).into_iter())
                .flat_map(|finals| finals.iter())
                .map(|(&asn, route)| {
                    let offer = Offer {
                        path: route.path.to_vec(),
                        local_pref: route.local_pref,
                        communities: route.communities.iter().copied().collect(),
                        from: route.source.neighbor(),
                        prepends: route.pending_prepend,
                    };
                    (asn, offer)
                })
                .collect();
            // BGP can settle in more than one stable state (a wedgie, RFC
            // 4264), and which one the engine reaches depends on the order
            // its episodes arrive in. So the engine's routes must be a
            // fixed point of the best response, and the one found from no
            // routes wherever they are not another.
            let stable = stable_paths_oracle(
                &topo,
                &configs,
                &registries,
                prefix,
                &originated,
                finals.clone(),
                1,
            );
            assert!(
                stable.is_some(),
                "case {case}: the engine's routes for {prefix} are no stable state: {finals:?}"
            );
            let engine = chosen(finals);
            wedged += u32::from(engine != fixed_point);
            let prefs = RouterConfig::defaults(MONITOR_ASN).local_pref;
            let plain = [prefs.customer, prefs.peer, prefs.provider, 250];
            moved |= engine.values().any(|(path, local_pref)| {
                !plain.contains(local_pref) || path.windows(2).any(|hop| hop[0] == hop[1])
            });
        }
        compared += 1;
        acted += u32::from(moved);
        scoped += u32::from(defended);
        validated += u32::from(checked);
        silenced += u32::from(silent);
    }
    eprintln!(
        "action communities: {compared} of {cases} draws compared with the oracle, \
         {acted} of them holding a route an action community moved, \
         {scoped} a route the ScopedToReceiver defense moved, \
         {validated} a route origin validation moved, \
         {silenced} a route a silent exporter moved; \
         {wedged} prefixes settled in another stable state than the oracle's; \
         {wide} 4-byte ASes drawn, {tagged_wide} of them heard their alias's k:666"
    );
    assert!(
        compared * 2 >= cases,
        "only {compared} of {cases} draws converged on both sides"
    );
    assert!(
        acted * 4 >= compared,
        "only {acted} draws exercised a service"
    );
    assert!(
        scoped * 10 >= compared,
        "only {scoped} draws exercised the defense"
    );
    assert!(
        validated * 10 >= compared,
        "only {validated} draws exercised origin validation"
    );
    assert!(
        silenced * 10 >= compared,
        "only {silenced} draws exercised a silent exporter"
    );
    // These draws settle where the oracle does, every prefix of them. The
    // one that once did not (case 115, `10.0.0.0/16`) had AS6 hold an RTBH
    // route raised to local-pref 300 over its own origination, which no
    // router does. A wedgie (RFC 4264) may still leave a prefix in another
    // stable state; more than a few such prefixes means the engine settles
    // elsewhere than the oracle in general.
    assert!(
        wedged * 100 <= compared,
        "{wedged} prefixes settled in another stable state than the oracle's"
    );
}
