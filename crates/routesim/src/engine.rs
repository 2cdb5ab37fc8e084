//! The propagation engine: a **compile-once / run-many** session API over
//! the index-based core.
//!
//! # Two-phase model
//!
//! The paper's methodology is inherently A/B: every scenario compares a
//! baseline episode against an attacked episode over the *same* topology
//! and configs, and the wild experiments replay dozens of episode schedules
//! per setup. The engine therefore splits setup from execution:
//!
//! * [`SimSpec`] is the builder. It owns (or borrows — every heavy input is
//!   a [`Cow`]) the per-AS configs, collectors, IRR/RPKI registries,
//!   retention policy, and thread count.
//! * [`SimSpec::compile`] resolves everything **once** into a
//!   [`CompiledSim`]: per-AS configs as a dense [`NodeId`]-indexed `Vec`,
//!   collector sessions interned to node ids, the topology's slot offsets
//!   computed, and the per-prefix event budget hoisted.
//! * [`CompiledSim::run`] replays any episode schedule against that
//!   compiled state. It takes `&self`, so one session runs many schedules —
//!   baseline and attack, candidate after candidate — and is shareable
//!   read-only across threads.
//!
//! # Flat adjacency-slot RIBs over a RouteId arena
//!
//! Per-neighbor router state ([`crate::router::NodeState`]) is dense and
//! **slot-indexed**: each node's Adj-RIB-In and last-exported cache are
//! arrays addressed by the neighbor's position in the node's adjacency list.
//! Events carry the receiver-side slot (written beside each entry when the
//! edge was added), so the per-event hot path is pure `Vec` indexing end to
//! end — no `BTreeMap<Asn, …>` anywhere on it. Those arrays hold
//! [`RouteId`]s into a per-prefix-worker [`RouteArena`] (hash-consed routes,
//! u32 handles): the export-diffing predicate is an id compare, events
//! allocate nothing, and each distinct route is stored once per prefix.
//!
//! # Dirty-set batched convergence
//!
//! Within [`CompiledSim::run`], importing an update only marks the
//! receiving node **dirty**; once the in-flight queue drains, every dirty
//! node recomputes its exports exactly once (ascending node order) and the
//! import/export cycle repeats until nothing is dirty. Nodes whose best
//! route id is unchanged skip the recompute outright, so steady-state
//! episodes converge without cloning a single route. The batching is
//! semantically transparent — `tests/determinism.rs` pins the fixed point
//! against a per-import re-export reference loop.
//!
//! # Per-worker scratch: marginal cost ∝ flood footprint
//!
//! All of that per-prefix state — the RIB/export slot arrays, the arena, the
//! queue, the dirty set, the collector dedup state — lives in one reusable
//! crate-internal `SimScratch` per worker, not in fresh allocations per
//! prefix. The slot arrays are flat over the whole network's directed-edge
//! slot space (`Topology::slot_offsets`, the degree prefix-sum, computed
//! once per session), and reset between prefixes is a **generation-stamp
//! bump**: a node's state is live only while its stamp matches the current
//! prefix's epoch, and the first touch per prefix clears just that node's
//! slot range. A prefix therefore pays per-node setup only for the nodes its
//! flood actually reaches, and the final-routes sweep iterates the touched
//! list instead of every node. Within an export pass, the export value is
//! additionally memoized per neighbor role for nodes whose egress policy is
//! neighbor-independent (everything except route servers and the
//! `ScopedToReceiver` defense), so a high-degree transit interns each
//! changed export once per role instead of once per neighbor.
//!
//! # Unread leaves: a flood costs what is read
//!
//! The footprint is the cost of what *changed*; most of it is still work
//! nobody *reads*. An AS with no customer, no collector session and no
//! route-server role can never export a route it learned (Gao–Rexford: the
//! route came from a peer or provider and every neighbor is one), so what
//! it imports shows only in retained `final_routes`, in a [`SimSnapshot`],
//! or once it originates itself. `SimSpec::compile` marks those nodes once
//! (`unread_leaves`, which carries the argument). The drain loop pops a
//! delivery to such a node, counts it in `events` against the budget like
//! any other, and — unless the node originates in this schedule, or in the
//! baseline a delta continues — treats it in one of two ways:
//!
//! * **drop** (a campaign flood or a delta, in a session that does not
//!   retain [`RetainRoutes::All`]): no stamp, no admission, no intern,
//!   no dirty mark, hence no best scan and no adjacency walk. A
//!   delta's clone is thrown away after the flood, so the leaf keeps what
//!   the baseline left it, which nothing reads. A prefix retained by
//!   [`RetainRoutes::Prefixes`] keeps no route at such a leaf: its listed
//!   `readers` are not marked unread, and the retention sweep skips the
//!   other leaves;
//! * **in full** ([`CompiledSim::run_snapshot`]'s flood, whose state
//!   outlives it, and every flood of a [`RetainRoutes::All`] session,
//!   which keeps a route at every AS).
//!
//! On the generated internets that is ≈ 87 % of the ASes and ≈ 85 % of the
//! deliveries. `run_snapshot(..).0` is the un-elided oracle
//! `tests/determinism.rs` holds campaign floods to; a snapshot and a delta
//! finish the key set of the campaign of their schedule.
//!
//! # Collector sweep: only sessions whose peer's best route moved
//!
//! What a peer advertises to a collector is a pure function of its best
//! route, and a best route moves exactly when its node runs an export
//! pass. Each pass of a node that carries collector sessions therefore
//! leaves the episode a record (`SessionPass`: the best entry and the
//! export it memoized for the role the monitor plays), and the sweep that
//! ends a converged episode visits those sessions only, in session order,
//! reading the memoized export where there is one and deriving it from the
//! recorded best entry where there is not (route servers,
//! `ScopedToReceiver`, a role with no neighbor) — no RIB rescan, and no
//! session visited for an episode that changed nothing. The record is
//! drained per episode, so a snapshot's is empty. A prefix that
//! diverged (budget cut) dropped its dirty set before the
//! passes ran, so it sweeps every live session through
//! [`NodeState::export_for`] instead; `tests/determinism.rs` holds the
//! recorded sweep to that full one on random worlds.
//!
//! # Parallelism & determinism
//!
//! Distinct prefixes never interact (no aggregation, no per-table limits),
//! so one driver shards a schedule by prefix: [`crate::Campaign`], on the
//! worker pool of `shard.rs` (which describes claiming, publishing, ordered
//! merge and panic handling, once). [`CompiledSim::run`] *is* a campaign,
//! over a sink that keeps every outcome, finished into a [`SimResult`] with
//! every collector named and each feed sorted by `(time, peer, prefix)`.
//! `threads = 1` and `threads = N` therefore produce identical
//! [`SimResult`]s, and repeated [`CompiledSim::run`] calls are bit-identical
//! (`run` never mutates the session). Scratch reuse is semantically
//! invisible (`tests/determinism.rs` pins reuse ≡ fresh state per prefix).
//! A worker's panic is re-raised naming the failing chunk and its prefixes.

use crate::campaign::{Campaign, CampaignSink};
use crate::classify::{ClassKey, PrefixClassifier};
use crate::collector::{CollectorObservation, CollectorSpec, FeedKind};
use crate::policy::{CommunityPropagationPolicy, IrrDatabase, RouterConfig};
use crate::route::{Route, RouteArena, RouteId};
use crate::router::{self, NodeState, RibEntry, ValidationCtx};
use crate::scratch::{EventQueue, SessionPass, SimScratch, SimSnapshot};
use bgpworms_topology::{NodeId, Role, Tier, Topology};
use bgpworms_types::{AsPath, Asn, Community, Origin, Prefix};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// One announcement (or withdrawal) episode injected at an origin AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Origination {
    /// The AS injecting the announcement.
    pub origin: Asn,
    /// The prefix announced or withdrawn.
    pub prefix: Prefix,
    /// Communities attached at origination (the attacker's lever).
    pub communities: Vec<Community>,
    /// RFC 8092 large communities attached at origination.
    pub large_communities: Vec<bgpworms_types::LargeCommunity>,
    /// Pseudo-time of the episode (drives MRT timestamps and ordering).
    pub time: u32,
    /// True to withdraw instead of announce.
    pub withdraw: bool,
    /// For forged-origin (type-1) hijacks: pretend the path already ends in
    /// this AS so origin validation sees the legitimate origin.
    pub forged_origin: Option<Asn>,
}

// A workload is one of these per announced prefix, a full table hundreds
// of thousands: a field that widens it widens every workload.
const _: () = assert!(
    size_of::<Origination>() <= 88,
    "Origination outgrows 88 bytes: a workload holds one per announced prefix"
);

impl Origination {
    /// A plain announcement at time 0.
    pub fn announce(origin: Asn, prefix: Prefix, communities: Vec<Community>) -> Self {
        Origination {
            origin,
            prefix,
            communities,
            large_communities: Vec::new(),
            time: 0,
            withdraw: false,
            forged_origin: None,
        }
    }

    /// A withdrawal episode.
    pub fn withdrawal(origin: Asn, prefix: Prefix, time: u32) -> Self {
        Origination {
            origin,
            prefix,
            communities: Vec::new(),
            large_communities: Vec::new(),
            time,
            withdraw: true,
            forged_origin: None,
        }
    }

    /// Builder: set the episode time.
    pub fn at(mut self, time: u32) -> Self {
        self.time = time;
        self
    }

    /// Builder: forge the origin (type-1 hijack).
    pub fn forging(mut self, victim: Asn) -> Self {
        self.forged_origin = Some(victim);
        self
    }

    /// Builder: attach RFC 8092 large communities.
    pub fn with_large(mut self, large: Vec<bgpworms_types::LargeCommunity>) -> Self {
        self.large_communities = large;
        self
    }
}

/// Which per-AS final routes to keep in the result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum RetainRoutes {
    /// Keep nothing (cheapest; collector output only).
    #[default]
    None,
    /// Keep final best routes for the listed prefixes at every AS except
    /// the unread leaves (see [`CompiledSim::unread_nodes`]) that neither
    /// originate the prefix nor are listed as `readers`. A campaign flood
    /// or a delta drops a delivery to one of those leaves, as for an
    /// unretained prefix; a snapshot's flood still runs in full. All three
    /// keep that key set.
    ///
    /// Sound for forwarding, where a packet stands at a leaf only where it
    /// starts or where it is delivered: a next hop is an AS that exported
    /// the route, and a leaf exports only its own. So the `readers` are
    /// every AS whose route is looked up — for a ping's reverse path, every
    /// AS that can deliver the probe.
    Prefixes {
        /// The prefixes retained.
        prefixes: BTreeSet<Prefix>,
        /// The leaves that keep their routes anyway.
        readers: BTreeSet<Asn>,
    },
    /// Keep every prefix's final best route at every AS, flooding in full
    /// (small topologies / attack scenarios only).
    All,
}

/// Everything a run produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Per-collector observations, sorted by (time, peer, prefix).
    pub observations: BTreeMap<String, Vec<CollectorObservation>>,
    /// Final best route per (prefix, AS) — only for retained prefixes.
    pub final_routes: BTreeMap<Prefix, FinalRoutes>,
    /// Total update events delivered across all prefixes — counted whether
    /// or not anyone reads the receiver (see [`PrefixOutcome::events`]).
    pub events: u64,
    /// True if every prefix converged within the event budget.
    pub converged: bool,
}

impl SimResult {
    /// Looking-glass query: the best route of `asn` for `prefix`, when
    /// retained.
    pub fn route_at(&self, asn: Asn, prefix: &Prefix) -> Option<&Route> {
        self.final_routes.get(prefix)?.get(&asn)
    }
}

/// Builder for a simulation session: topology + per-AS configs +
/// collectors + registries + run policy.
///
/// Every heavy input is a [`Cow`], so a spec can *borrow* a workload's
/// config map, collector list, and registries without cloning them — the
/// clone happens only if the caller then mutates that input (e.g.
/// [`SimSpec::configure`] on a borrowed map). [`SimSpec::compile`] turns
/// the spec into a reusable [`CompiledSim`] session.
#[derive(Debug, Clone)]
pub struct SimSpec<'a> {
    topo: &'a Topology,
    configs: Cow<'a, BTreeMap<Asn, RouterConfig>>,
    collectors: Cow<'a, [CollectorSpec]>,
    irr: Cow<'a, IrrDatabase>,
    rpki: Cow<'a, IrrDatabase>,
    retain: RetainRoutes,
    threads: usize,
}

impl<'a> SimSpec<'a> {
    /// A spec over `topo` with default configs for every AS, no
    /// collectors, empty registries, no retention, one thread.
    pub fn new(topo: &'a Topology) -> Self {
        SimSpec {
            topo,
            configs: Cow::Owned(BTreeMap::new()),
            collectors: Cow::Owned(Vec::new()),
            irr: Cow::Owned(IrrDatabase::new()),
            rpki: Cow::Owned(IrrDatabase::new()),
            retain: RetainRoutes::None,
            threads: 1,
        }
    }

    /// Borrows a full per-AS config map (ASes missing from it get
    /// [`RouterConfig::defaults`]). Replaces any configs set so far.
    pub fn configs(mut self, configs: &'a BTreeMap<Asn, RouterConfig>) -> Self {
        self.configs = Cow::Borrowed(configs);
        self
    }

    /// Sets (replacing) the config of one AS.
    pub fn configure(mut self, cfg: RouterConfig) -> Self {
        self.configs.to_mut().insert(cfg.asn, cfg);
        self
    }

    /// Borrows a collector list. Replaces any collectors set so far.
    pub fn collectors(mut self, collectors: &'a [CollectorSpec]) -> Self {
        self.collectors = Cow::Borrowed(collectors);
        self
    }

    /// Adds one collector.
    pub fn collector(mut self, spec: CollectorSpec) -> Self {
        self.collectors.to_mut().push(spec);
        self
    }

    /// Borrows the (pollutable) IRR database.
    pub fn irr(mut self, irr: &'a IrrDatabase) -> Self {
        self.irr = Cow::Borrowed(irr);
        self
    }

    /// Borrows the ground-truth (RPKI-like) database.
    pub fn rpki(mut self, rpki: &'a IrrDatabase) -> Self {
        self.rpki = Cow::Borrowed(rpki);
        self
    }

    /// Registers a route object in the IRR (clones a borrowed database
    /// once, on first mutation).
    pub fn register_irr(mut self, prefix: Prefix, origin: Asn) -> Self {
        self.irr.to_mut().register(prefix, origin);
        self
    }

    /// Registers ground truth in the RPKI-like database.
    pub fn register_rpki(mut self, prefix: Prefix, origin: Asn) -> Self {
        self.rpki.to_mut().register(prefix, origin);
        self
    }

    /// Sets the route-retention policy.
    pub fn retain(mut self, retain: RetainRoutes) -> Self {
        self.retain = retain;
        self
    }

    /// Sets the worker-thread count (1 = sequential; results are identical
    /// either way). `threads` shards prefixes only — workers claim a
    /// campaign's chunks, [`CompiledSim::run`]'s included — and each flood
    /// is always the serial export sweep.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Compiles the session: slot offsets computed, configs resolved once
    /// into a dense [`NodeId`]-indexed `Vec`, collector peers interned,
    /// event budget hoisted. The returned [`CompiledSim`] runs any number
    /// of episode schedules.
    pub fn compile(self) -> CompiledSim<'a> {
        let adjacency_entries = self.topo.adjacency_len() as u64;
        let n = self.topo.len();
        let mut configs = Vec::with_capacity(n);
        let mut asns = Vec::with_capacity(n);
        let mut is_rs = Vec::with_capacity(n);
        for id in self.topo.node_ids() {
            let node = self.topo.node_by_id(id);
            configs.push(
                self.configs
                    .get(&node.asn)
                    .cloned()
                    .unwrap_or_else(|| RouterConfig::defaults(node.asn)),
            );
            asns.push(node.asn);
            is_rs.push(node.tier == Tier::RouteServer);
        }
        // Collector sessions resolved to node ids; peers absent from the
        // topology are dropped here, once, instead of per episode.
        let mut collector_peers = Vec::new();
        for (ci, spec) in self.collectors.iter().enumerate() {
            for &(peer, feed) in &spec.peers {
                if let Some(id) = self.topo.node_id(peer) {
                    collector_peers.push((ci, id, feed));
                }
            }
        }
        // Node → sessions, so an export pass can tell in two loads whether
        // a collector is listening (stable sort: ascending within a node).
        let mut node_sessions: Vec<u32> = (0..collector_peers.len() as u32).collect();
        node_sessions.sort_by_key(|&si| collector_peers[si as usize].1);
        let mut session_offsets = vec![0u32; n + 1];
        for &(_, peer, _) in &collector_peers {
            session_offsets[peer.index() + 1] += 1;
        }
        for i in 0..n {
            session_offsets[i + 1] += session_offsets[i];
        }
        let mut unread = unread_leaves(self.topo, &is_rs, &session_offsets);
        if let RetainRoutes::Prefixes { readers, .. } = &self.retain {
            for id in readers.iter().filter_map(|&asn| self.topo.node_id(asn)) {
                unread[id.index()] = false;
            }
        }
        let collector_names = self.collectors.iter().map(|s| s.name.clone()).collect();
        // The prefix-sensitivity summary the campaign's flood memoization
        // keys classes by — compiled from the *resolved* configs, so
        // defaulted ASes contribute their features too.
        let classifier = PrefixClassifier::from_configs(configs.iter());
        CompiledSim {
            topo: self.topo,
            offsets: self.topo.slot_offsets(),
            configs,
            asns,
            is_rs,
            unread,
            collector_names,
            collector_peers,
            session_offsets,
            node_sessions,
            irr: self.irr,
            rpki: self.rpki,
            retain: self.retain,
            threads: self.threads,
            event_budget: (adjacency_entries * 64).max(10_000),
            classifier,
        }
    }
}

/// Which nodes no reader of a flood can see into: node *i* is an **unread
/// leaf** iff it is not a route server, no adjacency entry plays
/// [`Role::Customer`] for it, and it carries no collector session
/// (`session_offsets[i] == session_offsets[i + 1]`).
///
/// Soundness, from `router::export_from_best`: an ordinary node exports a
/// learned route only when `learned_role == Customer` — this node has no
/// customer to learn from — or `neighbor_role == Customer` — it has no
/// customer to send to, and the one other neighbour that plays `Customer` is
/// the monitor of a full-feed collector session, which it does not carry. A
/// route server redistributes among its members and is excluded outright. So
/// the only non-`None` export such a node ever makes is of its own `local`
/// route, and what it imports — its Adj-RIB-In, its best route, its
/// all-`None` export pass — is visible only through three readers: retained
/// `final_routes`, a [`SimSnapshot`] (a later delta may originate at the node
/// or retain), and the node's own originations.
///
/// One rule follows, applied by one guard in `continue_prefix`, at the pop
/// that counts the delivery, to a leaf that does not originate in the
/// schedule — nor, in a delta, in the baseline it continues, whose
/// originators the snapshot lists. Only a [`RetainRoutes::All`] session
/// asks the retention sweep for every AS's route, and only a snapshot
/// outlives its flood: those floods run in full. Every other flood — a
/// campaign's, or a delta on a snapshot's clone, which is thrown away after
/// it — drops the delivery. Nothing the run returns depends on the
/// difference.
///
/// [`RetainRoutes::Prefixes`] keeps the routes a packet can meet. A packet
/// stands at a leaf only where it starts or where it is delivered — a
/// forwarding next hop is the AS a route was learned from, which exported
/// it, and a leaf exports only its own `local` route — so a leaf that
/// neither originates the prefix nor is a listed reader has nothing a trace
/// can look up: the sweep skips it wherever a snapshot's flood did reach
/// it. `SimSpec::compile` clears this mark for every reader, which the
/// flood then simulates in full.
fn unread_leaves(topo: &Topology, is_rs: &[bool], session_offsets: &[u32]) -> Vec<bool> {
    topo.node_ids()
        .map(|id| {
            let i = id.index();
            !is_rs[i]
                && session_offsets[i] == session_offsets[i + 1]
                && topo
                    .neighbors_ix(id)
                    .iter()
                    .all(|&(_, role, _)| role != Role::Customer)
        })
        .collect()
}

/// A compiled simulation session: everything the per-event hot path
/// touches, resolved once by [`SimSpec::compile`] and reusable across any
/// number of [`CompiledSim::run`] calls.
///
/// `run` takes `&self` and never mutates the session, so one session can be
/// shared read-only across threads and replayed indefinitely; repeated runs
/// of the same schedule are bit-identical (locked in by
/// `tests/determinism.rs`).
#[derive(Debug, Clone)]
pub struct CompiledSim<'a> {
    topo: &'a Topology,
    /// The topology's degree prefix-sum ([`Topology::slot_offsets`]): node
    /// `i`'s global slots are `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u32>,
    /// Per-node config, indexed by [`NodeId::index`].
    configs: Vec<RouterConfig>,
    /// Per-node ASN, indexed by [`NodeId::index`].
    asns: Vec<Asn>,
    /// Per-node route-server flag, indexed by [`NodeId::index`].
    is_rs: Vec<bool>,
    /// Per-node "nobody reads this node's routes" flag, indexed by
    /// [`NodeId::index`] — see [`unread_leaves`].
    unread: Vec<bool>,
    /// Collector names, in spec order (keys of the result map).
    collector_names: Vec<String>,
    /// Collector sessions resolved to node ids: `(collector index, peer,
    /// feed)`.
    collector_peers: Vec<(usize, NodeId, FeedKind)>,
    /// Node → sessions: node `i` carries the sessions
    /// `node_sessions[session_offsets[i]..session_offsets[i + 1]]`
    /// (ascending indices into `collector_peers`).
    session_offsets: Vec<u32>,
    node_sessions: Vec<u32>,
    irr: Cow<'a, IrrDatabase>,
    rpki: Cow<'a, IrrDatabase>,
    retain: RetainRoutes,
    threads: usize,
    /// Event budget per prefix (hoisted out of the prefix loop: the edge
    /// sum is one counter read). Crate tests set it directly.
    pub(crate) event_budget: u64,
    /// Compiled prefix-sensitivity summary for flood memoization — see
    /// `classify`.
    classifier: PrefixClassifier,
}

impl<'a> CompiledSim<'a> {
    /// The topology this session was compiled over.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// Current worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Collector names in spec order — the index space of
    /// [`PrefixOutcome::observations`].
    pub fn collector_names(&self) -> &[String] {
        &self.collector_names
    }

    /// How many nodes are unread leaves — no customer, no collector session,
    /// not a route server, not a [`RetainRoutes::Prefixes`] reader. A
    /// campaign flood or a delta counts deliveries to them and drops them,
    /// unless the session retains [`RetainRoutes::All`]; a snapshot's flood
    /// simulates them.
    pub fn unread_nodes(&self) -> usize {
        self.unread.iter().filter(|&&unread| unread).count()
    }

    /// Runs all origination episodes to convergence and collects results:
    /// a [`Campaign`] over this session whose sink keeps everything.
    /// Callable any number of times; the session is never mutated.
    pub fn run(&self, originations: &[Origination]) -> SimResult {
        self.finish(Campaign::new(self).run(originations, Kept::default).sink.0)
    }

    /// Converges `prefix`'s schedule like [`CompiledSim::run`] would and
    /// additionally keeps the scratch that flooded it, as it stood at
    /// convergence, as a [`SimSnapshot`] — no second convergence pass and
    /// no copy. The snapshot is the baseline input of
    /// [`CompiledSim::run_delta`] / [`CompiledSim::run_delta_prefix`].
    ///
    /// # Panics
    ///
    /// Panics when `originations` holds no episode of `prefix` (there would
    /// be no converged state to keep) or an episode of any other prefix:
    /// a snapshot is one prefix's, and the rest of a schedule belongs in a
    /// [`CompiledSim::run`] or a [`Campaign`] beside it.
    pub fn run_snapshot(
        &self,
        originations: &[Origination],
        prefix: Prefix,
    ) -> (SimResult, SimSnapshot) {
        assert!(
            originations.iter().any(|ep| ep.prefix == prefix),
            "snapshot prefix {prefix} does not appear in the schedule"
        );
        for ep in originations {
            assert_eq!(
                ep.prefix, prefix,
                "a snapshot schedule holds one prefix: found an episode of {} beside \
                 snapshot prefix {prefix}",
                ep.prefix
            );
        }
        let episodes = time_sorted(originations);
        let mut scratch = self.new_scratch();
        let outcome = self.run_prefix(&mut scratch, prefix, &episodes, ScratchReader::Snapshot);
        let snapshot = SimSnapshot {
            prefix,
            last_time: episodes.last().map_or(0, |ep| ep.time),
            offsets: self.offsets.clone(),
            scratch,
            outcome: outcome.clone(),
        };
        (self.finish([(prefix, outcome)]), snapshot)
    }

    /// Incrementally re-converges `snapshot`'s prefix after appending the
    /// `delta` episodes, returning the **full-schedule** [`PrefixOutcome`]
    /// — bit-identical to rerunning baseline + delta from scratch, at
    /// O(blast radius) cost: a clone of the snapshot's scratch already
    /// holds the converged baseline, so the delta origination's export diff
    /// seeds the queue with only the updates that actually change anything,
    /// and the dirty-set machinery propagates exactly that frontier.
    ///
    /// Any session compiled over the snapshot's slot space and collector
    /// sessions may continue it, not only the one that produced it.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot comes from a session with other slot
    /// offsets or another collector-session count, when a `delta` episode
    /// targets a different prefix, or is scheduled before the baseline's
    /// last episode (those times are already folded into the snapshot's
    /// RIBs and cannot be replayed incrementally).
    pub fn run_delta_prefix(&self, snapshot: &SimSnapshot, delta: &[Origination]) -> PrefixOutcome {
        assert!(
            snapshot.offsets == self.offsets,
            "snapshot restored under a different session's topology"
        );
        assert_eq!(
            snapshot.scratch.monitor_state.len(),
            self.collector_peers.len(),
            "snapshot restored under a different session's collector set"
        );
        for ep in delta {
            assert_eq!(
                ep.prefix,
                snapshot.prefix(),
                "delta episode prefix differs from the snapshot's"
            );
            assert!(
                ep.time >= snapshot.last_time,
                "delta episode at t={} predates the snapshot baseline (t={})",
                ep.time,
                snapshot.last_time
            );
        }
        let episodes = time_sorted(delta);
        let mut scratch = snapshot.scratch.clone();
        // The baseline's retained routes are not cloned: `continue_prefix`
        // rebuilds them from the re-converged RIBs.
        let base = snapshot.baseline_outcome();
        let mut outcome = PrefixOutcome {
            observations: base.observations.clone(),
            final_routes: None,
            events: base.events,
            converged: base.converged,
        };
        self.continue_prefix(
            &mut scratch,
            snapshot.prefix(),
            &episodes,
            &mut outcome,
            self.event_budget,
            ScratchReader::Nobody,
        );
        outcome
    }

    /// Runs `delta` against a converged baseline snapshot and finishes the
    /// outcome into a [`SimResult`] — bit-identical to
    /// `run(baseline ++ delta)` (the equivalence `tests/determinism.rs`
    /// property-locks).
    pub fn run_delta(&self, snapshot: &SimSnapshot, delta: &[Origination]) -> SimResult {
        self.finish([(snapshot.prefix(), self.run_delta_prefix(snapshot, delta))])
    }

    /// The one way a [`SimResult`] is made, from outcomes in ascending
    /// prefix order: sums and ANDs the totals, keys retained routes by
    /// prefix, names every collector of the session (one that heard nothing
    /// keeps its empty feed) and sorts each feed once.
    fn finish(&self, outcomes: impl IntoIterator<Item = (Prefix, PrefixOutcome)>) -> SimResult {
        let mut out = SimResult {
            converged: true,
            ..SimResult::default()
        };
        let mut feeds = vec![Vec::new(); self.collector_names.len()];
        for (prefix, outcome) in outcomes {
            out.events += outcome.events;
            out.converged &= outcome.converged;
            for (feed, mut obs) in feeds.iter_mut().zip(outcome.observations) {
                feed.append(&mut obs);
            }
            if let Some(routes) = outcome.final_routes {
                out.final_routes.insert(prefix, routes);
            }
        }
        for (name, mut feed) in self.collector_names.iter().zip(feeds) {
            let named = out.observations.entry(name.clone()).or_default();
            named.append(&mut feed);
        }
        for feed in out.observations.values_mut() {
            sort_feed(feed);
        }
        out
    }
}

/// The sink behind [`CompiledSim::run`]: keeps every outcome, which fold
/// and merge order leave in ascending prefix order.
#[derive(Default)]
struct Kept(Vec<(Prefix, PrefixOutcome)>);

impl CampaignSink for Kept {
    fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
        self.0.push((prefix, outcome));
    }

    fn merge(&mut self, mut other: Self) {
        self.0.append(&mut other.0);
    }
}

/// One prefix's episodes in time order, stably — same-time duplicates keep
/// schedule order, as in a campaign's per-prefix grouping.
fn time_sorted(episodes: &[Origination]) -> Vec<&Origination> {
    let mut sorted: Vec<&Origination> = episodes.iter().collect();
    sorted.sort_by_key(|ep| ep.time);
    sorted
}

/// Sorts one collector's merged feed by `(time, peer, prefix)`, stably (an
/// episode pair sharing all three keeps its order). The key is cached and
/// the ≈ 170-byte rows are permuted once at the end, instead of being
/// moved by every merge step.
fn sort_feed(obs: &mut [CollectorObservation]) {
    obs.sort_by_cached_key(|o| (o.time, o.peer, o.prefix));
}

/// In-flight update message. The sender's role (what `from` plays for `to`)
/// and the sender's slot within the receiver's adjacency are read off the
/// sender's adjacency entry at emit time, so import needs no adjacency scan
/// and no map lookup. The route rides along as an id into the prefix-worker's
/// [`RouteArena`]: enqueuing an update allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    /// Slot of `from` within `to`'s adjacency slice.
    pub(crate) to_slot: u32,
    pub(crate) sender_role: Role,
    pub(crate) route: Option<RouteId>,
}

/// The role `a` plays for `b`, given the role `b` plays for `a`. Edges are
/// symmetric inverses by construction (`Topology::add_edge`).
pub(crate) fn inverse_role(role: Role) -> Role {
    match role {
        Role::Customer => Role::Provider,
        Role::Provider => Role::Customer,
        Role::Peer => Role::Peer,
    }
}

/// Total rendering of a caught panic payload: every payload produces a
/// stable, non-empty message.
///
/// String payloads (`panic!` and friends) render verbatim, and common
/// primitive payloads render with their type name. Anything else is an
/// opaque `dyn Any` whose type name is unrecoverable after the fact, so it
/// renders a stable fallback.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! primitive {
        ($($ty:ty),*) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!(
                    "panic payload of type `{}`: {v:?}",
                    std::any::type_name::<$ty>()
                );
            })*
        };
    }
    primitive!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool, char);
    "panic payload of unknown type (not a string or a primitive)".to_string()
}

/// The scratch-backed router table of one prefix run: hands out
/// [`NodeState`] views over the worker's flat slot arrays, lazily
/// resetting a node's state the first time the current prefix touches it
/// (generation stamp compare + one slot-range fill), so a prefix pays
/// per-node setup only for the nodes its flood actually reaches.
struct Routers<'s> {
    /// The prefix being flooded, handed to every [`NodeState`] view.
    prefix: Prefix,
    /// The current prefix's generation stamp.
    epoch: u32,
    /// Degree prefix-sum: node `i`'s global slots are
    /// `offsets[i]..offsets[i + 1]`.
    offsets: &'s [u32],
    asns: &'s [Asn],
    is_rs: &'s [bool],
    node_epoch: &'s mut [u32],
    touched: &'s mut Vec<u32>,
    rib_in: &'s mut [Option<RibEntry>],
    exported: &'s mut [Option<RouteId>],
    local: &'s mut [Option<RouteId>],
    last_emit_best: &'s mut [Option<Option<RouteId>>],
}

impl Routers<'_> {
    /// Stamps node `i` into the current prefix, clearing its slot range and
    /// scalars if a previous prefix left state behind.
    fn touch(&mut self, i: usize) {
        if self.node_epoch[i] == self.epoch {
            return;
        }
        self.node_epoch[i] = self.epoch;
        self.touched.push(i as u32);
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        self.rib_in[lo..hi].fill(None);
        self.exported[lo..hi].fill(None);
        self.local[i] = None;
        self.last_emit_best[i] = None;
    }

    /// True when the current prefix has already touched node `i` — i.e.
    /// the node holds live state this prefix. An unstamped node trivially
    /// has no routes, letting read-only consumers (the collector sweep)
    /// skip it without paying the touch's slot-range clear.
    fn is_live(&self, i: usize) -> bool {
        self.node_epoch[i] == self.epoch
    }

    /// The router view for node `i` (touching it first).
    fn node(&mut self, i: usize) -> NodeState<'_> {
        self.touch(i);
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        NodeState::new(
            self.asns[i],
            self.is_rs[i],
            self.prefix,
            &mut self.rib_in[lo..hi],
            &mut self.local[i],
            &mut self.exported[lo..hi],
            &mut self.last_emit_best[i],
        )
    }
}

/// Maps a neighbor role to its index in the export sweep's per-role memo.
fn role_ix(role: Role) -> usize {
    match role {
        Role::Customer => 0,
        Role::Provider => 1,
        Role::Peer => 2,
    }
}

/// Who reads the per-node state a flood leaves in its scratch, beyond the
/// flood itself and the retention sweep that ends it — which decides what
/// the flood does with a delivery to an unread leaf (see `unread_leaves`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ScratchReader {
    /// Nobody: the next prefix recycles the scratch (a campaign's floods),
    /// or it is a snapshot's clone, thrown away after a delta.
    Nobody,
    /// A [`SimSnapshot`]: the scratch is kept as one after the flood, which
    /// runs in full.
    Snapshot,
}

impl CompiledSim<'_> {
    /// Allocates per-worker scratch sized for this session. One scratch per
    /// worker, reused across every prefix that worker runs — see
    /// [`crate::scratch::SimScratch`].
    pub(crate) fn new_scratch(&self) -> SimScratch {
        SimScratch::new(
            self.asns.len(),
            self.topo.adjacency_len(),
            self.collector_peers.len(),
        )
    }

    /// Runs the episodes of a single prefix to convergence, on the calling
    /// worker's reusable `scratch` (recycled via `begin_prefix`).
    pub(crate) fn run_prefix(
        &self,
        scratch: &mut SimScratch,
        prefix: Prefix,
        episodes: &[&Origination],
        reader: ScratchReader,
    ) -> PrefixOutcome {
        scratch.begin_prefix();
        let mut outcome = PrefixOutcome {
            observations: vec![Vec::new(); self.collector_names.len()],
            final_routes: None,
            events: 0,
            converged: true,
        };
        self.continue_prefix(
            scratch,
            prefix,
            episodes,
            &mut outcome,
            self.event_budget,
            reader,
        );
        outcome
    }

    /// Converges `episodes` of `prefix` on top of whatever state `scratch`
    /// already holds, extending `outcome` in place. Callers hand it either
    /// a freshly recycled scratch with a blank outcome
    /// ([`CompiledSim::run_prefix`]) or a snapshot's cloned scratch with
    /// the baseline's outcome ([`CompiledSim::run_delta_prefix`]) — the loop
    /// itself is identical, which is what makes delta re-convergence
    /// bit-identical to an uninterrupted run.
    ///
    /// The convergence loop is **dirty-set batched**: importing an update
    /// only marks the receiving node dirty; once the in-flight queue is
    /// drained, every dirty node recomputes its exports exactly once (in
    /// ascending node order, which keeps batched runs deterministic), and
    /// the cycle repeats until nothing is dirty. A node that absorbs many
    /// updates in one round therefore diffs its adjacency once instead of
    /// once per update, and a node whose best route did not change skips
    /// the recompute entirely (`NodeState::begin_export_pass`).
    fn continue_prefix(
        &self,
        scratch: &mut SimScratch,
        prefix: Prefix,
        episodes: &[&Origination],
        outcome: &mut PrefixOutcome,
        budget: u64,
        reader: ScratchReader,
    ) {
        // Out of a snapshot's flood, only an `All` session's retention
        // sweep reads an unread leaf that originates neither in this
        // schedule nor in the baseline a delta continues (`originators`):
        // every other flood drops a delivery to one (see `unread_leaves`).
        let retain = self.should_retain(&prefix);
        let all = matches!(self.retain, RetainRoutes::All);
        let elide = reader != ScratchReader::Snapshot && !all;
        let origins = episodes
            .iter()
            .filter_map(|ep| self.topo.node_id(ep.origin));
        for i in origins.map(|id| id.index() as u32) {
            if !scratch.originators.contains(&i) {
                scratch.originators.push(i);
            }
        }
        let vctx = ValidationCtx {
            irr: &self.irr,
            rpki: &self.rpki,
        };
        // Split-borrow the scratch: the router views own the four state
        // arrays; the arena, queue, dirty set, collector dedup state, and
        // export-pass record are borrowed independently alongside them.
        let SimScratch {
            epoch,
            node_epoch,
            touched,
            originators,
            rib_in,
            exported,
            local,
            last_emit_best,
            arena,
            queue,
            dirty,
            monitor_state,
            passes,
        } = scratch;
        let mut routers = Routers {
            prefix,
            epoch: *epoch,
            offsets: &self.offsets,
            asns: &self.asns,
            is_rs: &self.is_rs,
            node_epoch,
            touched,
            rib_in,
            exported,
            local,
            last_emit_best,
        };

        for ep in episodes {
            let Some(origin) = self.topo.node_id(ep.origin) else {
                continue;
            };
            // Apply the origination at its router.
            if ep.withdraw {
                routers.node(origin.index()).set_local(None);
            } else {
                // Hash-consing hands a repeated origination its earlier id.
                let mut route = Route::originate(ep.communities.clone())
                    .with_large_communities(ep.large_communities.clone());
                if let Some(victim) = ep.forged_origin {
                    route.path = AsPath::from_asns([victim]);
                    route.origin = Origin::Igp;
                }
                let id = arena.intern(route);
                routers.node(origin.index()).set_local(Some(id));
            }
            dirty.insert(origin.index());

            // Drain to convergence: alternate import rounds (which only
            // mark receivers dirty) with batched export recomputes.
            'converge: loop {
                while let Some(ev) = queue.pop_front() {
                    outcome.events += 1;
                    if outcome.events > budget {
                        outcome.converged = false;
                        queue.clear();
                        dirty.clear();
                        break 'converge;
                    }
                    let to = ev.to.index();
                    if elide && self.unread[to] && !originators.contains(&(to as u32)) {
                        continue; // delivered and counted; nobody reads it
                    }
                    routers.node(to).import(
                        &self.configs[to],
                        self.asns[ev.from.index()],
                        ev.to_slot as usize,
                        ev.sender_role,
                        ev.route,
                        arena,
                        vctx,
                    );
                    dirty.insert(to);
                }
                if dirty.is_empty() {
                    break;
                }
                for &i in dirty.sorted() {
                    let id = NodeId::from_index(i as usize);
                    self.emit_exports(id, &mut routers, arena, queue, passes);
                }
                dirty.clear();
            }

            // Record collector observations for this episode. Interning
            // makes the changed-predicate an id compare; the owned route is
            // cloned out of the arena only for actual observations.
            let converged = outcome.converged;
            let mut observe = |si: usize, new: Option<RouteId>, arena: &RouteArena| {
                if monitor_state[si] == new {
                    return;
                }
                let (ci, peer, _) = self.collector_peers[si];
                outcome.observations[ci].push(CollectorObservation {
                    time: ep.time,
                    peer: self.asns[peer.index()],
                    prefix,
                    route: new.map(|id| arena.get(id).clone()),
                });
                monitor_state[si] = new;
            };
            if converged {
                // Every node whose best route moved ran an export pass, and
                // each pass left its sessions a record: visit those, in
                // session order (the order observations are pushed in), a
                // node's last pass standing for its earlier ones — the
                // stable sort keeps a session's records in pass order.
                passes.sort_by_key(|pass| pass.session);
                for of_session in passes.chunk_by(|a, b| a.session == b.session) {
                    let [.., pass] = of_session else {
                        continue; // `chunk_by` yields no empty runs
                    };
                    let (_, peer, feed) = self.collector_peers[pass.session as usize];
                    let new = match (pass.best, pass.memoized) {
                        (None, _) => None,
                        (Some(_), Some(export)) => export,
                        (Some((best_id, learned_role)), None) => router::export_from_best(
                            self.asns[peer.index()],
                            self.is_rs[peer.index()],
                            prefix,
                            best_id,
                            learned_role,
                            &self.configs[peer.index()],
                            crate::MONITOR_ASN,
                            monitor_role(feed),
                            arena,
                        ),
                    };
                    observe(pass.session as usize, new, arena);
                }
            } else {
                // A flood cut by its budget dropped its dirty set: nodes
                // hold routes no export pass ever looked at, now or (the
                // budget stays spent) in any later episode. Ask every
                // session what its peer would export. A peer the flood
                // never reached holds no state and exports nothing —
                // skipped by stamp check, without the touch's slot clear.
                for (si, &(_, peer, feed)) in self.collector_peers.iter().enumerate() {
                    let new = if routers.is_live(peer.index()) {
                        let cfg = &self.configs[peer.index()];
                        routers.node(peer.index()).export_for(
                            cfg,
                            crate::MONITOR_ASN,
                            monitor_role(feed),
                            arena,
                        )
                    } else {
                        None
                    };
                    observe(si, new, arena);
                }
            }
            passes.clear();
        }

        if retain {
            // Only nodes the flood touched can hold a route, so the sweep
            // iterates the touched list instead of all ~N nodes, and keeps
            // a handle on each best: no attribute is copied.
            // Out of an `All` session it skips the leaves a campaign flood
            // would have dropped every delivery to: a snapshot's flood
            // reached them, and a delta left them as the baseline had.
            let mut routes = Vec::with_capacity(routers.touched.len());
            for k in 0..routers.touched.len() {
                let i = routers.touched[k] as usize;
                if !all && self.unread[i] && !originators.contains(&(i as u32)) {
                    continue;
                }
                if let Some((id, _)) = routers.node(i).best_entry(arena) {
                    routes.push((self.asns[i], arena.get(id).clone()));
                }
            }
            routes.sort_unstable_by_key(|&(asn, _)| asn);
            outcome.final_routes = Some(FinalRoutes { routes });
        }
    }

    fn should_retain(&self, prefix: &Prefix) -> bool {
        match &self.retain {
            RetainRoutes::None => false,
            RetainRoutes::Prefixes { prefixes, .. } => prefixes.contains(prefix),
            RetainRoutes::All => true,
        }
    }

    /// The equivalence-class key of `prefix` under its (time-sorted)
    /// episodes: prefixes with equal keys flood identically up to the
    /// prefix label, which is what licenses the campaign driver to
    /// simulate one representative per class and replay its outcome. See
    /// `classify` for the soundness argument.
    pub(crate) fn class_key<'o>(
        &self,
        prefix: Prefix,
        episodes: &[&'o Origination],
    ) -> ClassKey<'o> {
        self.classifier.key_for(
            prefix,
            episodes,
            self.should_retain(&prefix),
            &self.irr,
            &self.rpki,
        )
    }

    /// Recomputes `id`'s exports to every neighbor and enqueues the ones
    /// that changed. Adjacency comes straight off the topology's list, each
    /// entry carrying the receiver-side slot; the mutable state is this
    /// node's router plus the shared arena. When the node's best route is
    /// unchanged since its last pass the whole sweep is skipped — exports
    /// are a pure function of the best route, so the steady-state cost is
    /// one best-scan and zero clones.
    ///
    /// Within a pass the best entry is scanned once, and for ordinary nodes
    /// the export value is **memoized per neighbor role**: everything in
    /// `router::export_from_best` depends on the neighbor only through its
    /// role, except the never-send-back neighbor (checked here) and two
    /// genuinely per-neighbor policies — route-server control communities
    /// and the `ScopedToReceiver` defense filter — which fall back to the
    /// per-neighbor computation. A high-degree transit therefore clones and
    /// interns each changed export at most once per role, not once per
    /// neighbor.
    ///
    /// A pass that runs also tells the collector sweep so: one
    /// [`SessionPass`] per collector session of this node goes on `passes`
    /// (see the module docs).
    fn emit_exports(
        &self,
        id: NodeId,
        routers: &mut Routers<'_>,
        arena: &mut RouteArena,
        queue: &mut EventQueue,
        passes: &mut Vec<SessionPass>,
    ) {
        let cfg = &self.configs[id.index()];
        let mut node = routers.node(id.index());
        let Some(best) = node.begin_export_pass(arena) else {
            return;
        };
        let learned_from = best.and_then(|(best_id, _)| arena.get(best_id).source.neighbor());
        let per_role_uniform = !node.is_route_server
            && !matches!(
                cfg.propagation,
                CommunityPropagationPolicy::ScopedToReceiver
            );
        let mut memo: [Option<Option<RouteId>>; 3] = [None; 3];
        for (slot, &(nb, role, rev_slot)) in self.topo.neighbors_ix(id).iter().enumerate() {
            let nb_asn = self.asns[nb.index()];
            let new = match best {
                None => None,
                Some(_) if per_role_uniform && learned_from == Some(nb_asn) => None,
                Some((best_id, learned_role)) => {
                    let compute = |arena: &mut RouteArena| {
                        router::export_from_best(
                            node.asn,
                            node.is_route_server,
                            node.prefix,
                            best_id,
                            learned_role,
                            cfg,
                            nb_asn,
                            role,
                            arena,
                        )
                    };
                    if per_role_uniform {
                        match memo[role_ix(role)] {
                            Some(cached) => cached,
                            None => {
                                let value = compute(arena);
                                memo[role_ix(role)] = Some(value);
                                value
                            }
                        }
                    } else {
                        compute(arena)
                    }
                }
            };
            if let Some(update) = node.diff_export(slot, new) {
                queue.push_back(Event {
                    from: id,
                    to: nb,
                    to_slot: rev_slot,
                    sender_role: inverse_role(role),
                    route: update,
                });
            }
        }
        // Tell the collector sweep this node's best moved, and hand it what
        // the pass worked out. Nodes without a session (all but a few
        // hundred) pay the two offset loads.
        let (lo, hi) = (
            self.session_offsets[id.index()] as usize,
            self.session_offsets[id.index() + 1] as usize,
        );
        for &session in &self.node_sessions[lo..hi] {
            let role = monitor_role(self.collector_peers[session as usize].2);
            passes.push(SessionPass {
                session,
                best,
                memoized: memo[role_ix(role)],
            });
        }
    }
}

/// The role the monitor plays on a collector session, which is all a
/// session's export depends on beyond the peer's best route.
///
/// A full-feed peer shares its entire best-path table (the monitor is
/// treated like a customer); a partial-feed peer shares only customer and
/// local routes (monitor treated like a peer). The session still honours
/// NO_EXPORT/NO_ADVERTISE and the peer's community-sending configuration,
/// and the collector's "ASN" never appears in paths (see
/// [`crate::MONITOR_ASN`]).
fn monitor_role(feed: FeedKind) -> Role {
    match feed {
        FeedKind::Full => Role::Customer,
        FeedKind::CustomerRoutesOnly => Role::Peer,
    }
}

/// Everything one prefix's episode schedule produced, before any merging.
///
/// A [`crate::campaign::Campaign`] streams each one into a
/// [`crate::campaign::CampaignSink`], so full-table runs never hold more
/// than a work chunk of them at a time; [`CompiledSim::run`] is the
/// campaign whose sink keeps them all, for a [`SimResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixOutcome {
    /// Collector observations, indexed by collector **position** in the
    /// compiled spec (resolve names via [`CompiledSim::collector_names`]).
    pub observations: Vec<Vec<CollectorObservation>>,
    /// Final best route per AS, when the prefix is retained.
    pub final_routes: Option<FinalRoutes>,
    /// Update events delivered for this prefix: every message popped off
    /// the in-flight queue, counted at the pop whether the receiver imported
    /// it, or is an unread leaf the flood dropped (see
    /// [`CompiledSim::unread_nodes`]) — so it is the count of the flood that
    /// simulates every delivery, and the budget cuts where that one would.
    pub events: u64,
    /// True if the prefix converged within the event budget.
    pub converged: bool,
}

impl PrefixOutcome {
    /// Rewrites every prefix label in the outcome to `prefix`. Only the
    /// collector observations carry one: routes do not name their prefix,
    /// a sink is told it beside the outcome, and `events` and `converged`
    /// are label-free.
    ///
    /// This is the replay half of flood memoization: for two prefixes in
    /// the same equivalence class (see `classify`), the engine's
    /// outcome differs *only* in this label, so one simulated
    /// representative relabeled per member reproduces the unmemoized
    /// campaign bit-for-bit.
    pub fn relabeled(mut self, prefix: Prefix) -> Self {
        for obs in self.observations.iter_mut().flatten() {
            obs.prefix = prefix;
        }
        self
    }
}

/// One prefix's final best route per AS, ascending by ASN, read like a
/// map from ASN to route. The engine's tables hold handles on what the
/// flood's arena stored, so ASes holding the same route share its
/// attributes.
///
/// Entries ascend by ASN whichever way the table was built, so the derived
/// `PartialEq` is the `delta ≡ fresh` oracle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FinalRoutes {
    /// `(AS, its best route)`, ascending by ASN.
    routes: Vec<(Asn, Route)>,
}

impl FinalRoutes {
    /// The route `asn` holds, if any.
    pub fn get(&self, asn: &Asn) -> Option<&Route> {
        let at = self.routes.binary_search_by_key(asn, |&(a, _)| a).ok()?;
        Some(&self.routes[at].1)
    }

    /// True when `asn` holds a route.
    pub fn contains_key(&self, asn: &Asn) -> bool {
        self.get(asn).is_some()
    }

    /// Number of ASes holding a route.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no AS holds a route.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Every `(AS, route)`, ascending by ASN.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Asn, &Route)> {
        self.routes.iter().map(|(asn, route)| (asn, route))
    }

    /// The ASes holding a route, ascending.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &Asn> {
        self.iter().map(|(asn, _)| asn)
    }

    /// Each AS's route, ascending by ASN (a shared route repeats).
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Route> {
        self.iter().map(|(_, route)| route)
    }
}

/// Collects like a map: a repeated AS keeps its last route.
impl FromIterator<(Asn, Route)> for FinalRoutes {
    fn from_iter<I: IntoIterator<Item = (Asn, Route)>>(pairs: I) -> Self {
        let by_asn: BTreeMap<Asn, Route> = pairs.into_iter().collect();
        FinalRoutes {
            routes: by_asn.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorSpec;
    use crate::route::{copies_during, Copies};
    use bgpworms_topology::{EdgeKind, TopologyParams};
    use std::panic::AssertUnwindSafe;

    fn line_topo() -> Topology {
        // 1 — 2 — 3 — 4 as a provider chain: 1 is 2's provider, etc.
        let mut t = Topology::new();
        t.add_simple(Asn::new(1), Tier::Tier1);
        t.add_simple(Asn::new(2), Tier::Transit);
        t.add_simple(Asn::new(3), Tier::Transit);
        t.add_simple(Asn::new(4), Tier::Stub);
        t.add_edge(Asn::new(1), Asn::new(2), EdgeKind::ProviderToCustomer);
        t.add_edge(Asn::new(2), Asn::new(3), EdgeKind::ProviderToCustomer);
        t.add_edge(Asn::new(3), Asn::new(4), EdgeKind::ProviderToCustomer);
        t
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn customer_route_reaches_everyone_uphill() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let res = sim.run(&[Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![])]);
        assert!(res.converged);
        // Everyone has a route; paths are the provider chain.
        let r1 = res.route_at(Asn::new(1), &p("10.0.0.0/16")).unwrap();
        assert_eq!(
            r1.path.to_vec(),
            vec![Asn::new(2), Asn::new(3), Asn::new(4)]
        );
        let r3 = res.route_at(Asn::new(3), &p("10.0.0.0/16")).unwrap();
        assert_eq!(r3.path.to_vec(), vec![Asn::new(4)]);
    }

    #[test]
    fn provider_route_descends_only() {
        // Announce at the top: everyone below gets it (it's always toward
        // customers), and paths descend the chain.
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let res = sim.run(&[Origination::announce(Asn::new(1), p("20.0.0.0/16"), vec![])]);
        let r4 = res.route_at(Asn::new(4), &p("20.0.0.0/16")).unwrap();
        assert_eq!(
            r4.path.to_vec(),
            vec![Asn::new(3), Asn::new(2), Asn::new(1)]
        );
    }

    #[test]
    fn peer_routes_do_not_transit_peers() {
        // 1 peers with 5; 5 has customer 6. A route from 2 (customer of 1)
        // reaches 5 and 6; but a route learned by 1 *from peer 5* must not
        // be exported to 1's other peer 7.
        let mut topo = line_topo();
        topo.add_simple(Asn::new(5), Tier::Tier1);
        topo.add_simple(Asn::new(6), Tier::Stub);
        topo.add_simple(Asn::new(7), Tier::Tier1);
        topo.add_edge(Asn::new(1), Asn::new(5), EdgeKind::PeerToPeer);
        topo.add_edge(Asn::new(5), Asn::new(6), EdgeKind::ProviderToCustomer);
        topo.add_edge(Asn::new(1), Asn::new(7), EdgeKind::PeerToPeer);
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let res = sim.run(&[Origination::announce(Asn::new(6), p("30.0.0.0/16"), vec![])]);
        // 6 → 5 → (peer) 1 → customer chain 2,3,4. But NOT 1 → 7.
        assert!(res.route_at(Asn::new(1), &p("30.0.0.0/16")).is_some());
        assert!(res.route_at(Asn::new(2), &p("30.0.0.0/16")).is_some());
        assert!(
            res.route_at(Asn::new(7), &p("30.0.0.0/16")).is_none(),
            "peer-learned route must not be re-exported to another peer"
        );
    }

    #[test]
    fn withdrawal_clears_routes() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let res = sim.run(&[
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![]),
            Origination::withdrawal(Asn::new(4), p("10.0.0.0/16"), 100),
        ]);
        assert!(res.converged);
        assert!(res.route_at(Asn::new(1), &p("10.0.0.0/16")).is_none());
    }

    #[test]
    fn scoped_to_receiver_defense_semantics() {
        // The §8 defense on AS3: forward to a neighbor only communities of
        // that neighbor's form. Chain 1—2—3—4 (providers downward).
        let topo = line_topo();
        let mut cfg3 = RouterConfig::defaults(Asn::new(3));
        cfg3.propagation = crate::policy::CommunityPropagationPolicy::ScopedToReceiver;
        let sim = SimSpec::new(&topo)
            .retain(RetainRoutes::All)
            .configure(cfg3)
            .compile();

        // One-hop service: AS4 tags its announcement with AS3's community —
        // AS3 receives it and acts; the community is NOT forwarded to AS2
        // (it is not of the form 2:xxx), but a community meant for AS2 IS.
        let for3 = Community::new(3, 666);
        let for2 = Community::new(2, 666);
        let res = sim.run(&[Origination::announce(
            Asn::new(4),
            p("10.0.0.0/16"),
            vec![for3, for2],
        )]);
        let at3 = res.route_at(Asn::new(3), &p("10.0.0.0/16")).unwrap();
        assert!(at3.has_community(for3), "AS3 received its own signal");
        let at2 = res.route_at(Asn::new(2), &p("10.0.0.0/16")).unwrap();
        assert!(
            !at2.has_community(for3),
            "defense strips the community not meant for AS2"
        );
        assert!(
            at2.has_community(for2),
            "the community addressed to AS2 passes the defended hop"
        );
        // …but AS2 (undefended ForwardAll) forwards it on to AS1 even
        // though it was 'for' AS2 — scoping is per-hop, not end-to-end.
        let at1 = res.route_at(Asn::new(1), &p("10.0.0.0/16")).unwrap();
        assert!(at1.has_community(for2));
    }

    #[test]
    fn scoped_defense_exempts_collectors() {
        // The paper: "if AS2 is a route collector … AS1 might not filter."
        let topo = line_topo();
        let mut cfg2 = RouterConfig::defaults(Asn::new(2));
        cfg2.propagation = crate::policy::CommunityPropagationPolicy::ScopedToReceiver;
        let sim = SimSpec::new(&topo)
            .configure(cfg2)
            .collector(CollectorSpec {
                name: "rrc00".into(),
                platform: "RIS".into(),
                collector_id: 1,
                peers: vec![(Asn::new(2), FeedKind::Full)],
            })
            .compile();
        let tag = Community::new(4, 77);
        let res = sim.run(&[Origination::announce(
            Asn::new(4),
            p("10.0.0.0/16"),
            vec![tag],
        )]);
        let obs = &res.observations["rrc00"];
        assert!(!obs.is_empty());
        let route = obs[0].route.as_ref().unwrap();
        assert!(
            route.has_community(tag),
            "the collector session is exempt from the defense filter"
        );
    }

    #[test]
    fn large_communities_propagate_and_strip_like_classic() {
        use bgpworms_types::LargeCommunity;
        let topo = line_topo();
        let spec = SimSpec::new(&topo).retain(RetainRoutes::All);
        let lc = LargeCommunity::new(4_200_000_007, 666, 1);
        let res = spec.clone().compile().run(&[Origination::announce(
            Asn::new(4),
            p("10.0.0.0/16"),
            vec![],
        )
        .with_large(vec![lc])]);
        let r1 = res.route_at(Asn::new(1), &p("10.0.0.0/16")).unwrap();
        assert!(
            r1.has_large_community(lc),
            "ForwardAll default carries the large community three hops"
        );

        // A StripAll AS removes large communities on egress too.
        let mut cfg3 = RouterConfig::defaults(Asn::new(3));
        cfg3.propagation = crate::policy::CommunityPropagationPolicy::StripAll;
        let res = spec.configure(cfg3).compile().run(&[Origination::announce(
            Asn::new(4),
            p("10.0.0.0/16"),
            vec![],
        )
        .with_large(vec![lc])]);
        let r3 = res.route_at(Asn::new(3), &p("10.0.0.0/16")).unwrap();
        assert!(r3.has_large_community(lc), "AS3 received it");
        let r2 = res.route_at(Asn::new(2), &p("10.0.0.0/16")).unwrap();
        assert!(!r2.has_large_community(lc), "AS3 stripped it on egress");
    }

    #[test]
    fn communities_propagate_along_the_chain() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let tag = Community::new(4, 77);
        let res = sim.run(&[Origination::announce(
            Asn::new(4),
            p("10.0.0.0/16"),
            vec![tag],
        )]);
        let r1 = res.route_at(Asn::new(1), &p("10.0.0.0/16")).unwrap();
        assert!(
            r1.has_community(tag),
            "ForwardAll default carries the tag three hops"
        );
    }

    #[test]
    fn strip_all_blocks_community_propagation() {
        let topo = line_topo();
        let mut cfg3 = RouterConfig::defaults(Asn::new(3));
        cfg3.propagation = crate::policy::CommunityPropagationPolicy::StripAll;
        let sim = SimSpec::new(&topo)
            .retain(RetainRoutes::All)
            .configure(cfg3)
            .compile();
        let tag = Community::new(4, 77);
        let res = sim.run(&[Origination::announce(
            Asn::new(4),
            p("10.0.0.0/16"),
            vec![tag],
        )]);
        let r3 = res.route_at(Asn::new(3), &p("10.0.0.0/16")).unwrap();
        assert!(r3.has_community(tag), "AS3 received the tag");
        let r2 = res.route_at(Asn::new(2), &p("10.0.0.0/16")).unwrap();
        assert!(!r2.has_community(tag), "AS3 stripped it on egress");
    }

    #[test]
    fn collectors_record_updates_and_withdrawals() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo)
            .collector(CollectorSpec {
                name: "rrc00".into(),
                platform: "RIS".into(),
                collector_id: 1,
                peers: vec![(Asn::new(1), FeedKind::Full)],
            })
            .compile();
        let res = sim.run(&[
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![]).at(10),
            Origination::withdrawal(Asn::new(4), p("10.0.0.0/16"), 20),
        ]);
        let obs = &res.observations["rrc00"];
        assert_eq!(obs.len(), 2, "one announce, one withdraw");
        assert_eq!(obs[0].time, 10);
        assert!(obs[0].route.is_some());
        // The collector sees AS1 prepended at the head.
        assert_eq!(
            obs[0].route.as_ref().unwrap().path.to_vec(),
            vec![Asn::new(1), Asn::new(2), Asn::new(3), Asn::new(4)]
        );
        assert_eq!(obs[1].time, 20);
        assert!(obs[1].route.is_none());
    }

    #[test]
    fn partial_feed_excludes_provider_routes() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo)
            .collector(CollectorSpec {
                name: "pch".into(),
                platform: "PCH".into(),
                collector_id: 2,
                peers: vec![(Asn::new(3), FeedKind::CustomerRoutesOnly)],
            })
            .compile();
        // Prefix from AS1 (AS3 learns it from its provider AS2): partial
        // feed must not show it.
        let res = sim.run(&[
            Origination::announce(Asn::new(1), p("20.0.0.0/16"), vec![]),
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![]),
        ]);
        let obs = &res.observations["pch"];
        assert!(
            obs.iter().all(|o| o.prefix == p("10.0.0.0/16")),
            "only the customer-learned prefix is exported on a partial feed"
        );
        assert!(!obs.is_empty());
    }

    #[test]
    fn parallel_and_sequential_sessions_agree() {
        let topo = TopologyParams::tiny().seed(3).build();
        let alloc = bgpworms_topology::PrefixAllocation::assign(
            &topo,
            bgpworms_topology::addressing::AddressingParams::default(),
        );
        let originations: Vec<Origination> = alloc
            .iter()
            .map(|(asn, prefix)| Origination::announce(asn, prefix, vec![]))
            .collect();
        let spec = SimSpec::new(&topo).collector(CollectorSpec {
            name: "c".into(),
            platform: "RV".into(),
            collector_id: 3,
            peers: vec![(Asn::new(1), FeedKind::Full), (Asn::new(2), FeedKind::Full)],
        });
        let seq = spec.clone().compile().run(&originations);
        let par = spec.threads(4).compile().run(&originations);
        assert_eq!(seq.events, par.events);
        assert_eq!(seq.observations, par.observations);
    }

    #[test]
    fn compiled_session_borrows_without_cloning_until_mutated() {
        // A spec borrowing a config map must not clone it just to compile.
        let topo = line_topo();
        let configs: BTreeMap<Asn, RouterConfig> =
            [(Asn::new(3), RouterConfig::defaults(Asn::new(3)))]
                .into_iter()
                .collect();
        let irr = IrrDatabase::new();
        let spec = SimSpec::new(&topo).configs(&configs).irr(&irr);
        assert!(matches!(spec.configs, Cow::Borrowed(_)));
        assert!(matches!(spec.irr, Cow::Borrowed(_)));
        // Mutating clones exactly once, leaving the original untouched.
        let spec = spec.register_irr(p("10.0.0.0/16"), Asn::new(4));
        assert!(matches!(spec.irr, Cow::Owned(_)));
        assert!(!irr.is_registered(&p("10.0.0.0/16"), Asn::new(4)));
        let sim = spec.compile();
        assert!(sim.irr.is_registered(&p("10.0.0.0/16"), Asn::new(4)));
    }

    #[test]
    fn panic_payloads_render_for_the_failure_message() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom".to_string());
        assert_eq!(panic_message(&*payload), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(&*payload), "static");
        // Primitive payloads name their type instead of a generic shrug.
        let payload: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*payload), "panic payload of type `u32`: 42");
        let payload: Box<dyn std::any::Any + Send> = Box::new(true);
        assert_eq!(
            panic_message(&*payload),
            "panic payload of type `bool`: true"
        );
    }

    #[test]
    fn panic_message_is_total_over_custom_payload_types() {
        use std::panic::catch_unwind;

        // A raw panic_any with an unknown type still renders a stable,
        // non-empty fallback (the dyn Any type name is unrecoverable).
        struct Opaque;
        let payload = catch_unwind(|| std::panic::panic_any(Opaque)).unwrap_err();
        let msg = panic_message(&*payload);
        assert!(msg.contains("unknown type"), "fallback missing: {msg}");
    }

    #[test]
    fn identical_reannouncement_is_event_free() {
        // Dirty-set batching + the best-id export skip make a re-announced
        // episode with unchanged attributes converge without emitting a
        // single propagation event: the origin is marked dirty, its best
        // id is unchanged, and the export sweep is skipped.
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let once = sim.run(&[Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![])]);
        let twice = sim.run(&[
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![]),
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![]).at(500),
        ]);
        assert!(once.converged && twice.converged);
        assert_eq!(
            once.events, twice.events,
            "steady-state episode must process zero events"
        );
        assert_eq!(once.final_routes, twice.final_routes);
    }

    #[test]
    fn sequential_run_reuses_one_scratch_across_prefixes() {
        // Multi-prefix `run` with one thread: every prefix recycles the
        // same worker scratch (one build), and the result still matches
        // per-prefix fresh runs (locked more broadly in determinism.rs).
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let eps = vec![
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![]),
            Origination::announce(Asn::new(1), p("20.0.0.0/16"), vec![]),
            Origination::announce(Asn::new(3), p("30.0.0.0/16"), vec![]),
        ];
        let before = crate::scratch::scratch_builds();
        let res = sim.run(&eps);
        assert_eq!(crate::scratch::scratch_builds() - before, 1);
        assert!(res.converged);
        assert_eq!(res.final_routes.len(), 3);
    }

    #[test]
    fn changing_reannouncements_are_not_memo_collapsed() {
        // Hash-consing merges only *identical* originations: a
        // re-announcement with different attributes must re-originate, and
        // a later return to the first attributes must win again.
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let t1 = Community::new(4, 100);
        let t2 = Community::new(4, 200);
        let res = sim.run(&[
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![t1]),
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![t2]).at(100),
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![t1]).at(200),
        ]);
        assert!(res.converged);
        let r1 = res.route_at(Asn::new(1), &p("10.0.0.0/16")).unwrap();
        assert!(
            r1.has_community(t1),
            "final attributes are the episode-3 set"
        );
        assert!(!r1.has_community(t2), "episode-2 attributes were replaced");
    }

    #[test]
    fn memoized_reannouncement_survives_a_withdrawal() {
        // announce → withdraw → identical announce: the arena hands back
        // the first episode's interned route (it lives for the whole
        // prefix), and the route must come back everywhere.
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let tag = Community::new(4, 77);
        let res = sim.run(&[
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![tag]),
            Origination::withdrawal(Asn::new(4), p("10.0.0.0/16"), 100),
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![tag]).at(200),
        ]);
        assert!(res.converged);
        let r1 = res.route_at(Asn::new(1), &p("10.0.0.0/16")).unwrap();
        assert!(r1.has_community(tag));
    }

    #[test]
    fn more_specific_rejected_by_length_filter() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let res = sim.run(&[Origination::announce(Asn::new(4), p("10.0.0.0/28"), vec![])]);
        assert!(
            res.route_at(Asn::new(3), &p("10.0.0.0/28")).is_none(),
            "default max accepted length is /24"
        );
    }

    /// A session with a collector and full retention, so snapshots carry
    /// observations, monitor dedup state, and final routes.
    fn observed_sim(topo: &Topology) -> CompiledSim<'_> {
        SimSpec::new(topo)
            .retain(RetainRoutes::All)
            .collector(CollectorSpec {
                name: "rrc00".into(),
                platform: "RIS".into(),
                collector_id: 1,
                peers: vec![(Asn::new(1), FeedKind::Full)],
            })
            .compile()
    }

    #[test]
    fn duplicate_episode_clones_and_mints_nothing_sweep_included() {
        // A re-announcement with unchanged attributes dirties the origin,
        // whose best id is unchanged: no export pass runs, so the collector
        // sweep has no session to look at — it neither rescans a RIB nor
        // re-derives (clone, normalise, intern) an export it already holds.
        // (`observed_sim` without its retention, whose final-routes clones
        // are per call, not per episode.)
        let topo = line_topo();
        let sim = SimSpec::new(&topo)
            .collector(CollectorSpec {
                name: "rrc00".into(),
                platform: "RIS".into(),
                collector_id: 1,
                peers: vec![(Asn::new(1), FeedKind::Full)],
            })
            .compile();
        let prefix = p("10.0.0.0/16");
        let first = Origination::announce(Asn::new(4), prefix, vec![Community::new(4, 7)]);
        let again = first.clone().at(500);
        let mut scratch = sim.new_scratch();
        let mut outcome = sim.run_prefix(&mut scratch, prefix, &[&first], ScratchReader::Nobody);
        assert_eq!(outcome.observations[0].len(), 1);

        let minted = scratch.arena.len();
        let ((), copies) = copies_during(|| {
            sim.continue_prefix(
                &mut scratch,
                prefix,
                &[&again],
                &mut outcome,
                sim.event_budget,
                ScratchReader::Nobody,
            )
        });
        assert_eq!(copies, Copies::NONE, "a duplicate copied");
        assert_eq!(scratch.arena.len(), minted, "a duplicate minted a route");
        assert_eq!(outcome.observations[0].len(), 1, "and it is no news");
        assert!(outcome.converged);
    }

    #[test]
    fn a_flood_copies_attributes_once_per_export_that_mints_and_nowhere_else() {
        // 1 — 2 — 3 — 4, AS4 announces: the three exports uphill and AS1's
        // to its collector each prepend to a copy of their own. The three
        // imports, the observation, the four retained finals, the snapshot
        // and a delta's clone of it share what those four made.
        let topo = line_topo();
        let sim = observed_sim(&topo);
        let prefix = p("10.0.0.0/16");
        let first = Origination::announce(Asn::new(4), prefix, vec![Community::new(4, 7)]);
        let (flood, copies) = copies_during(|| {
            sim.run_prefix(
                &mut sim.new_scratch(),
                prefix,
                &[&first],
                ScratchReader::Nobody,
            )
        });
        assert_eq!(copies.attrs, 4);
        assert_eq!(flood.observations[0].len(), 1);
        assert_eq!(flood.final_routes.expect("retained").len(), 4);

        let baseline = std::slice::from_ref(&first);
        let ((_, snap), copies) = copies_during(|| sim.run_snapshot(baseline, prefix));
        assert_eq!(copies.attrs, 4, "the snapshot copied attributes");
        let (_, copies) = copies_during(|| sim.run_delta_prefix(&snap, &[]));
        assert_eq!(copies.attrs, 0, "cloning the snapshot copied attributes");
        // A changed re-announcement floods the chain again, and pays for
        // exactly its own four exports.
        let changed = [Origination::announce(Asn::new(4), prefix, vec![]).at(100)];
        let (_, copies) = copies_during(|| sim.run_delta_prefix(&snap, &changed));
        assert_eq!(copies.attrs, 4);
    }

    #[test]
    fn diverged_prefix_sweeps_every_session_the_long_way() {
        // 1 — 2 — 3 — 4, AS2 originates, a collector hears 1, 2 and 3. A
        // flood cut by its budget leaves nodes that imported a route and
        // never got their export pass: their sessions must still report
        // what they hold. The expected rows were recorded from the engine
        // that swept every session after every episode.
        let topo = line_topo();
        let prefix = p("10.0.0.0/16");
        let tag = Community::new(2, 7);
        let eps = [
            Origination::announce(Asn::new(2), prefix, vec![]),
            Origination::announce(Asn::new(2), prefix, vec![tag]).at(100),
            Origination::withdrawal(Asn::new(2), prefix, 200),
        ];
        let spec = SimSpec::new(&topo).collector(CollectorSpec {
            name: "rrc00".into(),
            platform: "RIS".into(),
            collector_id: 1,
            peers: [1, 2, 3].map(|n| (Asn::new(n), FeedKind::Full)).to_vec(),
        });
        type Row = (u32, u32, Option<(Vec<u32>, bool)>);
        let rows = |obs: &[CollectorObservation]| -> Vec<Row> {
            obs.iter()
                .map(|o| {
                    let route = o.route.as_ref().map(|r| {
                        let path = r.path.asns().map(|a| a.get()).collect();
                        (path, r.has_community(tag))
                    });
                    (o.time, o.peer.get(), route)
                })
                .collect()
        };

        // Budget 1: the origin's pass queues 2→1 and 2→3; AS1 imports,
        // then the second event trips the budget before AS1's pass.
        let mut sim = spec.compile();
        sim.event_budget = 1;
        let cut = sim.run(&eps);
        assert!(!cut.converged);
        assert_eq!(
            rows(&cut.observations["rrc00"]),
            [
                (0, 1, Some((vec![1, 2], false))),
                (0, 2, Some((vec![2], false))),
                (100, 2, Some((vec![2], true))),
                (200, 2, None),
            ],
            "AS1 heard the first announcement and nothing after it"
        );

        // Budget 0: nothing is ever imported, only the origin's own
        // session has anything to say.
        sim.event_budget = 0;
        let starved = sim.run(&eps);
        assert!(!starved.converged);
        assert_eq!(
            rows(&starved.observations["rrc00"]),
            [
                (0, 2, Some((vec![2], false))),
                (100, 2, Some((vec![2], true))),
                (200, 2, None),
            ]
        );
    }

    #[test]
    fn delta_rejects_a_snapshot_of_another_session() {
        // Same four ASes, one extra peering: node and collector-session
        // counts agree, the slot spaces do not. Both directions must be
        // refused by name — the narrower snapshot would read past its slot
        // arrays, the wider one would be silently half-read. So must the
        // same topology with another collector set.
        let line = line_topo();
        let mut ring = line_topo();
        ring.add_edge(Asn::new(1), Asn::new(4), EdgeKind::PeerToPeer);
        let (line_sim, ring_sim) = (observed_sim(&line), observed_sim(&ring));
        let unobserved = SimSpec::new(&line).compile();
        let eps = [Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![])];
        let (_, line_snap) = line_sim.run_snapshot(&eps, p("10.0.0.0/16"));
        let (_, ring_snap) = ring_sim.run_snapshot(&eps, p("10.0.0.0/16"));
        for (sim, snap, names) in [
            (&ring_sim, &line_snap, "topology"),
            (&line_sim, &ring_snap, "topology"),
            (&unobserved, &line_snap, "collector set"),
        ] {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| sim.run_delta(snap, &[])))
                .expect_err("a foreign snapshot must be refused");
            let msg = panic_message(&*err);
            assert!(
                msg.contains(&format!("different session's {names}")),
                "got: {msg}"
            );
        }
        // A session compiled afresh over the same world continues it.
        let twin = observed_sim(&line);
        assert_eq!(twin.run_delta(&line_snap, &[]), line_sim.run(&eps));
    }

    #[test]
    fn parallel_worker_panic_names_the_prefix() {
        /// A sink that refuses one prefix.
        #[derive(Debug)]
        struct Refuse;
        impl CampaignSink for Refuse {
            fn fold(&mut self, prefix: Prefix, _outcome: PrefixOutcome) {
                assert_ne!(prefix, p("20.0.0.0/16"), "sink refused the prefix");
            }
            fn merge(&mut self, _other: Self) {}
        }
        let topo = line_topo();
        let sim = SimSpec::new(&topo).threads(2).compile();
        let eps: Vec<Origination> = ["10.0.0.0/16", "20.0.0.0/16", "30.0.0.0/16"]
            .iter()
            .map(|s| Origination::announce(Asn::new(4), p(s), vec![]))
            .collect();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Campaign::new(&sim).run(&eps, || Refuse)
        }))
        .expect_err("the sink's panic must propagate");
        let msg = panic_message(&*err);
        // Three prefixes make three one-prefix chunks; the victim is chunk 1.
        assert!(
            msg.starts_with(
                "campaign worker panicked in chunk 1 (prefixes 20.0.0.0/16..=20.0.0.0/16): "
            ) && msg.contains("sink refused the prefix"),
            "the chunk, its prefixes and the worker's own panic text must all survive, \
             got: {msg}"
        );
    }

    #[test]
    fn prefix_runs_straddling_the_epoch_wrap_match_fresh_scratch() {
        // Regression for the `begin_prefix` epoch-wrap slow path at the
        // `u32::MAX` boundary: a worker whose stamp counter is about to
        // wrap must produce bit-identical outcomes on the prefix that runs
        // *at* `u32::MAX` and on the next one (which takes the wrap), with
        // every node reading as stale in between.
        let topo = line_topo();
        let sim = observed_sim(&topo);
        let ep = Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![]);
        let reference = sim.run_prefix(
            &mut sim.new_scratch(),
            p("10.0.0.0/16"),
            &[&ep],
            ScratchReader::Nobody,
        );

        // Age a used scratch to the brink: translate its stamps so the
        // next `begin_prefix` lands exactly on `u32::MAX` and the one
        // after takes the wrap branch. Stale stamps map to 0 (they only
        // need to stay != every future epoch).
        let mut worn = sim.new_scratch();
        let warmup = sim.run_prefix(&mut worn, p("20.0.0.0/16"), &[&ep], ScratchReader::Nobody);
        assert!(warmup.converged);
        let live = worn.epoch;
        worn.epoch = u32::MAX - 1;
        for stamp in &mut worn.node_epoch {
            *stamp = if *stamp == live { u32::MAX - 1 } else { 0 };
        }

        let at_max = sim.run_prefix(&mut worn, p("10.0.0.0/16"), &[&ep], ScratchReader::Nobody);
        assert_eq!(worn.epoch, u32::MAX, "the run before the wrap sits at MAX");
        assert_eq!(at_max, reference, "outcome at epoch u32::MAX drifted");

        let wrapped = sim.run_prefix(&mut worn, p("10.0.0.0/16"), &[&ep], ScratchReader::Nobody);
        assert_eq!(worn.epoch, 1, "the wrap restarts the stamp counter");
        assert_eq!(wrapped, reference, "outcome across the wrap drifted");
        assert!(
            worn.node_epoch.iter().all(|&e| e <= worn.epoch),
            "wrap left a node stamped ahead of the epoch (accidentally live later)"
        );
    }

    #[test]
    fn delta_reconvergence_matches_fresh_combined_run() {
        let topo = line_topo();
        let sim = observed_sim(&topo);
        let prefix = p("10.0.0.0/16");
        let baseline = vec![Origination::announce(Asn::new(4), prefix, vec![])];
        let (base, snap) = sim.run_snapshot(&baseline, prefix);
        assert_eq!(base, sim.run(&baseline), "run_snapshot changed the run");

        // Community-changing perturbation.
        let attack =
            Origination::announce(Asn::new(4), prefix, vec![Community::new(3, 666)]).at(600);
        let combined = vec![baseline[0].clone(), attack.clone()];
        assert_eq!(sim.run_delta(&snap, &[attack]), sim.run(&combined));

        // Withdrawal perturbation (on the same snapshot: baselines are
        // immutable, every candidate continues a clone of one).
        let wd = Origination::withdrawal(Asn::new(4), prefix, 700);
        let combined = vec![baseline[0].clone(), wd.clone()];
        assert_eq!(sim.run_delta(&snap, &[wd]), sim.run(&combined));

        // The empty delta reproduces the baseline result exactly.
        assert_eq!(sim.run_delta(&snap, &[]), base);
    }

    #[test]
    fn retention_clones_one_handle_per_as_and_relabels_every_as() {
        // A hub with 40 stub customers, one of which announces: the origin,
        // the hub and the 39 other stubs hold three distinct routes between
        // them, and keeping the routes costs one handle clone per AS on top
        // of the flood's own, and no attribute copy.
        const STUBS: u32 = 40;
        let mut topo = Topology::new();
        topo.add_simple(Asn::new(1), Tier::Tier1);
        for stub in 2..2 + STUBS {
            topo.add_simple(Asn::new(stub), Tier::Stub);
            topo.add_edge(Asn::new(1), Asn::new(stub), EdgeKind::ProviderToCustomer);
        }
        let spec = |retain| {
            SimSpec::new(&topo)
                .retain(retain)
                .collector(CollectorSpec {
                    name: "rrc00".into(),
                    platform: "RIS".into(),
                    collector_id: 1,
                    peers: vec![(Asn::new(1), FeedKind::Full)],
                })
                .compile()
        };
        // One flood on a fresh scratch, and what it cloned. An `All` flood
        // simulates the 39 stubs nobody else reads, so the flood it is
        // measured against is the unretained session's flooded in full
        // (`ScratchReader::Snapshot`), which clones the same except the
        // retention sweep's.
        let prefix = p("10.0.0.0/16");
        let eps = [Origination::announce(Asn::new(2), prefix, vec![])];
        let flood = |sim: &CompiledSim<'_>, reader| {
            copies_during(|| sim.run_prefix(&mut sim.new_scratch(), prefix, &[&eps[0]], reader))
        };
        let unretained = spec(RetainRoutes::None);
        let (full, flood_copies) = flood(&unretained, ScratchReader::Snapshot);
        assert_eq!(full.observations[0].len(), 1);
        assert_eq!(unretained.unread_nodes() as u32, STUBS);
        let (elided, _) = flood(&unretained, ScratchReader::Nobody);
        assert_eq!(
            elided, full,
            "an unread stub changed what the flood returns"
        );
        let sim = spec(RetainRoutes::All);
        let (kept, copies) = flood(&sim, ScratchReader::Nobody);
        let finals = &kept.final_routes.expect("retained");
        assert_eq!(finals.len() as u32, STUBS + 1, "every AS holds a route");
        let mut distinct: Vec<&Route> = Vec::new();
        for route in finals.values() {
            if !distinct.contains(&route) {
                distinct.push(route);
            }
        }
        assert_eq!(distinct.len(), 3);
        assert_eq!(
            copies.handles - flood_copies.handles,
            u64::from(STUBS + 1),
            "one handle per retained AS"
        );
        assert_eq!(copies.attrs, flood_copies.attrs, "each of a handle only");

        // Relabeling has no route to rewrite: the retained table is, as
        // stored, the one a flood of the other prefix produces — alone, or
        // as the replayed member of this prefix's class.
        let other = p("10.1.0.0/16");
        let relabeled = PrefixOutcome {
            observations: Vec::new(),
            final_routes: Some(finals.clone()),
            events: 0,
            converged: true,
        }
        .relabeled(other)
        .final_routes
        .expect("kept");
        assert!(relabeled.keys().eq(finals.keys()));
        let fresh = sim.run(&[Origination::announce(Asn::new(2), other, vec![])]);
        assert_eq!(relabeled, fresh.final_routes[&other]);
        let both = sim.run(&[
            eps[0].clone(),
            Origination::announce(Asn::new(2), other, vec![]),
        ]);
        assert_eq!(both.final_routes[&prefix], both.final_routes[&other]);
        assert_eq!(both.final_routes[&prefix], *finals);
    }

    #[test]
    #[should_panic(expected = "predates the snapshot baseline")]
    fn delta_rejects_episodes_before_the_baseline() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo).compile();
        let prefix = p("10.0.0.0/16");
        let baseline = vec![Origination::announce(Asn::new(4), prefix, vec![]).at(300)];
        let (_, snap) = sim.run_snapshot(&baseline, prefix);
        sim.run_delta(&snap, &[Origination::withdrawal(Asn::new(4), prefix, 100)]);
    }

    #[test]
    #[should_panic(expected = "does not appear in the schedule")]
    fn run_snapshot_requires_the_prefix_in_the_schedule() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo).compile();
        let baseline = vec![Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![])];
        sim.run_snapshot(&baseline, p("99.0.0.0/16"));
    }

    #[test]
    #[should_panic(expected = "an episode of 20.0.0.0/16 beside snapshot prefix 10.0.0.0/16")]
    fn run_snapshot_refuses_an_episode_of_another_prefix() {
        let topo = line_topo();
        let sim = SimSpec::new(&topo).compile();
        let schedule = [
            Origination::announce(Asn::new(4), p("10.0.0.0/16"), vec![]),
            Origination::announce(Asn::new(1), p("20.0.0.0/16"), vec![]),
        ];
        sim.run_snapshot(&schedule, p("10.0.0.0/16"));
    }

    #[test]
    fn every_collector_is_named_whatever_it_heard() {
        // AS4's customer-only feed never carries a route AS4 learned from
        // its provider, so "deaf" hears nothing — and is still listed, as
        // both are for the empty schedule.
        let topo = line_topo();
        let collector = |name: &str, peer, feed| CollectorSpec {
            name: name.into(),
            platform: "RIS".into(),
            collector_id: 1,
            peers: vec![(Asn::new(peer), feed)],
        };
        let sim = SimSpec::new(&topo)
            .collector(collector("rrc00", 2, FeedKind::Full))
            .collector(collector("deaf", 4, FeedKind::CustomerRoutesOnly))
            .compile();
        let res = sim.run(&[Origination::announce(Asn::new(1), p("20.0.0.0/16"), vec![])]);
        assert_eq!(res.observations.len(), 2);
        assert_eq!(res.observations["rrc00"].len(), 1);
        assert!(res.observations["deaf"].is_empty());

        let idle = sim.run(&[]);
        assert!(idle.converged && idle.events == 0 && idle.final_routes.is_empty());
        assert!(idle.observations.keys().eq(["deaf", "rrc00"]));
        assert!(idle.observations.values().all(Vec::is_empty));
    }

    #[test]
    fn unread_leaves_are_exactly_the_nodes_nobody_can_read() {
        // 1 is the provider of transit 2 and of stubs 3 and 4; 2 has the one
        // customer 5; stub 6 hangs off route server 50 only; 4 200 000 007
        // is a 4-byte-ASN stub of 2. A collector hears stub 3.
        let big = Asn::new(4_200_000_007);
        let mut topo = Topology::new();
        topo.add_simple(Asn::new(1), Tier::Tier1);
        topo.add_simple(Asn::new(2), Tier::Transit);
        for stub in [3, 4, 5, 6] {
            topo.add_simple(Asn::new(stub), Tier::Stub);
        }
        topo.add_simple(big, Tier::Stub);
        topo.add_simple(Asn::new(50), Tier::RouteServer);
        for customer in [2, 3, 4] {
            topo.add_edge(
                Asn::new(1),
                Asn::new(customer),
                EdgeKind::ProviderToCustomer,
            );
        }
        topo.add_edge(Asn::new(2), Asn::new(5), EdgeKind::ProviderToCustomer);
        topo.add_edge(Asn::new(2), big, EdgeKind::ProviderToCustomer);
        topo.add_edge(Asn::new(2), Asn::new(50), EdgeKind::PeerToPeer);
        topo.add_edge(Asn::new(6), Asn::new(50), EdgeKind::PeerToPeer);
        let sim = SimSpec::new(&topo)
            .collector(CollectorSpec {
                name: "rrc00".into(),
                platform: "RIS".into(),
                collector_id: 1,
                peers: vec![(Asn::new(3), FeedKind::CustomerRoutesOnly)],
            })
            .compile();
        let unread = |asn: Asn| sim.unread[topo.node_id(asn).expect("in the topology").index()];
        assert!(!unread(Asn::new(1)), "a Tier-1 has customers");
        assert!(!unread(Asn::new(2)), "one customer is enough to be read");
        assert!(!unread(Asn::new(3)), "a stub with a session is read");
        assert!(unread(Asn::new(4)), "a plain stub");
        assert!(unread(Asn::new(5)));
        assert!(unread(Asn::new(6)), "a stub behind a route server only");
        assert!(unread(big), "a 4-byte-ASN stub");
        assert!(!unread(Asn::new(50)), "a route server redistributes");
        assert_eq!(sim.unread_nodes(), 4);
        // The session made the difference, not the tier.
        assert_eq!(SimSpec::new(&topo).compile().unread_nodes(), 5);
    }

    /// 1 over transits 2 and 3, which peer; stubs 4, 5 under 2 and 6, 7
    /// under 3. With it, the config of a transit 3 that prefers what its
    /// peer 2 says over what its customers say, so it sends stub 6 the
    /// routes of 2's customers even while 6 originates the prefix itself.
    fn two_transits() -> (Topology, RouterConfig) {
        let mut topo = Topology::new();
        topo.add_simple(Asn::new(1), Tier::Tier1);
        for (transit, stubs) in [(2, [4, 5]), (3, [6, 7])] {
            topo.add_simple(Asn::new(transit), Tier::Transit);
            topo.add_edge(Asn::new(1), Asn::new(transit), EdgeKind::ProviderToCustomer);
            for stub in stubs {
                topo.add_simple(Asn::new(stub), Tier::Stub);
                topo.add_edge(
                    Asn::new(transit),
                    Asn::new(stub),
                    EdgeKind::ProviderToCustomer,
                );
            }
        }
        topo.add_edge(Asn::new(2), Asn::new(3), EdgeKind::PeerToPeer);
        let mut peer_first = RouterConfig::defaults(Asn::new(3));
        peer_first.local_pref.peer = peer_first.local_pref.customer + 1;
        (topo, peer_first)
    }

    #[test]
    fn elided_flood_equals_the_full_one_at_every_budget() {
        // 1 over transits 2 and 3 (which peer); stubs 4, 5 under 2 and 6, 7
        // under 3. Collectors hear 1, 3 and stub 7; stubs 5 and 6 are unread
        // (4 too, but it originates). The schedule announces at 4, changes
        // the tag, adds a second origin at unread stub 6 (MOAS), withdraws
        // the first. Transit 3 prefers what its peer says, so 6's
        // announcement stays at 3 until the withdrawal reaches it, and 3
        // keeps sending 4's route to 6, which imports it while it
        // originates: the elided flood still delivers to an unread leaf
        // that originates. Wherever the budget cuts it, the flood that
        // drops deliveries to unread leaves returns what the full one
        // returns; retained at every AS, the flood runs in full, reaches
        // stub 5 and returns what its snapshot twin returns, routes and all.
        let (topo, peer_first) = two_transits();
        let spec = SimSpec::new(&topo)
            .configure(peer_first)
            .collector(CollectorSpec {
                name: "rrc00".into(),
                platform: "RIS".into(),
                collector_id: 1,
                peers: vec![
                    (Asn::new(1), FeedKind::Full),
                    (Asn::new(3), FeedKind::CustomerRoutesOnly),
                    (Asn::new(7), FeedKind::Full),
                ],
            });
        let sim = spec.clone().compile();
        let kept = spec.retain(RetainRoutes::All).compile();
        assert_eq!(sim.unread_nodes(), 3);
        let prefix = p("10.0.0.0/16");
        let eps = [
            Origination::announce(Asn::new(4), prefix, vec![]),
            Origination::announce(Asn::new(4), prefix, vec![Community::new(2, 7)]).at(100),
            Origination::announce(Asn::new(6), prefix, vec![]).at(150),
            Origination::withdrawal(Asn::new(4), prefix, 200),
        ];
        let refs: Vec<&Origination> = eps.iter().collect();
        let flood = |sim: &CompiledSim<'_>, budget: u64, reader| {
            let mut scratch = sim.new_scratch();
            scratch.begin_prefix();
            let mut outcome = PrefixOutcome {
                observations: vec![Vec::new()],
                final_routes: None,
                events: 0,
                converged: true,
            };
            sim.continue_prefix(&mut scratch, prefix, &refs, &mut outcome, budget, reader);
            (outcome, scratch)
        };
        let six = topo.node_id(Asn::new(6)).expect("in the topology").index();
        let imported_at_6 = |scratch: &SimScratch| {
            let slots = sim.offsets[six] as usize..sim.offsets[six + 1] as usize;
            scratch.rib_in[slots].iter().any(Option::is_some)
        };
        let (whole, scratch) = flood(&sim, u64::MAX, ScratchReader::Snapshot);
        assert!(whole.converged);
        assert_eq!(
            scratch.touched.len(),
            topo.len(),
            "the full flood reaches every AS"
        );
        assert_eq!(
            flood(&sim, u64::MAX, ScratchReader::Nobody).1.touched.len(),
            topo.len() - 1,
            "only stub 5 is unread and never originates"
        );
        let (all, scratch) = flood(&kept, u64::MAX, ScratchReader::Nobody);
        assert_eq!(
            scratch.touched.len(),
            topo.len(),
            "an `All` flood reaches every AS"
        );
        let at5 = all.final_routes.as_ref().and_then(|f| f.get(&Asn::new(5)));
        assert!(at5.is_some(), "stub 5 keeps what 2 exported last");
        let mut imports_while_originating = false;
        for budget in 0..=whole.events {
            let (full, _) = flood(&sim, budget, ScratchReader::Snapshot);
            let (elided, scratch) = flood(&sim, budget, ScratchReader::Nobody);
            assert_eq!(elided, full, "budget {budget}");
            assert_eq!(full.converged, budget == whole.events, "budget {budget}");
            imports_while_originating |= scratch.local[six].is_some() && imported_at_6(&scratch);
            let twin = flood(&kept, budget, ScratchReader::Snapshot).0;
            let all = flood(&kept, budget, ScratchReader::Nobody).0;
            assert_eq!(all, twin, "retained, budget {budget}");
        }
        assert!(
            imports_while_originating,
            "the elided flood delivers to unread originator 6"
        );
    }

    #[test]
    fn a_forwarding_delta_drops_what_its_campaign_drops_and_nothing_else() {
        // `two_transits`, where a collector hears 7. Under `Prefixes`
        // retention with reader 7, the baseline announces at 4, then at
        // stub 6, whose provider 3 prefers 4's route, heard over its
        // peering with 2, to 6's (so 6's own announcement stays at 3); the
        // delta re-announces at 4 with a tag. A delta on the snapshot's clone drops what reaches
        // stub 5 (unread, no origin, no reader): 5's slots stay as the
        // baseline left them, and the sweep skips 5. Stub 6 originates in
        // the baseline only, and imports the tagged route all the same; the
        // outcome is the campaign's of the whole schedule.
        let (topo, peer_first) = two_transits();
        let prefix = p("10.0.0.0/16");
        let sim = SimSpec::new(&topo)
            .configure(peer_first)
            .collector(CollectorSpec {
                name: "rrc00".into(),
                platform: "RIS".into(),
                collector_id: 1,
                peers: vec![(Asn::new(7), FeedKind::Full)],
            })
            .retain(RetainRoutes::Prefixes {
                prefixes: BTreeSet::from([prefix]),
                readers: BTreeSet::from([Asn::new(7)]),
            })
            .compile();
        let baseline = [
            Origination::announce(Asn::new(4), prefix, vec![]),
            Origination::announce(Asn::new(6), prefix, vec![]).at(100),
        ];
        let delta = Origination::announce(Asn::new(4), prefix, vec![Community::new(2, 7)]).at(300);
        let (_, snap) = sim.run_snapshot(&baseline, prefix);

        let slots = |scratch: &SimScratch, asn: u32| {
            let i = topo
                .node_id(Asn::new(asn))
                .expect("in the topology")
                .index();
            scratch.rib_in[sim.offsets[i] as usize..sim.offsets[i + 1] as usize].to_vec()
        };
        let mut scratch = snap.scratch.clone();
        let mut outcome = PrefixOutcome {
            final_routes: None,
            ..snap.baseline_outcome().clone()
        };
        sim.continue_prefix(
            &mut scratch,
            prefix,
            &[&delta],
            &mut outcome,
            sim.event_budget,
            ScratchReader::Nobody,
        );
        assert_eq!(
            slots(&scratch, 5),
            slots(&snap.scratch, 5),
            "5 took a delivery"
        );
        assert_ne!(slots(&scratch, 6), slots(&snap.scratch, 6), "6 took none");
        let finals = outcome.final_routes.as_ref().expect("retained");
        assert!(!finals.contains_key(&Asn::new(5)));
        assert!(finals.contains_key(&Asn::new(6)) && finals.contains_key(&Asn::new(7)));

        let mut schedule = baseline.to_vec();
        schedule.push(delta.clone());
        let fresh = sim.run(&schedule);
        assert_eq!(sim.run_delta(&snap, std::slice::from_ref(&delta)), fresh);
        assert_eq!(fresh.final_routes[&prefix], *finals);
    }
}
