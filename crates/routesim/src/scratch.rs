//! Per-worker reusable simulation scratch: the mutable state of a prefix
//! run, allocated once per campaign/run worker and recycled across every
//! prefix that worker claims.
//!
//! Before this module existed, [`crate::engine::CompiledSim`]'s per-prefix
//! loop rebuilt `O(ASes + edges)` state from scratch for every prefix — at
//! the ~62 K-AS April-2018 scale that meant ~124 K small `Vec` allocations
//! (two per router) plus a dirty bitmap, an arena, and an event queue per
//! prefix, dominating a route-table-sized campaign's marginal cost. A
//! [`SimScratch`] instead owns:
//!
//! * **two flat arrays over the whole network's directed-edge slots**
//!   (Adj-RIB-In entries and the last-exported cache), addressed through
//!   the session's copy of the topology's degree prefix-sum
//!   (`Topology::slot_offsets`): node `i`'s per-neighbor state is the
//!   sub-slice at `offsets[i]..offsets[i + 1]`, so "allocate a RIB per
//!   router" becomes two offset reads;
//! * per-node scalars (local origination, last-emitted best) in dense
//!   `NodeId`-indexed arrays;
//! * the [`RouteArena`], event queue, dirty set, collector-session dedup
//!   state, and the current episode's export-pass record for the collector
//!   sweep, all cleared and reused with their capacity intact.
//!
//! # Generation-stamped reset
//!
//! Between prefixes nothing is zeroed eagerly. Each prefix bumps a `u32`
//! **epoch**, and a node's state is live only while its stamp in
//! `node_epoch` equals the current epoch: the first time a prefix touches a
//! node, the engine stamps it and clears just that node's slot range and
//! scalars. Reset is therefore O(1), and a prefix that floods only part of
//! the graph — a stub origination scoped down by `NO_EXPORT`, say — pays
//! only for the nodes it actually reaches, never for the other ~62 K. The
//! stamp granularity is per node (not per slot): one compare guards a whole
//! slot range, keeping the per-event hot path free of stamp checks.
//!
//! # A snapshot is a converged scratch
//!
//! `CompiledSim::run_snapshot` does not recycle the scratch its flood
//! converged on: it keeps it, whole, as a [`SimSnapshot`], and every delta
//! continues a `clone()` of it — stamps, touched list, slot arrays and
//! arena exactly as the flood left them. There is no second state format.
//!
//! Reuse is semantically invisible: `tests/determinism.rs` pins
//! scratch-reuse ≡ fresh-state-per-prefix on random worlds. The worker pool
//! builds one scratch per worker (`shard.rs` counts its worker states), and
//! `begin_prefix` keeps every array's allocation (this module's tests), so
//! a campaign's second prefix allocates no RIB arrays.

use crate::engine::{Event, PrefixOutcome};
use crate::route::{RouteArena, RouteId};
use crate::router::RibEntry;
use crate::stats::FloodStats;
use bgpworms_topology::Role;
use bgpworms_types::Prefix;

/// The set of nodes whose Adj-RIB-In changed since their last export
/// recompute, drained once per convergence round in ascending node order
/// (the order is what keeps batched runs deterministic). Membership is a
/// dense bitmap so inserts from repeated imports are O(1) and duplicate
/// marks are free; clearing resets only the marked bits, so the structure
/// recycles across prefixes at zero cost.
#[derive(Debug, Clone)]
pub(crate) struct DirtySet {
    member: Vec<bool>,
    nodes: Vec<u32>,
}

impl DirtySet {
    pub(crate) fn new(n: usize) -> Self {
        DirtySet {
            member: vec![false; n],
            nodes: Vec::new(),
        }
    }

    pub(crate) fn insert(&mut self, index: usize) {
        if !self.member[index] {
            self.member[index] = true;
            self.nodes.push(index as u32);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        for &i in &self.nodes {
            self.member[i as usize] = false;
        }
        self.nodes.clear();
    }

    /// Sorts the dirty list in place (ascending) and exposes it for the
    /// export sweep; the caller [`DirtySet::clear`]s afterwards. In-place
    /// so the list's capacity is reused round after round — the sweep loop
    /// allocates nothing.
    pub(crate) fn sorted(&mut self) -> &[u32] {
        self.nodes.sort_unstable();
        &self.nodes
    }
}

/// What one export pass leaves behind for the collector sweep, once per
/// collector session of the node that ran it — or a budget cut, for a node
/// it left dirty. A collector export is a pure function of the node's best
/// route, so only sessions with such a record can have news after an
/// episode — and the record already holds what the sweep would otherwise
/// rescan the RIB and re-derive an export for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionPass {
    /// The session, as an index into the compiled session list.
    pub(crate) session: u32,
    /// The best entry the pass exported from, with its learned role.
    pub(crate) best: Option<(RouteId, Option<Role>)>,
    /// The export the pass memoized for the role the monitor plays on this
    /// session — `None` when it memoized none (a per-neighbor policy, no
    /// neighbor of that role to compute it for, or a budget cut's record).
    pub(crate) memoized: Option<Option<RouteId>>,
}

/// One worker's reusable per-prefix state. Built by
/// `CompiledSim::new_scratch` (sized to the session's topology and
/// collector set) and threaded through every `run_prefix` call that worker
/// makes; `begin_prefix` recycles it between prefixes.
///
/// Fields are crate-visible so the engine can split-borrow them — the
/// router views need the four state arrays while the arena, queue, and
/// dirty set are borrowed independently.
#[derive(Debug, Clone)]
pub(crate) struct SimScratch {
    /// The current prefix's generation stamp; `node_epoch[i] == epoch`
    /// means node `i`'s state below is live for this prefix.
    pub(crate) epoch: u32,
    /// Per-node generation stamp.
    pub(crate) node_epoch: Vec<u32>,
    /// Nodes stamped by the current prefix, in first-touch order — the
    /// engine's final-routes sweep iterates these instead of all nodes.
    pub(crate) touched: Vec<u32>,
    /// The nodes that originate in the schedule this scratch converged,
    /// once each, in order of first episode: a snapshot's are the
    /// baseline's, which a delta on its clone extends with its own. No
    /// unread-leaf rule drops a delivery to one of them.
    pub(crate) originators: Vec<u32>,
    /// Adj-RIB-In entries over the global directed-edge slot space.
    pub(crate) rib_in: Vec<Option<RibEntry>>,
    /// Last-exported cache over the global directed-edge slot space.
    pub(crate) exported: Vec<Option<RouteId>>,
    /// Per-node local origination.
    pub(crate) local: Vec<Option<RouteId>>,
    /// Per-node best id at the end of the last export pass.
    pub(crate) last_emit_best: Vec<Option<Option<RouteId>>>,
    /// The prefix-run route arena; reset (capacity kept) per prefix.
    pub(crate) arena: RouteArena,
    /// In-flight update events: export passes push, then the drain loop
    /// empties it (the two phases never interleave, so it is a plain
    /// `Vec` drained front to back).
    pub(crate) queue: Vec<Event>,
    /// Nodes awaiting an export recompute.
    pub(crate) dirty: DirtySet,
    /// Per collector session: what the peer currently advertises to the
    /// monitor, so only changes produce observations. Indexed in step with
    /// the session's `collector_peers`.
    pub(crate) monitor_state: Vec<Option<RouteId>>,
    /// The records of the episode being converged: its export passes', in
    /// pass order, then a budget cut's; drained by the collector sweep that
    /// ends the episode, so empty between episodes — and in a snapshot.
    pub(crate) passes: Vec<SessionPass>,
}

impl SimScratch {
    /// Allocates scratch for a network of `n_nodes` nodes, `n_slots` total
    /// directed-edge slots, and `n_monitor_sessions` collector sessions.
    pub(crate) fn new(n_nodes: usize, n_slots: usize, n_monitor_sessions: usize) -> Self {
        SimScratch {
            epoch: 0,
            node_epoch: vec![0; n_nodes],
            touched: Vec::new(),
            originators: Vec::new(),
            rib_in: vec![None; n_slots],
            exported: vec![None; n_slots],
            local: vec![None; n_nodes],
            last_emit_best: vec![None; n_nodes],
            arena: RouteArena::new(),
            queue: Vec::new(),
            dirty: DirtySet::new(n_nodes),
            monitor_state: vec![None; n_monitor_sessions],
            passes: Vec::new(),
        }
    }

    /// Recycles the scratch for the next prefix: bumps the generation
    /// stamp (invalidating every node's state in O(1)) and clears the
    /// reusable containers without releasing their capacity.
    pub(crate) fn begin_prefix(&mut self) {
        if self.epoch == u32::MAX {
            // Stamp wrap: declare every node stale the slow way once per
            // 2³² prefixes.
            self.node_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
        self.originators.clear();
        self.arena.reset();
        self.queue.clear();
        self.dirty.clear();
        self.monitor_state.fill(None);
        self.passes.clear();
    }
}

/// A converged single-prefix baseline: the worker scratch that flooded it,
/// moved out of `CompiledSim::run_snapshot` as it stood at convergence,
/// and continued by `CompiledSim::run_delta` on a `clone()` of it.
///
/// At convergence the queue, dirty set and pass record are empty, so the
/// scratch is nothing but the converged state: the touched list in
/// first-touch order, the baseline's originators, the slot arrays,
/// the per-node scalars, the collector dedup state and the [`RouteArena`],
/// whose clone keeps its hash index — so a delta interns future routes
/// under exactly the ids the uninterrupted run would have minted, and drops
/// no delivery to an AS the baseline originated at.
///
/// A snapshot outlives the `CompiledSim` that produced it, and any session
/// compiled over the same slot space and collector sessions may continue
/// it. Continuing it elsewhere is a logic error, refused by the
/// session-identity checks in `CompiledSim::run_delta_prefix`.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    /// The prefix this baseline converged.
    pub(crate) prefix: Prefix,
    /// The latest episode time in the baseline schedule; delta episodes
    /// must not be scheduled before it (the baseline already folded
    /// everything up to this point into the RIBs).
    pub(crate) last_time: u32,
    /// The producing session's slot prefix-sum, which a continuing
    /// session must share (its collector-session count is the length of
    /// the scratch's dedup state).
    pub(crate) offsets: Vec<u32>,
    /// The scratch that converged the baseline.
    pub(crate) scratch: SimScratch,
    /// Everything the baseline run produced for this prefix: observations,
    /// event count, convergence flag, retained routes. A delta run starts
    /// from a copy of the first three and appends; it rebuilds the routes.
    pub(crate) outcome: PrefixOutcome,
    /// What the capture flood did, and what copying its outcome in cloned.
    pub(crate) stats: FloodStats,
}

impl SimSnapshot {
    /// The prefix this snapshot converged.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// The baseline run's full per-prefix outcome (observations, events,
    /// convergence, retained routes) — what `CompiledSim::run` folded into
    /// its [`crate::SimResult`] for this prefix.
    pub fn baseline_outcome(&self) -> &PrefixOutcome {
        &self.outcome
    }

    /// What the flood that captured this snapshot did: its counters, plus
    /// the handles the snapshot's copy of the outcome cloned
    /// (`CloneSite::SnapshotClone`).
    pub fn stats(&self) -> FloodStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_set_inserts_dedup_and_clear() {
        let mut d = DirtySet::new(5);
        assert!(d.is_empty());
        d.insert(3);
        d.insert(1);
        d.insert(3);
        assert_eq!(d.sorted(), &[1, 3]);
        d.clear();
        assert!(d.is_empty());
        d.insert(3);
        assert_eq!(d.sorted(), &[3], "clear resets membership bits");
    }

    #[test]
    fn begin_prefix_bumps_epoch_and_clears_containers() {
        let mut s = SimScratch::new(4, 10, 2);
        s.begin_prefix();
        assert_eq!(s.epoch, 1);
        s.node_epoch[2] = s.epoch;
        s.touched.push(2);
        let stale = s.arena.intern(crate::route::Route::originate(vec![]));
        s.monitor_state[1] = Some(stale);
        s.dirty.insert(2);
        let arrays = (
            s.node_epoch.as_ptr(),
            s.rib_in.as_ptr(),
            s.exported.as_ptr(),
            s.local.as_ptr(),
            s.last_emit_best.as_ptr(),
            s.monitor_state.as_ptr(),
        );
        s.begin_prefix();
        assert_eq!(
            arrays,
            (
                s.node_epoch.as_ptr(),
                s.rib_in.as_ptr(),
                s.exported.as_ptr(),
                s.local.as_ptr(),
                s.last_emit_best.as_ptr(),
                s.monitor_state.as_ptr(),
            ),
            "the next prefix reuses every array the scratch was built with"
        );
        assert_eq!(s.epoch, 2);
        assert!(s.touched.is_empty());
        assert!(s.dirty.is_empty());
        assert!(s.arena.is_empty(), "arena reset for the next prefix");
        assert_eq!(
            s.monitor_state,
            [None, None],
            "stale collector dedup ids from the previous prefix's arena must not survive"
        );
        assert_ne!(s.node_epoch[2], s.epoch, "old stamps are stale");
    }

    #[test]
    fn epoch_wrap_restamps_every_node() {
        let mut s = SimScratch::new(3, 4, 0);
        s.epoch = u32::MAX;
        s.node_epoch.fill(u32::MAX);
        s.begin_prefix();
        assert_eq!(s.epoch, 1);
        assert!(
            s.node_epoch.iter().all(|&e| e == 0),
            "wrap must not leave any node accidentally live"
        );
    }
}
