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
//!   the topology's CSR degree prefix-sum
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
//! Reuse is semantically invisible: `tests/determinism.rs` pins
//! scratch-reuse ≡ fresh-state-per-prefix on random worlds, and
//! [`scratch_builds`] is the alloc-counting double (in the style of
//! [`crate::route_clones`]) that locks in "the second prefix of a campaign
//! allocates no RIB arrays".

use crate::engine::{Event, PrefixOutcome};
use crate::route::{RouteArena, RouteId};
use crate::router::RibEntry;
use bgpworms_topology::{NodeId, Role};
use bgpworms_types::Prefix;
use std::cell::Cell;

thread_local! {
    /// Alloc-counting test double: every full [`SimScratch`] array
    /// allocation on this thread bumps the counter. The whole point of the
    /// scratch is that this happens once per worker, not once per prefix.
    static SCRATCH_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Total scratch-state allocations (one per `SimScratch` built) performed
/// on the current thread so far.
///
/// Tests snapshot this around a multi-prefix campaign to assert that every
/// prefix after the first reuses the worker's arrays instead of
/// re-allocating them; deltas are meaningful, absolute values are not.
pub fn scratch_builds() -> u64 {
    SCRATCH_BUILDS.with(|c| c.get())
}

/// The in-flight update events of one convergence round, stored
/// structure-of-arrays: the drain loop walks five dense parallel vectors
/// instead of an array of structs, so the branchy early fields (receiver,
/// slot, role) stream through cache without dragging each event's
/// `Option<RouteId>` payload into the same lines.
///
/// The convergence loop is strictly **write-then-read**: export sweeps push
/// while the queue is quiescent, then the drain loop pops until empty — the
/// two phases never interleave — so no ring buffer is needed. A cursor
/// walks the vectors front to back and [`EventQueue::pop_front`] resets the
/// storage (capacity kept) the moment the cursor catches up.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Read cursor into the parallel vectors below.
    head: usize,
    from: Vec<NodeId>,
    to: Vec<NodeId>,
    to_slot: Vec<u32>,
    sender_role: Vec<Role>,
    route: Vec<Option<RouteId>>,
}

impl EventQueue {
    pub(crate) fn push_back(&mut self, ev: Event) {
        self.from.push(ev.from);
        self.to.push(ev.to);
        self.to_slot.push(ev.to_slot);
        self.sender_role.push(ev.sender_role);
        self.route.push(ev.route);
    }

    /// Pops the next event in FIFO order; on exhaustion resets the storage
    /// for the next round's pushes and returns `None`.
    pub(crate) fn pop_front(&mut self) -> Option<Event> {
        if self.head == self.from.len() {
            self.clear();
            return None;
        }
        let k = self.head;
        self.head += 1;
        Some(Event {
            from: self.from[k],
            to: self.to[k],
            to_slot: self.to_slot[k],
            sender_role: self.sender_role[k],
            route: self.route[k],
        })
    }

    /// Drops all queued events (capacity kept) — the budget-cutoff path and
    /// the per-prefix recycle.
    pub(crate) fn clear(&mut self) {
        self.head = 0;
        self.from.clear();
        self.to.clear();
        self.to_slot.clear();
        self.sender_role.clear();
        self.route.clear();
    }
}

/// The set of nodes whose Adj-RIB-In changed since their last export
/// recompute, drained once per convergence round in ascending node order
/// (the order is what keeps batched runs deterministic). Membership is a
/// dense bitmap so inserts from repeated imports are O(1) and duplicate
/// marks are free; clearing resets only the marked bits, so the structure
/// recycles across prefixes at zero cost.
#[derive(Debug)]
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
/// collector session of the node that ran it. A collector export is a pure
/// function of the node's best route, so only sessions with such a record
/// can have news after an episode — and the record already holds what the
/// sweep would otherwise rescan the RIB and re-derive an export for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionPass {
    /// The session, as an index into the compiled session list.
    pub(crate) session: u32,
    /// The best entry the pass exported from, with its learned role.
    pub(crate) best: Option<(RouteId, Option<Role>)>,
    /// The export the pass memoized for the role the monitor plays on this
    /// session — `None` when it memoized none (a per-neighbor policy, or no
    /// neighbor of that role to compute it for).
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
#[derive(Debug)]
pub(crate) struct SimScratch {
    /// The current prefix's generation stamp; `node_epoch[i] == epoch`
    /// means node `i`'s state below is live for this prefix.
    pub(crate) epoch: u32,
    /// Per-node generation stamp.
    pub(crate) node_epoch: Vec<u32>,
    /// Nodes stamped by the current prefix, in first-touch order — the
    /// engine's final-routes sweep iterates these instead of all nodes.
    pub(crate) touched: Vec<u32>,
    /// The unread leaves whose deliveries the current prefix parked, in
    /// first-park order; resolved before the final-routes sweep. Only a
    /// retained campaign flood parks, so a snapshot never holds any.
    pub(crate) parked: Vec<u32>,
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
    /// In-flight update events.
    pub(crate) queue: EventQueue,
    /// Nodes awaiting an export recompute.
    pub(crate) dirty: DirtySet,
    /// Per collector session: what the peer currently advertises to the
    /// monitor, so only changes produce observations. Indexed in step with
    /// the session's `collector_peers`.
    pub(crate) monitor_state: Vec<Option<RouteId>>,
    /// The export passes of the episode being converged, in pass order;
    /// drained by the collector sweep that ends the episode, so empty
    /// between episodes — which is why a snapshot has no such field.
    pub(crate) passes: Vec<SessionPass>,
}

impl SimScratch {
    /// Allocates scratch for a network of `n_nodes` nodes, `n_slots` total
    /// directed-edge slots, and `n_monitor_sessions` collector sessions.
    pub(crate) fn new(n_nodes: usize, n_slots: usize, n_monitor_sessions: usize) -> Self {
        SCRATCH_BUILDS.with(|c| c.set(c.get() + 1));
        SimScratch {
            epoch: 0,
            node_epoch: vec![0; n_nodes],
            touched: Vec::new(),
            parked: Vec::new(),
            rib_in: vec![None; n_slots],
            exported: vec![None; n_slots],
            local: vec![None; n_nodes],
            last_emit_best: vec![None; n_nodes],
            arena: RouteArena::new(),
            queue: EventQueue::default(),
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
        self.parked.clear();
        self.arena.reset();
        self.queue.clear();
        self.dirty.clear();
        self.monitor_state.fill(None);
        self.passes.clear();
    }
}

/// A converged single-prefix baseline, captured from a worker's scratch by
/// `CompiledSim::run_snapshot` and re-animated by `CompiledSim::run_delta`.
///
/// The snapshot is memcpy-class thanks to the flat scratch layout: the
/// touched nodes' Adj-RIB-In and last-exported slot ranges are concatenated
/// `Copy` slices, the per-node scalars are two small parallel vectors, and
/// the [`RouteArena`] clone preserves both route storage and the hash index
/// — so a restored arena interns future routes under exactly the ids the
/// uninterrupted run would have minted. Untouched nodes are not stored at
/// all: a baseline that floods part of the graph snapshots only its
/// footprint.
///
/// A snapshot is tied to the `CompiledSim` session that produced it (same
/// topology slot space, same collector sessions). Restoring it elsewhere is
/// a logic error and panics on the dimension checks in `restore`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// The prefix this baseline converged.
    pub(crate) prefix: Prefix,
    /// The latest episode time in the baseline schedule; delta episodes
    /// must not be scheduled before it (the baseline already folded
    /// everything up to this point into the RIBs).
    pub(crate) last_time: u32,
    /// Nodes the baseline touched, in first-touch order (the engine's
    /// final-sweep iteration order, preserved so a delta run's sweep is
    /// bit-identical to the uninterrupted run's).
    pub(crate) touched: Vec<u32>,
    /// Concatenated Adj-RIB-In slot ranges of the touched nodes, in
    /// `touched` order.
    pub(crate) rib_in: Vec<Option<RibEntry>>,
    /// Concatenated last-exported slot ranges, aligned with `rib_in`.
    pub(crate) exported: Vec<Option<RouteId>>,
    /// Per touched node: local origination, aligned with `touched`.
    pub(crate) local: Vec<Option<RouteId>>,
    /// Per touched node: last-emitted best, aligned with `touched`.
    pub(crate) last_emit_best: Vec<Option<Option<RouteId>>>,
    /// The baseline's route arena (ids in the slot arrays above point into
    /// this).
    pub(crate) arena: RouteArena,
    /// Per collector session: what each monitored peer advertised at
    /// convergence (observation dedup state).
    pub(crate) monitor_state: Vec<Option<RouteId>>,
    /// Everything the baseline run produced for this prefix: observations,
    /// event count, convergence flag, retained routes. A delta run starts
    /// from a copy of the first three and appends; it rebuilds the routes.
    pub(crate) outcome: PrefixOutcome,
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

    /// Number of nodes the baseline flood touched — the snapshot's
    /// footprint (and an upper bound on a delta run's restore cost).
    pub fn touched_nodes(&self) -> usize {
        self.touched.len()
    }
}

impl SimScratch {
    /// Captures the current prefix's converged state into a standalone
    /// [`SimSnapshot`]. `offsets` is the session topology's CSR slot
    /// prefix-sum; the queue and dirty set are empty at convergence, so
    /// they are not captured.
    pub(crate) fn capture(
        &self,
        offsets: &[u32],
        prefix: Prefix,
        last_time: u32,
        outcome: PrefixOutcome,
    ) -> SimSnapshot {
        let slots: usize = self
            .touched
            .iter()
            .map(|&i| (offsets[i as usize + 1] - offsets[i as usize]) as usize)
            .sum();
        let mut rib_in = Vec::with_capacity(slots);
        let mut exported = Vec::with_capacity(slots);
        let mut local = Vec::with_capacity(self.touched.len());
        let mut last_emit_best = Vec::with_capacity(self.touched.len());
        for &i in &self.touched {
            let i = i as usize;
            let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
            rib_in.extend_from_slice(&self.rib_in[lo..hi]);
            exported.extend_from_slice(&self.exported[lo..hi]);
            local.push(self.local[i]);
            last_emit_best.push(self.last_emit_best[i]);
        }
        SimSnapshot {
            prefix,
            last_time,
            touched: self.touched.clone(),
            rib_in,
            exported,
            local,
            last_emit_best,
            arena: self.arena.clone(),
            monitor_state: self.monitor_state.clone(),
            outcome,
        }
    }

    /// Restores `snap` into this scratch, leaving it exactly as if the
    /// worker had just converged the snapshot's baseline: touched nodes
    /// stamped live in first-touch order with their slot ranges and scalars
    /// copied back, arena and collector dedup state cloned, queue and dirty
    /// set empty. Starts with a [`SimScratch::begin_prefix`], so any state
    /// a previous (possibly larger) flood left behind is invalidated first
    /// — restoring into a dirtier scratch is clean by construction.
    pub(crate) fn restore(&mut self, offsets: &[u32], snap: &SimSnapshot) {
        const FOREIGN_TOPOLOGY: &str = "snapshot restored under a different session's topology";
        assert_eq!(self.local.len(), offsets.len() - 1, "{FOREIGN_TOPOLOGY}");
        assert_eq!(
            self.monitor_state.len(),
            snap.monitor_state.len(),
            "snapshot restored under a different session's collector set"
        );
        self.begin_prefix();
        self.arena.clone_from(&snap.arena);
        self.monitor_state.copy_from_slice(&snap.monitor_state);
        // Equal node counts do not make two slot spaces equal: the touched
        // nodes' degrees here must consume the snapshot's concatenated slot
        // arrays exactly, or the snapshot came from another adjacency.
        let mut pos = 0;
        for (k, &i) in snap.touched.iter().enumerate() {
            let i = i as usize;
            self.node_epoch[i] = self.epoch;
            self.touched.push(i as u32);
            let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
            let end = pos + (hi - lo);
            assert!(end <= snap.rib_in.len(), "{FOREIGN_TOPOLOGY}");
            self.rib_in[lo..hi].copy_from_slice(&snap.rib_in[pos..end]);
            self.exported[lo..hi].copy_from_slice(&snap.exported[pos..end]);
            self.local[i] = snap.local[k];
            self.last_emit_best[i] = snap.last_emit_best[k];
            pos = end;
        }
        assert_eq!(pos, snap.rib_in.len(), "{FOREIGN_TOPOLOGY}");
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
        s.begin_prefix();
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

    #[test]
    fn builds_are_counted() {
        let before = scratch_builds();
        let _a = SimScratch::new(2, 2, 0);
        let _b = SimScratch::new(2, 2, 0);
        assert_eq!(scratch_builds() - before, 2);
    }
}
