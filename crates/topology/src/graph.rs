//! The AS graph: nodes with tiers, adjacency with business roles, and
//! structural statistics.
//!
//! Internally the graph is an **arena**: every AS is interned to a dense
//! [`NodeId`] (a `u32` index) at insertion, and each node keeps one
//! adjacency list of [`Edge`]s — neighbour id, the neighbour's role, and
//! this node's slot in the neighbour's list — written once by
//! [`Topology::add_edge`]. Hot consumers — above all the propagation engine
//! in `bgpworms-routesim` — address nodes by `NodeId` and get O(1) `Vec`
//! indexing with no tree walks; the `Asn`-keyed API reads the same lists.
//! IXP membership is not stored: it is the set of route-server neighbours.

use crate::relationship::{EdgeKind, RelLine, Role};
use bgpworms_types::Asn;
use std::collections::BTreeMap;

/// Where an AS sits in the generated hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Transit-free clique member.
    Tier1,
    /// Regional/national transit provider.
    Transit,
    /// Edge network (content, enterprise, eyeball).
    Stub,
    /// An IXP route server: peers with many members, transparent in the AS
    /// path, and by convention off-path for community attribution.
    RouteServer,
}

/// A dense, stable index identifying one node of a [`Topology`].
///
/// Ids are assigned in insertion order, cover `0..topology.len()` without
/// gaps, and never change once assigned (re-adding an ASN keeps its id).
/// They exist so per-node state can live in plain `Vec`s indexed by
/// [`NodeId::index`] instead of `BTreeMap<Asn, …>` — the engine's
/// per-event hot path depends on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The id as a `Vec` index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The id for a known-valid index (the inverse of [`NodeId::index`]).
    #[inline]
    pub const fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

/// One adjacency entry of a node: the neighbour's id, the role the
/// neighbour plays for the owning node, and the owning node's slot in the
/// neighbour's own list. [`Topology::add_edge`] writes both entries of an
/// edge, so each slot is known at insertion and never recomputed.
pub type Edge = (NodeId, Role, u32);

/// One AS in the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsNode {
    /// The AS number.
    pub asn: Asn,
    /// Hierarchy tier.
    pub tier: Tier,
}

/// Aggregate structure counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TopologyStats {
    // lint: api the crate-level doc example summarises a generated topology with these
    /// Number of ASes (excluding route servers).
    pub ases: usize,
    /// Number of route servers.
    pub route_servers: usize,
    /// Provider→customer edges.
    pub p2c_edges: usize,
    /// Peering edges (including route-server sessions).
    pub p2p_edges: usize,
    /// Maximum degree over all nodes.
    pub max_degree: usize,
}

/// The AS-level topology: an interned node arena plus one role-labelled
/// adjacency list per node.
///
/// Iteration APIs ([`Topology::ases`], [`Topology::to_caida_lines`], …)
/// remain ordered by ascending ASN, and per-node neighbor order remains
/// edge-insertion order — everything derived from them, including
/// simulation event order, stays deterministic.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// ASN → dense id (sorted, so ASN-ordered iteration stays cheap).
    ids: BTreeMap<Asn, NodeId>,
    /// Node arena, indexed by [`NodeId::index`].
    nodes: Vec<AsNode>,
    /// Adjacency, indexed by [`NodeId::index`]; entries keep insertion
    /// order.
    adj: Vec<Vec<Edge>>,
    /// Undirected edge membership, keyed by `(min id, max id)`. Keeps
    /// [`Topology::add_edge`]'s duplicate check and [`Topology::has_edge`]
    /// O(1), which is what makes building Internet-scale graphs (~60 K
    /// nodes, high-degree transit hubs) linear in the edge count instead of
    /// quadratic in hub degree.
    // lint: order-independent membership probes only (insert/contains/len);
    // never iterated — edge order comes from the `adj` insertion lists
    edge_set: std::collections::HashSet<(NodeId, NodeId)>,
}

/// The normalized [`Topology::edge_set`] key for an undirected pair.
fn edge_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds an AS of the given tier. Re-adding an existing ASN replaces its
    /// tier and keeps its [`NodeId`] and edges.
    pub fn add_simple(&mut self, asn: Asn, tier: Tier) {
        let node = AsNode { asn, tier };
        match self.ids.get(&asn) {
            Some(&id) => self.nodes[id.index()] = node,
            None => {
                self.ids.insert(asn, NodeId::from_index(self.nodes.len()));
                self.nodes.push(node);
                self.adj.push(Vec::new());
            }
        }
    }

    /// Adds an undirected edge. `kind` is read as "`a` is provider of `b`"
    /// for [`EdgeKind::ProviderToCustomer`]. Both ASes must exist. Duplicate
    /// edges are ignored.
    pub fn add_edge(&mut self, a: Asn, b: Asn, kind: EdgeKind) {
        let ia = *self.ids.get(&a).unwrap_or_else(|| panic!("unknown AS {a}"));
        let ib = *self.ids.get(&b).unwrap_or_else(|| panic!("unknown AS {b}"));
        assert_ne!(a, b, "self-loops are not allowed");
        if !self.edge_set.insert(edge_key(ia, ib)) {
            return;
        }
        let (role_of_b_for_a, role_of_a_for_b) = match kind {
            // a provides transit to b: b is a's customer.
            EdgeKind::ProviderToCustomer => (Role::Customer, Role::Provider),
            EdgeKind::PeerToPeer => (Role::Peer, Role::Peer),
        };
        // Each entry lands at the end of its list, so each side's slot is
        // that list's length before the push.
        let slot_in_a = self.adj[ia.index()].len() as u32;
        let slot_in_b = self.adj[ib.index()].len() as u32;
        self.adj[ia.index()].push((ib, role_of_b_for_a, slot_in_b));
        self.adj[ib.index()].push((ia, role_of_a_for_b, slot_in_a));
    }

    // --- Index-based (NodeId) API ------------------------------------

    /// The dense id of `asn`, if present.
    #[inline]
    pub fn node_id(&self, asn: Asn) -> Option<NodeId> {
        self.ids.get(&asn).copied()
    }

    /// The ASN of a node id.
    #[inline]
    pub fn asn_of(&self, id: NodeId) -> Asn {
        self.nodes[id.index()].asn
    }

    /// The node for an id.
    #[inline]
    pub fn node_by_id(&self, id: NodeId) -> &AsNode {
        &self.nodes[id.index()]
    }

    /// All node ids, in id (insertion) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Adjacency of `id`, in edge-insertion order. An entry's position is
    /// the neighbour's local slot; its third field is `id`'s slot in the
    /// neighbour's list.
    #[inline]
    pub fn neighbors_ix(&self, id: NodeId) -> &[Edge] {
        &self.adj[id.index()]
    }

    /// Total adjacency entries (twice the undirected edge count).
    pub fn adjacency_len(&self) -> usize {
        2 * self.edge_set.len()
    }

    /// The degree prefix-sum: `slot_offsets()[i]..slot_offsets()[i + 1]`
    /// delimits node `i`'s directed-edge slots within one contiguous
    /// `0..adjacency_len()` slot space (the last entry is the total).
    ///
    /// Per-neighbor engine state that would otherwise live in one small
    /// array per node (an Adj-RIB-In slot per adjacency entry, say) can
    /// instead be a single worker-owned array over this slot space, with a
    /// node's slice recovered by two offset reads — no per-node allocation.
    /// Local adjacency slots (positions in [`Topology::neighbors_ix`])
    /// translate to global slots by adding the node's offset.
    pub fn slot_offsets(&self) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        offsets.push(0u32);
        for edges in &self.adj {
            offsets.push(offsets[offsets.len() - 1] + edges.len() as u32);
        }
        offsets
    }

    // --- Asn-keyed API (thin wrappers over the arena) -----------------

    /// The node for `asn`, if present.
    pub fn node(&self, asn: Asn) -> Option<&AsNode> {
        self.node_id(asn).map(|id| &self.nodes[id.index()])
    }

    /// True if the AS exists.
    pub fn contains(&self, asn: Asn) -> bool {
        self.ids.contains_key(&asn)
    }

    /// All ASes in ascending ASN order.
    pub fn ases(&self) -> impl Iterator<Item = &AsNode> {
        self.ids.values().map(|id| &self.nodes[id.index()])
    }

    /// Number of nodes (including route servers).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Neighbors of `asn` with the role each plays for it, in insertion
    /// order (deterministic: the generator inserts in sorted order).
    pub fn neighbors(&self, asn: Asn) -> impl Iterator<Item = (Asn, Role)> + '_ {
        self.edges_of(asn)
            .iter()
            .map(|&(nb, role, _)| (self.asn_of(nb), role))
    }

    /// `asn`'s adjacency, empty for an unknown ASN.
    fn edges_of(&self, asn: Asn) -> &[Edge] {
        self.node_id(asn).map_or(&[], |id| self.neighbors_ix(id))
    }

    /// True if an edge (of any kind) connects `a` and `b`. O(1) — unlike
    /// [`Topology::role_of`], which scans `a`'s adjacency — so generators
    /// probing millions of candidate pairs use this for the existence test.
    pub fn has_edge(&self, a: Asn, b: Asn) -> bool {
        match (self.node_id(a), self.node_id(b)) {
            (Some(ia), Some(ib)) => self.edge_set.contains(&edge_key(ia, ib)),
            _ => false,
        }
    }

    /// The role `b` plays for `a`, if the edge exists.
    pub fn role_of(&self, a: Asn, b: Asn) -> Option<Role> {
        self.neighbors(a)
            .find(|&(nb, _)| nb == b)
            .map(|(_, role)| role)
    }

    /// The IXP route servers `asn` holds a session with, in session order.
    pub fn ixp_memberships(&self, asn: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.edges_of(asn)
            .iter()
            .map(|&(nb, _, _)| self.node_by_id(nb))
            .filter(|n| n.tier == Tier::RouteServer)
            .map(|n| n.asn)
    }

    /// The first of `a`'s route servers that `b` is also a member of, if
    /// any. Routes exchanged through a route server appear as a direct
    /// `a`–`b` hop on the AS path (the server is transparent), so path
    /// validation must treat shared membership as implicit peering.
    pub fn shared_ixp(&self, a: Asn, b: Asn) -> Option<Asn> {
        self.ixp_memberships(a).find(|&rs| self.has_edge(rs, b))
    }

    /// The neighbors of `a` that play `role` for it.
    fn of_role(&self, a: Asn, role: Role) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors(a)
            .filter(move |&(_, r)| r == role)
            .map(|(nb, _)| nb)
    }

    /// `a`'s customers.
    pub fn customers_of(&self, a: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.of_role(a, Role::Customer)
    }

    /// `a`'s providers.
    pub fn providers_of(&self, a: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.of_role(a, Role::Provider)
    }

    /// `a`'s peers.
    pub fn peers_of(&self, a: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.of_role(a, Role::Peer)
    }

    /// Degree of `asn`.
    pub fn degree(&self, asn: Asn) -> usize {
        self.edges_of(asn).len()
    }

    /// True if `asn` provides transit in the topology sense
    /// (has at least one customer).
    pub fn is_transit_provider(&self, asn: Asn) -> bool {
        self.customers_of(asn).next().is_some()
    }

    /// Aggregate counts.
    // lint: api the crate-level doc example summarises a generated topology with it
    pub fn stats(&self) -> TopologyStats {
        let mut s = TopologyStats::default();
        for n in &self.nodes {
            if n.tier == Tier::RouteServer {
                s.route_servers += 1;
            } else {
                s.ases += 1;
            }
        }
        for &asn in self.ids.keys() {
            s.max_degree = s.max_degree.max(self.degree(asn));
            for (nb, role) in self.neighbors(asn) {
                // Count each undirected edge once, from the lower ASN side.
                if asn < nb {
                    match role {
                        Role::Peer => s.p2p_edges += 1,
                        // Counting from either role direction once.
                        Role::Customer | Role::Provider => s.p2c_edges += 1,
                    }
                }
            }
        }
        s
    }

    /// Exports all edges as CAIDA serial-1 lines (route-server sessions are
    /// peering edges).
    pub fn to_caida_lines(&self) -> Vec<RelLine> {
        let mut out = Vec::new();
        for &asn in self.ids.keys() {
            for (nb, role) in self.neighbors(asn) {
                match role {
                    Role::Customer => out.push(RelLine {
                        a: asn,
                        b: nb,
                        kind: EdgeKind::ProviderToCustomer,
                    }),
                    Role::Peer if asn < nb => out.push(RelLine {
                        a: asn,
                        b: nb,
                        kind: EdgeKind::PeerToPeer,
                    }),
                    _ => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TopologyParams;

    fn asn(n: u32) -> Asn {
        Asn::new(n)
    }

    fn triangle() -> Topology {
        let mut t = Topology::new();
        t.add_simple(asn(1), Tier::Tier1);
        t.add_simple(asn(2), Tier::Transit);
        t.add_simple(asn(3), Tier::Stub);
        t.add_edge(asn(1), asn(2), EdgeKind::ProviderToCustomer);
        t.add_edge(asn(2), asn(3), EdgeKind::ProviderToCustomer);
        t.add_edge(asn(1), asn(3), EdgeKind::PeerToPeer);
        t
    }

    #[test]
    fn roles_are_symmetric_inverses() {
        let t = triangle();
        assert_eq!(t.role_of(asn(1), asn(2)), Some(Role::Customer));
        assert_eq!(t.role_of(asn(2), asn(1)), Some(Role::Provider));
        assert_eq!(t.role_of(asn(1), asn(3)), Some(Role::Peer));
        assert_eq!(t.role_of(asn(3), asn(1)), Some(Role::Peer));
        assert_eq!(t.role_of(asn(2), asn(99)), None);
    }

    #[test]
    fn customer_provider_iterators() {
        let t = triangle();
        assert_eq!(t.customers_of(asn(1)).collect::<Vec<_>>(), vec![asn(2)]);
        assert_eq!(t.providers_of(asn(3)).collect::<Vec<_>>(), vec![asn(2)]);
        assert_eq!(t.peers_of(asn(3)).collect::<Vec<_>>(), vec![asn(1)]);
        assert!(t.is_transit_provider(asn(1)));
        assert!(t.is_transit_provider(asn(2)));
        assert!(!t.is_transit_provider(asn(3)));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut t = triangle();
        t.add_edge(asn(1), asn(2), EdgeKind::PeerToPeer); // duplicate, ignored
        assert_eq!(t.role_of(asn(1), asn(2)), Some(Role::Customer));
        assert_eq!(t.degree(asn(1)), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut t = triangle();
        t.add_edge(asn(1), asn(1), EdgeKind::PeerToPeer);
    }

    #[test]
    #[should_panic(expected = "unknown AS")]
    fn edge_to_missing_as_panics() {
        let mut t = triangle();
        t.add_edge(asn(1), asn(42), EdgeKind::PeerToPeer);
    }

    #[test]
    fn stats_count_edges_once() {
        let t = triangle();
        let s = t.stats();
        assert_eq!(s.ases, 3);
        assert_eq!(s.p2c_edges, 2);
        assert_eq!(s.p2p_edges, 1);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn caida_export_import_preserves_structure() {
        let t = triangle();
        let lines = t.to_caida_lines();
        assert_eq!(lines.len(), 3);
        for l in lines {
            let role = match l.kind {
                EdgeKind::ProviderToCustomer => Role::Customer,
                EdgeKind::PeerToPeer => Role::Peer,
            };
            assert_eq!(t.role_of(l.a, l.b), Some(role), "edge {}-{}", l.a, l.b);
        }
    }

    #[test]
    fn node_ids_are_dense_and_stable() {
        let mut t = triangle();
        // Dense: ids cover 0..len exactly once.
        let mut indices: Vec<usize> = t.node_ids().map(NodeId::index).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
        // Round-trip through asn_of / node_id.
        for id in t.node_ids() {
            assert_eq!(t.node_id(t.asn_of(id)), Some(id));
        }
        // Stable: replacing a node keeps its id; adding appends.
        let id2 = t.node_id(asn(2)).unwrap();
        t.add_simple(asn(2), Tier::Tier1);
        assert_eq!(t.node_id(asn(2)), Some(id2));
        assert_eq!(t.node_by_id(id2).tier, Tier::Tier1);
        t.add_simple(asn(99), Tier::Stub);
        assert_eq!(t.node_id(asn(99)), Some(NodeId::from_index(3)));
    }

    #[test]
    fn reverse_slots_invert_every_directed_edge() {
        let mut t = triangle();
        t.add_simple(asn(50), Tier::RouteServer);
        t.add_edge(asn(3), asn(50), EdgeKind::PeerToPeer);
        t.add_edge(asn(2), asn(50), EdgeKind::PeerToPeer);
        // A duplicate returns before it writes any slot.
        t.add_edge(asn(50), asn(3), EdgeKind::PeerToPeer);
        let generated = [
            TopologyParams::tiny(),
            TopologyParams::small(),
            TopologyParams::small().frozen_attachment(true),
        ];
        for t in std::iter::once(t).chain(generated.map(|p| p.build())) {
            let mut entries = 0;
            for id in t.node_ids() {
                for (slot, &(nb, role, back)) in t.neighbors_ix(id).iter().enumerate() {
                    // Entry `back` of the neighbor's list points straight
                    // back at `id`, with the inverse role, and its own
                    // reverse slot is this entry.
                    let (nb_of_nb, role_back, back_of_back) = t.neighbors_ix(nb)[back as usize];
                    assert_eq!(nb_of_nb, id, "reverse slot round-trips");
                    assert_eq!(t.role_of(t.asn_of(nb), t.asn_of(id)), Some(role_back));
                    assert_eq!(t.role_of(t.asn_of(id), t.asn_of(nb)), Some(role));
                    assert_eq!(back_of_back as usize, slot);
                    entries += 1;
                }
            }
            assert_eq!(entries, t.adjacency_len());
        }
    }

    #[test]
    fn slot_offsets_are_the_degree_prefix_sum() {
        let mut t = triangle();
        t.add_simple(asn(50), Tier::RouteServer);
        t.add_edge(asn(3), asn(50), EdgeKind::PeerToPeer);
        let offsets = t.slot_offsets();
        assert_eq!(offsets.len(), t.len() + 1);
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().unwrap() as usize, t.adjacency_len());
        for id in t.node_ids() {
            let range = offsets[id.index()]..offsets[id.index() + 1];
            assert_eq!(
                range.len(),
                t.neighbors_ix(id).len(),
                "slot range must span exactly the node's degree"
            );
        }
        // Ranges tile the slot space in id order, without gaps or overlap.
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    }
}
