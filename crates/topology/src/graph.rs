//! The AS graph: nodes with tiers, adjacency with business roles, and
//! structural statistics.
//!
//! Internally the graph is an **arena**: every AS is interned to a dense
//! [`NodeId`] (a `u32` index) at insertion, and a CSR-style adjacency
//! (per-node slices of `(NodeId, Role, is_route_server)` entries over one
//! flat edge array) is compiled lazily and cached. Hot consumers — above
//! all the propagation engine in `bgpworms-routesim` — address nodes by
//! `NodeId` and get O(1) `Vec` indexing with no tree walks; the original
//! `Asn`-keyed API is kept intact as thin wrappers over the interning map
//! so existing callers migrate incrementally.

use crate::relationship::{EdgeKind, RelLine, Role};
use bgpworms_types::Asn;
use std::collections::BTreeMap;
use std::sync::OnceLock;

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

/// One compiled adjacency entry: the neighbor's id, the role the neighbor
/// plays for the owning node, and whether the neighbor is a route server.
pub type CsrEdge = (NodeId, Role, bool);

/// The compiled CSR adjacency: one flat edge array plus per-node offsets.
#[derive(Debug, Clone, Default)]
struct Csr {
    /// `offsets[i]..offsets[i + 1]` delimits node `i`'s slice of `edges`.
    offsets: Vec<u32>,
    /// All adjacency entries, grouped by owning node in id order; within a
    /// node, entries keep edge-insertion order (the engine's deterministic
    /// event order depends on it).
    edges: Vec<CsrEdge>,
    /// Parallel to `edges`: for the directed entry `u → v`, the slot of `u`
    /// within `v`'s own slice (edges are symmetric by construction). This is
    /// what lets flat, slot-indexed per-neighbor state address the *sender*
    /// of an update without any map lookup.
    reverse_slot: Vec<u32>,
}

/// One AS in the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsNode {
    /// The AS number.
    pub asn: Asn,
    /// Hierarchy tier.
    pub tier: Tier,
    /// IXP route servers this AS is a member of.
    pub ixp_memberships: Vec<Asn>,
}

/// A neighbor entry in the adjacency list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The neighbor's ASN.
    pub asn: Asn,
    /// The neighbor's role relative to the owning AS.
    pub role: Role,
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

/// The AS-level topology: an interned node arena plus role-labelled
/// adjacency, with a lazily compiled CSR view for index-based consumers.
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
    /// Building adjacency, indexed by [`NodeId::index`]; entries keep
    /// insertion order.
    adj: Vec<Vec<Neighbor>>,
    /// Undirected edge membership, keyed by `(min id, max id)`. Keeps
    /// [`Topology::add_edge`]'s duplicate check and [`Topology::has_edge`]
    /// O(1), which is what makes building Internet-scale graphs (~60 K
    /// nodes, high-degree transit hubs) linear in the edge count instead of
    /// quadratic in hub degree.
    // lint: order-independent membership probes only (insert/contains);
    // never iterated — edge order comes from the `adj` insertion lists
    edge_set: std::collections::HashSet<(NodeId, NodeId)>,
    /// Compiled CSR adjacency; reset by every mutation, rebuilt on demand.
    csr: OnceLock<Csr>,
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

    /// Adds an AS. Replaces any existing node with the same ASN (keeping
    /// its [`NodeId`]).
    fn add_as(&mut self, node: AsNode) {
        self.csr = OnceLock::new();
        match self.ids.get(&node.asn) {
            Some(&id) => self.nodes[id.index()] = node,
            None => {
                let id = NodeId::from_index(self.nodes.len());
                self.ids.insert(node.asn, id);
                self.nodes.push(node);
                self.adj.push(Vec::new());
            }
        }
    }

    /// Convenience: add a plain AS of the given tier.
    pub fn add_simple(&mut self, asn: Asn, tier: Tier) {
        self.add_as(AsNode {
            asn,
            tier,
            ixp_memberships: Vec::new(),
        });
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
        self.csr = OnceLock::new();
        let (role_of_b_for_a, role_of_a_for_b) = match kind {
            // a provides transit to b: b is a's customer.
            EdgeKind::ProviderToCustomer => (Role::Customer, Role::Provider),
            EdgeKind::PeerToPeer => (Role::Peer, Role::Peer),
        };
        self.adj[ia.index()].push(Neighbor {
            asn: b,
            role: role_of_b_for_a,
        });
        self.adj[ib.index()].push(Neighbor {
            asn: a,
            role: role_of_a_for_b,
        });
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

    /// Compiled adjacency entries of `id`: `(neighbor id, neighbor's role
    /// for this node, neighbor is a route server)`, in edge-insertion
    /// order. Compiles the CSR view on first use after a mutation.
    #[inline]
    pub fn neighbors_ix(&self, id: NodeId) -> &[CsrEdge] {
        let csr = self.csr();
        &csr.edges[csr.offsets[id.index()] as usize..csr.offsets[id.index() + 1] as usize]
    }

    /// The adjacency slice of `id` zipped with its reverse slots: for each
    /// local slot, the edge `(neighbor, role, neighbor is a route server)`
    /// plus the slot this node occupies in that neighbor's slice. This is
    /// the engine's export-sweep view, and it keeps the alignment of the
    /// adjacency and the reverse slots a topology-crate invariant.
    #[inline]
    pub fn adjacency_with_reverse_ix(
        &self,
        id: NodeId,
    ) -> impl Iterator<Item = (usize, CsrEdge, u32)> + '_ {
        let csr = self.csr();
        let lo = csr.offsets[id.index()] as usize;
        let hi = csr.offsets[id.index() + 1] as usize;
        csr.edges[lo..hi]
            .iter()
            .zip(&csr.reverse_slot[lo..hi])
            .enumerate()
            .map(|(slot, (&edge, &rev))| (slot, edge, rev))
    }

    /// Total adjacency entries (twice the undirected edge count). Also
    /// forces CSR compilation, so callers about to share `&self` across
    /// worker threads can pre-build the view.
    pub fn adjacency_len(&self) -> usize {
        self.csr().edges.len()
    }

    /// The CSR degree prefix-sum: `slot_offsets()[i]..slot_offsets()[i + 1]`
    /// delimits node `i`'s directed-edge slots within one contiguous
    /// `0..adjacency_len()` slot space (the last entry is the total).
    ///
    /// Per-neighbor engine state that would otherwise live in one small
    /// array per node (an Adj-RIB-In slot per adjacency entry, say) can
    /// instead be a single worker-owned array over this slot space, with a
    /// node's slice recovered by two offset reads — no per-node allocation.
    /// Local adjacency slots (as produced by [`Topology::neighbors_ix`] /
    /// [`Topology::adjacency_with_reverse_ix`]) translate to global slots by
    /// adding the node's offset.
    #[inline]
    pub fn slot_offsets(&self) -> &[u32] {
        &self.csr().offsets
    }

    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| {
            let mut offsets = Vec::with_capacity(self.nodes.len() + 1);
            let total: usize = self.adj.iter().map(Vec::len).sum();
            let mut edges = Vec::with_capacity(total);
            offsets.push(0u32);
            for nbrs in &self.adj {
                for n in nbrs {
                    let nid = self.ids[&n.asn];
                    let is_rs = self.nodes[nid.index()].tier == Tier::RouteServer;
                    edges.push((nid, n.role, is_rs));
                }
                offsets.push(edges.len() as u32);
            }
            // Reverse slots: one map over all directed entries, then one
            // lookup per entry — O(E) total, built once per compilation.
            // lint: order-independent write-then-probe scratch keyed by
            // directed edge; filled and looked up in `adj` order, never
            // iterated, dropped before the CSR escapes
            let mut slot_by_edge: std::collections::HashMap<(u32, u32), u32> =
                std::collections::HashMap::with_capacity(edges.len());
            for (owner, nbrs) in self.adj.iter().enumerate() {
                for (slot, n) in nbrs.iter().enumerate() {
                    slot_by_edge.insert((owner as u32, self.ids[&n.asn].0), slot as u32);
                }
            }
            let mut reverse_slot = Vec::with_capacity(edges.len());
            for (owner, nbrs) in self.adj.iter().enumerate() {
                for n in nbrs {
                    let nid = self.ids[&n.asn];
                    reverse_slot.push(slot_by_edge[&(nid.0, owner as u32)]);
                }
            }
            Csr {
                offsets,
                edges,
                reverse_slot,
            }
        })
    }

    // --- Asn-keyed API (thin wrappers over the arena) -----------------

    /// The node for `asn`, if present.
    pub fn node(&self, asn: Asn) -> Option<&AsNode> {
        self.node_id(asn).map(|id| &self.nodes[id.index()])
    }

    /// Mutable node access (used by the generator for IXP memberships).
    pub fn node_mut(&mut self, asn: Asn) -> Option<&mut AsNode> {
        self.csr = OnceLock::new();
        self.ids
            .get(&asn)
            .copied()
            .map(|id| &mut self.nodes[id.index()])
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

    /// Neighbors of `asn` in insertion order (deterministic: the generator
    /// inserts in sorted order).
    pub fn neighbors(&self, asn: Asn) -> &[Neighbor] {
        match self.node_id(asn) {
            Some(id) => &self.adj[id.index()],
            None => &[],
        }
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
            .iter()
            .find(|n| n.asn == b)
            .map(|n| n.role)
    }

    /// The IXP route server both ASes are members of, if any. Routes
    /// exchanged through a route server appear as a direct `a`–`b` hop on
    /// the AS path (the server is transparent), so path validation must
    /// treat shared membership as implicit peering.
    pub fn shared_ixp(&self, a: Asn, b: Asn) -> Option<Asn> {
        let na = self.node(a)?;
        let nb = self.node(b)?;
        na.ixp_memberships
            .iter()
            .find(|rs| nb.ixp_memberships.contains(rs))
            .copied()
    }

    /// `a`'s customers.
    pub fn customers_of(&self, a: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors(a)
            .iter()
            .filter(|n| n.role == Role::Customer)
            .map(|n| n.asn)
    }

    /// `a`'s providers.
    pub fn providers_of(&self, a: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors(a)
            .iter()
            .filter(|n| n.role == Role::Provider)
            .map(|n| n.asn)
    }

    /// `a`'s peers.
    pub fn peers_of(&self, a: Asn) -> impl Iterator<Item = Asn> + '_ {
        self.neighbors(a)
            .iter()
            .filter(|n| n.role == Role::Peer)
            .map(|n| n.asn)
    }

    /// Degree of `asn`.
    pub fn degree(&self, asn: Asn) -> usize {
        self.neighbors(asn).len()
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
        for (&asn, &id) in &self.ids {
            let neighbors = &self.adj[id.index()];
            s.max_degree = s.max_degree.max(neighbors.len());
            for n in neighbors {
                // Count each undirected edge once, from the lower ASN side.
                if asn < n.asn {
                    match n.role {
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
        for (&asn, &id) in &self.ids {
            for n in &self.adj[id.index()] {
                match n.role {
                    Role::Customer => out.push(RelLine {
                        a: asn,
                        b: n.asn,
                        kind: EdgeKind::ProviderToCustomer,
                    }),
                    Role::Peer if asn < n.asn => out.push(RelLine {
                        a: asn,
                        b: n.asn,
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
    fn csr_matches_asn_adjacency() {
        let t = triangle();
        assert_eq!(t.adjacency_len(), 6, "3 undirected edges, both directions");
        for id in t.node_ids() {
            let asn = t.asn_of(id);
            let via_asn: Vec<(Asn, Role)> =
                t.neighbors(asn).iter().map(|n| (n.asn, n.role)).collect();
            let via_csr: Vec<(Asn, Role)> = t
                .neighbors_ix(id)
                .iter()
                .map(|&(nid, role, _)| (t.asn_of(nid), role))
                .collect();
            assert_eq!(via_asn, via_csr, "adjacency views diverge for {asn}");
        }
    }

    #[test]
    fn reverse_slots_invert_every_directed_edge() {
        let mut t = triangle();
        t.add_simple(asn(50), Tier::RouteServer);
        t.add_edge(asn(3), asn(50), EdgeKind::PeerToPeer);
        t.add_edge(asn(2), asn(50), EdgeKind::PeerToPeer);
        for id in t.node_ids() {
            for (slot, (nb, _, _), back) in t.adjacency_with_reverse_ix(id) {
                // Entry `back` of the neighbor's slice must point straight
                // back at `id`…
                let (nb_of_nb, _, _) = t.neighbors_ix(nb)[back as usize];
                assert_eq!(nb_of_nb, id, "reverse slot round-trips");
                // …and its own reverse slot must be this entry.
                let (_, _, back_of_back) =
                    t.adjacency_with_reverse_ix(nb).nth(back as usize).unwrap();
                assert_eq!(back_of_back as usize, slot);
            }
        }
    }

    #[test]
    fn zipped_adjacency_matches_the_paired_slices() {
        let mut t = triangle();
        t.add_simple(asn(50), Tier::RouteServer);
        t.add_edge(asn(3), asn(50), EdgeKind::PeerToPeer);
        for id in t.node_ids() {
            let zipped: Vec<(usize, CsrEdge, u32)> = t.adjacency_with_reverse_ix(id).collect();
            let edges = t.neighbors_ix(id);
            assert_eq!(zipped.len(), edges.len());
            for (slot, edge, _) in zipped {
                assert_eq!(edge, edges[slot]);
            }
        }
    }

    #[test]
    fn slot_offsets_are_the_degree_prefix_sum() {
        let mut t = triangle();
        t.add_simple(asn(50), Tier::RouteServer);
        t.add_edge(asn(3), asn(50), EdgeKind::PeerToPeer);
        let offsets = t.slot_offsets().to_vec();
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

    #[test]
    fn csr_flags_route_servers_and_recompiles_after_mutation() {
        let mut t = triangle();
        t.add_simple(asn(50), Tier::RouteServer);
        t.add_edge(asn(3), asn(50), EdgeKind::PeerToPeer);
        let id3 = t.node_id(asn(3)).unwrap();
        let rs_flags: Vec<(Asn, bool)> = t
            .neighbors_ix(id3)
            .iter()
            .map(|&(nid, _, is_rs)| (t.asn_of(nid), is_rs))
            .collect();
        assert_eq!(
            rs_flags,
            vec![(asn(2), false), (asn(1), false), (asn(50), true)]
        );
        // A later mutation invalidates and recompiles the view.
        t.add_simple(asn(51), Tier::Stub);
        t.add_edge(asn(3), asn(51), EdgeKind::ProviderToCustomer);
        assert_eq!(t.neighbors_ix(id3).len(), 4);
    }
}
