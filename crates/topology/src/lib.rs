//! AS-level Internet topology model and generator.
//!
//! This crate is the workspace's **layer 0**: the dense `NodeId` arena,
//! its per-node adjacency lists, and the edge slot space that every hot
//! path above is indexed by — see `ARCHITECTURE.md` at the repository root for the
//! whole layer stack.
//!
//! The paper's measurements run over the real April-2018 Internet
//! (~62 K ASes). This crate builds the closed-world stand-in: a hierarchical
//! AS graph with Gao–Rexford business relationships (customer/provider and
//! settlement-free peering), IXPs with route servers, and deterministic
//! prefix allocation — everything `bgpworms-routesim` needs to propagate
//! routes and everything `bgpworms-core` needs as ground truth.
//!
//! Structure follows the classic measured Internet shape:
//!
//! * a small clique of tier-1 transit-free providers, fully meshed by
//!   peering;
//! * mid-tier transit providers, multihomed to tier-1s/each other, with
//!   lateral peering;
//! * a long tail of stub (edge) ASes, multihomed by preferential attachment
//!   (hence heavy-tailed transit degrees);
//! * IXPs whose route servers peer with many members but never appear in
//!   the AS path (the paper's "off-path" community taggers, §4.3).
//!
//! # Example
//!
//! ```
//! use bgpworms_topology::{gen::TopologyParams, Tier};
//!
//! let topo = TopologyParams::small().seed(7).build();
//! let t1s = topo.ases().filter(|n| n.tier == Tier::Tier1).count();
//! assert!(t1s >= 3);
//! // Tier-1s form a full peering mesh.
//! let stats = topo.stats();
//! assert!(stats.p2p_edges > 0 && stats.p2c_edges > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addressing;
pub mod gen;
pub mod graph;
pub mod paths;
pub mod relationship;

pub use addressing::{FullTableParams, PrefixAllocation};
pub use gen::TopologyParams;
pub use graph::{AsNode, Edge, NodeId, Tier, Topology, TopologyStats};
pub use paths::{check_valley_free, PathValidity};
pub use relationship::{EdgeKind, Role};
