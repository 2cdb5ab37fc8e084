//! A byte-level lock on the topology generator: every preset the workspace
//! builds worlds from, at two seeds, must keep producing the graph recorded
//! in `fixtures/generator_digests.txt`.
//!
//! Each line names a preset and a seed, then gives the node count, the
//! adjacency length and an FNV-1a digest over every node in id order — its
//! ASN, its tier, its IXP memberships, and its CSR adjacency (neighbour,
//! the role the neighbour plays, route-server flag). Both attachment paths
//! are covered: the dynamic one that every classic preset uses, and the
//! cut of `medium` with 640 stubs and 80 transits that the attacked
//! monitoring feed is simulated on; and the frozen one that `internet()`
//! uses, at `small` scale. A `tiny` world without transits covers stubs
//! that have no provider to draw.
//!
//! The fixture was recorded by the generator that rebuilt the stub
//! attachment's weight table from the customer-degree map for every stub.
//! The generator now keeps that table in place; this file is the old code's
//! output, not the new code's opinion of itself.

use bgpworms_topology::{Role, Tier, Topology, TopologyParams};

const SEEDS: [u64; 2] = [8, 2018];

fn presets() -> Vec<(&'static str, TopologyParams)> {
    vec![
        ("tiny", TopologyParams::tiny()),
        ("small", TopologyParams::small()),
        ("medium", TopologyParams::medium()),
        ("large", TopologyParams::large()),
        (
            "medium-640-stubs-80-transits",
            TopologyParams::medium().stubs(640).transits(80),
        ),
        (
            "small-frozen",
            TopologyParams::small().frozen_attachment(true),
        ),
        // No transit to attach to: each stub still draws its provider
        // count, so the IXP phase after it reads the same random stream.
        ("tiny-without-transits", TopologyParams::tiny().transits(0)),
    ]
}

/// FNV-1a, one 32-bit word at a time (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(topo: &Topology) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for id in topo.node_ids() {
        let node = topo.node_by_id(id);
        h.word(node.asn.get());
        h.word(match node.tier {
            Tier::Tier1 => 0,
            Tier::Transit => 1,
            Tier::Stub => 2,
            Tier::RouteServer => 3,
        });
        h.word(node.ixp_memberships.len() as u32);
        for rs in &node.ixp_memberships {
            h.word(rs.get());
        }
        let adjacency = topo.neighbors_ix(id);
        h.word(adjacency.len() as u32);
        for &(nb, role, nb_is_rs) in adjacency {
            h.word(nb.index() as u32);
            h.word(match role {
                Role::Customer => 0,
                Role::Provider => 1,
                Role::Peer => 2,
            });
            h.word(u32::from(nb_is_rs));
        }
    }
    h.0
}

fn render() -> String {
    let mut out = String::new();
    for (name, params) in presets() {
        for seed in SEEDS {
            let topo = params.clone().seed(seed).build();
            out.push_str(&format!(
                "{name} seed {seed}: {} nodes, {} adjacency entries, {:016x}\n",
                topo.len(),
                topo.adjacency_len(),
                digest(&topo),
            ));
        }
    }
    out
}

#[test]
fn every_preset_builds_the_recorded_graph() {
    let got = render();
    let recorded = include_str!("fixtures/generator_digests.txt");
    assert_eq!(
        got, recorded,
        "a generated topology drifted from the recorded fixture:\n{got}"
    );
}
