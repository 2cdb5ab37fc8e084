//! Deterministic hierarchical Internet generator.
//!
//! Produces topologies with the structural features the paper's statistics
//! depend on: a tier-1 clique, a transit hierarchy with heavy-tailed
//! customer degrees (preferential attachment), multihomed stubs, lateral
//! peering, and IXP route servers that are adjacent to many members but
//! never on the AS path.

use crate::graph::{Tier, Topology};
use crate::relationship::EdgeKind;
use bgpworms_types::Asn;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Maximum number of providers per multihomed AS.
const MAX_PROVIDERS: usize = 3;

/// Generator parameters. Construct via the presets and adjust with the
/// builder methods; `build` is deterministic in all parameters.
#[derive(Debug, Clone)]
pub struct TopologyParams {
    /// RNG seed; same seed ⇒ identical topology.
    pub seed: u64,
    /// Number of tier-1 (transit-free, fully meshed) ASes.
    pub n_tier1: usize,
    /// Number of mid-tier transit ASes.
    pub n_transit: usize,
    /// Number of stub ASes.
    pub n_stub: usize,
    /// Number of IXPs (each contributes one route server).
    pub n_ixp: usize,
    /// Probability that two sibling transit ASes peer laterally.
    pub transit_peer_prob: f64,
    /// Fraction of eligible ASes joining each IXP.
    pub ixp_member_fraction: f64,
    /// Probability that two members of the same IXP also peer bilaterally.
    pub ixp_bilateral_prob: f64,
    /// Fraction of stub ASes assigned 4-byte ASNs (> 65535). Their ASN does
    /// not fit the classic community's high half — the population the paper
    /// notes must either bundle with private ASNs (§4.3) or adopt RFC 8092
    /// large communities (§2 footnote 1). Defaults to 0 in all presets
    /// except [`TopologyParams::internet`].
    pub four_byte_stub_fraction: f64,
    /// Use the **frozen-weight, shard-parallel** stub-attachment phase.
    ///
    /// The classic path updates provider popularity after every stub
    /// (dynamic preferential attachment), which serializes the whole phase
    /// on one RNG stream. The frozen path snapshots the customer degrees
    /// once — after the transit hierarchy is wired — and lets every stub
    /// draw its providers from that fixed distribution with its own
    /// index-derived RNG: stubs become independent, the phase shards across
    /// threads, and the output is identical for any thread count. Degrees
    /// stay heavy-tailed (the transit phase already concentrated them);
    /// only the within-phase feedback is dropped. Off in the classic
    /// presets so their seeded topologies stay byte-identical; on for
    /// [`TopologyParams::internet`].
    pub frozen_attachment: bool,
    /// Worker threads for the frozen attachment phase; `0` = all available
    /// cores. The generated topology does not depend on this value.
    pub gen_threads: usize,
}

impl TopologyParams {
    /// Tiny topology for unit tests (~40 ASes).
    pub fn tiny() -> Self {
        TopologyParams {
            seed: 1,
            n_tier1: 3,
            n_transit: 8,
            n_stub: 30,
            n_ixp: 1,
            transit_peer_prob: 0.2,
            ixp_member_fraction: 0.3,
            ixp_bilateral_prob: 0.1,
            four_byte_stub_fraction: 0.0,
            frozen_attachment: false,
            gen_threads: 0,
        }
    }

    /// Small topology for integration tests (~120 ASes).
    pub fn small() -> Self {
        TopologyParams {
            seed: 1,
            n_tier1: 4,
            n_transit: 20,
            n_stub: 100,
            n_ixp: 2,
            transit_peer_prob: 0.15,
            ixp_member_fraction: 0.25,
            ixp_bilateral_prob: 0.08,
            four_byte_stub_fraction: 0.0,
            frozen_attachment: false,
            gen_threads: 0,
        }
    }

    /// Medium topology for experiments (~1.7 K ASes).
    pub fn medium() -> Self {
        TopologyParams {
            seed: 1,
            n_tier1: 8,
            n_transit: 160,
            n_stub: 1500,
            n_ixp: 5,
            transit_peer_prob: 0.06,
            ixp_member_fraction: 0.12,
            ixp_bilateral_prob: 0.03,
            four_byte_stub_fraction: 0.0,
            frozen_attachment: false,
            gen_threads: 0,
        }
    }

    /// Large topology for the headline reproduction runs (~8.6 K ASes).
    pub fn large() -> Self {
        TopologyParams {
            seed: 2018,
            n_tier1: 12,
            n_transit: 600,
            n_stub: 8000,
            n_ixp: 12,
            transit_peer_prob: 0.02,
            ixp_member_fraction: 0.06,
            ixp_bilateral_prob: 0.02,
            four_byte_stub_fraction: 0.0,
            frozen_attachment: false,
            gen_threads: 0,
        }
    }

    /// April-2018 Internet scale (~62 K ASes) — the population the paper's
    /// headline measurements run against (§2: ~62 K ASes visible in BGP,
    /// with communities on ~75 % of announcements). ~20 transit-free
    /// tier-1s, ~4 K transit providers with heavy-tailed customer degrees,
    /// ~58 K stubs (12 % on 4-byte ASNs, the population that cannot use
    /// classic communities), and 30 IXP route servers. Uses the
    /// frozen-weight parallel attachment path; build once via
    /// [`TopologyParams::internet_cached`] when several tests or benches
    /// share the graph.
    pub fn internet() -> Self {
        TopologyParams {
            seed: 2018,
            n_tier1: 20,
            n_transit: 4_000,
            n_stub: 58_000,
            n_ixp: 30,
            transit_peer_prob: 0.001,
            ixp_member_fraction: 0.02,
            ixp_bilateral_prob: 0.02,
            four_byte_stub_fraction: 0.12,
            frozen_attachment: true,
            gen_threads: 0,
        }
    }

    /// The memoized [`TopologyParams::internet`] topology: built once per
    /// process (on first use, with all cores) and shared by reference, so a
    /// test binary or benchmark suite touching the Internet-scale graph
    /// several times pays generation exactly once.
    pub fn internet_cached() -> &'static Topology {
        static CACHE: OnceLock<Topology> = OnceLock::new();
        CACHE.get_or_init(|| TopologyParams::internet().build())
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the stub count.
    pub fn stubs(mut self, n: usize) -> Self {
        self.n_stub = n;
        self
    }

    /// Sets the transit count.
    pub fn transits(mut self, n: usize) -> Self {
        self.n_transit = n;
        self
    }

    /// Sets the fraction of stubs given 4-byte ASNs.
    pub fn four_byte_stubs(mut self, fraction: f64) -> Self {
        self.four_byte_stub_fraction = fraction;
        self
    }

    /// Selects the frozen-weight parallel stub-attachment path.
    pub fn frozen_attachment(mut self, on: bool) -> Self {
        self.frozen_attachment = on;
        self
    }

    /// Sets the worker-thread count for the frozen attachment phase
    /// (0 = all cores; the output never depends on it).
    pub fn gen_threads(mut self, threads: usize) -> Self {
        self.gen_threads = threads;
        self
    }

    /// Generates the topology.
    pub fn build(&self) -> Topology {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xB6F5_17E1_2018_0000);
        let mut topo = Topology::new();

        // --- ASN layout: tier1s, transits, stubs, then route servers. ---
        let t1_asns: Vec<Asn> = (1..=self.n_tier1 as u32).map(Asn::new).collect();
        let transit_start = self.n_tier1 as u32 + 1;
        let transit_asns: Vec<Asn> = (0..self.n_transit as u32)
            .map(|i| Asn::new(transit_start + i))
            .collect();
        let stub_start = transit_start + self.n_transit as u32;
        // Interleave 4-byte ASNs deterministically (no RNG draw, so a zero
        // fraction reproduces byte-identical topologies).
        let four_byte_period = if self.four_byte_stub_fraction > 0.0 {
            Some((1.0 / self.four_byte_stub_fraction).round().max(1.0) as u32)
        } else {
            None
        };
        let stub_asns: Vec<Asn> = (0..self.n_stub as u32)
            .map(|i| match four_byte_period {
                Some(period) if i % period == 0 => Asn::new(400_000 + i),
                _ => Asn::new(stub_start + i),
            })
            .collect();
        let rs_start = stub_start + self.n_stub as u32;
        let rs_asns: Vec<Asn> = (0..self.n_ixp as u32)
            .map(|i| Asn::new(rs_start + i))
            .collect();

        for &a in &t1_asns {
            topo.add_simple(a, Tier::Tier1);
        }
        for &a in &transit_asns {
            topo.add_simple(a, Tier::Transit);
        }
        for &a in &stub_asns {
            topo.add_simple(a, Tier::Stub);
        }
        for &a in &rs_asns {
            topo.add_simple(a, Tier::RouteServer);
        }

        // --- Tier-1 clique. ---
        for (i, &a) in t1_asns.iter().enumerate() {
            for &b in &t1_asns[i + 1..] {
                topo.add_edge(a, b, EdgeKind::PeerToPeer);
            }
        }

        // --- Transit hierarchy. First third attach to tier-1s, the rest
        //     attach preferentially to already-attached transits or tier-1s.
        let upper_transit_count = (self.n_transit / 3).max(1).min(self.n_transit);
        // customer-degree tracker for preferential attachment
        let mut cust_degree: std::collections::BTreeMap<Asn, usize> =
            std::collections::BTreeMap::new();

        for (idx, &t) in transit_asns.iter().enumerate() {
            let provider_pool: Vec<Asn> = if idx < upper_transit_count {
                t1_asns.clone()
            } else {
                let mut pool = t1_asns.clone();
                pool.extend_from_slice(&transit_asns[..idx.min(upper_transit_count)]);
                pool
            };
            let n_prov = rng.gen_range(1..=MAX_PROVIDERS.min(provider_pool.len()));
            let chosen = preferential_sample(&provider_pool, &cust_degree, n_prov, &mut rng);
            for p in chosen {
                topo.add_edge(p, t, EdgeKind::ProviderToCustomer);
                *cust_degree.entry(p).or_insert(0) += 1;
            }
        }

        // --- Lateral transit peering. ---
        for (i, &a) in transit_asns.iter().enumerate() {
            for &b in &transit_asns[i + 1..] {
                if rng.gen_bool(self.transit_peer_prob) && !topo.has_edge(a, b) {
                    topo.add_edge(a, b, EdgeKind::PeerToPeer);
                }
            }
        }

        // --- Stubs: multihome to transit providers, preferential. The
        //     weights stay in place, aligned with `transit_asns`: a chosen
        //     provider's weight and the total grow by one.
        if self.frozen_attachment {
            self.attach_stubs_frozen(&mut topo, &transit_asns, &stub_asns, &cust_degree);
        } else {
            let mut weights = preferential_weights(&transit_asns, &cust_degree);
            let mut total: usize = weights.iter().sum();
            for &s in &stub_asns {
                let n_prov = sample_provider_count(&mut rng);
                for ix in preferential_pick(&weights, total, n_prov, &mut rng) {
                    topo.add_edge(transit_asns[ix], s, EdgeKind::ProviderToCustomer);
                    weights[ix] += 1;
                    total += 1;
                }
            }
        }

        // --- IXPs: eligible members are transits and a slice of stubs.
        let mut eligible: Vec<Asn> = transit_asns.clone();
        // content-ish stubs (every 5th stub) show up at IXPs
        eligible.extend(stub_asns.iter().copied().step_by(5));

        for &rs in &rs_asns {
            let mut members: Vec<Asn> = eligible
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(self.ixp_member_fraction))
                .collect();
            // Every IXP needs at least two members to be meaningful.
            while members.len() < 2 {
                let pick = eligible[rng.gen_range(0..eligible.len())];
                if !members.contains(&pick) {
                    members.push(pick);
                }
            }
            for &m in &members {
                topo.add_edge(rs, m, EdgeKind::PeerToPeer);
            }
            // Bilateral peering between some member pairs.
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    if rng.gen_bool(self.ixp_bilateral_prob)
                        && !topo.has_edge(members[i], members[j])
                    {
                        topo.add_edge(members[i], members[j], EdgeKind::PeerToPeer);
                    }
                }
            }
        }

        topo
    }

    /// The frozen-weight stub-attachment phase (see
    /// [`TopologyParams::frozen_attachment`]): snapshot the transit
    /// customer-degree weights once, then let every stub pick its providers
    /// independently with an RNG derived from `(seed, stub index)` alone.
    /// Sharding the stub range over threads changes nothing — each slot is
    /// written by exactly one worker from per-stub state — so
    /// `gen_threads = 1` and `gen_threads = N` build identical graphs.
    fn attach_stubs_frozen(
        &self,
        topo: &mut Topology,
        transit_asns: &[Asn],
        stub_asns: &[Asn],
        cust_degree: &std::collections::BTreeMap<Asn, usize>,
    ) {
        if transit_asns.is_empty() || stub_asns.is_empty() {
            return;
        }
        // Cumulative frozen weights (1 + customer degree, as in the dynamic
        // path), for O(log n) weighted draws by binary search.
        let mut cumulative: Vec<u64> = Vec::with_capacity(transit_asns.len());
        let mut total = 0u64;
        for a in transit_asns {
            total += 1 + cust_degree.get(a).copied().unwrap_or(0) as u64;
            cumulative.push(total);
        }

        let threads = match self.gen_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
        .clamp(1, stub_asns.len());

        // One provider-pick slot per stub; workers own disjoint chunks.
        let mut picks: Vec<Vec<u32>> = vec![Vec::new(); stub_asns.len()];
        let chunk = stub_asns.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (ci, slice) in picks.chunks_mut(chunk).enumerate() {
                let cumulative = &cumulative;
                scope.spawn(move || {
                    for (j, out) in slice.iter_mut().enumerate() {
                        let stub_ix = ci * chunk + j;
                        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, stub_ix as u64));
                        let n_prov = sample_provider_count(&mut rng);
                        *out = pick_distinct_weighted(cumulative, total, n_prov, &mut rng);
                    }
                });
            }
        });

        for (stub_ix, pick) in picks.iter().enumerate() {
            for &t in pick {
                topo.add_edge(
                    transit_asns[t as usize],
                    stub_asns[stub_ix],
                    EdgeKind::ProviderToCustomer,
                );
            }
        }
    }
}

/// Decorrelated per-element RNG seed: a SplitMix64 finalizer over the
/// generator seed and the element index, so adjacent indices still start
/// statistically independent streams.
fn stream_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ 0xA5B3_5705_0420_1800u64 ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws up to `n` distinct indices from the frozen cumulative-weight
/// table (weighted by each entry's span). Mirrors `preferential_sample`'s
/// bounded-retry shape; `total` is the last cumulative entry.
fn pick_distinct_weighted(cumulative: &[u64], total: u64, n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut chosen: Vec<u32> = Vec::with_capacity(n);
    let mut guard = 0;
    while chosen.len() < n && guard < 100 {
        guard += 1;
        let x = rng.gen_range(0..total);
        let ix = cumulative.partition_point(|&c| c <= x) as u32;
        if !chosen.contains(&ix) {
            chosen.push(ix);
        }
    }
    // For `n >= 1` the first draw always lands (nothing to collide with),
    // so the result is non-empty whenever providers were asked for at all.
    chosen
}

/// Number of providers for a multihomed stub: mostly 1–2, occasionally 3.
fn sample_provider_count(rng: &mut StdRng) -> usize {
    let r: f64 = rng.gen();
    if r < 0.45 {
        1
    } else if r < 0.85 {
        2
    } else {
        MAX_PROVIDERS
    }
}

/// Each pool member's preferential-attachment weight, `1 + customer
/// degree`, aligned with `pool`.
fn preferential_weights(
    pool: &[Asn],
    cust_degree: &std::collections::BTreeMap<Asn, usize>,
) -> Vec<usize> {
    pool.iter()
        .map(|a| 1 + cust_degree.get(a).copied().unwrap_or(0))
        .collect()
}

/// Samples `n` distinct ASes from `pool`, weighting each by
/// `1 + customer degree` (preferential attachment).
fn preferential_sample(
    pool: &[Asn],
    cust_degree: &std::collections::BTreeMap<Asn, usize>,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Asn> {
    let weights = preferential_weights(pool, cust_degree);
    let total = weights.iter().sum();
    preferential_pick(&weights, total, n, rng)
        .into_iter()
        .map(|ix| pool[ix])
        .collect()
}

/// Draws up to `n` distinct indices of `weights`, each with probability
/// proportional to its weight; `total` is their sum. Each draw takes the
/// first index whose running sum exceeds `gen_range(0..total)`; a repeat is
/// drawn again, at most 100 draws in all. Empty weights draw nothing.
fn preferential_pick(weights: &[usize], total: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    if weights.is_empty() {
        return Vec::new();
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut guard = 0;
    while chosen.len() < n && guard < 100 {
        guard += 1;
        let mut pick = rng.gen_range(0..total);
        let mut selected = 0;
        for (ix, &w) in weights.iter().enumerate() {
            if pick < w {
                selected = ix;
                break;
            }
            pick -= w;
        }
        if !chosen.contains(&selected) {
            chosen.push(selected);
        }
    }
    if chosen.is_empty() {
        // Degenerate fall-back (`n == 0`): uniform pick.
        let indices: Vec<usize> = (0..weights.len()).collect();
        chosen.push(*indices.choose(rng).expect("non-empty weights"));
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tier;
    use crate::relationship::Role;

    #[test]
    fn four_byte_stub_fraction_assigns_large_asns() {
        let topo = TopologyParams::tiny().seed(5).four_byte_stubs(0.25).build();
        let four_byte: Vec<Asn> = topo
            .ases()
            .filter(|n| n.tier == Tier::Stub && n.asn.as_u16().is_none())
            .map(|n| n.asn)
            .collect();
        let stubs = topo.ases().filter(|n| n.tier == Tier::Stub).count();
        assert!(!four_byte.is_empty(), "some stubs get 4-byte ASNs");
        let frac = four_byte.len() as f64 / stubs as f64;
        assert!((0.15..=0.35).contains(&frac), "fraction ≈ 0.25, got {frac}");
        // they are wired into the graph like any stub
        for asn in four_byte {
            assert!(topo.providers_of(asn).count() >= 1);
        }
        // zero fraction (the default) produces none
        let plain = TopologyParams::tiny().seed(5).build();
        assert!(plain.ases().all(|n| n.asn.as_u16().is_some()));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = TopologyParams::tiny().seed(42).build();
        let b = TopologyParams::tiny().seed(42).build();
        assert_eq!(a.len(), b.len());
        let la = crate::relationship::to_caida(&a.to_caida_lines());
        let lb = crate::relationship::to_caida(&b.to_caida_lines());
        assert_eq!(la, lb, "same seed must give identical edges");
        let c = TopologyParams::tiny().seed(43).build();
        let lc = crate::relationship::to_caida(&c.to_caida_lines());
        assert_ne!(la, lc, "different seeds should differ");
    }

    #[test]
    fn tier1_forms_clique() {
        let t = TopologyParams::small().seed(7).build();
        let t1s: Vec<_> = t
            .ases()
            .filter(|n| n.tier == Tier::Tier1)
            .map(|n| n.asn)
            .collect();
        assert!(t1s.len() >= 2);
        for (i, &a) in t1s.iter().enumerate() {
            for &b in &t1s[i + 1..] {
                assert_eq!(t.role_of(a, b), Some(Role::Peer), "{a}–{b} must peer");
            }
        }
    }

    #[test]
    fn every_non_tier1_has_a_provider() {
        let t = TopologyParams::small().seed(9).build();
        for n in t.ases() {
            match n.tier {
                Tier::Tier1 => assert_eq!(
                    t.providers_of(n.asn).count(),
                    0,
                    "tier-1 {} is transit-free",
                    n.asn
                ),
                Tier::Transit | Tier::Stub => assert!(
                    t.providers_of(n.asn).count() >= 1,
                    "{} needs a provider",
                    n.asn
                ),
                Tier::RouteServer => {
                    assert_eq!(t.providers_of(n.asn).count(), 0, "route servers only peer")
                }
            }
        }
    }

    #[test]
    fn route_servers_only_peer_and_have_members() {
        let t = TopologyParams::small().seed(3).build();
        let rss: Vec<_> = t
            .ases()
            .filter(|n| n.tier == Tier::RouteServer)
            .map(|n| n.asn)
            .collect();
        assert!(!rss.is_empty());
        for rs in rss {
            assert!(t.degree(rs) >= 2, "route server {rs} needs members");
            for (member, role) in t.neighbors(rs) {
                assert_eq!(role, Role::Peer);
                assert!(
                    t.ixp_memberships(member).any(|m| m == rs),
                    "membership read for {member}"
                );
            }
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let t = TopologyParams::small().seed(5).build();
        for n in t.ases().filter(|n| n.tier == Tier::Stub) {
            assert_eq!(
                t.customers_of(n.asn).count(),
                0,
                "stub {} must not provide transit",
                n.asn
            );
        }
    }

    #[test]
    fn customer_degree_is_heavy_tailed() {
        let t = TopologyParams::medium().seed(11).build();
        let mut degrees: Vec<usize> = t
            .ases()
            .filter(|n| n.tier == Tier::Transit)
            .map(|n| t.customers_of(n.asn).count())
            .collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[degrees.len() / 2];
        assert!(
            max >= median.max(1) * 4,
            "preferential attachment should concentrate customers (max {max}, median {median})"
        );
    }

    #[test]
    fn internet_params_reach_headline_scale() {
        let p = TopologyParams::internet();
        assert!(
            p.n_tier1 + p.n_transit + p.n_stub + p.n_ixp >= 60_000,
            "internet() must cover the paper's ~62K-AS April-2018 population"
        );
        assert!(
            p.frozen_attachment,
            "internet scale needs the parallel path"
        );
        assert!(p.four_byte_stub_fraction > 0.0, "§2's 4-byte population");
    }

    #[test]
    fn frozen_attachment_is_thread_count_invariant() {
        // The frozen path must generate byte-identical graphs whatever the
        // worker count — that is what makes internet() reproducible across
        // machines. Checked at small scale so the suite stays fast.
        let base = TopologyParams::small().seed(33).frozen_attachment(true);
        let one = base.clone().gen_threads(1).build();
        let four = base.clone().gen_threads(4).build();
        let la = crate::relationship::to_caida(&one.to_caida_lines());
        let lb = crate::relationship::to_caida(&four.to_caida_lines());
        assert_eq!(la, lb, "gen_threads must never change the graph");
    }

    #[test]
    fn frozen_attachment_keeps_structural_invariants() {
        let t = TopologyParams::small()
            .seed(9)
            .frozen_attachment(true)
            .build();
        for n in t.ases() {
            match n.tier {
                Tier::Tier1 | Tier::RouteServer => {
                    assert_eq!(t.providers_of(n.asn).count(), 0)
                }
                Tier::Transit => assert!(t.providers_of(n.asn).count() >= 1),
                Tier::Stub => {
                    assert!(t.providers_of(n.asn).count() >= 1, "{} unhomed", n.asn);
                    assert_eq!(t.customers_of(n.asn).count(), 0);
                }
            }
        }
        // Still heavy-tailed: weights were frozen *after* the transit
        // phase concentrated them. Checked at medium scale where the
        // transit population is large enough for the tail to show.
        let t = TopologyParams::medium()
            .seed(11)
            .frozen_attachment(true)
            .build();
        let mut degrees: Vec<usize> = t
            .ases()
            .filter(|n| n.tier == Tier::Transit)
            .map(|n| t.customers_of(n.asn).count())
            .collect();
        degrees.sort_unstable();
        let max = *degrees.last().unwrap();
        let median = degrees[degrees.len() / 2];
        assert!(max >= median.max(1) * 4, "max {max}, median {median}");
    }

    #[test]
    fn sizes_match_params() {
        let p = TopologyParams::tiny();
        let t = p.build();
        let count = |tier: Tier| t.ases().filter(|n| n.tier == tier).count();
        assert_eq!(count(Tier::Tier1), p.n_tier1);
        assert_eq!(count(Tier::Transit), p.n_transit);
        assert_eq!(count(Tier::Stub), p.n_stub);
        assert_eq!(count(Tier::RouteServer), p.n_ixp);
        assert_eq!(t.len(), p.n_tier1 + p.n_transit + p.n_stub + p.n_ixp);
    }
}
