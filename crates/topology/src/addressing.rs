//! Deterministic prefix allocation: which AS originates which prefixes.
//!
//! Mirrors the shape of the paper's dataset (Table 1): IPv4 dominates
//! (~92 % of prefixes), stubs originate a couple of prefixes each, transit
//! providers originate a few more, and a quarter of ASes also originate
//! one IPv6 prefix.

use crate::graph::{Tier, Topology};
use bgpworms_types::{Asn, Ipv4Prefix, Ipv6Prefix, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Probability an AS also gets one IPv6 prefix.
const V6_PROBABILITY: f64 = 0.25;

/// Length of the deaggregated more-specifics: a routing table's modal
/// length.
const TARGET_LEN: u8 = 24;

/// Allocation parameters.
#[derive(Debug, Clone, Copy)]
pub struct AddressingParams {
    /// RNG seed.
    pub seed: u64,
}

impl Default for AddressingParams {
    fn default() -> Self {
        AddressingParams { seed: 1 }
    }
}

/// Parameters for [`PrefixAllocation::deaggregate`]: turning a base
/// allocation into a full-table-shaped one by announcing more-specific
/// subnets of each AS's own blocks.
#[derive(Debug, Clone, Copy)]
pub struct FullTableParams {
    /// RNG seed (independent of the base allocation's seed).
    pub seed: u64,
}

impl Default for FullTableParams {
    fn default() -> Self {
        FullTableParams { seed: 1 }
    }
}

/// The ground-truth mapping between ASes and the prefixes they originate.
#[derive(Debug, Clone, Default)]
pub struct PrefixAllocation {
    by_as: BTreeMap<Asn, Vec<Prefix>>,
    origin_of: BTreeMap<Prefix, Asn>,
}

impl PrefixAllocation {
    /// Allocates prefixes for every non-route-server AS in `topo`.
    ///
    /// IPv4 space is carved from sequential /16 blocks starting at
    /// `1.0.0.0`; each AS originates 1–3 prefixes of length /16–/22
    /// depending on tier. IPv6 prefixes are sequential /32s from
    /// `2400::/12`-style space.
    pub fn assign(topo: &Topology, params: AddressingParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xADD4_E550_0000_0000);
        let mut alloc = PrefixAllocation::default();
        let mut next_v4_block: u32 = 1 << 24; // 1.0.0.0
        let mut next_v6_block: u128 = 0x2400u128 << 112;

        for node in topo.ases() {
            if node.tier == Tier::RouteServer {
                continue;
            }
            let n_prefixes = match node.tier {
                Tier::Tier1 => rng.gen_range(2..=4),
                Tier::Transit => rng.gen_range(1..=3),
                Tier::Stub => {
                    if rng.gen_bool(0.6) {
                        1
                    } else {
                        2
                    }
                }
                Tier::RouteServer => 0,
            };
            let mut prefixes = Vec::with_capacity(n_prefixes + 1);
            for _ in 0..n_prefixes {
                // Each prefix gets its own /16 block so nothing overlaps;
                // the announced length varies for realism.
                let len = match node.tier {
                    Tier::Tier1 => 16,
                    Tier::Transit => *[16u8, 17, 18, 19]
                        .get(rng.gen_range(0..4))
                        .expect("index in range"),
                    _ => *[18u8, 19, 20, 21, 22]
                        .get(rng.gen_range(0..5))
                        .expect("index in range"),
                };
                let p = Ipv4Prefix::new(next_v4_block, len).expect("len <= 32");
                next_v4_block = next_v4_block.wrapping_add(1 << 16);
                prefixes.push(Prefix::V4(p));
            }
            if rng.gen_bool(V6_PROBABILITY) {
                let p = Ipv6Prefix::new(next_v6_block, 32).expect("len <= 128");
                next_v6_block += 1u128 << 96;
                prefixes.push(Prefix::V6(p));
            }
            for p in &prefixes {
                alloc.origin_of.insert(*p, node.asn);
            }
            alloc.by_as.insert(node.asn, prefixes);
        }
        alloc
    }

    /// Widens this allocation into a full-table-shaped one: on top of each
    /// AS's base allocations, the origin also announces a tier-dependent
    /// number of **more-specific** `/24` subnets carved
    /// sequentially out of its own IPv4 blocks — the deaggregated
    /// more-specifics that dominate a real routing table. Every extra
    /// prefix shares its origin's covering block, so registries built over
    /// the base allocation still validate it, and extras from different
    /// ASes can never collide.
    ///
    /// Tier-1s (the table's heavy hitters) contribute tens of extras,
    /// transits a handful, and stubs usually none — so total table size
    /// scales with the topology while the *origin* count stays the AS
    /// count, the workload shape flood memoization collapses.
    pub fn deaggregate(&self, topo: &Topology, params: FullTableParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0xF011_7AB1_E000_0000);
        let mut alloc = self.clone();
        for node in topo.ases() {
            let bases: Vec<Ipv4Prefix> = self
                .prefixes_of(node.asn)
                .iter()
                .filter_map(|p| p.as_v4())
                .filter(|p| p.len() < TARGET_LEN)
                .collect();
            let extras: usize = match node.tier {
                Tier::Tier1 => rng.gen_range(16..=48),
                Tier::Transit => rng.gen_range(2..=8),
                Tier::Stub => {
                    if rng.gen_bool(0.3) {
                        rng.gen_range(1..=3)
                    } else {
                        0
                    }
                }
                Tier::RouteServer => 0,
            };
            if bases.is_empty() {
                continue;
            }
            // Sequential subnet cursor per base block, so extras never
            // repeat within a block no matter how bases interleave.
            let mut next_subnet: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
            let step = 1u32 << (32 - TARGET_LEN);
            for k in 0..extras {
                let base = bases[k % bases.len()];
                let ix = next_subnet.entry(base).or_insert(0);
                if u64::from(*ix) >= 1u64 << (TARGET_LEN - base.len()) {
                    continue; // block exhausted; skip rather than overlap
                }
                let sub = Ipv4Prefix::new(base.network().wrapping_add(*ix * step), TARGET_LEN)
                    .expect("a /24 fits IPv4");
                *ix += 1;
                alloc.origin_of.insert(Prefix::V4(sub), node.asn);
                alloc
                    .by_as
                    .entry(node.asn)
                    .or_default()
                    .push(Prefix::V4(sub));
            }
        }
        alloc
    }

    /// Prefixes originated by `asn`.
    pub fn prefixes_of(&self, asn: Asn) -> &[Prefix] {
        self.by_as.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The origin AS of `prefix`, if allocated.
    pub fn origin_of(&self, prefix: &Prefix) -> Option<Asn> {
        self.origin_of.get(prefix).copied()
    }

    /// Iterates `(origin, prefix)` pairs in AS order.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Prefix)> + '_ {
        self.by_as
            .iter()
            .flat_map(|(asn, ps)| ps.iter().map(move |p| (*asn, *p)))
    }

    /// All IPv4 prefix count.
    pub fn v4_count(&self) -> usize {
        self.origin_of.keys().filter(|p| p.is_v4()).count()
    }

    /// All IPv6 prefix count.
    pub fn v6_count(&self) -> usize {
        self.origin_of.keys().filter(|p| p.is_v6()).count()
    }

    /// Total prefix count.
    pub fn len(&self) -> usize {
        self.origin_of.len()
    }

    /// True if nothing was allocated.
    pub fn is_empty(&self) -> bool {
        self.origin_of.is_empty()
    }

    /// A representative host address inside an IPv4 prefix (the `.1`-style
    /// first host), used by the data-plane probing harness.
    pub fn host_in(prefix: Ipv4Prefix) -> u32 {
        if prefix.len() == 32 {
            prefix.network()
        } else {
            prefix.network() | 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TopologyParams;

    fn sample() -> (Topology, PrefixAllocation) {
        let topo = TopologyParams::tiny().seed(5).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
        (topo, alloc)
    }

    #[test]
    fn every_real_as_gets_prefixes() {
        let (topo, alloc) = sample();
        for node in topo.ases() {
            if node.tier == Tier::RouteServer {
                assert!(alloc.prefixes_of(node.asn).is_empty());
            } else {
                assert!(
                    !alloc.prefixes_of(node.asn).is_empty(),
                    "{} has no prefixes",
                    node.asn
                );
            }
        }
    }

    #[test]
    fn no_overlapping_v4_allocations() {
        let (_, alloc) = sample();
        let v4: Vec<Ipv4Prefix> = alloc.iter().filter_map(|(_, p)| p.as_v4()).collect();
        for (i, a) in v4.iter().enumerate() {
            for b in &v4[i + 1..] {
                assert!(!a.covers(*b) && !b.covers(*a), "{a} and {b} overlap");
            }
        }
    }

    #[test]
    fn origin_lookup_is_consistent() {
        let (_, alloc) = sample();
        for (asn, prefix) in alloc.iter() {
            assert_eq!(alloc.origin_of(&prefix), Some(asn));
        }
        assert_eq!(alloc.origin_of(&"203.0.113.0/24".parse().unwrap()), None);
    }

    #[test]
    fn v4_dominates_v6() {
        let (_, alloc) = sample();
        assert!(alloc.v4_count() > alloc.v6_count());
        assert_eq!(alloc.len(), alloc.v4_count() + alloc.v6_count());
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = TopologyParams::tiny().seed(5).build();
        let a = PrefixAllocation::assign(&topo, AddressingParams::default());
        let b = PrefixAllocation::assign(&topo, AddressingParams::default());
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
    }

    #[test]
    fn deaggregate_extras_stay_inside_their_origins_blocks() {
        let (topo, alloc) = sample();
        let full = alloc.deaggregate(&topo, FullTableParams::default());
        assert!(full.len() > alloc.len(), "deaggregation must add prefixes");
        for (asn, prefix) in full.iter() {
            if alloc.origin_of(&prefix).is_some() {
                assert_eq!(alloc.origin_of(&prefix), Some(asn));
                continue; // base prefix, untouched
            }
            let p = prefix.as_v4().expect("extras are IPv4");
            assert_eq!(p.len(), 24);
            let covered_by_own_base = alloc
                .prefixes_of(asn)
                .iter()
                .filter_map(|b| b.as_v4())
                .any(|b| b.covers(p));
            assert!(covered_by_own_base, "{p} escapes {asn}'s blocks");
        }
    }

    #[test]
    fn deaggregate_is_deterministic_and_origin_consistent() {
        let (topo, alloc) = sample();
        let a = alloc.deaggregate(&topo, FullTableParams::default());
        let b = alloc.deaggregate(&topo, FullTableParams::default());
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        for (asn, prefix) in a.iter() {
            assert_eq!(a.origin_of(&prefix), Some(asn));
        }
        let other = alloc.deaggregate(&topo, FullTableParams { seed: 7 });
        assert_ne!(
            a.iter().collect::<Vec<_>>(),
            other.iter().collect::<Vec<_>>(),
            "seed must matter"
        );
    }

    #[test]
    fn deaggregate_extras_never_collide() {
        let (topo, alloc) = sample();
        let full = alloc.deaggregate(&topo, FullTableParams::default());
        let mut seen = std::collections::BTreeSet::new();
        for (_, prefix) in full.iter() {
            assert!(seen.insert(prefix), "{prefix} allocated twice");
        }
    }

    #[test]
    fn host_in_prefix() {
        let p: Ipv4Prefix = "10.0.0.0/24".parse().unwrap();
        let h = PrefixAllocation::host_in(p);
        assert!(p.contains(h));
        let p32: Ipv4Prefix = "10.0.0.7/32".parse().unwrap();
        assert_eq!(PrefixAllocation::host_in(p32), p32.network());
    }
}
