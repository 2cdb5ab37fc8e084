//! The four workloads and what they share: the [`Workload`] contract the
//! run loop drives, the exact-counter map, a digest, the world builder and
//! the seeded sampling.
//!
//! **What `--seed` draws.** The generated Internet of a workload — topology
//! and per-AS policies — is part of the workload's definition and always
//! comes from [`WORLD_SEED`]; `--seed` draws the sample of work run over
//! it (which prefixes' episodes, which origins, which candidates). One
//! generated Internet per seed was tried first and made every seed a
//! problem of a different size: between ten seeds the engine's event count
//! moved by ±9 % and a pass by 12 to 25 % (README, "Noise"), more than any
//! bound could absorb. A sample of a fixed number of prefixes concentrates.

pub mod attacks;
pub mod fulltable;
pub mod monitor;
pub mod repro;

use crate::trace::Tracer;
use bgpworms_routesim::{Origination, Workload as PolicyWorkload, WorkloadParams};
use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, Topology, TopologyParams};
use bgpworms_types::{Asn, Prefix};
use std::collections::{BTreeMap, BTreeSet};

/// The seed of every generated Internet: `repro`'s default, and the one
/// the `TopologyParams::internet()` preset carries.
pub const WORLD_SEED: u64 = 2018;

/// Exact counts and digests, by name. Counts named like a per-layer metric
/// are reported as that metric; all of them must repeat on every pass and
/// are pinned by `expected/<seed>.json`.
pub type Counters = BTreeMap<&'static str, u64>;

/// Probe timings of the traced run: samples by metric name, in the
/// metric's own unit.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// What one pass produced, besides its time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassOutput {
    /// Work units of the pass (fixed per workload and seed).
    pub units: u64,
    /// Units whose check failed.
    pub failed: u64,
    /// Exact counts and digests.
    pub counters: Counters,
}

/// What [`Workload::verify`] found.
#[derive(Debug, Default)]
pub struct Verified {
    /// One line per equivalence that did not hold.
    pub problems: Vec<String>,
    /// Exact counts the checks produced.
    pub counters: Counters,
}

/// One benchmark workload. `prepare` builds the world from nothing; every
/// `pass` on it does identical deterministic work.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// One line: why the workload exists.
    const WHY: &'static str;
    /// What a work unit is.
    const UNIT: &'static str;
    /// Timed passes per run (`P`), sized so that they take about as long
    /// on every workload.
    const PASSES: usize;

    /// Builds the world for `seed`.
    fn prepare(seed: u64, t: &mut Tracer) -> Self;

    /// Exact counts of the world itself (nodes, edges, archive bytes).
    fn world_counters(&self) -> Counters;

    /// One full pass.
    fn pass(&self, t: &mut Tracer) -> PassOutput;

    /// The warm-up pass of a set-up cycle. Same work and same output as
    /// [`Workload::pass`]; a workload overrides it to take an equivalent
    /// route whose output must agree.
    fn warm_up(&self, t: &mut Tracer) -> PassOutput {
        self.pass(t)
    }

    /// Equivalence checks outside the timed passes.
    fn verify(&self) -> Verified {
        Verified::default()
    }

    /// Extra timed probes of the traced run.
    fn probes(&self, _samples: &mut Samples) {}
}

/// FNV-1a over bytes, chained: the digest of everything fed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a number.
    pub fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// Feeds a string, length first so that concatenations differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// splitmix64: the next number of the sequence `state` walks.
pub fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded sample of an episode schedule: one prefix in `one_in`, each
/// with all its episodes (its announcements, churn and withdrawals belong
/// together), in schedule order. The prefixes are ordered by how many
/// episodes they have and by who originates them, cut into runs of `one_in`
/// neighbours, and the seed picks one of each run. Every seed's sample then
/// has the same number of prefixes and, to one or two, of episodes, and the
/// same mix of origins. What it costs the engine still moves by ±1.3 %
/// from seed to seed: the few prefixes that are announced and withdrawn
/// cost anything from a tenth to ten times the average (README, "Noise").
pub fn sample_episodes(schedule: &[Origination], seed: u64, one_in: usize) -> Vec<Origination> {
    let mut episodes: BTreeMap<Prefix, (usize, Asn)> = BTreeMap::new();
    for ep in schedule {
        episodes.entry(ep.prefix).or_insert((0, ep.origin)).0 += 1;
    }
    let mut prefixes: Vec<(usize, Asn, Prefix)> = episodes
        .into_iter()
        .map(|(prefix, (count, origin))| (count, origin, prefix))
        .collect();
    prefixes.sort();
    let mut state = seed;
    let kept: BTreeSet<Prefix> = prefixes
        .chunks(one_in)
        .map(|run| run[next(&mut state) as usize % run.len()].2)
        .collect();
    schedule
        .iter()
        .filter(|ep| kept.contains(&ep.prefix))
        .cloned()
        .collect()
}

/// A generated Internet with its policy workload, seeded from
/// [`WORLD_SEED`] the way `repro --seed` seeds its snapshot.
pub struct World {
    /// The topology.
    pub topo: Topology,
    /// Prefix ground truth.
    pub alloc: PrefixAllocation,
    /// Per-AS policies, collectors and the episode schedule.
    pub workload: PolicyWorkload,
}

impl World {
    /// Builds topology, allocation and policy workload, each in its span.
    /// Topology generation is pinned to one thread.
    pub fn build(topo: TopologyParams, workload: WorkloadParams, t: &mut Tracer) -> World {
        let seed = WORLD_SEED;
        let topo = t.span("topology.build", |_| {
            let topo = topo.seed(seed).gen_threads(1).build();
            // The CSR view is built lazily; force it here so it is charged
            // to the topology and not to whoever compiles first.
            topo.adjacency_len();
            topo
        });
        let alloc = t.span("topology.assign", |_| {
            PrefixAllocation::assign(
                &topo,
                AddressingParams {
                    seed,
                    ..AddressingParams::default()
                },
            )
        });
        let workload = t.span("routesim.workload_generate", |_| {
            PolicyWorkload::generate(&topo, &alloc, &WorkloadParams { seed, ..workload })
        });
        World {
            topo,
            alloc,
            workload,
        }
    }

    /// `topology.nodes` and `topology.edges`.
    pub fn counters(&self) -> Counters {
        Counters::from([
            ("topology.nodes", self.topo.len() as u64),
            ("topology.edges", self.topo.adjacency_len() as u64 / 2),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_sample_keeps_one_whole_prefix_of_every_run_in_order() {
        let prefixes: Vec<Prefix> = (0..200u32)
            .map(|i| format!("10.{}.{}.0/24", i / 256, i % 256).parse().unwrap())
            .collect();
        // Two episodes per prefix, interleaved.
        let schedule: Vec<Origination> = (0..2u32)
            .flat_map(|round| {
                prefixes
                    .iter()
                    .map(move |p| Origination::announce(Asn::new(7), *p, vec![]).at(round))
            })
            .collect();
        let sample = sample_episodes(&schedule, 1, 4);
        assert_eq!(sample, sample_episodes(&schedule, 1, 4));
        assert_ne!(sample, sample_episodes(&schedule, 2, 4));
        // One prefix of every run of four, each with both its episodes.
        let kept: BTreeSet<Prefix> = sample.iter().map(|e| e.prefix).collect();
        assert_eq!(kept.len(), 50);
        assert_eq!(sample.len(), 100);
        for run in prefixes.chunks(4) {
            assert_eq!(run.iter().filter(|p| kept.contains(p)).count(), 1);
        }
        // Schedule order survives, and one in one keeps all.
        assert!(sample.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(sample_episodes(&schedule, 1, 1), schedule);
    }

    #[test]
    fn digest_depends_on_content_order_and_boundaries() {
        let of = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.str(p);
            }
            d.0
        };
        assert_eq!(of(&["ab", "c"]), of(&["ab", "c"]));
        assert_ne!(of(&["ab", "c"]), of(&["a", "bc"]));
        assert_ne!(of(&["ab", "c"]), of(&["c", "ab"]));
        let mut d = Digest::default();
        d.bytes(b"a");
        // FNV-1a test vector for "a".
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
    }
}
