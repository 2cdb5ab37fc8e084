//! Shared harness code for the `repro` binary: builds "April 2018"-like
//! snapshots (topology → workload → propagation → the collectors' feed,
//! read in memory as an observation set) at several scales. `repro`
//! writes no MRT: the codec is exercised by its own tests and the
//! benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bgpworms_core::ObservationSet;
use bgpworms_monitor::groundtruth::feed_set;
use bgpworms_routesim::{Campaign, CampaignRun, PrefixOutcome, Workload, WorkloadParams};
use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, Topology, TopologyParams};
use bgpworms_types::Prefix;

/// Snapshot scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~40 ASes — unit-test sized.
    Tiny,
    /// ~130 ASes — integration-test sized.
    Small,
    /// ~1.7 K ASes — the default reproduction scale.
    Medium,
    /// ~8.6 K ASes — the headline scale. `repro table1` takes 33 s and
    /// peaks at 5.2 GB resident (seed 2018, on a 2-CPU host).
    Large,
    /// ~62 K ASes — the paper's full April-2018 Internet. Only `repro`'s
    /// flood-memoized `full-table` campaign has been run at this scale.
    /// What binds a full `Snapshot` (workload + propagation + feed +
    /// analysis) here is memory, not time, and one has not been measured.
    Internet,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            "internet" => Some(Scale::Internet),
            _ => None,
        }
    }

    /// The topology parameters for this scale.
    pub fn topology(self) -> TopologyParams {
        match self {
            Scale::Tiny => TopologyParams::tiny(),
            Scale::Small => TopologyParams::small(),
            Scale::Medium => TopologyParams::medium(),
            Scale::Large => TopologyParams::large(),
            Scale::Internet => TopologyParams::internet(),
        }
    }
}

/// A fully materialized snapshot.
pub struct Snapshot {
    /// The topology.
    pub topo: Topology,
    /// Prefix ground truth.
    pub alloc: PrefixAllocation,
    /// The generated workload (configs, collectors, episodes).
    pub workload: Workload,
    /// The collectors' feed (the analysis pipeline's input).
    pub observations: ObservationSet,
    /// What the flood that made the feed did, as its campaign counts it:
    /// update events, [`FloodStats`](bgpworms_routesim::FloodStats), class
    /// sims and hits, budget cuts. Its outcomes went into the feed, so its
    /// sink is empty.
    pub flood: CampaignRun<Vec<(Prefix, PrefixOutcome)>>,
    /// ASes whose routes nothing reads (no customer, no collector session,
    /// not a route server): the engine counts deliveries to them without
    /// simulating them.
    pub unread_ases: usize,
    /// The process's peak resident set in MB ([`peak_rss_mb`]) after each
    /// stage of the build that ran in it: topology, workload, flood, feed.
    /// Empty where `/proc/self/status` is absent.
    pub stage_peaks: Vec<(&'static str, f64)>,
}

/// This process's peak resident set in MB (`VmHWM` in `/proc/self/status`),
/// or `None` where that file or line is absent.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = hwm.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Notes the peak resident set reached by the end of `stage`.
fn after(stage: &'static str, peaks: &mut Vec<(&'static str, f64)>) {
    peaks.extend(peak_rss_mb().map(|mb| (stage, mb)));
}

impl Snapshot {
    /// Builds a snapshot at `scale` with the given seed.
    pub fn build(scale: Scale, seed: u64) -> Snapshot {
        Self::build_custom(scale.topology(), seed, &WorkloadParams::default())
    }

    /// Builds a snapshot from explicit topology parameters (e.g. with
    /// 4-byte-ASN stubs for the large-community analysis).
    pub fn build_custom(
        topo_params: TopologyParams,
        seed: u64,
        base_params: &WorkloadParams,
    ) -> Snapshot {
        let mut stage_peaks = Vec::new();
        let topo = topo_params.seed(seed).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams { seed });
        after("topology", &mut stage_peaks);
        let params = WorkloadParams {
            seed,
            ..base_params.clone()
        };
        let workload = Workload::generate(&topo, &alloc, &params);
        after("workload", &mut stage_peaks);
        let mut snapshot = Self::simulate(topo, alloc, workload);
        stage_peaks.append(&mut snapshot.stage_peaks);
        snapshot.stage_peaks = stage_peaks;
        snapshot
    }

    /// Floods `workload`'s schedule over `topo` once, as
    /// [`CompiledSim::run`](bgpworms_routesim::CompiledSim::run) does but
    /// keeping the campaign's counters, and reads every collector's feed in
    /// memory ([`feed_set`]): the passive pipeline from a generated
    /// Internet to the analysis's input. It is the set the feed's MRT
    /// archive would parse to; no byte is written or parsed.
    pub fn simulate(topo: Topology, alloc: PrefixAllocation, workload: Workload) -> Snapshot {
        let mut stage_peaks = Vec::new();
        let sim = workload.simulation(&topo).compile();
        let unread_ases = sim.unread_nodes();
        let mut flood = Campaign::new(&sim).run(&workload.originations, Vec::new);
        let result = sim.finish(std::mem::take(&mut flood.sink));
        after("flood", &mut stage_peaks);
        let observations = feed_set(&workload.collectors, &result.observations);
        after("feed", &mut stage_peaks);

        Snapshot {
            topo,
            alloc,
            workload,
            observations,
            flood,
            unread_ases,
            stage_peaks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_snapshot_builds_end_to_end() {
        let snap = Snapshot::build(Scale::Tiny, 7);
        assert!(snap.flood.events > 0);
        assert!(!snap.observations.observations.is_empty());
        assert!(snap.observations.platforms().len() >= 3);
    }

    #[test]
    fn the_snapshot_keeps_the_counters_of_the_flood_that_made_its_feed() {
        // The reference is a second flood: the same schedule through a
        // campaign over a session compiled afresh from the same workload.
        for (scale, seed) in [(Scale::Tiny, 2018), (Scale::Small, 1809)] {
            let snap = Snapshot::build(scale, seed);
            let sim = snap.workload.simulation(&snap.topo).compile();
            let reference = Campaign::new(&sim).run(&snap.workload.originations, Vec::new);
            let kept = &snap.flood;
            assert_eq!(kept.stats, reference.stats, "{scale:?}");
            assert_eq!(kept.class_sims, reference.class_sims, "{scale:?}");
            assert_eq!(kept.class_hits, reference.class_hits, "{scale:?}");
            assert_eq!(kept.diverged, reference.diverged, "{scale:?}");
            assert_eq!(kept.replay_clones, reference.replay_clones, "{scale:?}");
            assert_eq!(kept.events, reference.events, "{scale:?}");
            assert_eq!(kept.converged, reference.converged, "{scale:?}");
            assert!(
                kept.sink.is_empty(),
                "{scale:?}: the outcomes are in the feed"
            );
        }
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("internet"), Some(Scale::Internet));
        assert_eq!(Scale::parse("galactic"), None);
    }
}
