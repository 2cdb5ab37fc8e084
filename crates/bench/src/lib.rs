//! Shared harness code for the `repro` binary: builds "April 2018"-like
//! snapshots (topology → workload → propagation → MRT archives → parsed
//! observation set) at several scales.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bgpworms_core::{ArchiveInput, BlackholeDetector, ObservationSet};
use bgpworms_routesim::{archive_all, Workload, WorkloadParams};
use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, Topology, TopologyParams};
use bgpworms_types::Community;
use std::collections::BTreeSet;

/// Snapshot scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~40 ASes — unit-test sized.
    Tiny,
    /// ~130 ASes — integration-test sized.
    Small,
    /// ~1.7 K ASes — the default reproduction scale.
    Medium,
    /// ~8.6 K ASes — the headline scale (slow; several minutes).
    Large,
    /// ~62 K ASes — the paper's full April-2018 Internet. Only `repro`'s
    /// flood-memoized `full-table` campaign runs at this scale; a full
    /// `Snapshot` (workload + MRT + analysis) would take hours.
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
    /// Parsed observations (the analysis pipeline's input).
    pub observations: ObservationSet,
    /// Ground-truth blackhole communities (the "verified list" analogue:
    /// `ASN:666` of every AS that actually runs the service).
    pub verified_blackhole: BTreeSet<Community>,
    /// Update events delivered by the propagation engine.
    pub events: u64,
    /// ASes whose routes nothing reads (no customer, no collector session,
    /// not a route server): the engine counts deliveries to them without
    /// simulating them.
    pub unread_ases: usize,
}

impl Snapshot {
    /// Builds a snapshot at `scale` with the given seed.
    pub fn build(scale: Scale, seed: u64) -> Snapshot {
        Self::build_with(scale, seed, &WorkloadParams::default())
    }

    /// Builds a snapshot with explicit workload parameters.
    pub fn build_with(scale: Scale, seed: u64, base_params: &WorkloadParams) -> Snapshot {
        Self::build_custom(scale.topology(), seed, base_params)
    }

    /// Builds a snapshot from explicit topology parameters (e.g. with
    /// 4-byte-ASN stubs for the large-community analysis).
    pub fn build_custom(
        topo_params: TopologyParams,
        seed: u64,
        base_params: &WorkloadParams,
    ) -> Snapshot {
        let topo = topo_params.seed(seed).build();
        let alloc = PrefixAllocation::assign(
            &topo,
            AddressingParams {
                seed,
                ..AddressingParams::default()
            },
        );
        let params = WorkloadParams {
            seed,
            ..base_params.clone()
        };
        let workload = Workload::generate(&topo, &alloc, &params);

        let sim = workload.simulation(&topo).compile();
        let unread_ases = sim.unread_nodes();
        let result = sim.run(&workload.originations);

        let archives = archive_all(
            &workload.collectors,
            &result.observations,
            bgpworms_routesim::workload::APRIL_2018 + 30 * 86_400,
        )
        .expect("archiving cannot fail on in-memory sinks");
        let inputs: Vec<ArchiveInput> = archives
            .into_iter()
            .map(|a| ArchiveInput {
                platform: a.platform,
                collector: a.name,
                mrt: a.updates_mrt,
            })
            .collect();
        let observations =
            ObservationSet::from_archives(&inputs).expect("simulator-produced MRT parses");

        let verified_blackhole: BTreeSet<Community> = workload
            .configs
            .iter()
            .filter(|(_, c)| c.services.blackhole.is_some())
            .filter_map(|(asn, _)| asn.as_u16().map(|hi| Community::new(hi, 666)))
            .collect();

        Snapshot {
            topo,
            alloc,
            workload,
            observations,
            verified_blackhole,
            events: result.events,
            unread_ases,
        }
    }

    /// Blackhole detector primed with the verified list.
    pub fn blackhole_detector(&self) -> BlackholeDetector {
        BlackholeDetector::with_known(self.verified_blackhole.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_snapshot_builds_end_to_end() {
        let snap = Snapshot::build(Scale::Tiny, 7);
        assert!(snap.events > 0);
        assert!(!snap.observations.observations.is_empty());
        assert!(snap.observations.platforms().len() >= 3);
        assert!(!snap.verified_blackhole.is_empty());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("internet"), Some(Scale::Internet));
        assert_eq!(Scale::parse("galactic"), None);
    }
}
