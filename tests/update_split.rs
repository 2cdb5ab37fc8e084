//! The engine's own split of the collector updates it emits — first
//! announcements, path changes, community-only changes, duplicates and
//! withdrawals, counted in the flood as `FloodStats::updates` — against
//! the same split classified from the feed after an MRT round trip
//! (`UpdateSplit::compute` over the parsed `ObservationSet`). The two
//! classifications share no code: the engine compares the routes it holds,
//! the analysis compares the rows it parsed.
//!
//! The parsed set keeps a path de-prepended with its prepend runs beside
//! it, which together are the path as sent for a path that visits no AS
//! twice, so the engine compares paths as sent. The set keeps no origin or
//! next hop, and neither side compares them.

use bgpworms::analysis::UpdateSplit;
use bgpworms::prelude::*;
use bgpworms::routesim::{archive_all, Campaign, UpdateKind};

/// The engine's split and the feed's, for the default workload and the
/// default addressing on `topology` at seed 2018: one flood, whose
/// campaign counts the split and whose kept outcomes finish into the feed.
fn splits(topology: TopologyParams) -> ([u64; 5], UpdateSplit) {
    let topo = topology.seed(2018).build();
    let alloc = PrefixAllocation::assign(&topo, Default::default());
    let workload = Workload::generate(&topo, &alloc, &WorkloadParams::default());
    let sim = workload.simulation(&topo).compile();
    let run = Campaign::new(&sim).run(&workload.originations, Vec::new);
    let engine = run.stats;

    let result = sim.finish(run.sink);
    let archives = archive_all(&workload.collectors, &result.observations, 1_525_132_800)
        .expect("in-memory archives");
    let inputs: Vec<ArchiveInput> = archives.into_iter().map(ArchiveInput::from).collect();
    let set = ObservationSet::from_archives(&inputs).expect("the simulator's MRT parses");
    let emitted: usize = result.observations.values().map(Vec::len).sum();
    assert_eq!(engine.updates.iter().sum::<u64>(), emitted as u64);
    (engine.updates, UpdateSplit::compute(&set))
}

/// The feed's split in the engine's order.
fn in_engine_order(feed: UpdateSplit) -> [u64; 5] {
    let mut split = [0; 5];
    for (kind, n) in [
        (UpdateKind::First, feed.first),
        (UpdateKind::PathChange, feed.path_change),
        (UpdateKind::CommunityOnly, feed.community_only),
        (UpdateKind::Duplicate, feed.duplicate),
        (UpdateKind::Withdrawal, feed.withdrawal),
    ] {
        split[kind as usize] = n;
    }
    split
}

#[test]
fn the_engine_splits_its_updates_as_the_parsed_feed_does() {
    // `small` is the world whose parsed feed was classified by hand
    // before the engine counted anything: 6 615 / 0 / 352 / 0 / 68. (`repro
    // flood-stats` addresses with the run's seed instead: 7 201 / 0 / 423 /
    // 0 / 3 at `small`.)
    for (name, topology, want) in [
        ("tiny", TopologyParams::tiny(), [2_439, 0, 239, 0, 0]),
        ("small", TopologyParams::small(), [6_615, 0, 352, 0, 68]),
    ] {
        let (engine, feed) = splits(topology);
        assert_eq!(engine, in_engine_order(feed), "{name}");
        assert_eq!(engine, want, "{name}");
    }
}
