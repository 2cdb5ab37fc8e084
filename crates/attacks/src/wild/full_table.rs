//! Full-table propagation campaigns: announce **every** allocated prefix
//! of the generated Internet at once — the April-2018 table shape the
//! paper measures its community statistics over (§4) — and stream the
//! collector view into table-scale propagation/stripping counts.
//!
//! The whole point of this workload is that it is *mostly duplicate
//! floods*: the table collapses to roughly one equivalence class per
//! origin (plus the odd per-prefix-policy singleton), which is exactly
//! what `Campaign`'s flood memoization exploits. The report therefore
//! carries the class statistics alongside the propagation counts, so the
//! `repro` front end can print the realized hit rate.

use bgpworms_routesim::{Campaign, CampaignSink, Origination, PrefixOutcome, Workload};
use bgpworms_topology::{PrefixAllocation, Topology};
use bgpworms_types::Prefix;

/// One announcement per allocated prefix, at a single instant (time 0),
/// carrying the origin's configured origination tags — the steady-state
/// table, not the day-long trickle of the workload's episode schedule.
/// Sorted by (origin, prefix) via the allocation's iteration order.
pub fn full_table_schedule(workload: &Workload, alloc: &PrefixAllocation) -> Vec<Origination> {
    alloc
        .iter()
        .map(|(origin, prefix)| {
            let (comms, large) = workload
                .configs
                .get(&origin)
                .map(|c| {
                    (
                        c.tagging.origination_tags.clone(),
                        c.tagging.origination_large_tags.clone(),
                    )
                })
                .unwrap_or_default();
            Origination::announce(origin, prefix, comms).with_large(large)
        })
        .collect()
}

/// Origin-preserving sample of a full-table schedule: keeps every prefix
/// of roughly `target / mean-prefixes-per-origin` origins (stride over the
/// origin sequence) rather than a per-prefix stride — a sampled run then
/// exercises the same class structure (duplicate floods per origin) as the
/// full table, just over fewer origins.
pub fn sample_schedule(schedule: &[Origination], target: usize) -> Vec<Origination> {
    if target == 0 || schedule.len() <= target {
        return schedule.to_vec();
    }
    // Group contiguously by origin (the schedule is in allocation order).
    let mut groups: Vec<&[Origination]> = Vec::new();
    let mut start = 0;
    for i in 1..=schedule.len() {
        if i == schedule.len() || schedule[i].origin != schedule[start].origin {
            groups.push(&schedule[start..i]);
            start = i;
        }
    }
    let stride = schedule.len().div_ceil(target).max(1);
    let keep_every = stride.min(groups.len());
    groups
        .iter()
        .step_by(keep_every)
        .flat_map(|g| g.iter().cloned())
        .collect()
}

/// Streaming aggregate over the collector view of a full-table flood:
/// how many observations arrived, and how many still carried at least one
/// community when they did (the paper's propagation-vs-stripping split).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TagPropagation {
    /// Prefixes folded.
    pub prefixes: usize,
    /// Collector observations across all platforms.
    pub observations: usize,
    /// Observations whose route still carried ≥ 1 (regular or large)
    /// community.
    pub tagged_observations: usize,
}

impl CampaignSink for TagPropagation {
    fn fold(&mut self, _prefix: Prefix, outcome: PrefixOutcome) {
        self.prefixes += 1;
        for obs in outcome.observations.iter().flatten() {
            self.observations += 1;
            let tagged = obs
                .route
                .as_ref()
                .is_some_and(|r| !r.communities.is_empty() || !r.large_communities.is_empty());
            if tagged {
                self.tagged_observations += 1;
            }
        }
    }
    fn merge(&mut self, other: Self) {
        self.prefixes += other.prefixes;
        self.observations += other.observations;
        self.tagged_observations += other.tagged_observations;
    }
}

/// Outcome of a full-table campaign: propagation counts plus the class
/// statistics that explain its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct FullTableReport {
    /// Prefixes in the (possibly sampled) schedule.
    pub prefixes: usize,
    /// Distinct flood-equivalence classes — the number of floods actually
    /// simulated.
    pub classes: usize,
    /// Prefixes simulated (first member of each class).
    pub class_sims: u64,
    /// Prefixes replayed from a class representative.
    pub class_hits: u64,
    /// Total engine events across all simulated floods.
    pub events: u64,
    /// Every flood converged.
    pub converged: bool,
    /// Prefixes whose flood exhausted its event budget and was reported
    /// as a structured divergence instead of a result.
    pub diverged: Vec<Prefix>,
    /// The streamed propagation aggregate.
    pub tags: TagPropagation,
}

impl FullTableReport {
    /// Fraction of prefixes whose flood was replayed instead of simulated.
    pub fn hit_rate(&self) -> f64 {
        let total = self.class_sims + self.class_hits;
        if total == 0 {
            return 0.0;
        }
        self.class_hits as f64 / total as f64
    }

    /// True when the table is incomplete: at least one prefix diverged.
    /// Front ends (the `repro` CLI) treat a degraded report as a failed
    /// artefact.
    pub fn degraded(&self) -> bool {
        !self.diverged.is_empty()
    }

    /// The campaign's standard degradation summary (one line per diverged
    /// prefix); empty when the report is clean.
    pub fn failure_summary(&self) -> String {
        bgpworms_routesim::failure_summary(&self.diverged)
    }
}

/// Runs a full-table campaign on `workload`'s policies over `alloc`'s
/// prefixes (deaggregate the allocation first for table-realistic size).
/// `sample` caps the schedule via origin-preserving sampling; `None` runs
/// the whole table. `threads` shards the flood workers (memoization and
/// threading compose: classes split across workers, replays are
/// per-member).
pub fn run_full_table(
    workload: &Workload,
    topo: &Topology,
    alloc: &PrefixAllocation,
    sample: Option<usize>,
    threads: usize,
) -> FullTableReport {
    let schedule = full_table_schedule(workload, alloc);
    let schedule = match sample {
        Some(n) => sample_schedule(&schedule, n),
        None => schedule,
    };
    let sim = workload.simulation(topo).threads(threads).compile();
    let campaign = Campaign::new(&sim);
    let stats = campaign.class_stats(&schedule);
    let run = campaign.run(&schedule, TagPropagation::default);
    FullTableReport {
        prefixes: stats.prefixes,
        classes: stats.classes,
        class_sims: run.class_sims,
        class_hits: run.class_hits,
        events: run.events,
        converged: run.converged,
        diverged: run.diverged,
        tags: run.sink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_routesim::WorkloadParams;
    use bgpworms_topology::{addressing::AddressingParams, FullTableParams, TopologyParams};

    fn world() -> (Topology, PrefixAllocation, Workload) {
        let topo = TopologyParams::tiny().seed(2018).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default())
            .deaggregate(&topo, FullTableParams::default());
        let workload = Workload::generate(&topo, &alloc, &WorkloadParams::default());
        (topo, alloc, workload)
    }

    #[test]
    fn schedule_covers_every_allocated_prefix_uniformly() {
        let (_, alloc, workload) = world();
        let schedule = full_table_schedule(&workload, &alloc);
        assert_eq!(schedule.len(), alloc.len());
        assert!(schedule.iter().all(|o| o.time == 0 && !o.withdraw));
        for o in &schedule {
            assert_eq!(alloc.origin_of(&o.prefix), Some(o.origin));
        }
    }

    #[test]
    fn sampling_preserves_whole_origins() {
        let (_, alloc, workload) = world();
        let schedule = full_table_schedule(&workload, &alloc);
        let sampled = sample_schedule(&schedule, schedule.len() / 3);
        assert!(!sampled.is_empty() && sampled.len() < schedule.len());
        // Every sampled origin keeps *all* of its prefixes, so the class
        // structure per kept origin is untouched.
        for o in &sampled {
            let total = alloc.prefixes_of(o.origin).len();
            let kept = sampled.iter().filter(|s| s.origin == o.origin).count();
            assert_eq!(kept, total, "origin {} was split", o.origin);
        }
        // No-op cases.
        assert_eq!(sample_schedule(&schedule, 0).len(), schedule.len());
        assert_eq!(sample_schedule(&schedule, usize::MAX).len(), schedule.len());
    }

    #[test]
    fn full_table_collapses_to_fewer_classes_than_prefixes() {
        let (topo, alloc, workload) = world();
        let report = run_full_table(&workload, &topo, &alloc, None, 2);
        assert!(report.converged);
        assert_eq!(report.prefixes, alloc.len());
        assert!(
            report.classes < report.prefixes,
            "deaggregated table must share classes: {} classes / {} prefixes",
            report.classes,
            report.prefixes
        );
        assert_eq!(report.class_sims, report.classes as u64);
        assert_eq!(
            report.class_sims + report.class_hits,
            report.prefixes as u64
        );
        assert!(report.hit_rate() > 0.0);
        assert!(
            report.tags.observations > 0,
            "collectors must see the table"
        );
        assert!(report.tags.tagged_observations <= report.tags.observations);
        // A converged campaign is never degraded.
        assert!(!report.degraded());
        assert!(report.diverged.is_empty());
        assert_eq!(report.failure_summary(), "");
    }

    #[test]
    fn sampled_run_matches_full_run_on_kept_origins() {
        let (topo, alloc, workload) = world();
        let full = run_full_table(&workload, &topo, &alloc, None, 2);
        let sampled = run_full_table(&workload, &topo, &alloc, Some(alloc.len() / 2), 1);
        assert!(sampled.converged);
        assert!(sampled.prefixes < full.prefixes);
        assert!(sampled.classes <= full.classes);
    }
}
