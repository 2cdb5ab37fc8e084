//! `repro-medium` — the paper's §4 passive-measurement reproduction, end to
//! end: propagate the episode schedule, archive what the collectors saw as
//! MRT, read it back, run every §4 analysis and render every artefact.

use super::{sample_episodes, Counters, Digest, PassOutput, Workload, World};
use crate::trace::Tracer;
use bgpworms_core::propagation::render_table2;
use bgpworms_core::{
    ArchiveInput, BlackholeDetector, DatasetOverview, FilteringAnalysis, ObservationSet,
    PropagationAnalysis, TopValues, UsageAnalysis,
};
use bgpworms_monitor::{report::render_hygiene, CommunityDictionary, HygieneReport};
use bgpworms_routesim::{
    archive_all, workload::APRIL_2018, CollectorArchive, Origination, WorkloadParams,
};
use bgpworms_topology::TopologyParams;
use bgpworms_types::Community;
use std::fmt::Write as _;

/// The world of `repro-medium`.
pub struct ReproMedium {
    world: World,
    /// The seeded sample of the world's episode schedule.
    episodes: Vec<Origination>,
}

/// Total bytes of all update and RIB archives.
pub fn archive_bytes(archives: &[CollectorArchive]) -> u64 {
    archives
        .iter()
        .map(|a| (a.updates_mrt.len() + a.rib_mrt.len()) as u64)
        .sum()
}

/// The update archives as the analysis pipeline's input.
pub fn archive_inputs(archives: Vec<CollectorArchive>) -> Vec<ArchiveInput> {
    archives
        .into_iter()
        .map(|a| ArchiveInput {
            platform: a.platform,
            collector: a.name,
            mrt: a.updates_mrt,
        })
        .collect()
}

/// A pass propagates the episodes of one prefix in this many of the 1.7 K-AS
/// world's schedule. All of it makes a pass of 7 s, and a run has room for
/// some 30 s in all, three set-up cycles included.
const ONE_IN: usize = 5;

/// The dump time `repro` stamps its RIB archives with.
pub const DUMP_TIME: u32 = APRIL_2018 + 30 * 86_400;

impl Workload for ReproMedium {
    const NAME: &'static str = "repro-medium";
    const WHY: &'static str = "the paper's passive-measurement pipeline end to end, simulate, \
        archive, parse, analyse, render: shows which layer owns the repro budget";
    const UNIT: &'static str = "originations";
    const PASSES: usize = 11;

    fn prepare(seed: u64, t: &mut Tracer) -> Self {
        let world = World::build(TopologyParams::medium(), WorkloadParams::default(), t);
        let episodes = sample_episodes(&world.workload.originations, seed, ONE_IN);
        ReproMedium { world, episodes }
    }

    fn world_counters(&self) -> Counters {
        self.world.counters()
    }

    fn pass(&self, t: &mut Tracer) -> PassOutput {
        let World { topo, workload, .. } = &self.world;
        let sim = t.span("routesim.compile", |_| {
            workload.simulation(topo).threads(1).compile()
        });
        let result = t.span("routesim.run", |_| sim.run(&self.episodes));
        let archives = t.span("routesim.archive", |_| {
            archive_all(&workload.collectors, &result.observations, DUMP_TIME)
                .expect("archiving into memory cannot fail")
        });
        let bytes_written = archive_bytes(&archives);
        let inputs = archive_inputs(archives);
        let parsed = t.span("core.observation_parse", |_| {
            ObservationSet::from_archives(&inputs)
        });
        let units = self.episodes.len() as u64;
        let Ok(set) = parsed else {
            // A clean archive that does not decode fails every unit.
            return PassOutput {
                units,
                failed: units,
                counters: Counters::new(),
            };
        };

        let detector = BlackholeDetector::with_known(
            workload
                .configs
                .iter()
                .filter(|(_, c)| c.services.blackhole.is_some())
                .filter_map(|(asn, _)| asn.as_u16().map(|hi| Community::new(hi, 666))),
        );
        let dataset = t.span("core.dataset", |_| DatasetOverview::compute(&set));
        let usage = t.span("core.usage", |_| UsageAnalysis::compute(&set));
        let propagation = t.span("core.propagation", |_| {
            PropagationAnalysis::compute(&set, &detector)
        });
        let values = t.span("core.values", |_| TopValues::compute(&set));
        let filtering = t.span("core.filtering", |_| FilteringAnalysis::compute(&set));
        let hygiene = t.span("monitor.hygiene", |_| {
            let dict = CommunityDictionary::from_workload(workload.configs.values());
            HygieneReport::compute(&set, &dict, 3)
        });
        let artefacts = t.span("core.render", |_| {
            render(
                &dataset,
                &usage,
                &propagation,
                &values,
                &filtering,
                &hygiene,
            )
        });

        let mut digest = Digest::default();
        digest.str(&artefacts);
        PassOutput {
            units,
            failed: if result.converged { 0 } else { units },
            counters: Counters::from([
                ("routesim.events", result.events),
                ("routesim.observations", set.observations.len() as u64),
                ("mrt.bytes_written", bytes_written),
                ("mrt.records_read", set.messages.iter().map(|m| m.2).sum()),
                ("core.artefact_bytes", artefacts.len() as u64),
                ("digest.artefacts", digest.0),
            ]),
        }
    }
}

/// Every §4 artefact `repro` prints (Table 1, Table 2, Figs 4a/4b/5a/5b/
/// 5c/6, the transit headline) plus the §8 hygiene report, as one text.
fn render(
    dataset: &DatasetOverview,
    usage: &UsageAnalysis,
    propagation: &PropagationAnalysis,
    values: &TopValues,
    filtering: &FilteringAnalysis,
    hygiene: &HygieneReport,
) -> String {
    let mut out = dataset.render();
    out.push_str(&render_table2(&propagation.table2));

    let _ = writeln!(
        out,
        "updates with >=1 community: {:.1}%  with more than two: {:.1}%",
        usage.overall_fraction * 100.0,
        usage.fraction_more_than(2) * 100.0
    );
    for (platform, fractions) in usage.fig4a_series() {
        let points: Vec<String> = fractions.iter().map(|f| format!("{f:.2}")).collect();
        let _ = writeln!(out, "{platform:>4}: [{}]", points.join(", "));
    }
    for x in [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let _ = writeln!(
            out,
            "{x}\t{:.3}\t{:.3}",
            usage.communities_per_update.fraction_at(x),
            usage.asns_per_update.fraction_at(x)
        );
    }

    let (all, blackhole) = (propagation.fig5a_all(), propagation.fig5a_blackhole());
    for hops in 0..=11u32 {
        let x = f64::from(hops);
        let _ = writeln!(
            out,
            "{hops}\t{:.3}\t{:.3}",
            all.fraction_at(x),
            blackhole.fraction_at(x)
        );
    }
    let _ = writeln!(
        out,
        "samples: all={} blackhole={}  median: all={:?} blackhole={:?}",
        all.len(),
        blackhole.len(),
        all.quantile(0.5),
        blackhole.quantile(0.5)
    );
    for (len, ecdf) in propagation
        .fig5b()
        .iter()
        .filter(|(l, _)| (3..=10).contains(*l))
    {
        let _ = writeln!(
            out,
            "{len}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
            ecdf.len(),
            ecdf.fraction_at(0.3),
            ecdf.fraction_at(0.5),
            ecdf.fraction_at(0.7),
            ecdf.fraction_at(0.9)
        );
    }

    out.push_str(&values.render(10));
    let _ = writeln!(out, "666 off-path only: {}", values.blackhole_asymmetry(10));

    let (fwd0, fil0) = filtering.fractions(0);
    let (fwd100, fil100) = filtering.fractions(100);
    let _ = writeln!(
        out,
        "edges: {}  forwarding: {:.1}% ({:.1}%)  filtering: {:.1}% ({:.1}%)  \
         strict forwarders: {}  strict filterers: {}  mixed: {}",
        filtering.edges.len(),
        fwd0 * 100.0,
        fwd100 * 100.0,
        fil0 * 100.0,
        fil100 * 100.0,
        filtering.strict_forwarders().count(),
        filtering.strict_filterers().count(),
        filtering.mixed().count()
    );
    for ((x, y), n) in filtering.hexbin(2) {
        let _ = writeln!(out, "bin({x},{y})\t{n}");
    }

    let _ = writeln!(
        out,
        "transit forwarders: {} of {} ({:.1}%)",
        propagation.forwarders.len(),
        propagation.transit_ases.len(),
        propagation.forwarder_fraction() * 100.0
    );
    out.push_str(&render_hygiene(hygiene, 10));
    out
}
