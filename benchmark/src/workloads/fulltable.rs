//! `fulltable-large` — the full-table campaign: a sample of the
//! deaggregated table over the `large` preset's 8.6 K ASes, driven through
//! the memoizing `Campaign` with a durable checkpoint round trip at the
//! midpoint. The propagation engine, the flood classifier, the campaign
//! driver and the checkpoint codec are the whole pass.
//!
//! Not the 62 K-AS Internet: its floods live in the last-level cache this
//! machine shares with its neighbours, and their time followed the
//! neighbours' (README, "Noise"). The traced run still times single floods,
//! snapshots and delta replays on the 62 K-AS Internet, as per-layer
//! metrics without a bound.

use super::{next, Counters, Digest, PassOutput, Samples, Verified, Workload, World, WORLD_SEED};
use crate::clock;
use crate::host;
use crate::trace::Tracer;
use bgpworms_attacks::wild::full_table::full_table_schedule;
use bgpworms_routesim::{
    Campaign, CampaignCheckpoint, CampaignRun, CampaignSink, CompiledSim, DurableSink, Origination,
    PrefixOutcome, WorkloadParams,
};
use bgpworms_topology::{FullTableParams, TopologyParams};
use bgpworms_types::{Community, Prefix};

/// Flood classes per pass whose origin attaches communities: the 55 %
/// `origin_tag_prob` of the default policies. Such a flood costs more than
/// one whose origin announces untagged (up to 1.6 times, on the 62 K-AS
/// Internet), so the mix is part of the workload's shape and the same for
/// every seed.
const TAGGED_FLOODS: usize = 36;
/// Flood classes per pass whose origin announces untagged.
const UNTAGGED_FLOODS: usize = 28;
/// Replayed prefixes (members of a class beyond its first) per flood
/// class. The whole table has at most 1.4: most origins announce one or two
/// prefixes. The sample takes classes that have more.
const REPLAYS_PER_FLOOD: usize = 4;
/// Samples of each single-flood probe in the traced run.
const PROBE_SAMPLES: usize = 30;
/// Repetitions of the replay-cost probe in the traced run.
const REPLAY_PROBES: usize = 10;
/// Origins whose delta replay is checked against a fresh run in every run.
const VERIFY_SAMPLES: usize = 3;

/// The world of `fulltable-large`.
pub struct FulltableLarge {
    world: World,
    schedule: Vec<Origination>,
}

/// The campaign's aggregate: the propagation-vs-stripping counts `repro`
/// prints for a full table, plus a digest of every observation folded, so
/// that two campaigns agree only if they saw the same routes in the same
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TagSink {
    prefixes: u64,
    observations: u64,
    tagged: u64,
    digest: Digest,
}

impl CampaignSink for TagSink {
    fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
        self.prefixes += 1;
        self.digest.str(&prefix.to_string());
        for (collector, observations) in outcome.observations.iter().enumerate() {
            for obs in observations {
                self.observations += 1;
                self.digest.u64(collector as u64);
                self.digest.u64(u64::from(obs.time));
                self.digest.u64(u64::from(obs.peer.get()));
                if let Some(route) = &obs.route {
                    self.digest.u64(route.path.hop_count() as u64);
                    for c in &route.communities {
                        self.digest.u64(u64::from(c.as_u32()));
                    }
                    self.digest.u64(route.large_communities.len() as u64);
                    if !route.communities.is_empty() || !route.large_communities.is_empty() {
                        self.tagged += 1;
                    }
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.prefixes += other.prefixes;
        self.observations += other.observations;
        self.tagged += other.tagged;
        self.digest.u64(other.digest.0);
    }
}

impl DurableSink for TagSink {
    fn encode(&self) -> String {
        format!(
            "{} {} {} {}",
            self.prefixes, self.observations, self.tagged, self.digest.0
        )
    }

    fn decode(text: &str) -> Result<Self, String> {
        let fields: Vec<u64> = text
            .split(' ')
            .map(|f| f.parse().map_err(|e| format!("tag sink field {f:?}: {e}")))
            .collect::<Result<_, _>>()?;
        match fields[..] {
            [prefixes, observations, tagged, digest] => Ok(TagSink {
                prefixes,
                observations,
                tagged,
                digest: Digest(digest),
            }),
            _ => Err(format!("tag sink has {} fields, not 4", fields.len())),
        }
    }
}

impl FulltableLarge {
    fn compile(&self, threads: usize) -> CompiledSim<'_> {
        self.world
            .workload
            .simulation(&self.world.topo)
            .threads(threads)
            .compile()
    }

    /// Chunks the campaign splits the schedule into (one entry per prefix).
    fn chunks(&self, campaign: &Campaign<'_, '_>) -> usize {
        let prefixes = self.schedule.len();
        prefixes.div_ceil(campaign.effective_chunk_size(prefixes))
    }

    fn output(&self, classes: usize, run: CampaignRun<TagSink>) -> PassOutput {
        let units = self.schedule.len() as u64;
        let lost = (run.diverged.len() + run.failures.len()) as u64;
        PassOutput {
            units,
            failed: if run.converged { lost } else { lost.max(1) },
            counters: Counters::from([
                ("routesim.events", run.events),
                ("routesim.observations", run.sink.observations),
                ("routesim.classes", classes as u64),
                ("routesim.class_sims", run.class_sims),
                ("routesim.class_hits", run.class_hits),
                ("routesim.diverged", run.diverged.len() as u64),
                ("routesim.quarantined", run.failures.len() as u64),
                ("count.tagged_observations", run.sink.tagged),
                ("digest.campaign_sink", run.sink.digest.0),
            ]),
        }
    }

    /// The first schedule entry of every sampled origin, for the
    /// single-flood checks.
    fn first_of_each_origin(&self) -> Vec<Origination> {
        by_origin(&self.schedule)
            .into_iter()
            .map(|origin| origin[0].clone())
            .collect()
    }
}

/// True for an origination that leaves its origin with communities.
fn tagged(ep: &Origination) -> bool {
    !ep.communities.is_empty() || !ep.large_communities.is_empty()
}

/// The schedule in runs of one origin each (it is in allocation order).
fn by_origin(schedule: &[Origination]) -> Vec<&[Origination]> {
    schedule.chunk_by(|a, b| a.origin == b.origin).collect()
}

/// One origin's prefixes, split into the flood classes the classifier puts
/// them in (prefix lengths on either side of a policy's threshold, and
/// per-prefix policies, split an origin).
fn classes_of(campaign: &Campaign<'_, '_>, origin: &[Origination]) -> Vec<Vec<Origination>> {
    let mut classes: Vec<Vec<Origination>> = Vec::new();
    for ep in origin {
        let same = |class: &&mut Vec<Origination>| {
            campaign
                .class_stats(&[class[0].clone(), ep.clone()])
                .classes
                == 1
        };
        match classes.iter_mut().find(same) {
            Some(class) => class.push(ep.clone()),
            None => classes.push(vec![ep.clone()]),
        }
    }
    classes
}

/// The seeded sample of the full table, of the same shape for every seed.
/// Origins that tag at origination and origins that do not are shuffled
/// apart, and each kind supplies its share of the pass's flood classes:
/// the first classes, in shuffled origin order, with more than
/// [`REPLAYS_PER_FLOOD`] members, cut to that many plus the one that
/// floods. The result is back in allocation order.
fn sample(world: &World, seed: u64) -> Vec<Origination> {
    let full = full_table_schedule(&world.workload, &world.alloc);
    let sim = world.workload.simulation(&world.topo).threads(1).compile();
    let campaign = Campaign::new(&sim);
    let mut state = seed;
    let mut schedule = Vec::new();
    for (kind, floods) in [(true, TAGGED_FLOODS), (false, UNTAGGED_FLOODS)] {
        let mut origins: Vec<&[Origination]> = by_origin(&full)
            .into_iter()
            .filter(|origin| tagged(&origin[0]) == kind && origin.len() > REPLAYS_PER_FLOOD)
            .collect();
        for i in (1..origins.len()).rev() {
            origins.swap(i, next(&mut state) as usize % (i + 1));
        }
        let before = schedule.len();
        schedule.extend(
            origins
                .into_iter()
                .flat_map(|origin| classes_of(&campaign, origin))
                .filter(|class| class.len() > REPLAYS_PER_FLOOD)
                .take(floods)
                .flat_map(|class| class.into_iter().take(1 + REPLAYS_PER_FLOOD)),
        );
        assert_eq!(
            schedule.len() - before,
            floods * (1 + REPLAYS_PER_FLOOD),
            "the table has too few classes of {} prefixes",
            1 + REPLAYS_PER_FLOOD
        );
    }
    schedule.sort_by_key(|ep| (ep.origin, ep.prefix));
    schedule
}

/// The perturbation of the delta probes: re-announce with the RFC 7999
/// blackhole community, after the baseline has converged.
fn perturbed(ep: &Origination) -> Origination {
    Origination::announce(ep.origin, ep.prefix, vec![Community::BLACKHOLE]).at(600)
}

impl Workload for FulltableLarge {
    const NAME: &'static str = "fulltable-large";
    const WHY: &'static str = "memoized full-table campaign over 8.6K ASes with a checkpoint \
        round trip: the engine, classifier, campaign driver and checkpoint codec, nothing else";
    const PASSES: usize = 30;
    const UNIT: &'static str = "prefixes";

    fn prepare(seed: u64, t: &mut Tracer) -> Self {
        let mut world = World::build(TopologyParams::large(), WorkloadParams::default(), t);
        world.alloc = t.span("topology.deaggregate", |_| {
            world.alloc.deaggregate(
                &world.topo,
                FullTableParams {
                    seed: WORLD_SEED,
                    ..FullTableParams::default()
                },
            )
        });
        let schedule = t.span("routesim.classify", |_| sample(&world, seed));
        FulltableLarge { world, schedule }
    }

    fn world_counters(&self) -> Counters {
        self.world.counters()
    }

    fn pass(&self, t: &mut Tracer) -> PassOutput {
        let sim = t.span("routesim.compile", |_| self.compile(1));
        let campaign = Campaign::new(&sim);
        let classes = t.span("routesim.classify", |_| {
            campaign.class_stats(&self.schedule).classes
        });
        let chunks = self.chunks(&campaign);
        let (checkpoint, _) = t.span("routesim.campaign_run", |_| {
            campaign.run_chunks(
                &self.schedule,
                campaign.begin(TagSink::default()),
                TagSink::default,
                chunks / 2,
            )
        });
        let restored = t.span("routesim.checkpoint_roundtrip", |_| {
            let json = checkpoint.to_json();
            CampaignCheckpoint::<TagSink>::from_json(&json).map(|cp| (cp, json.len() as u64))
        });
        let Ok((restored, checkpoint_bytes)) = restored else {
            return PassOutput {
                units: self.schedule.len() as u64,
                failed: self.schedule.len() as u64,
                counters: Counters::new(),
            };
        };
        let run = t.span("routesim.campaign_run", |_| {
            campaign.resume(&self.schedule, restored, TagSink::default)
        });
        let mut out = self.output(classes, run);
        out.counters
            .insert("routesim.checkpoint_bytes", checkpoint_bytes);
        out
    }

    /// The uninterrupted twin of [`Workload::pass`]: the same campaign
    /// without the stop (so it reports no checkpoint size). Every timed
    /// pass that agrees with it shows `memoized resume-from-JSON ≡
    /// uninterrupted` on the full schedule.
    fn warm_up(&self, t: &mut Tracer) -> PassOutput {
        let sim = t.span("routesim.compile", |_| self.compile(1));
        let campaign = Campaign::new(&sim);
        let classes = t.span("routesim.classify", |_| {
            campaign.class_stats(&self.schedule).classes
        });
        let run = t.span("routesim.campaign_run", |_| {
            campaign.run(&self.schedule, TagSink::default)
        });
        self.output(classes, run)
    }

    /// `run_delta_prefix ≡ fresh run` on the first few sampled origins;
    /// the events the deltas added are reported as `routesim.delta_events`.
    fn verify(&self) -> Verified {
        let sim = self.compile(1);
        let mut out = Verified::default();
        let mut delta_events = 0;
        for ep in self.first_of_each_origin().iter().take(VERIFY_SAMPLES) {
            let baseline = std::slice::from_ref(ep);
            let (base, snapshot) = sim.run_snapshot(baseline, ep.prefix);
            let delta = sim.run_delta(&snapshot, &[perturbed(ep)]);
            let fresh = sim.run(&[ep.clone(), perturbed(ep)]);
            if delta != fresh {
                out.problems
                    .push(format!("run_delta_prefix ≢ fresh run on {}", ep.prefix));
            }
            delta_events += delta.events - base.events;
        }
        out.counters.insert("routesim.delta_events", delta_events);
        out
    }

    fn probes(&self, samples: &mut Samples) {
        let mut record = |name, value| samples.entry(name).or_default().push(value);

        // The whole campaign at the probe thread count.
        let sim_mt = self.compile(host::mt_threads());
        let (_, secs) =
            clock::time(|| Campaign::new(&sim_mt).run(&self.schedule, TagSink::default));
        record("routesim.campaign_mt_s", secs);
        drop(sim_mt);

        // Replay cost: the sampled origin with the most prefixes is one
        // flood plus replays; the same flood alone is the baseline.
        let sim = self.compile(1);
        let campaign = Campaign::new(&sim);
        let origins = by_origin(&self.schedule);
        let group = origins
            .iter()
            .max_by_key(|origin| origin.len())
            .expect("the schedule is not empty");
        let replays = (group.len() - 1).max(1) as f64;
        for _ in 0..REPLAY_PROBES {
            let (_, whole) = clock::time(|| campaign.run(group, TagSink::default));
            let (_, alone) = clock::time(|| campaign.run(&group[..1], TagSink::default));
            record(
                "routesim.replay_us_per_prefix",
                (whole - alone).max(0.0) * 1e6 / replays,
            );
        }
        drop(sim);

        // Single floods, snapshots and delta replays on the 62 K-AS
        // Internet: one prefix each of origins spread evenly over its table.
        let internet = World::build(
            TopologyParams::internet(),
            WorkloadParams::default(),
            &mut Tracer::off(),
        );
        let table = full_table_schedule(&internet.workload, &internet.alloc);
        let origins = by_origin(&table);
        let sim = internet
            .workload
            .simulation(&internet.topo)
            .threads(1)
            .compile();
        let sim_mt = internet
            .workload
            .simulation(&internet.topo)
            .threads(host::mt_threads())
            .compile();
        for origin in origins
            .iter()
            .step_by(origins.len() / PROBE_SAMPLES)
            .take(PROBE_SAMPLES)
        {
            let ep = &origin[0];
            let one = std::slice::from_ref(ep);
            let (_, secs) = clock::time(|| sim.run(one));
            record("routesim.flood_ms", secs * 1e3);
            let (_, secs) = clock::time(|| sim_mt.run(one));
            record("routesim.flood_mt_ms", secs * 1e3);
            let ((_, snapshot), secs) = clock::time(|| sim.run_snapshot(one, ep.prefix));
            record("routesim.snapshot_ms", secs * 1e3);
            let attack = perturbed(ep);
            let (_, secs) =
                clock::time(|| sim.run_delta_prefix(&snapshot, std::slice::from_ref(&attack)));
            record("routesim.delta_ms", secs * 1e3);
        }
    }
}
