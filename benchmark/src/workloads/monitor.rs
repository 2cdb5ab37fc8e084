//! `monitor-medium` — the §8/§9 monitoring side over collector feeds: read
//! the archives a simulated Internet wrote (strict, lossy over a damaged
//! copy, RIB dumps), push updates through the wire codec both ways, parse
//! the observation set and run the filtering analysis, every detector, the
//! behavioural dictionary inference, the hygiene report and the tagger.
//! The propagation engine runs only in `prepare`.

use super::repro::{archive_bytes, DUMP_TIME};
use super::{next, sample_episodes, Counters, Digest, PassOutput, Workload, World, WORLD_SEED};
use crate::trace::Tracer;
use bgpworms_core::{ArchiveInput, FilteringAnalysis, ObservationSet};
use bgpworms_monitor::groundtruth::{self, LabeledRun, LabeledRunParams};
use bgpworms_monitor::{
    attribute_all, CommunityDictionary, DictionaryInference, HygieneReport, Monitor,
};
use bgpworms_mrt::{LossyMrtReader, MrtReader, MrtRecord, UpdateStream};
use bgpworms_routesim::{archive_all, WorkloadParams};
use bgpworms_topology::TopologyParams;
use bgpworms_wire::{decode_message, encode_update, BgpMessage, CodecConfig};

/// The benign feed holds the episodes of one prefix in this many of the
/// world's schedule, as `repro-medium` propagates them.
const ONE_IN: usize = 5;
/// Updates pushed through the wire codec per pass, at most.
const WIRE_UPDATES: usize = 100_000;
/// One record in this many gets a damaged byte in the lossy copy.
const DAMAGE_EVERY: u64 = 64;

/// The world of `monitor-medium`.
pub struct MonitorMedium {
    world: World,
    dict: CommunityDictionary,
    /// Update archives of the benign world.
    updates: Vec<ArchiveInput>,
    /// The same archives with seeded damage inside record bodies.
    damaged: Vec<Vec<u8>>,
    /// RIB dumps of the benign world.
    ribs: Vec<Vec<u8>>,
    /// The first updates of the archives as BGP messages on the wire.
    wire: Vec<Vec<u8>>,
    /// The same world with labeled attacks injected.
    attacked: LabeledRun,
    bytes_written: u64,
}

/// Services are denser than the default, as in `repro infer`: the paper
/// picked targets that offer them.
fn policy() -> WorkloadParams {
    WorkloadParams {
        blackhole_service_prob: 0.7,
        steering_service_prob: 0.6,
        ..WorkloadParams::default()
    }
}

/// The Internet of the attacked feed: the `medium` preset cut to 0.73 K
/// ASes. `groundtruth::build` propagates a whole episode schedule and takes
/// no sample of it; at the preset's 1.7 K ASes that is 7.5 s of every
/// set-up cycle, and a run has room for some 30 s in all.
fn attacked_world() -> TopologyParams {
    TopologyParams::medium().stubs(640).transits(80)
}

/// Flips one byte inside the body of every [`DAMAGE_EVERY`]-th record.
/// Headers are left alone, so the framing survives and a lossy reader can
/// skip exactly the records that no longer decode.
fn damage(archive: &[u8], state: &mut u64) -> Vec<u8> {
    let mut out = archive.to_vec();
    let mut pos = 0;
    let mut record = 0u64;
    while pos + 12 <= out.len() {
        let len = u32::from_be_bytes([out[pos + 8], out[pos + 9], out[pos + 10], out[pos + 11]]);
        let body = pos + 12;
        let end = body + len as usize;
        if end > out.len() {
            break;
        }
        if record.is_multiple_of(DAMAGE_EVERY) && len > 0 {
            let at = body + (next(state) % u64::from(len)) as usize;
            out[at] ^= 1 << (next(state) % 8);
        }
        record += 1;
        pos = end;
    }
    out
}

impl Workload for MonitorMedium {
    const NAME: &'static str = "monitor-medium";
    const WHY: &'static str = "mrt, wire, core and monitor over archived collector feeds, no \
        propagation in the pass: bypasses every engine change, shows a decoder change";
    const UNIT: &'static str = "MRT records";
    const PASSES: usize = 20;

    fn prepare(seed: u64, t: &mut Tracer) -> Self {
        let world = World::build(TopologyParams::medium(), policy(), t);
        let episodes = sample_episodes(&world.workload.originations, seed, ONE_IN);
        let sim = t.span("routesim.compile", |_| {
            world.workload.simulation(&world.topo).threads(1).compile()
        });
        let result = t.span("routesim.run", |_| sim.run(&episodes));
        drop(sim);
        let archives = t.span("routesim.archive", |_| {
            archive_all(&world.workload.collectors, &result.observations, DUMP_TIME)
                .expect("archiving into memory cannot fail")
        });
        drop(result);
        let bytes_written = archive_bytes(&archives);

        let mut state = seed;
        let damaged = archives
            .iter()
            .map(|a| damage(&a.updates_mrt, &mut state))
            .collect();
        let wire = archives
            .iter()
            .flat_map(|a| UpdateStream::new(a.updates_mrt.as_slice()))
            .take(WIRE_UPDATES)
            .map(|m| {
                let m = m.expect("the simulator's own archive decodes");
                encode_update(&m.update, CodecConfig::modern()).expect("a decoded update encodes")
            })
            .collect();
        let (mut updates, mut ribs) = (Vec::new(), Vec::new());
        for a in archives {
            updates.push(ArchiveInput {
                platform: a.platform,
                collector: a.name,
                mrt: a.updates_mrt,
            });
            ribs.push(a.rib_mrt);
        }

        let attacked = t.span("monitor.groundtruth_build", |_| {
            groundtruth::build(&LabeledRunParams {
                topo: attacked_world(),
                workload: WorkloadParams {
                    seed: WORLD_SEED,
                    ..policy()
                },
                seed: WORLD_SEED,
                per_kind: 3,
            })
        });
        MonitorMedium {
            dict: CommunityDictionary::from_workload(world.workload.configs.values()),
            world,
            updates,
            damaged,
            ribs,
            wire,
            attacked,
            bytes_written,
        }
    }

    fn world_counters(&self) -> Counters {
        let mut counters = self.world.counters();
        counters.insert("mrt.bytes_written", self.bytes_written);
        counters
    }

    fn pass(&self, t: &mut Tracer) -> PassOutput {
        let mut failed = 0u64;

        // mrt: strict read of the clean archives — an error here is a
        // failed unit — then the lossy read of the damaged copies, then
        // the RIB dumps.
        let records_read = t.span("mrt.read_raw", |_| {
            let mut n = 0u64;
            for archive in &self.updates {
                for message in UpdateStream::new(archive.mrt.as_slice()) {
                    match message {
                        Ok(_) => n += 1,
                        Err(_) => {
                            failed += 1;
                            break;
                        }
                    }
                }
            }
            n
        });
        let (lossy_read, lossy_skipped) = t.span("mrt.lossy_read", |_| {
            let (mut read, mut skipped) = (0u64, 0u64);
            for archive in &self.damaged {
                let mut reader = LossyMrtReader::new(archive.as_slice());
                while let Ok(Some(_)) = reader.next_record() {}
                read += reader.records_read();
                skipped += reader.skipped().total();
            }
            (read, skipped)
        });
        if lossy_read != records_read {
            // Body damage must never cost the framing.
            failed += records_read.abs_diff(lossy_read);
        }
        let rib_records = t.span("mrt.rib_read", |_| {
            let mut n = 0u64;
            for archive in &self.ribs {
                for record in MrtReader::new(archive.as_slice()) {
                    match record {
                        Ok(MrtRecord::Rib(_)) => n += 1,
                        Ok(_) => {}
                        Err(_) => {
                            failed += 1;
                            break;
                        }
                    }
                }
            }
            n
        });

        // wire: decode every message, encode it again, compare the bytes.
        let decoded: Vec<_> = t.span("wire.decode", |_| {
            self.wire
                .iter()
                .map(|bytes| decode_message(bytes, CodecConfig::modern()))
                .collect()
        });
        // (`decoded` moves into the span: freeing 100 K updates is codec
        // time, not harness time.)
        let wire_failed = t.span("wire.encode", move |_| {
            let mut bad = 0u64;
            for (message, bytes) in decoded.iter().zip(&self.wire) {
                let same = match message {
                    Ok((BgpMessage::Update(update), _)) => {
                        encode_update(update, CodecConfig::modern()).is_ok_and(|b| b == *bytes)
                    }
                    _ => false,
                };
                bad += u64::from(!same);
            }
            bad
        });
        failed += wire_failed;

        // core + monitor over the benign feed.
        let Ok(set) = t.span("core.observation_parse", |_| {
            ObservationSet::from_archives(&self.updates)
        }) else {
            return PassOutput {
                units: records_read,
                failed: records_read.max(1),
                counters: Counters::new(),
            };
        };
        let filters = t.span("core.filtering", |_| FilteringAnalysis::compute(&set));
        let benign_alerts = t.span("monitor.detector_sweep_benign", |_| {
            Monitor::new(&set, &self.dict)
                .with_filters(&filters)
                .with_topology(&self.world.topo)
                .run()
        });
        let hygiene = t.span("monitor.hygiene", |_| {
            HygieneReport::compute(&set, &self.dict, 3)
        });

        // monitor over the attacked feed, scored against its labels.
        let run = &self.attacked;
        let attack_filters = t.span("core.filtering", |_| {
            FilteringAnalysis::compute(&run.observations)
        });
        let alerts = t.span("monitor.detector_sweep_attack", |_| {
            Monitor::new(&run.observations, &run.truth_dict)
                .with_filters(&attack_filters)
                .with_topology(&run.topo)
                .run()
        });
        let eval = t.span("monitor.evaluate", |_| groundtruth::evaluate(run, &alerts));
        let (inferred, _) = t.span("monitor.dictionary_infer", |_| {
            DictionaryInference::default().infer(&run.observations)
        });
        let attributions = t.span("monitor.tagger", |_| {
            run.injections
                .iter()
                .flat_map(|i| attribute_all(&run.observations, i.community, Some(&attack_filters)))
                .collect::<Vec<_>>()
        });

        let mut digest = Digest::default();
        for alert in benign_alerts.iter().chain(&alerts) {
            digest.str(&alert.to_string());
        }
        for a in &attributions {
            digest.u64(a.best().map_or(0, |asn| u64::from(asn.get())));
        }
        digest.u64(inferred.len() as u64);
        digest.u64(hygiene.announcements);
        digest.u64(hygiene.per_as.len() as u64);
        let observations = set.observations.len() as u64;
        // Freeing the parsed set is charged to the layer that built it.
        t.span("core.observation_parse", move |_| drop(set));
        let wire_bytes: usize = self.wire.iter().map(Vec::len).sum();
        let update_bytes: usize = self.updates.iter().map(|a| a.mrt.len()).sum();
        PassOutput {
            units: records_read,
            failed,
            counters: Counters::from([
                ("mrt.records_read", records_read),
                ("mrt.update_bytes", update_bytes as u64),
                ("mrt.lossy_skipped", lossy_skipped),
                ("mrt.rib_records", rib_records),
                ("wire.updates", self.wire.len() as u64),
                (
                    "wire.bytes_per_update",
                    (wire_bytes / self.wire.len().max(1)) as u64,
                ),
                ("routesim.observations", observations),
                (
                    "monitor.alerts",
                    (benign_alerts.len() + alerts.len()) as u64,
                ),
                (
                    "monitor.recall_bp",
                    (eval.recall() * 10_000.0).round() as u64,
                ),
                (
                    "monitor.precision_bp",
                    (eval.precision() * 10_000.0).round() as u64,
                ),
                ("count.injections", run.injections.len() as u64),
                ("digest.monitor", digest.0),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damage_keeps_the_framing_and_changes_one_byte_per_chosen_record() {
        // Three records with bodies of 4, 0 and 2 bytes.
        let mut archive = Vec::new();
        for body in [&[1u8, 2, 3, 4][..], &[], &[5, 6]] {
            archive.extend_from_slice(&[0, 0, 0, 9, 0, 16, 0, 4]);
            archive.extend_from_slice(&(body.len() as u32).to_be_bytes());
            archive.extend_from_slice(body);
        }
        let mut state = 7;
        let out = damage(&archive, &mut state);
        assert_eq!(out.len(), archive.len());
        let changed: Vec<usize> = (0..out.len()).filter(|&i| out[i] != archive[i]).collect();
        // Only record 0 is chosen (0 % DAMAGE_EVERY == 0), inside its body.
        assert_eq!(changed.len(), 1);
        assert!((12..16).contains(&changed[0]));
        // Same seed, same damage.
        assert_eq!(damage(&archive, &mut 7), out);
    }
}
