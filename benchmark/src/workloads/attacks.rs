//! `attacks-medium` — the paper's §6 lab matrix and §7 in-the-wild attacks
//! through the entry points `repro` calls. Each entry point generates its
//! own Internet from the parameters it is given, so there is no world to
//! prepare: the set-up cycle is the first pass. The candidate sweeps use
//! the engine through snapshot restore plus `run_delta_prefix` per
//! candidate, not through fresh floods.
//!
//! The entry points take no seed besides the world's, so `--seed` draws
//! only the candidates of the data-plane section; the experiments and
//! surveys are the same for every seed.

use super::{next, Counters, Digest, PassOutput, Workload, WORLD_SEED};
use crate::trace::Tracer;
use bgpworms_attacks::wild::survey::{self, SurveyContext, SurveyParams};
use bgpworms_attacks::wild::{
    extended_survey, propagation_check, routeserver_experiment, rtbh_experiment,
    steering_experiment,
};
use bgpworms_attacks::{feasibility, lab};
use bgpworms_dataplane::trace as traceroute;
use bgpworms_routesim::WorkloadParams;
use bgpworms_topology::TopologyParams;
use bgpworms_types::Community;

/// Candidate communities each sweep tests, at most.
const MAX_COMMUNITIES: usize = 32;
/// Vantage points of the Atlas-like platform.
const VANTAGE_POINTS: usize = 100;
/// Candidates pushed through the data-plane section per pass.
const DATAPLANE_CANDIDATES: usize = 24;

/// The world of `attacks-medium`: parameters only.
pub struct AttacksMedium {
    params: SurveyParams,
    seed: u64,
}

impl Workload for AttacksMedium {
    const NAME: &'static str = "attacks-medium";
    const WHY: &'static str = "lab matrix, wild experiments and candidate surveys: the only user \
        of attacks and dataplane, and of the engine's snapshot-restore plus delta path";
    const UNIT: &'static str = "experiments and candidates";
    const PASSES: usize = 7;

    fn prepare(seed: u64, _t: &mut Tracer) -> Self {
        AttacksMedium {
            seed,
            params: SurveyParams {
                topo: TopologyParams::medium().seed(WORLD_SEED),
                // Denser services than the default, as `repro` does for
                // the wild experiments: the paper chose targets that
                // offer them.
                workload: WorkloadParams {
                    seed: WORLD_SEED,
                    blackhole_service_prob: 0.7,
                    steering_service_prob: 0.6,
                    ..WorkloadParams::default()
                },
                n_vps: VANTAGE_POINTS,
                max_communities: MAX_COMMUNITIES,
                verify_repeatability: true,
            },
        }
    }

    fn world_counters(&self) -> Counters {
        Counters::new()
    }

    fn pass(&self, t: &mut Tracer) -> PassOutput {
        let (tp, wp) = (&self.params.topo, &self.params.workload);
        let mut digest = Digest::default();
        let mut experiments = 0u64;

        let findings = t.span("attacks.lab", |_| {
            let mut text = feasibility::render(&feasibility::assess_all());
            for finding in lab::run_all() {
                text.push_str(&finding.to_string());
            }
            text
        });
        digest.str(&findings);
        experiments += 1;

        let propagation = t.span("attacks.propagation_check", |_| {
            propagation_check::run(tp, wp)
        });
        digest.u64(propagation.research.forwarders.len() as u64);
        digest.u64(propagation.peering.forwarders.len() as u64);
        digest.u64(propagation.peering.ases_on_paths.len() as u64);
        experiments += 1;

        for hijack in [false, true] {
            let report = t.span("attacks.rtbh", |_| {
                rtbh_experiment::run(tp, wp, hijack, VANTAGE_POINTS)
            });
            digest.str(&report.map_or("none".to_string(), |r| {
                format!(
                    "{} {} {} {} {}",
                    r.target,
                    r.target_blackholed,
                    r.responsive_before,
                    r.responsive_after,
                    r.lost_vps.len()
                )
            }));
            experiments += 1;
        }

        let steering = t.span("attacks.steering", |_| steering_experiment::run(tp, wp));
        digest.str(&steering.map_or("none".to_string(), |r| {
            format!(
                "{} {} {} {} {}",
                r.target,
                r.prepended_observations,
                r.total_observations,
                r.local_pref_before,
                r.local_pref_after
            )
        }));
        experiments += 1;

        let routeserver = t.span("attacks.routeserver", |_| {
            routeserver_experiment::run(tp, wp)
        });
        digest.str(&routeserver.map_or("none".to_string(), |r| {
            format!("{} {} {}", r.route_server, r.attackee, r.succeeded())
        }));
        experiments += 1;

        // The survey apparatus on its own, and the data plane through it:
        // per candidate one FIB (delta replay folded into forwarding
        // actions), one ping campaign and one traceroute per vantage point.
        let ctx = t.span("attacks.survey_build", |_| {
            SurveyContext::build(&self.params)
        });
        let session = t.span("attacks.survey_build", |_| ctx.session());
        let mut candidates: Vec<Community> = ctx
            .workload
            .configs
            .iter()
            .filter(|(_, cfg)| cfg.services.blackhole.is_some())
            .filter_map(|(asn, _)| asn.as_u16().map(|hi| Community::new(hi, 666)))
            .collect();
        // The seeded draw: a partial shuffle brings this seed's candidates
        // to the front.
        let mut state = self.seed;
        let drawn = DATAPLANE_CANDIDATES.min(candidates.len());
        for i in 0..drawn {
            let j = i + (next(&mut state) as usize) % (candidates.len() - i);
            candidates.swap(i, j);
        }
        candidates.truncate(drawn);
        let mut pings = 0u64;
        for &candidate in &candidates {
            let fib = t.span("dataplane.fib_with", |_| {
                ctx.fib_with(&session, &[candidate])
            });
            let campaign = t.span("dataplane.ping_campaign", |_| {
                ctx.atlas.ping_campaign(&fib, ctx.target_addr)
            });
            pings += campaign.total() as u64;
            digest.u64(campaign.responsive_count() as u64);
            for &(vp, _) in &ctx.atlas.vantage_points {
                let path = t.span("dataplane.trace", |_| traceroute(&fib, vp, ctx.target_addr));
                digest.u64(path.path.len() as u64);
            }
        }
        drop(session);
        drop(ctx);

        let blackhole = t.span("attacks.survey", |_| survey::run(&self.params));
        for (community, lost) in &blackhole.effective {
            digest.u64(u64::from(community.as_u32()));
            digest.u64(lost.len() as u64);
        }
        let unrepeatable = u64::from(blackhole.repeatable != Some(true));

        let steering_survey = t.span("attacks.survey_steering", |_| {
            extended_survey::steering_survey(&self.params)
        });
        for (community, changed) in &steering_survey.effective {
            digest.u64(u64::from(community.as_u32()));
            digest.u64(*changed as u64);
        }

        let location = t.span("attacks.survey_location", |_| {
            extended_survey::location_injection(&self.params)
        });
        digest.str(&location.map_or("none".to_string(), |r| {
            format!(
                "{} {} {}",
                r.collectors_observing, r.collectors_with_contradiction, r.total_collectors
            )
        }));
        experiments += 1;

        let candidates_tested =
            (blackhole.communities_tested + steering_survey.tested + candidates.len()) as u64;
        PassOutput {
            units: experiments + candidates_tested,
            failed: unrepeatable,
            counters: Counters::from([
                ("attacks.candidates", candidates_tested),
                ("dataplane.pings", pings),
                (
                    "count.effective_communities",
                    blackhole.effective.len() as u64,
                ),
                ("count.affected_vps", blackhole.affected_vps.len() as u64),
                ("digest.attacks", digest.0),
            ]),
        }
    }
}
