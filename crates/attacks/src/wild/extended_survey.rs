//! The §7.6/§7.7 future-work experiments, automated:
//!
//! * **"Likely" corpus survey** — the paper tested the 307 *verified*
//!   blackhole communities and deferred the 115 *likely* (statistically
//!   inferred, unverified) ones. Here both corpora run through the same
//!   campaign; the comparison quantifies how much confidence the
//!   verification step adds.
//! * **Non-RTBH community survey** — *"Such experiments require more
//!   complex inference as the resulting behavior can be subtle and hard to
//!   detect (e.g., a path change) as compared to RTBH where reachability is
//!   a binary test."* The steering survey implements that inference:
//!   per prepend community, diff every vantage point's traceroute path
//!   between the untagged and tagged announcements.
//! * **Fake-location injection (§7.7)** — announce the experiment prefix
//!   tagged with the location communities of two different remote ASes and
//!   count the collectors that observe the contradiction.

use crate::wild::survey::{SurveyContext, SurveyParams};
use crate::wild::World;
use bgpworms_routesim::{Origination, RetainRoutes, BLACKHOLE_VALUE, LOCATION_TAG_VALUES};
use bgpworms_types::{Asn, Community, Prefix};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of surveying one corpus of candidate blackhole communities.
#[derive(Debug, Clone, Default)]
pub struct CorpusOutcome {
    /// Candidates tested.
    pub tested: usize,
    /// Candidates that blackholed ≥ 1 vantage point.
    pub effective: usize,
    /// Union of affected vantage points.
    pub affected_vps: BTreeSet<Asn>,
}

impl CorpusOutcome {
    /// Fraction of candidates that acted.
    pub fn effective_fraction(&self) -> f64 {
        if self.tested == 0 {
            0.0
        } else {
            self.effective as f64 / self.tested as f64
        }
    }
}

/// Verified-vs-likely comparison (§7.6 future work).
#[derive(Debug, Clone, Default)]
pub struct LikelySurveyReport {
    /// The corpus of communities whose owners verifiably run the service.
    pub verified: CorpusOutcome,
    /// The "likely" corpus: blackhole-shaped candidates without
    /// verification — `ASN:666` of transits with *no* RTBH service, plus
    /// lookalike values (999, 9999) on service providers.
    pub likely: CorpusOutcome,
}

/// Runs both corpora through the §7.6 campaign.
pub fn likely_survey(params: &SurveyParams) -> LikelySurveyReport {
    let ctx = SurveyContext::build(params);

    let mut verified: Vec<Community> = vec![Community::BLACKHOLE];
    let mut likely: Vec<Community> = Vec::new();
    for (asn, cfg) in &ctx.workload.configs {
        let Some(hi) = asn.as_u16() else { continue };
        if !ctx.topo.is_transit_provider(*asn) {
            continue;
        }
        if cfg.services.blackhole.is_some() {
            verified.push(Community::new(hi, BLACKHOLE_VALUE));
            // Lookalike values on a genuine provider: plausible, wrong.
            likely.push(Community::new(hi, 999));
        } else {
            likely.push(Community::new(hi, BLACKHOLE_VALUE));
        }
    }
    verified.truncate(params.max_communities);
    likely.truncate(params.max_communities);

    let score = |candidates: &[Community]| {
        let round = ctx.blackhole_round(candidates);
        let mut outcome = CorpusOutcome {
            tested: candidates.len(),
            ..CorpusOutcome::default()
        };
        for lost in round.values() {
            if !lost.is_empty() {
                outcome.effective += 1;
                outcome.affected_vps.extend(lost.iter().copied());
            }
        }
        outcome
    };

    LikelySurveyReport {
        verified: score(&verified),
        likely: score(&likely),
    }
}

/// Outcome of the non-RTBH (steering) survey.
#[derive(Debug, Clone, Default)]
pub struct SteeringSurveyReport {
    /// Prepend communities tested.
    pub tested: usize,
    /// Communities that changed ≥ 1 vantage point's forwarding path,
    /// with the number of changed VPs.
    pub effective: BTreeMap<Community, usize>,
    /// Vantage points that lost reachability during any steering test —
    /// expected 0: steering moves paths, it does not drop traffic, which is
    /// exactly why the binary RTBH test cannot detect it.
    pub reachability_lost: usize,
    /// Total vantage points.
    pub total_vps: usize,
}

impl SteeringSurveyReport {
    /// Fraction of tested communities with a visible path change.
    pub fn effective_fraction(&self) -> f64 {
        if self.tested == 0 {
            0.0
        } else {
            self.effective.len() as f64 / self.tested as f64
        }
    }
}

/// Runs the non-RTBH survey: per prepend community, diff per-VP traceroute
/// paths between untagged and tagged announcements.
pub fn steering_survey(params: &SurveyParams) -> SteeringSurveyReport {
    let ctx = SurveyContext::build(params);

    // Candidates: every prepend community of a transit with the service.
    let mut candidates: Vec<Community> = Vec::new();
    for (asn, cfg) in &ctx.workload.configs {
        let Some(hi) = asn.as_u16() else { continue };
        for &value in cfg.services.prepend.keys() {
            candidates.push(Community::new(hi, value));
        }
    }
    candidates.truncate(params.max_communities);

    // One compiled session serves the baseline and every candidate run.
    let session = ctx.session();
    let baseline = ctx.trace_paths(&session, &[]);
    let mut report = SteeringSurveyReport {
        tested: candidates.len(),
        total_vps: ctx.total_vps(),
        ..SteeringSurveyReport::default()
    };
    for &c in &candidates {
        let tagged = ctx.trace_paths(&session, &[c]);
        let mut changed = 0usize;
        for (vp, base_path) in &baseline {
            match tagged.get(vp) {
                Some(path) if path != base_path => changed += 1,
                Some(_) => {}
                None => report.reachability_lost += 1,
            }
        }
        if changed > 0 {
            report.effective.insert(c, changed);
        }
    }
    report
}

/// Outcome of the §7.7 fake-location injection.
#[derive(Debug, Clone, Default)]
pub struct LocationInjectionReport {
    /// The two location communities injected (different owners —
    /// "reception on different continents").
    pub injected: Vec<Community>,
    /// Collectors that observed the prefix at all.
    pub collectors_observing: usize,
    /// Collectors that observed the prefix with *both* contradictory tags
    /// intact.
    pub collectors_with_contradiction: usize,
    /// Total collectors in the workload.
    pub total_collectors: usize,
}

/// Injects contradictory location communities and counts how many
/// collectors see the contradiction (the paper "observe\[d\] the prefix at
/// remote collectors labeled with communities indicating reception on
/// different continents").
///
/// This is the paper's literal experiment: tags of two *different* remote
/// ASes, measuring observability. The passively *detectable* variant —
/// one AS claiming two ingress locations at once — is covered by the
/// monitor's `ContradictoryLocation` detector and its integration test.
pub fn location_injection(params: &SurveyParams) -> Option<LocationInjectionReport> {
    // Collectors are the instrument here, not vantage points: the world
    // and the injector are all this experiment needs.
    let mut world = World::generate(&params.topo, &params.workload);
    let injector = world.attach_peering_platform();

    // Two distinct transits that tag ingress location: fake "LAX" from one
    // and "FRA" from the other (Fig 1's four buckets).
    let taggers: Vec<Asn> = world
        .workload
        .configs
        .values()
        .filter(|c| c.tagging.tag_ingress_location && c.asn.as_u16().is_some())
        .map(|c| c.asn)
        .take(2)
        .collect();
    let [a, b] = taggers.as_slice() else {
        return None;
    };
    let injected = vec![
        Community::new(a.as_u16().expect("filtered"), LOCATION_TAG_VALUES[0]),
        Community::new(b.as_u16().expect("filtered"), LOCATION_TAG_VALUES[2]),
    ];

    let p = Prefix::V4(injector.prefix);
    let sim = world.simulation().retain(RetainRoutes::None).compile();

    // Per collector: did it see the prefix at all / with both
    // contradictory tags?
    let result = sim.run(&[Origination::announce(injector.asn, p, injected.clone())]);
    let (mut collectors_observing, mut collectors_with_contradiction) = (0, 0);
    for observations in result.observations.values() {
        let routes = || observations.iter().filter_map(|obs| obs.route.as_ref());
        let both = routes().any(|route| injected.iter().all(|&c| route.has_community(c)));
        collectors_observing += usize::from(routes().next().is_some());
        collectors_with_contradiction += usize::from(both);
    }

    Some(LocationInjectionReport {
        collectors_observing,
        collectors_with_contradiction,
        total_collectors: world.workload.collectors.len(),
        injected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_routesim::WorkloadParams;
    use bgpworms_topology::TopologyParams;

    fn quick_params() -> SurveyParams {
        SurveyParams {
            topo: TopologyParams::tiny().seed(8),
            workload: WorkloadParams {
                blackhole_service_prob: 0.8,
                steering_service_prob: 0.7,
                location_tag_prob: 0.6,
                ..WorkloadParams::default()
            },
            n_vps: 12,
            max_communities: 40,
            verify_repeatability: false,
        }
    }

    #[test]
    fn verified_corpus_outperforms_likely() {
        let report = likely_survey(&quick_params());
        assert!(report.verified.tested > 0);
        assert!(report.likely.tested > 0);
        assert!(
            report.verified.effective_fraction() > report.likely.effective_fraction(),
            "verification must add confidence: verified {:.2} vs likely {:.2}",
            report.verified.effective_fraction(),
            report.likely.effective_fraction()
        );
        // In the closed world, unverified candidates are inert by
        // construction (no AS acts on a service it does not run).
        assert_eq!(report.likely.effective, 0);
    }

    #[test]
    fn steering_changes_paths_without_reachability_loss() {
        let report = steering_survey(&quick_params());
        assert!(report.tested > 0);
        assert!(
            !report.effective.is_empty(),
            "at least one prepend community moves a path"
        );
        assert_eq!(
            report.reachability_lost, 0,
            "steering is invisible to the binary reachability test"
        );
        for (&c, &changed) in &report.effective {
            assert!(changed >= 1, "{c} marked effective without changed VPs");
        }
    }

    #[test]
    fn location_contradiction_reaches_collectors() {
        let report = location_injection(&quick_params()).expect("two location taggers exist");
        assert_eq!(report.injected.len(), 2);
        assert_ne!(
            report.injected[0].owner(),
            report.injected[1].owner(),
            "tags must name different ASes"
        );
        assert!(report.collectors_observing > 0, "prefix visible somewhere");
        assert!(
            report.collectors_with_contradiction > 0,
            "the contradiction propagates to at least one collector"
        );
        assert!(report.collectors_with_contradiction <= report.collectors_observing);
    }
}
