//! §7.6 — the automated blackhole-community survey: advertise a /24 from a
//! PEERING-like platform once per candidate blackhole community, probe from
//! a fixed Atlas vantage-point set before/after, and diff per-VP
//! responsiveness. A re-run checks repeatability, and baseline traceroutes
//! bound how many AS hops each effective community travelled.

use crate::wild::vantage::{self, Baseline, Session};
use crate::wild::{InjectionPlatform, World};
use bgpworms_dataplane::{trace, AtlasPlatform, Fib};
use bgpworms_routesim::{Workload, WorkloadParams};
use bgpworms_topology::TopologyParams;
use bgpworms_types::{Asn, Community};
use std::collections::{BTreeMap, BTreeSet};

/// Survey parameters.
#[derive(Debug, Clone)]
pub struct SurveyParams {
    /// Topology to generate.
    pub topo: TopologyParams,
    /// Policy workload.
    pub workload: WorkloadParams,
    /// Number of Atlas vantage points ("200 … randomly chosen, but constant
    /// across all measurements").
    pub n_vps: usize,
    /// Cap on the number of candidate communities tested (the paper tests
    /// the 307 verified ones).
    pub max_communities: usize,
    /// Run the whole campaign a second time to confirm repeatability.
    pub verify_repeatability: bool,
}

impl Default for SurveyParams {
    fn default() -> Self {
        SurveyParams {
            topo: TopologyParams::small().seed(2018),
            workload: WorkloadParams::default(),
            n_vps: 50,
            max_communities: 307,
            verify_repeatability: true,
        }
    }
}

/// The survey outcome.
#[derive(Debug, Clone)]
pub struct SurveyReport {
    /// The injection platform.
    pub injector: InjectionPlatform,
    /// Candidate communities tested.
    pub communities_tested: usize,
    /// Communities that made at least one previously responsive VP
    /// unresponsive, with the lost VPs.
    pub effective: BTreeMap<Community, Vec<Asn>>,
    /// Union of affected vantage points.
    pub affected_vps: BTreeSet<Asn>,
    /// Total vantage points probed.
    pub total_vps: usize,
    /// Second round reproduced the first exactly (§7.6's two-day re-run).
    pub repeatable: Option<bool>,
    /// AS-hop distance from the injector to each effective community's
    /// target along the affected VPs' baseline traces:
    /// `1` = direct peer, `2`, `3`, …; `0` = target not on the path.
    pub hop_distribution: BTreeMap<usize, usize>,
}

impl SurveyReport {
    /// Fraction of tested communities that blackholed something.
    pub fn effective_fraction(&self) -> f64 {
        if self.communities_tested == 0 {
            return 0.0;
        }
        self.effective.len() as f64 / self.communities_tested as f64
    }

    /// Fraction of vantage points affected by at least one community.
    pub fn affected_vp_fraction(&self) -> f64 {
        if self.total_vps == 0 {
            return 0.0;
        }
        self.affected_vps.len() as f64 / self.total_vps as f64
    }
}

/// Builds the candidate corpus: the RFC 7999 well-known community plus
/// `ASN:666` for every transit AS — the analogue of the verified list of
/// Giotsas et al. (communities of ASes that actually run the service) mixed
/// with plausible-but-inert candidates (ASes without the service).
fn corpus(workload: &Workload, cap: usize) -> Vec<Community> {
    let mut out = vec![Community::BLACKHOLE];
    for (asn, cfg) in &workload.configs {
        if let Some(hi) = asn.as_u16() {
            if cfg.services.any() || cfg.services.blackhole.is_some() {
                out.push(Community::new(hi, 666));
            }
        }
    }
    out.truncate(cap);
    out
}

/// Reusable survey apparatus: a generated Internet plus an attached
/// PEERING-like injector, a fixed Atlas vantage-point set, baseline FIBs,
/// and baseline responsiveness — everything §7.6-style campaigns share.
/// The extended experiments ("likely" corpus, non-RTBH path-change
/// detection) reuse this context.
///
/// Derefs to the [`World`] it owns: `ctx.topo`, `ctx.alloc` and
/// `ctx.workload` are the generated Internet with the injector attached.
pub struct SurveyContext {
    world: World,
    /// The injection platform.
    pub injector: InjectionPlatform,
    /// The fixed Atlas vantage-point set.
    pub atlas: AtlasPlatform,
    /// The probe target inside the injector's prefix.
    pub target_addr: u32,
    /// The plain announcement of the injector's prefix, measured.
    baseline: Baseline,
}

impl std::ops::Deref for SurveyContext {
    type Target = World;

    fn deref(&self) -> &World {
        &self.world
    }
}

impl SurveyContext {
    /// Builds the shared apparatus.
    pub fn build(params: &SurveyParams) -> Self {
        let mut world = World::generate(&params.topo, &params.workload);
        let injector = world.attach_peering_platform();
        // The session the baseline was measured on borrows the world this
        // context is about to own; `session()` compiles the campaign's.
        let (atlas, baseline, _) =
            vantage::build(&world, injector.asn, injector.prefix, params.n_vps);
        SurveyContext {
            world,
            injector,
            atlas,
            target_addr: baseline.target_addr,
            baseline,
        }
    }

    /// Compiles the campaign session ([`Baseline::session`]): once per
    /// campaign, every candidate community then replays as a delta on it.
    pub fn session(&self) -> Session<'_> {
        self.baseline.session(&self.world)
    }

    /// The FIB when the experiment prefix is announced with `communities`
    /// ([`Baseline::candidate`]): the vantage-point columns shared as they
    /// are, plus one delta-replayed column.
    pub fn fib_with(&self, session: &Session<'_>, communities: &[Community]) -> Fib {
        self.baseline.candidate(session, communities).1
    }

    /// One campaign round: per candidate community, the set of vantage
    /// points that were responsive at baseline but lost reachability. The
    /// session compiles (and its baseline converges) once; every candidate
    /// is one more delta replay.
    pub fn blackhole_round(&self, candidates: &[Community]) -> BTreeMap<Community, Vec<Asn>> {
        let session = self.session();
        let mut out = BTreeMap::new();
        for &c in candidates {
            let fib = self.fib_with(&session, &[c]);
            let after = self.atlas.ping_campaign(&fib, self.target_addr);
            out.insert(c, self.baseline.responsive.lost_vps(&after));
        }
        out
    }

    /// Per-VP forwarding paths toward the experiment target when announced
    /// with `communities` (empty = baseline). Only delivered traces are
    /// returned — the non-RTBH detection signal is a *path change*, not a
    /// reachability loss.
    pub fn trace_paths(
        &self,
        session: &Session<'_>,
        communities: &[Community],
    ) -> BTreeMap<Asn, Vec<Asn>> {
        let fib = if communities.is_empty() {
            self.baseline.fib.clone()
        } else {
            self.fib_with(session, communities)
        };
        let traces = self.atlas.traceroute_campaign(&fib, self.target_addr);
        let delivered = traces.into_iter().filter(|(_, t)| t.delivered());
        delivered.map(|(vp, t)| (vp, t.path)).collect()
    }

    /// Baseline AS-hop distance from `vp`'s forwarding path to `target_as`
    /// (0 = not on the path).
    pub fn baseline_hops_to(&self, vp: Asn, target_as: Asn) -> usize {
        let t = trace(&self.baseline.fib, vp, self.target_addr);
        t.path
            .iter()
            .position(|&a| a == target_as)
            .map(|idx| (t.path.len() - 1).saturating_sub(idx))
            .unwrap_or(0)
    }

    /// Total vantage points.
    pub fn total_vps(&self) -> usize {
        self.atlas.vantage_points.len()
    }
}

/// Runs the survey.
pub fn run(params: &SurveyParams) -> SurveyReport {
    let ctx = SurveyContext::build(params);
    let candidates = corpus(&ctx.workload, params.max_communities);

    let round1 = ctx.blackhole_round(&candidates);
    let repeatable = params
        .verify_repeatability
        .then(|| ctx.blackhole_round(&candidates) == round1);

    let mut effective: BTreeMap<Community, Vec<Asn>> = BTreeMap::new();
    let mut affected_vps: BTreeSet<Asn> = BTreeSet::new();
    for (c, lost) in &round1 {
        if !lost.is_empty() {
            affected_vps.extend(lost.iter().copied());
            effective.insert(*c, lost.clone());
        }
    }

    // Hop lower bound via baseline traceroutes (naïve IP-to-AS is exact in
    // our closed world; the paper's was not, hence their 75 % not-on-path).
    let mut hop_distribution: BTreeMap<usize, usize> = BTreeMap::new();
    for (c, vps) in &effective {
        for vp in vps {
            let hops = ctx.baseline_hops_to(*vp, c.owner());
            *hop_distribution.entry(hops).or_insert(0) += 1;
        }
    }

    SurveyReport {
        injector: ctx.injector,
        communities_tested: candidates.len(),
        effective,
        affected_vps,
        total_vps: ctx.total_vps(),
        repeatable,
        hop_distribution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_routesim::Origination;
    use bgpworms_types::Prefix;

    fn quick_params() -> SurveyParams {
        SurveyParams {
            topo: TopologyParams::tiny().seed(2018),
            workload: WorkloadParams {
                blackhole_service_prob: 0.8,
                ..WorkloadParams::default()
            },
            n_vps: 12,
            max_communities: 12,
            verify_repeatability: true,
        }
    }

    #[test]
    fn survey_finds_effective_communities_and_is_repeatable() {
        let report = run(&quick_params());
        assert!(report.communities_tested > 0);
        assert!(
            !report.effective.is_empty(),
            "at least one community blackholes a VP"
        );
        assert!(
            report.effective_fraction() < 1.0,
            "not every candidate acts"
        );
        assert!(!report.affected_vps.is_empty());
        assert!(report.affected_vp_fraction() <= 1.0);
        assert_eq!(report.repeatable, Some(true), "deterministic re-run");
    }

    /// Every address a sweep looks up: the probe target and every vantage
    /// point's source address (the reverse paths).
    fn probed_addrs(ctx: &SurveyContext) -> Vec<u32> {
        let sources = ctx.atlas.vantage_points.iter().map(|&(_, src)| src);
        std::iter::once(ctx.target_addr).chain(sources).collect()
    }

    #[test]
    fn candidate_fib_equals_fresh_run_merged_over_the_vantage_point_fib() {
        // A candidate's FIB is the vantage-point columns shared as they are
        // plus one delta-replayed column. The reference pays full price: a
        // fresh run of plain ++ tagged, collected, converted and merged. At
        // every AS, every probed address must resolve alike.
        let ctx = SurveyContext::build(&quick_params());
        let session = ctx.session();
        let p = Prefix::V4(ctx.injector.prefix);
        let plain = Origination::announce(ctx.injector.asn, p, vec![]);
        let addrs = probed_addrs(&ctx);
        let mut moved = 0;
        for c in corpus(&ctx.workload, 12) {
            let fib = ctx.fib_with(&session, &[c]);
            let tagged = Origination::announce(ctx.injector.asn, p, vec![c]).at(300);
            let mut reference = ctx.baseline.vp_fib.clone();
            reference.merge(&Fib::from_sim(&session.sim.run(&[plain.clone(), tagged])));
            for node in ctx.topo.ases() {
                for &addr in &addrs {
                    let got = fib.lookup(node.asn, addr);
                    assert_eq!(got, reference.lookup(node.asn, addr), "{c} at {}", node.asn);
                    moved += usize::from(got != ctx.baseline.fib.lookup(node.asn, addr));
                }
            }
        }
        assert!(
            moved > 0,
            "some candidate must change some forwarding entry"
        );
    }

    #[test]
    fn no_op_candidate_fib_equals_the_build_time_baseline() {
        // The baseline column is read off the snapshot of the session
        // `build` measured on; the no-op candidate replays an unchanged
        // re-announcement on a session compiled afresh. Same answers at
        // every AS for every probed address, same responsiveness.
        let ctx = SurveyContext::build(&quick_params());
        let session = ctx.session();
        let fib = ctx.fib_with(&session, &[]);
        for node in ctx.topo.ases() {
            for addr in probed_addrs(&ctx) {
                let built = ctx.baseline.fib.lookup(node.asn, addr);
                assert_eq!(fib.lookup(node.asn, addr), built, "at {}", node.asn);
            }
        }
        let probed = ctx.atlas.ping_campaign(&fib, ctx.target_addr);
        assert_eq!(probed.responsive, ctx.baseline.responsive.responsive);
        assert!(
            probed.responsive_count() > 0,
            "the baseline reaches someone"
        );
    }

    #[test]
    fn hop_distribution_counts_every_affected_pair() {
        let report = run(&quick_params());
        let pairs: usize = report.effective.values().map(Vec::len).sum();
        let counted: usize = report.hop_distribution.values().sum();
        assert_eq!(pairs, counted);
    }
}
