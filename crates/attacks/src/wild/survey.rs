//! §7.6 — the automated blackhole-community survey: advertise a /24 from a
//! PEERING-like platform once per candidate blackhole community, probe from
//! a fixed Atlas vantage-point set before/after, and diff per-VP
//! responsiveness. A re-run checks repeatability, and baseline traceroutes
//! bound how many AS hops each effective community travelled.

use crate::wild::{InjectionPlatform, World};
use bgpworms_dataplane::{trace, AtlasPlatform, CampaignResult, Fib};
use bgpworms_routesim::router::blackhole_community_of;
use bgpworms_routesim::{
    Campaign, CompiledSim, Origination, PrefixOutcome, RetainRoutes, SimSnapshot, SimSpec,
    Workload, WorkloadParams,
};
use bgpworms_topology::TopologyParams;
use bgpworms_types::{Asn, Community, Ipv4Prefix, Prefix};
use std::cell::OnceCell;
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
/// `ASN:666` for every AS that offers some community service (the workload
/// gives services only to transits), in ASN order and cut at `cap` — the
/// analogue of the verified list of Giotsas et al. (communities of ASes
/// that actually run the RTBH service) mixed with plausible-but-inert
/// candidates (ASes that offer only steering).
fn corpus(workload: &Workload, cap: usize) -> Vec<Community> {
    let mut out = vec![Community::BLACKHOLE];
    for (asn, cfg) in &workload.configs {
        if cfg.services.any() {
            out.extend(blackhole_community_of(*asn));
        }
    }
    out.truncate(cap);
    out
}

/// Seed of the Atlas sample: "randomly chosen, but constant across all
/// measurements" (§7.6).
const ATLAS_SEED: u64 = 7;

/// Episode time of a candidate's tagged re-announcement (the plain one is
/// at 0). Every episode drains to convergence before the next starts, so
/// the converged routes do not depend on the gap.
const REANNOUNCE_AT: u32 = 300;

/// The vantage-point apparatus of the two probing sweeps — §7.3's
/// candidate RTBH targets and §7.6's candidate communities, plus the
/// extended experiments ("likely" corpus, non-RTBH path-change detection).
/// Both sweeps announce one prefix plainly, ping it from a fixed Atlas set,
/// then re-announce it once per candidate and ping again. Between two
/// candidates exactly one column of the forwarding plane changes, so the
/// vantage points' own prefixes (the reverse paths) and the plain
/// announcement flood once per context, and every candidate shares those
/// columns and continues that announcement's snapshot.
///
/// Each of those parts is built at its first use, at most once, and not at
/// all by a sweep that never reads it:
/// - the **reverse paths**, a campaign over the vantage points' own
///   prefixes, when a ping or a candidate FIB first needs them
///   ([`SurveyContext::fib_with`], [`SurveyContext::blackhole_round`]) —
///   and by [`SurveyContext::trace_paths`] only when a vantage point's own
///   prefix covers the target, the one case in which a traceroute toward
///   it reads those columns;
/// - the plain announcement's **snapshot**, when a candidate or the
///   baseline first needs it;
/// - the **baseline** FIB and per-VP responsiveness, at the first ping.
///
/// A call that needs both floods runs the campaign first: a snapshot,
/// which keeps the scratch its flood converged on, would otherwise sit on
/// top of the campaign's peak (`peak_rss_mb` + 4–6 % on `attacks-medium`).
///
/// Every column keeps only the routes a packet can meet
/// ([`RetainRoutes::Prefixes`]), and a packet passes on only through ASes
/// that export, so the unread leaves among the other ASes hold no entry. A
/// probe toward the target starts at a vantage point, so the experiment
/// prefix's snapshot and deltas keep the vantage points' routes (a delta
/// drops what reaches any other such leaf). A reply starts where the probe
/// was delivered — at the injector, the experiment prefix's originator, or
/// at a vantage point whose covering prefix caught it — so the reverse
/// paths keep the vantage points' routes only when a vantage point's own
/// prefix covers the target.
///
/// Every session of a sweep compiles without collector sessions: nothing a
/// sweep returns reads an observation, and a collector is a passive tap, so
/// the routes and event counts are those of the same world with its
/// collectors, and a stub that only a collector read is an unread leaf.
///
/// Derefs to the [`World`] it owns: `ctx.topo`, `ctx.alloc` and
/// `ctx.workload` are the generated Internet with the injector attached.
pub struct SurveyContext {
    world: World,
    /// The injection platform.
    pub injector: InjectionPlatform,
    /// The fixed Atlas vantage-point set.
    pub atlas: AtlasPlatform,
    /// The probe target inside the experiment prefix.
    pub target_addr: u32,
    /// The experiment prefix, the one prefix a candidate replays.
    prefix: Prefix,
    /// A vantage point's own prefix covers the target, so a traceroute
    /// toward it can fall back to a reverse-path column.
    target_in_vp_space: bool,
    /// FIB covering the vantage points' own prefixes (reverse paths), at
    /// every AS a reply can start at or pass through.
    vp_fib: OnceCell<Fib>,
    /// The injector's plain announcement of the experiment prefix,
    /// converged once: every candidate replays as a *delta* against it
    /// ([`CompiledSim::run_delta_prefix`]), on whichever session of this
    /// sweep, so a candidate costs its blast radius, not a full Internet
    /// re-convergence.
    snapshot: OnceCell<SimSnapshot>,
    /// The vantage-point FIB plus the plain announcement's column, and
    /// per-VP responsiveness under it.
    baseline: OnceCell<(Fib, CampaignResult)>,
}

impl std::ops::Deref for SurveyContext {
    type Target = World;

    fn deref(&self) -> &World {
        &self.world
    }
}

impl SurveyContext {
    /// Builds the §7.6 apparatus: the PEERING-like platform announcing its
    /// own /24.
    pub fn build(params: &SurveyParams) -> Self {
        let mut world = World::generate(&params.topo, &params.workload);
        let injector = world.attach_peering_platform();
        Self::over(world, injector, injector.prefix, params.n_vps)
    }

    /// Samples `n_vps` vantage points for a sweep in which `injector`
    /// announces `prefix` on `world`. Floods nothing: the reverse paths,
    /// the plain announcement's snapshot and the baseline are built when a
    /// probe first reads them (see [`SurveyContext`]).
    pub(crate) fn over(
        world: World,
        injector: InjectionPlatform,
        prefix: Ipv4Prefix,
        n_vps: usize,
    ) -> Self {
        let atlas = AtlasPlatform::sample(&world.topo, &world.alloc, n_vps, ATLAS_SEED);
        let target_addr = AtlasPlatform::target_in(prefix);
        let target_in_vp_space = reverse_path_episodes(&world, &atlas).iter().any(|ep| {
            ep.prefix
                .as_v4()
                .is_some_and(|own| own.contains(target_addr))
        });
        SurveyContext {
            world,
            injector,
            atlas,
            target_addr,
            prefix: Prefix::V4(prefix),
            target_in_vp_space,
            vp_fib: OnceCell::new(),
            snapshot: OnceCell::new(),
            baseline: OnceCell::new(),
        }
    }

    /// The spec every session of this sweep starts from: the world's, with
    /// no collector sessions.
    fn probe_spec(&self) -> SimSpec<'_> {
        self.world.simulation().collectors(&[])
    }

    /// Compiles a session of this sweep. Compile it **once** per campaign —
    /// the compile cost (config resolution, slot offsets) is paid once, and
    /// every candidate replays as a delta on the plain announcement's
    /// snapshot, converged at most once per context. It keeps the routes a
    /// packet can meet ([`RetainRoutes::Prefixes`]) of the experiment
    /// prefix, the one prefix a candidate replays: a probe toward the
    /// target starts at a vantage point, and a reply toward a vantage point
    /// at the AS that delivered the probe, which on this column is its
    /// originator, the injector. The session carries no collector sessions
    /// (no sweep reads an observation).
    pub fn session(&self) -> CompiledSim<'_> {
        let vps = self.atlas.vantage_points.iter().map(|&(vp, _)| vp);
        let retain = RetainRoutes::Prefixes {
            prefixes: BTreeSet::from([self.prefix]),
            readers: vps.chain([self.injector.asn]).collect(),
        };
        self.probe_spec().retain(retain).compile()
    }

    /// The reverse-path columns, flooded at the first call, with routes
    /// where a reply can start (the injector, and the vantage points when
    /// one's own prefix covers the target) or pass through. Streamed: the
    /// campaign folds each prefix's converged routes into the FIB as
    /// forwarding actions and drops them, so the run never holds a `Vec` of
    /// per-prefix route tables (at survey scale that collection would dwarf
    /// the FIB itself).
    fn vp_fib(&self) -> &Fib {
        self.vp_fib.get_or_init(|| {
            let episodes = reverse_path_episodes(&self.world, &self.atlas);
            // A reply starts where a probe is delivered: at the injector, or
            // at a vantage point whose own prefix covers the target (the
            // `rtbh` hijack's victim) — only when there is one does a
            // vantage point need its reverse-path routes.
            let vps = self.atlas.vantage_points.iter().map(|&(vp, _)| vp);
            let starts = vps.filter(|_| self.target_in_vp_space);
            let retain = RetainRoutes::Prefixes {
                prefixes: episodes.iter().map(|ep| ep.prefix).collect(),
                readers: starts.chain([self.injector.asn]).collect(),
            };
            let sim = self.probe_spec().retain(retain).compile();
            Campaign::new(&sim).run(&episodes, Fib::default).sink
        })
    }

    /// The plain announcement of the experiment prefix, converged at the
    /// first call on a session of this sweep.
    fn snapshot(&self) -> &SimSnapshot {
        self.snapshot.get_or_init(|| {
            let plain = Origination::announce(self.injector.asn, self.prefix, vec![]);
            self.session().run_snapshot(&[plain], self.prefix).1
        })
    }

    /// The baseline FIB and per-VP responsiveness under the plain
    /// announcement, measured at the first call.
    fn baseline(&self) -> &(Fib, CampaignResult) {
        self.baseline.get_or_init(|| {
            let vp_fib = self.vp_fib();
            let fib = overlay(vp_fib, self.prefix, self.snapshot().baseline_outcome());
            let responsive = self.atlas.ping_campaign(&fib, self.target_addr);
            (fib, responsive)
        })
    }

    /// Per-VP responsiveness under the plain announcement.
    pub(crate) fn responsive(&self) -> &CampaignResult {
        &self.baseline().1
    }

    /// The tagged re-announcement of a candidate, replayed on `session` as
    /// a delta on the plain announcement's snapshot.
    fn replay(&self, session: &CompiledSim<'_>, communities: &[Community]) -> PrefixOutcome {
        let (origin, prefix) = (self.injector.asn, self.prefix);
        let tagged = Origination::announce(origin, prefix, communities.to_vec()).at(REANNOUNCE_AT);
        session.run_delta_prefix(self.snapshot(), &[tagged]).0
    }

    /// One candidate: the experiment prefix announced plainly, then
    /// re-announced with `communities` — the paper's step-1/step-3
    /// sequence. The plain half is the baseline's snapshot; only the tagged
    /// re-announcement replays, on `session`, as a delta re-convergence.
    /// Returns the full-schedule outcome (the looking-glass side) and the
    /// FIB it implies (the probing side).
    pub(crate) fn candidate(
        &self,
        session: &CompiledSim<'_>,
        communities: &[Community],
    ) -> (PrefixOutcome, Fib) {
        // The campaign before the snapshot (see [`SurveyContext`]).
        let vp_fib = self.vp_fib();
        let outcome = self.replay(session, communities);
        let fib = overlay(vp_fib, self.prefix, &outcome);
        (outcome, fib)
    }

    /// The FIB when the experiment prefix is announced with `communities`
    /// (the probing side of a candidate): the vantage-point columns shared
    /// as they are, plus one delta-replayed column.
    pub fn fib_with(&self, session: &CompiledSim<'_>, communities: &[Community]) -> Fib {
        self.candidate(session, communities).1
    }

    /// One campaign round: per candidate community, the set of vantage
    /// points that were responsive at baseline but lost reachability. The
    /// session compiles once (the baseline converges at most once per
    /// context); every candidate is one more delta replay.
    pub fn blackhole_round(&self, candidates: &[Community]) -> BTreeMap<Community, Vec<Asn>> {
        let session = self.session();
        let mut out = BTreeMap::new();
        for &c in candidates {
            let fib = self.fib_with(&session, &[c]);
            let after = self.atlas.ping_campaign(&fib, self.target_addr);
            out.insert(c, self.responsive().lost_vps(&after));
        }
        out
    }

    /// Per-VP forwarding paths toward the experiment target when announced
    /// with `communities` (empty = baseline). Only delivered traces are
    /// returned — the non-RTBH detection signal is a *path change*, not a
    /// reachability loss. A traceroute reads only the columns of prefixes
    /// that cover the target, so the reverse paths flood only when a
    /// vantage point's own prefix does.
    pub fn trace_paths(
        &self,
        session: &CompiledSim<'_>,
        communities: &[Community],
    ) -> BTreeMap<Asn, Vec<Asn>> {
        let no_vp_columns = Fib::default();
        let vp_fib = if self.target_in_vp_space {
            self.vp_fib()
        } else {
            &no_vp_columns
        };
        let fib = if communities.is_empty() {
            overlay(vp_fib, self.prefix, self.snapshot().baseline_outcome())
        } else {
            overlay(vp_fib, self.prefix, &self.replay(session, communities))
        };
        let traces = self.atlas.traceroute_campaign(&fib, self.target_addr);
        let delivered = traces.into_iter().filter(|(_, t)| t.delivered());
        delivered.map(|(vp, t)| (vp, t.path)).collect()
    }

    /// Baseline AS-hop distance from `vp`'s forwarding path to `target_as`
    /// (0 = not on the path).
    fn baseline_hops_to(&self, vp: Asn, target_as: Asn) -> usize {
        let t = trace(&self.baseline().0, vp, self.target_addr);
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

/// Every vantage point's announcement of its own IPv4 prefixes: the
/// schedule of the reverse-path columns.
fn reverse_path_episodes(world: &World, atlas: &AtlasPlatform) -> Vec<Origination> {
    let mut episodes = Vec::new();
    for &(vp, _) in &atlas.vantage_points {
        let own = world.alloc.prefixes_of(vp).iter().filter(|p| p.is_v4());
        episodes.extend(own.map(|p| Origination::announce(vp, *p, vec![])));
    }
    episodes
}

/// The vantage-point columns, shared as they are, under `outcome`'s column
/// for the experiment prefix.
fn overlay(vp_fib: &Fib, prefix: Prefix, outcome: &PrefixOutcome) -> Fib {
    let mut fib = vp_fib.clone();
    if let Some(finals) = &outcome.final_routes {
        fib.insert_routes(prefix, finals);
    }
    fib
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
    use crate::wild::rtbh_experiment;
    use bgpworms_dataplane::TraceResult;

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
            let mut reference = ctx.vp_fib().clone();
            reference.merge(&Fib::from_sim(&session.run(&[plain.clone(), tagged])));
            for node in ctx.topo.ases() {
                for &addr in &addrs {
                    let got = fib.lookup(node.asn, addr);
                    assert_eq!(got, reference.lookup(node.asn, addr), "{c} at {}", node.asn);
                    moved += usize::from(got != ctx.baseline().0.lookup(node.asn, addr));
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
        // The baseline column is read off the snapshot `build` converged on
        // its own session; the no-op candidate replays an unchanged
        // re-announcement of it on a session compiled afresh. Same answers
        // at every AS for every probed address, same responsiveness.
        let ctx = SurveyContext::build(&quick_params());
        let session = ctx.session();
        let fib = ctx.fib_with(&session, &[]);
        for node in ctx.topo.ases() {
            for addr in probed_addrs(&ctx) {
                let built = ctx.baseline().0.lookup(node.asn, addr);
                assert_eq!(fib.lookup(node.asn, addr), built, "at {}", node.asn);
            }
        }
        let probed = ctx.atlas.ping_campaign(&fib, ctx.target_addr);
        assert_eq!(probed.responsive, ctx.responsive().responsive);
        assert!(
            probed.responsive_count() > 0,
            "the baseline reaches someone"
        );
    }

    /// Every AS a reply can start at: where a forward probe toward the
    /// target is delivered over `reference`, and the injector.
    fn reply_starts(ctx: &SurveyContext, reference: &Fib) -> BTreeSet<Asn> {
        let traces = ctx.atlas.traceroute_campaign(reference, ctx.target_addr);
        let delivered = traces.into_values().filter(TraceResult::delivered);
        let ends = delivered.map(|t| *t.path.last().expect("a trace starts somewhere"));
        ends.chain([ctx.injector.asn]).collect()
    }

    /// What probing reads off a FIB: every vantage point's ping of and
    /// traceroute to the target, and the reverse trace from each of
    /// `starts` to every vantage point's source address.
    fn probed(
        ctx: &SurveyContext,
        fib: &Fib,
        starts: &BTreeSet<Asn>,
    ) -> (
        BTreeMap<Asn, bool>,
        BTreeMap<Asn, TraceResult>,
        Vec<TraceResult>,
    ) {
        let vps = &ctx.atlas.vantage_points;
        let reverse = starts
            .iter()
            .flat_map(|&from| vps.iter().map(move |&(_, src)| trace(fib, from, src)))
            .collect();
        (
            ctx.atlas.ping_campaign(fib, ctx.target_addr).responsive,
            ctx.atlas.traceroute_campaign(fib, ctx.target_addr),
            reverse,
        )
    }

    #[test]
    fn forwarding_retained_reverse_paths_probe_like_fully_retained_ones() {
        // The reverse-path columns keep routes only where a packet can
        // stand. Against columns kept at every AS, on the §7.6 apparatus
        // and on both §7.3 worlds (the hijack's victim is a vantage point
        // whose covering prefix catches probes), at tiny and small scale,
        // the baseline and every candidate must probe alike — replies
        // traced from every AS that delivers a probe over the columns kept
        // at every AS, and from the injector.
        let workload = WorkloadParams {
            blackhole_service_prob: 0.7,
            steering_service_prob: 0.6,
            ..WorkloadParams::default()
        };
        let mut compared = 0;
        for topo in [
            TopologyParams::tiny().seed(2018),
            TopologyParams::small().seed(11),
        ] {
            let params = SurveyParams {
                topo,
                workload: workload.clone(),
                n_vps: 40,
                ..quick_params()
            };
            let mut contexts = vec![SurveyContext::build(&params)];
            for hijack in [false, true] {
                let (world, injector, _, prefix) =
                    rtbh_experiment::setup(&params.topo, &params.workload, hijack)
                        .expect("an injector behind a propagating transit");
                contexts.push(SurveyContext::over(world, injector, prefix, params.n_vps));
            }
            for ctx in &contexts {
                let episodes = reverse_path_episodes(&ctx.world, &ctx.atlas);
                let sim = ctx.world.simulation().retain(RetainRoutes::All).compile();
                let full_vp_fib = Campaign::new(&sim).run(&episodes, Fib::default).sink;

                let (prefix, session) = (ctx.snapshot().prefix(), ctx.session());
                let baseline = ctx.snapshot().baseline_outcome().clone();
                let mut outcomes = vec![(ctx.baseline().0.clone(), baseline)];
                for c in corpus(&ctx.workload, 12) {
                    let (outcome, fib) = ctx.candidate(&session, &[c]);
                    outcomes.push((fib, outcome));
                }
                for (fib, outcome) in &outcomes {
                    let full = overlay(&full_vp_fib, prefix, outcome);
                    let starts = reply_starts(ctx, &full);
                    let (got, want) = (probed(ctx, fib, &starts), probed(ctx, &full, &starts));
                    assert_eq!(got, want, "{prefix}");
                    compared += 1;
                }
            }
        }
        assert!(compared > 6, "candidates were compared");
    }

    #[test]
    fn hop_distribution_counts_every_affected_pair() {
        let report = run(&quick_params());
        let pairs: usize = report.effective.values().map(Vec::len).sum();
        let counted: usize = report.hop_distribution.values().sum();
        assert_eq!(pairs, counted);
    }

    /// The baseline and one re-announcement per candidate of the corpus:
    /// what a trace-only sweep asks `trace_paths` for.
    fn trace_schedules(ctx: &SurveyContext) -> Vec<Vec<Community>> {
        let tagged = corpus(&ctx.workload, 12).into_iter().map(|c| vec![c]);
        std::iter::once(Vec::new()).chain(tagged).collect()
    }

    /// Every delivered traceroute toward the target over the fully built
    /// FIB: the vantage-point columns under the baseline's or the
    /// candidate's column.
    fn traces_over_the_full_fib(
        ctx: &SurveyContext,
        session: &CompiledSim<'_>,
        communities: &[Community],
    ) -> BTreeMap<Asn, Vec<Asn>> {
        let fib = if communities.is_empty() {
            ctx.baseline().0.clone()
        } else {
            ctx.fib_with(session, communities)
        };
        let traces = ctx.atlas.traceroute_campaign(&fib, ctx.target_addr);
        let delivered = traces.into_iter().filter(|(_, t)| t.delivered());
        delivered.map(|(vp, t)| (vp, t.path)).collect()
    }

    #[test]
    fn a_trace_only_sweep_floods_no_reverse_paths() {
        // The steering survey's usage: one session, the baseline and every
        // candidate traced. No vantage point's own prefix covers the
        // injector's /24, so nothing reads the reverse-path columns, and
        // nothing pings, so there is no baseline responsiveness either.
        let ctx = SurveyContext::build(&quick_params());
        let session = ctx.session();
        for communities in trace_schedules(&ctx) {
            ctx.trace_paths(&session, &communities);
        }
        assert!(!ctx.target_in_vp_space);
        assert!(ctx.vp_fib.get().is_none(), "the reverse paths flooded");
        assert!(ctx.baseline.get().is_none(), "the baseline was pinged");
        assert!(ctx.snapshot.get().is_some());
    }

    #[test]
    fn a_trace_only_sweep_traces_like_a_context_with_its_reverse_paths() {
        let params = quick_params();
        let (lazy, forced) = (SurveyContext::build(&params), SurveyContext::build(&params));
        forced.vp_fib();
        let (lazy_session, forced_session) = (lazy.session(), forced.session());
        let mut delivered = 0;
        for communities in trace_schedules(&lazy) {
            let got = lazy.trace_paths(&lazy_session, &communities);
            let full = traces_over_the_full_fib(&forced, &forced_session, &communities);
            assert_eq!(got, full, "{communities:?}");
            assert_eq!(got, forced.trace_paths(&forced_session, &communities));
            delivered += got.len();
        }
        assert!(lazy.vp_fib.get().is_none());
        assert!(delivered > 0, "some traceroute is delivered");
    }

    #[test]
    fn traces_toward_a_vantage_points_space_read_its_reverse_paths() {
        // The §7.3 worlds at tiny and small scale: in the hijack, a vantage
        // point's own prefix covers the blackholed /24, and an AS without a
        // route to the /24 forwards toward the covering prefix. Traced
        // before anything else is built, every schedule must trace as it
        // does over the fully built FIB, flooding the reverse paths exactly
        // when a vantage point's prefix covers the target.
        let workload = WorkloadParams {
            blackhole_service_prob: 0.7,
            steering_service_prob: 0.6,
            ..WorkloadParams::default()
        };
        let mut covered = 0;
        for topo in [
            TopologyParams::tiny().seed(2018),
            TopologyParams::small().seed(11),
        ] {
            for hijack in [false, true] {
                let (world, injector, _, prefix) = rtbh_experiment::setup(&topo, &workload, hijack)
                    .expect("an injector behind a propagating transit");
                let ctx = SurveyContext::over(world, injector, prefix, 40);
                let session = ctx.session();
                let schedules = trace_schedules(&ctx);
                let lazy: Vec<_> = schedules
                    .iter()
                    .map(|communities| ctx.trace_paths(&session, communities))
                    .collect();
                assert_eq!(ctx.vp_fib.get().is_some(), ctx.target_in_vp_space);
                for (communities, got) in schedules.iter().zip(&lazy) {
                    let full = traces_over_the_full_fib(&ctx, &session, communities);
                    assert_eq!(got, &full, "{prefix}, {communities:?}");
                }
                covered += usize::from(ctx.target_in_vp_space);
            }
        }
        assert!(covered > 0, "no target lay in a vantage point's space");
    }
}
