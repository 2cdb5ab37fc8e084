//! The vantage-point apparatus of the two probing sweeps — §7.3's candidate
//! RTBH targets and §7.6's candidate communities. Both announce one prefix
//! plainly, ping it from a fixed Atlas set, then re-announce it once per
//! candidate and ping again. Between two candidates exactly one column of
//! the forwarding plane changes, so the vantage points' own prefixes (the
//! reverse paths) and the plain announcement flood once ([`build`]), and
//! every candidate shares those columns and continues that announcement's
//! snapshot ([`Baseline::candidate`]) — its baseline converges once, on
//! every session of the sweep.

use crate::wild::World;
use bgpworms_dataplane::{AtlasPlatform, CampaignResult, Fib};
use bgpworms_routesim::{
    Campaign, CompiledSim, Origination, PrefixOutcome, RetainRoutes, SimSnapshot,
};
use bgpworms_types::{Asn, Community, Ipv4Prefix, Prefix};
use std::collections::BTreeSet;

/// Seed of the Atlas sample: "randomly chosen, but constant across all
/// measurements" (§7.6).
const ATLAS_SEED: u64 = 7;

/// Episode time of a candidate's tagged re-announcement (the plain one is
/// at 0). Every episode drains to convergence before the next starts, so
/// the converged routes do not depend on the gap.
const REANNOUNCE_AT: u32 = 300;

/// What every candidate of one sweep is compared against, and built on.
pub struct Baseline {
    /// The probe target inside the experiment prefix.
    pub target_addr: u32,
    /// The vantage-point FIB plus the plain announcement's column.
    pub fib: Fib,
    /// Per-VP responsiveness under the plain announcement.
    pub responsive: CampaignResult,
    /// FIB covering the vantage points' own prefixes (reverse paths).
    pub(crate) vp_fib: Fib,
    /// The plain (untagged) announcement of the experiment prefix.
    plain: Origination,
    /// What a session retains: the vantage points' prefixes and `plain`'s.
    retain: RetainRoutes,
    /// `plain`, converged once, by [`build`]: every candidate replays as a
    /// *delta* against it ([`CompiledSim::run_delta_prefix`]), on whichever
    /// session of this sweep, so a candidate costs its blast radius, not a
    /// full Internet re-convergence.
    snapshot: SimSnapshot,
}

/// Samples `n_vps` vantage points and measures the baseline of a sweep in
/// which `origin` announces `prefix`, on one compiled session — returned,
/// so a caller that still holds the world sweeps on it.
pub fn build(
    world: &World,
    origin: Asn,
    prefix: Ipv4Prefix,
    n_vps: usize,
) -> (AtlasPlatform, Baseline, CompiledSim<'_>) {
    let atlas = AtlasPlatform::sample(&world.topo, &world.alloc, n_vps, ATLAS_SEED);
    let target_addr = AtlasPlatform::target_in(prefix);
    let plain = Origination::announce(origin, Prefix::V4(prefix), vec![]);

    // The vantage points announce their own prefixes: the reverse paths.
    let mut episodes = Vec::new();
    let mut retained = BTreeSet::from([plain.prefix]);
    for &(vp, _) in &atlas.vantage_points {
        for p in world.alloc.prefixes_of(vp) {
            if p.is_v4() {
                episodes.push(Origination::announce(vp, *p, vec![]));
                retained.insert(*p);
            }
        }
    }
    let retain = RetainRoutes::Prefixes(retained);
    let sim = compile(world, &retain);

    // Streamed: the campaign folds each prefix's converged routes into the
    // FIB as forwarding actions and drops them, so the run never holds a
    // `Vec` of per-prefix route tables (at survey scale that collection
    // would dwarf the FIB itself). The plain announcement converges after
    // it: a snapshot taken first sits on top of the campaign's peak
    // (`peak_rss_mb` + 5 % on `attacks-medium`).
    let vp_fib = Campaign::new(&sim).run(&episodes, Fib::default).sink;
    let (_, snapshot) = sim.run_snapshot(std::slice::from_ref(&plain), plain.prefix);
    let fib = overlay(&vp_fib, plain.prefix, snapshot.baseline_outcome());
    let responsive = atlas.ping_campaign(&fib, target_addr);
    let baseline = Baseline {
        target_addr,
        fib,
        responsive,
        vp_fib,
        plain,
        retain,
        snapshot,
    };
    (atlas, baseline, sim)
}

/// The sweep's session: retains the vantage points' prefixes and the
/// experiment prefix.
fn compile<'w>(world: &'w World, retain: &RetainRoutes) -> CompiledSim<'w> {
    world.simulation().retain(retain.clone()).compile()
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

impl Baseline {
    /// Compiles a session of this sweep on `world` (the one the baseline
    /// was built on). Compile it **once** per campaign — the compile cost
    /// (config resolution, CSR, collector interning) is paid once; the
    /// baseline converged once, in [`build`], and every candidate replays
    /// as a delta on its snapshot.
    pub fn session<'w>(&self, world: &'w World) -> CompiledSim<'w> {
        compile(world, &self.retain)
    }

    /// One candidate: the experiment prefix announced plainly, then
    /// re-announced with `communities` — the paper's step-1/step-3
    /// sequence. The plain half is the baseline's snapshot; only the
    /// tagged re-announcement replays, on `session`, as a delta
    /// re-convergence. Returns the full-schedule outcome (the looking-glass
    /// side) and the FIB it implies (the probing side).
    pub fn candidate(
        &self,
        session: &CompiledSim<'_>,
        communities: &[Community],
    ) -> (PrefixOutcome, Fib) {
        let (origin, prefix) = (self.plain.origin, self.plain.prefix);
        let tagged = Origination::announce(origin, prefix, communities.to_vec()).at(REANNOUNCE_AT);
        let outcome = session.run_delta_prefix(&self.snapshot, &[tagged]);
        let fib = overlay(&self.vp_fib, prefix, &outcome);
        (outcome, fib)
    }
}
