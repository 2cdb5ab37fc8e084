//! `repro` — regenerates every table and figure of the paper's evaluation
//! from a synthetic Internet snapshot.
//!
//! ```text
//! repro <artefact> [--scale tiny|small|medium|large|internet] [--seed N] [--out DIR]
//!       [--sample N]
//! ```
//!
//! The artefacts are the rows of [`ARTEFACTS`]; `repro` with no arguments
//! lists them, and `all` runs every row except `full-table`.

#![forbid(unsafe_code)]

use bgpworms_attacks::wild;
use bgpworms_attacks::{feasibility, lab};
use bgpworms_bench::{peak_rss_mb, Scale, Snapshot};
use bgpworms_core::propagation::render_table2;
use bgpworms_core::timeseries::{render_series, SnapshotStats};
use bgpworms_core::{
    BlackholeDetector, DatasetOverview, Ecdf, FilteringAnalysis, PropagationAnalysis, TopValues,
    UsageAnalysis,
};
use bgpworms_routesim::WorkloadParams;
use bgpworms_topology::TopologyParams;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

struct Options {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    sample: Option<usize>,
}

/// What one invocation's renderers share.
struct Run {
    opts: Options,
    /// Lazily built snapshot shared by the passive-measurement artefacts.
    snapshot: Option<Snapshot>,
    /// Set when an artefact reports diverged prefixes: the run still
    /// completes and writes every artefact, but exits non-zero so
    /// automation notices.
    degraded: bool,
}

/// One row of the artefact table.
struct Artefact {
    name: &'static str,
    about: &'static str,
    /// Whether `all` runs it.
    in_all: bool,
    render: fn(&mut Run) -> String,
}

const fn row(
    name: &'static str,
    about: &'static str,
    in_all: bool,
    render: fn(&mut Run) -> String,
) -> Artefact {
    Artefact {
        name,
        about,
        in_all,
        render,
    }
}

/// Every artefact `repro` can regenerate, in `all`'s run order. The usage
/// text, `all`, dispatch and the unknown-artefact error all read this.
/// (One row per line: rustfmt would spread each over three to five.)
#[rustfmt::skip]
const ARTEFACTS: &[Artefact] = &[
    row("table1", "dataset overview (paper Table 1)", true, |r| table1(r.snap())),
    row("table2", "ASes with observed communities (paper Table 2)", true, |r| table2(r.snap())),
    row("fig3", "communities use over time (paper Fig 3)", true, |r| fig3(&r.opts)),
    row("fig4a", "% updates w/ communities/collector (paper Fig 4a)", true, |r| fig4a(r.snap())),
    row("fig4b", "communities & ASes per update (paper Fig 4b)", true, |r| fig4b(r.snap())),
    row("fig5a", "propagation distance ECDF (paper Fig 5a)", true, |r| fig5a(r.snap())),
    row("fig5b", "relative distance by path length (paper Fig 5b)", true, |r| fig5b(r.snap())),
    row("fig5c", "top-10 on-/off-path values (paper Fig 5c)", true, |r| fig5c(r.snap())),
    row("fig6", "filter-vs-forward indications (paper Fig 6b)", true, |r| fig6(r.snap())),
    row("transit", "the 14 % transit-forwarder headline (paper §4.3)", true, |r| transit(r.snap())),
    row("lab", "vendor behaviour matrix (paper §6)", true, |_| lab_matrix()),
    row("table3", "attack difficulty (paper Table 3)", true, |_| table3()),
    row("wild-propagation", "§7.2 propagation check", true, |r| wild_propagation(&r.opts)),
    row("wild-rtbh", "§7.3 RTBH in the wild", true, |r| wild_rtbh(&r.opts)),
    row("wild-steering", "§7.4 steering in the wild", true, |r| wild_steering(&r.opts)),
    row("wild-routeserver", "§7.5 route-server manipulation", true, |r| wild_routeserver(&r.opts)),
    row("blackhole-survey", "§7.6 automated survey", true, |r| blackhole_survey(&r.opts)),
    row("infer", "passive attack inference on a labeled run (§9 future agenda)", true, |r| infer(&r.opts)),
    row("hygiene", "community-hygiene report (§8 monitoring)", true, |r| hygiene(r.snap())),
    row("large-communities", "RFC 8092 adoption sweep (footnote-1 future work)", true, |r| large_communities(&r.opts)),
    row("filter-relationships", "filtering vs business relation (§4.4 future work)", true, |r| filter_relationships(r.snap())),
    row("survey-likely", "verified vs \"likely\" corpora (§7.6 future work)", true, |r| survey_likely(&r.opts)),
    row("survey-steering", "non-RTBH path-change inference (§7.6 limitations)", true, |r| survey_steering(&r.opts)),
    row("survey-location", "fake-location injection (§7.7)", true, |r| survey_location(&r.opts)),
    row("ablation-rtbh-preference", "is the RTBH local-pref raise load-bearing?", true, |_| ablation_rtbh_preference()),
    row("ablation-forward-prob", "headline stats vs the forwarding policy mix", true, |r| ablation_forward_prob(&r.opts)),
    row("ablation-vendor-mix", "community visibility vs the Cisco fraction", true, |r| ablation_vendor_mix(&r.opts)),
    row("defense-adoption", "the §8 scoped-propagation defense, evaluated", true, |r| defense_adoption(&r.opts)),
    row("flood-stats", "what the snapshot's floods did, and the feed's update split", true, |r| flood_stats(r.snap())),
    row("full-table", "flood-memoized full-table campaign, --sample N prefixes", false, |r| full_table_campaign(&r.opts, &mut r.degraded)),
];

fn usage() -> String {
    let mut out = String::from(
        "usage: repro <artefact> [--scale tiny|small|medium|large|internet] [--seed N] \
         [--out DIR] [--sample N]\n\nartefacts:\n",
    );
    for a in ARTEFACTS {
        let _ = writeln!(out, "  {:<26}{}", a.name, a.about);
    }
    let _ = writeln!(out, "  {:<26}everything above except full-table", "all");
    out
}

/// The rows `artefact` names (`all` expands to the in-`all` rows).
fn select(artefact: &str) -> Result<Vec<&'static Artefact>, String> {
    let rows: Vec<&Artefact> = ARTEFACTS
        .iter()
        .filter(|a| a.name == artefact || (artefact == "all" && a.in_all))
        .collect();
    if rows.is_empty() {
        return Err(format!("unknown artefact `{artefact}`"));
    }
    Ok(rows)
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} `{v}` is not a number"))
}

/// Parses the command line; every malformed input is an `Err` naming it.
fn parse(
    mut args: impl Iterator<Item = String>,
) -> Result<(Vec<&'static Artefact>, Options), String> {
    let artefact = args.next().ok_or("no artefact named")?;
    let mut opts = Options {
        scale: Scale::Medium,
        seed: 2018,
        out: PathBuf::from("results"),
        sample: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                opts.scale = Scale::parse(&v).ok_or_else(|| {
                    format!("unknown scale `{v}` (tiny|small|medium|large|internet)")
                })?;
            }
            "--seed" => opts.seed = number(&flag, &value()?)?,
            "--out" => opts.out = PathBuf::from(value()?),
            "--sample" => opts.sample = Some(number(&flag, &value()?)?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((select(&artefact)?, opts))
}

/// Exits 2 with one `repro: <what>` line and the usage text.
fn bad_invocation(what: String) -> ! {
    eprint!("repro: {what}\n{}", usage());
    std::process::exit(2)
}

fn main() {
    let (artefacts, opts) =
        parse(std::env::args().skip(1)).unwrap_or_else(|what| bad_invocation(what));
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        bad_invocation(format!("cannot create --out {}: {e}", opts.out.display()));
    }
    let mut run = Run {
        opts,
        snapshot: None,
        degraded: false,
    };
    for a in artefacts {
        let text = (a.render)(&mut run);
        println!("=== {} ===\n{text}", a.name);
        write_out(&run.opts.out, a.name, &text);
    }
    // The peak after each stage of the snapshot's build, then the
    // process's peak, reached by the end of the artefacts.
    for (stage, mb) in run.snapshot.iter().flat_map(|s| &s.stage_peaks) {
        eprintln!("[repro] peak resident set after {stage}: {mb:.1} MB");
    }
    if let Some(mb) = peak_rss_mb() {
        eprintln!("[repro] peak resident set: {mb:.1} MB (after the artefacts)");
    }
    if run.degraded {
        eprintln!("[repro] one or more artefacts were degraded (see DEGRADED lines above)");
        std::process::exit(1);
    }
}

impl Run {
    fn snap(&mut self) -> &Snapshot {
        let Options { scale, seed, .. } = self.opts;
        self.snapshot.get_or_insert_with(|| {
            eprintln!("[repro] building snapshot (scale {scale:?}, seed {seed}) …");
            let snap = Snapshot::build(scale, seed);
            eprintln!(
                "[repro] snapshot ready: {} observations from {} engine events ({} of {} ASes \
                 are unread leaves; deliveries to them are counted, not simulated)",
                snap.observations.observations.len(),
                snap.flood.events,
                snap.unread_ases,
                snap.topo.len()
            );
            snap
        })
    }
}

fn write_out(dir: &Path, name: &str, text: &str) {
    let path = dir.join(format!("{name}.txt"));
    std::fs::write(&path, text).expect("write artefact output");
    eprintln!("[repro] wrote {}", path.display());
}

fn table1(snap: &Snapshot) -> String {
    DatasetOverview::compute(&snap.observations).render()
}

fn table2(snap: &Snapshot) -> String {
    let analysis =
        PropagationAnalysis::compute(&snap.observations, &BlackholeDetector::conventional());
    render_table2(&analysis.table2)
}

/// Fig 3: yearly snapshots with a community-adoption growth model —
/// more ASes, more tagging, more services each year.
fn fig3(opts: &Options) -> String {
    let mut series = Vec::new();
    for year in (2010..=2018).step_by(1) {
        let i = (year - 2010) as f64;
        let topo = TopologyParams::small()
            .seed(opts.seed + year as u64)
            .stubs(60 + (i as usize) * 14)
            .transits(14 + (i as usize) * 2);
        let params = WorkloadParams {
            origin_tag_prob: 0.18 + 0.045 * i,
            location_tag_prob: 0.10 + 0.025 * i,
            class_tag_prob: 0.15 + 0.032 * i,
            blackhole_service_prob: 0.15 + 0.04 * i,
            steering_service_prob: 0.12 + 0.03 * i,
            churn_rounds: 2,
            ..WorkloadParams::default()
        };
        // Build a full mini-snapshot for the year.
        let topo = topo.build();
        let alloc = bgpworms_topology::PrefixAllocation::assign(
            &topo,
            bgpworms_topology::addressing::AddressingParams { seed: opts.seed },
        );
        let workload = bgpworms_routesim::Workload::generate(&topo, &alloc, &params);
        let set = Snapshot::simulate(topo, alloc, workload).observations;
        series.push(SnapshotStats::compute(&year.to_string(), &set));
    }
    let mut out = render_series(&series);
    let first = series.first().expect("9 years");
    let last = series.last().expect("9 years");
    let _ = writeln!(
        out,
        "\ngrowth 2010 → 2018: unique communities ×{:.1}, ASes in communities ×{:.1}, \
         absolute ×{:.1}",
        last.unique_communities as f64 / first.unique_communities.max(1) as f64,
        last.unique_asns_in_communities as f64 / first.unique_asns_in_communities.max(1) as f64,
        last.absolute_communities as f64 / first.absolute_communities.max(1) as f64,
    );
    out
}

fn fig4a(snap: &Snapshot) -> String {
    let usage = UsageAnalysis::compute(&snap.observations);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "overall fraction of updates with >=1 community: {:.1}%",
        usage.overall_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "fraction with more than two communities: {:.1}%\n",
        usage.fraction_more_than(2) * 100.0
    );
    let _ = writeln!(out, "per-platform ECDF over collectors (sorted fractions):");
    for (platform, fractions) in usage.fig4a_series() {
        let pts: Vec<String> = fractions.iter().map(|f| format!("{:.2}", f)).collect();
        let _ = writeln!(out, "  {platform:>4}: [{}]", pts.join(", "));
    }
    out
}

fn fig4b(snap: &Snapshot) -> String {
    let usage = UsageAnalysis::compute(&snap.observations);
    let mut out = String::new();
    let grid = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0];
    let _ = writeln!(out, "x\tF_communities(x)\tF_assoc_ases(x)");
    for &x in &grid {
        let _ = writeln!(
            out,
            "{x}\t{:.3}\t{:.3}",
            usage.communities_per_update.fraction_at(x),
            usage.asns_per_update.fraction_at(x)
        );
    }
    out
}

fn fig5a(snap: &Snapshot) -> String {
    let analysis =
        PropagationAnalysis::compute(&snap.observations, &BlackholeDetector::conventional());
    let all = analysis.fig5a_all();
    let bh = analysis.fig5a_blackhole();
    let mut out = String::new();
    let _ = writeln!(out, "hops\tF_all(x)\tF_blackhole(x)");
    for hops in 0..=11u32 {
        let x = f64::from(hops);
        let _ = writeln!(
            out,
            "{hops}\t{:.3}\t{:.3}",
            all.fraction_at(x),
            bh.fraction_at(x)
        );
    }
    let _ = writeln!(out, "\nsamples: all={} blackhole={}", all.len(), bh.len());
    // The paper's framing: "almost 50 % of the communities travel more than
    // four hops (the mean hop length of all announcements)". Our synthetic
    // Internet has shorter paths, so compare against *its* mean.
    let mean_len: f64 = {
        let lens: Vec<usize> = snap
            .observations
            .announcements()
            .map(|o| o.path().len())
            .collect();
        lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64
    };
    // An empty sample has no share, as it has no median below.
    let beyond = |ecdf: &Ecdf| {
        if ecdf.is_empty() {
            return "n/a".to_string();
        }
        format!("{:.1}%", (1.0 - ecdf.fraction_at(mean_len - 1.0)) * 100.0)
    };
    let _ = writeln!(
        out,
        "mean AS-path length: {mean_len:.2}; communities travelling at least that far: \
         all={}  blackhole={}",
        beyond(&all),
        beyond(&bh)
    );
    let _ = writeln!(
        out,
        "median distance: all={:?}  blackhole={:?}  (blackhole travels less far: {})",
        all.quantile(0.5),
        bh.quantile(0.5),
        match (all.quantile(0.5), bh.quantile(0.5)) {
            (Some(a), Some(b)) => (b <= a).to_string(),
            _ => "n/a".to_string(),
        }
    );
    out
}

fn fig5b(snap: &Snapshot) -> String {
    let analysis =
        PropagationAnalysis::compute(&snap.observations, &BlackholeDetector::conventional());
    let per_len = analysis.fig5b();
    let mut out = String::new();
    let _ = writeln!(out, "path_len\tn\tF(0.3)\tF(0.5)\tF(0.7)\tF(0.9)");
    for (len, ecdf) in per_len.iter().filter(|(l, _)| (3..=10).contains(*l)) {
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
    out
}

fn fig5c(snap: &Snapshot) -> String {
    let tv = TopValues::compute(&snap.observations);
    let mut out = tv.render(10);
    let _ = writeln!(
        out,
        "\n666 in off-path top-10 but not on-path top-10: {}",
        tv.blackhole_asymmetry(10)
    );
    out
}

fn fig6(snap: &Snapshot) -> String {
    let analysis = FilteringAnalysis::compute(&snap.observations);
    let mut out = String::new();
    let (fwd0, fil0) = analysis.fractions(0);
    let (fwd100, fil100) = analysis.fractions(100);
    let _ = writeln!(out, "edges with indications: {}", analysis.edges.len());
    let _ = writeln!(
        out,
        "fraction of edges with forwarding indications: {:.1}% (>=100 paths: {:.1}%)",
        fwd0 * 100.0,
        fwd100 * 100.0
    );
    let _ = writeln!(
        out,
        "fraction of edges with filtering indications:  {:.1}% (>=100 paths: {:.1}%)",
        fil0 * 100.0,
        fil100 * 100.0
    );
    let _ = writeln!(
        out,
        "strict forwarders: {}  strict filterers: {}  mixed: {}",
        analysis.strict_forwarders().count(),
        analysis.strict_filterers().count(),
        analysis.mixed().count()
    );
    let _ = writeln!(
        out,
        "\nhexbin (log10(filtered+1), log10(forwarded+1)) -> edges:"
    );
    for ((x, y), n) in analysis.hexbin(2) {
        let _ = writeln!(out, "  bin({x},{y})\t{n}");
    }
    out
}

fn transit(snap: &Snapshot) -> String {
    let analysis =
        PropagationAnalysis::compute(&snap.observations, &BlackholeDetector::conventional());
    format!(
        "transit ASes forwarding foreign communities: {} of {} ({:.1}%)\n",
        analysis.forwarders.len(),
        analysis.transit_ases.len(),
        analysis.forwarder_fraction() * 100.0
    )
}

fn lab_matrix() -> String {
    let mut out = String::new();
    for finding in lab::run_all() {
        let _ = writeln!(out, "{finding}");
    }
    out
}

fn table3() -> String {
    feasibility::render(&feasibility::assess_all())
}

/// The topology for artefacts whose per-candidate search loops make
/// anything past medium scale impractically slow: the requested scale is
/// honoured up to medium and **capped** (with a stderr note, so output is
/// never silently mislabeled) beyond it.
fn capped_at_medium(scale: Scale) -> TopologyParams {
    if matches!(scale, Scale::Large | Scale::Internet) {
        eprintln!(
            "[repro] note: this artefact caps at medium scale (~1.7K ASes); \
             requested {scale:?} applies only to scale-independent artefacts"
        );
        return Scale::Medium.topology();
    }
    scale.topology()
}

fn wild_params(opts: &Options) -> (TopologyParams, WorkloadParams) {
    let scale = capped_at_medium(opts.scale);
    (
        scale.seed(opts.seed),
        WorkloadParams {
            seed: opts.seed,
            // The paper selected targets that actually offer the relevant
            // community services; a denser service population plays the
            // same role in the generated Internet.
            blackhole_service_prob: 0.7,
            steering_service_prob: 0.6,
            ..WorkloadParams::default()
        },
    )
}

fn wild_propagation(opts: &Options) -> String {
    let (tp, wp) = wild_params(opts);
    let report = wild::propagation_check::run(&tp, &wp);
    format!(
        "research network: {} forwarders / {} ASes on paths ({:.1}%)\n\
         PEERING platform: {} forwarders / {} ASes on paths ({:.1}%)\n",
        report.research.forwarders.len(),
        report.research.ases_on_paths.len(),
        report.research.forwarder_fraction() * 100.0,
        report.peering.forwarders.len(),
        report.peering.ases_on_paths.len(),
        report.peering.forwarder_fraction() * 100.0,
    )
}

fn wild_rtbh(opts: &Options) -> String {
    let (tp, wp) = wild_params(opts);
    let mut out = String::new();
    for hijack in [false, true] {
        match wild::rtbh_experiment::run(&tp, &wp, hijack, 100) {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "{} variant: target {} ({} hops away) blackholed={} \
                     responsive {} -> {} ({} VPs lost / {})",
                    if hijack { "hijack" } else { "non-hijack" },
                    r.target,
                    r.target_distance,
                    r.target_blackholed,
                    r.responsive_before,
                    r.responsive_after,
                    r.lost_vps.len(),
                    r.total_vps,
                );
            }
            None => {
                let _ = writeln!(out, "hijack={hijack}: no suitable target found");
            }
        }
    }
    out
}

fn wild_steering(opts: &Options) -> String {
    let (tp, wp) = wild_params(opts);
    match wild::steering_experiment::run(&tp, &wp) {
        Some(r) => format!(
            "target {} via intermediate {}\n\
             prepend: {}/{} collector observations show the target prepended\n\
             local-pref at target: {} -> {}\n",
            r.target,
            r.intermediate,
            r.prepended_observations,
            r.total_observations,
            r.local_pref_before,
            r.local_pref_after,
        ),
        None => "no steering path found\n".to_string(),
    }
}

fn wild_routeserver(opts: &Options) -> String {
    let (tp, wp) = wild_params(opts);
    match wild::routeserver_experiment::run(&tp, &wp) {
        Some(r) => format!(
            "route server {}  attackee {}\n\
             route present with announce-to community: {}\n\
             route absent after conflicting suppress community: {}\n\
             attack succeeded: {}\n",
            r.route_server,
            r.attackee,
            r.route_present_before,
            r.route_absent_after,
            r.succeeded(),
        ),
        None => "no route server found\n".to_string(),
    }
}

/// §9 future agenda: passive attack inference scored on a labeled run
/// (benign workload + injected attacks of all five classes), plus the
/// behavioural dictionary inference scored against ground truth.
fn infer(opts: &Options) -> String {
    use bgpworms_monitor::{groundtruth, report, DictionaryInference, Monitor};

    let (topo, workload) = wild_params(opts);
    let run = groundtruth::build(&groundtruth::LabeledRunParams {
        topo,
        workload,
        seed: opts.seed,
        per_kind: 3,
    });
    let filters = bgpworms_core::FilteringAnalysis::compute(&run.observations);
    let monitor = Monitor::new(&run.observations, &run.truth_dict)
        .with_filters(&filters)
        .with_topology(&run.topo);
    let alerts = monitor.run();
    let eval = groundtruth::evaluate(&run, &alerts);

    let mut out = report::render_detection(&run, &alerts, &eval);
    let _ = writeln!(out, "\nalerts:");
    for a in alerts.iter().take(25) {
        let _ = writeln!(out, "  {a}");
    }

    let (inferred, _) = DictionaryInference.infer(&run.observations);
    let dict_eval =
        bgpworms_monitor::DictionaryEval::compare(&inferred, &run.truth_dict, &run.observations);
    let _ = writeln!(out, "\nbehavioural dictionary inference vs ground truth:");
    out.push_str(&report::render_dictionary_eval(&dict_eval));
    out
}

/// §4.4 future work: correlate per-edge filter/forward indications with the
/// business relationship of the edge. The paper found CAIDA's three-way
/// classes "too coarse grained … for a conclusive picture"; with ground
/// truth we can quantify how much signal the classification carries.
fn filter_relationships(snap: &Snapshot) -> String {
    use bgpworms_core::{RelClass, RelationshipCorrelation};
    use bgpworms_topology::Role;

    let analysis = FilteringAnalysis::compute(&snap.observations);
    let topo = &snap.topo;
    let corr = RelationshipCorrelation::compute(&analysis, |exporter, importer| {
        // role_of(a, b) = b's role from a's point of view.
        match topo.role_of(exporter, importer) {
            Some(Role::Customer) => Some(RelClass::ToCustomer),
            Some(Role::Provider) => Some(RelClass::ToProvider),
            Some(Role::Peer) => Some(RelClass::Peer),
            // Members of a shared IXP reach each other through the
            // transparent route server: effectively peering.
            None if topo.shared_ixp(exporter, importer).is_some() => Some(RelClass::Peer),
            None => None,
        }
    });
    let mut out = corr.render();
    let _ = writeln!(
        out,
        "\n(the paper's CAIDA classification was 'too coarse grained to allow for a \
         conclusive picture'; the simulator's Selective policies are per-class, so the \
         residual class signal above is the maximum such a correlation can extract)"
    );
    out
}

/// Footnote-1 future work: the RFC 8092 large-community channel. A tenth of
/// the stubs get 4-byte ASNs; the adoption sweep shows informational signal
/// moving out of anonymous private-ASN bundles into attributable large
/// communities as adoption grows.
fn large_communities(opts: &Options) -> String {
    let mut out = String::new();
    let scale_topo = capped_at_medium(opts.scale);
    let _ = writeln!(
        out,
        "adoption  w/ large  large-frac  4B-owners  private-bundle-frac  private-owners"
    );
    let _ = writeln!(
        out,
        "------------------------------------------------------------------------------"
    );
    let mut analysis = None;
    for adoption in [0.0, 0.5, 1.0] {
        let params = WorkloadParams {
            seed: opts.seed,
            large_community_adoption: adoption,
            ..WorkloadParams::default()
        };
        let snap =
            Snapshot::build_custom(scale_topo.clone().four_byte_stubs(0.10), opts.seed, &params);
        let analysis = analysis.insert(bgpworms_core::LargeCommunityAnalysis::compute(
            &snap.observations,
        ));
        let _ = writeln!(
            out,
            "{adoption:>8.1}  {:>8}  {:>9.1}%  {:>9}  {:>18.1}%  {:>14}",
            analysis.with_large,
            analysis.large_fraction() * 100.0,
            analysis.four_byte_owners.len(),
            analysis.private_bundle_fraction() * 100.0,
            analysis.private_bundle_owners.len(),
        );
    }
    // The sweep ends at full adoption.
    let _ = writeln!(out, "\nfull-adoption detail:");
    out.push_str(&analysis.expect("the sweep ran").render());
    out
}

/// §8 monitoring: community-hygiene report over the standard snapshot.
fn hygiene(snap: &Snapshot) -> String {
    use bgpworms_monitor::{report, CommunityDictionary, HygieneReport};
    let dict = CommunityDictionary::from_workload(snap.workload.configs.values());
    let report_data = HygieneReport::compute(&snap.observations, &dict, 3);
    report::render_hygiene(&report_data, 10)
}

fn survey_params(opts: &Options) -> wild::survey::SurveyParams {
    let (tp, wp) = wild_params(opts);
    wild::survey::SurveyParams {
        topo: tp,
        workload: wp,
        n_vps: 200,
        max_communities: 307,
        verify_repeatability: true,
    }
}

/// §7.6 future work: the "likely" (unverified) corpus vs the verified one.
fn survey_likely(opts: &Options) -> String {
    let report = wild::extended_survey::likely_survey(&survey_params(opts));
    format!(
        "verified corpus: {} tested, {} effective ({:.1}%), {} VPs affected\n\
         likely corpus:   {} tested, {} effective ({:.1}%), {} VPs affected\n\
         verification lift: {:.1}x\n",
        report.verified.tested,
        report.verified.effective,
        report.verified.effective_fraction() * 100.0,
        report.verified.affected_vps.len(),
        report.likely.tested,
        report.likely.effective,
        report.likely.effective_fraction() * 100.0,
        report.likely.affected_vps.len(),
        if report.likely.effective_fraction() > 0.0 {
            report.verified.effective_fraction() / report.likely.effective_fraction()
        } else {
            f64::INFINITY
        },
    )
}

/// §7.6 limitations, automated: non-RTBH communities detected by per-VP
/// path diffs rather than the binary reachability test.
fn survey_steering(opts: &Options) -> String {
    let report = wild::extended_survey::steering_survey(&survey_params(opts));
    let mut out = format!(
        "prepend communities tested: {}  with visible path change: {} ({:.1}%)\n\
         reachability lost during steering tests: {} (steering is invisible to \
         the binary ping test)\n\nper-community changed vantage points (top 10):\n",
        report.tested,
        report.effective.len(),
        report.effective_fraction() * 100.0,
        report.reachability_lost,
    );
    let mut rows: Vec<_> = report.effective.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (c, changed) in rows.into_iter().take(10) {
        let _ = writeln!(out, "  {c}\t{changed} / {} VPs re-routed", report.total_vps);
    }
    out
}

/// §7.7: contradictory location communities observed at collectors.
fn survey_location(opts: &Options) -> String {
    match wild::extended_survey::location_injection(&survey_params(opts)) {
        Some(r) => format!(
            "injected: {} and {} (different owners — 'different continents')\n\
             collectors observing the prefix: {} of {}\n\
             collectors seeing the contradiction intact: {}\n",
            r.injected[0],
            r.injected[1],
            r.collectors_observing,
            r.total_collectors,
            r.collectors_with_contradiction,
        ),
        None => "no location-tagging ASes in this workload\n".to_string(),
    }
}

/// Ablation: the two router-level rules DESIGN.md calls out as load-bearing
/// for blackhole attacks.
fn ablation_rtbh_preference() -> String {
    use bgpworms_attacks::ablation;
    let mut out = ablation::render(
        "RTBH local-pref raise (§7.3 'generally preferred even when the attacking \
         AS path is longer'):",
        &ablation::rtbh_preference(),
    );
    out.push('\n');
    out.push_str(&ablation::render(
        "Validation order (§6.3 NANOG-tutorial route-map):",
        &ablation::validation_order(),
    ));
    out
}

/// The headline statistics one sweep point averages over `seeds` snapshots
/// of the small topology, seeded `opts.seed`, `opts.seed + 1`, …: the
/// transit-forwarder share, the share of updates with communities, and the
/// mean propagation distance (Fig 5a). The small topology, whatever
/// `--scale` says, keeps a grid of full snapshot builds tractable.
fn headline_means(opts: &Options, seeds: u64, params: impl Fn(u64) -> WorkloadParams) -> [f64; 3] {
    use bgpworms_core::{PropagationAnalysis, UsageAnalysis};

    let mut sums = [0.0; 3];
    for seed in opts.seed..opts.seed + seeds {
        let snap = Snapshot::build_custom(TopologyParams::small(), seed, &params(seed));
        let prop =
            PropagationAnalysis::compute(&snap.observations, &BlackholeDetector::conventional());
        sums[0] += prop.forwarder_fraction();
        sums[1] += UsageAnalysis::compute(&snap.observations).overall_fraction;
        let ecdf = prop.fig5a_all();
        let n = ecdf.len() as f64;
        if n > 0.0 {
            // The mean from the step points.
            let mut prev = 0.0;
            let mut sum = 0.0;
            for (x, f) in ecdf.points() {
                sum += x * (f - prev) * n;
                prev = f;
            }
            sums[2] += sum / n;
        }
    }
    sums.map(|sum| sum / seeds as f64)
}

/// Ablation: sweep the share of forward-all ASes in the policy mix and
/// watch the paper's headline statistics move — they are emergent, not
/// hard-coded.
fn ablation_forward_prob(opts: &Options) -> String {
    use bgpworms_routesim::PolicyMix;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "forward-all  transit-forwarders  updates-w-communities  mean-distance"
    );
    let _ = writeln!(
        out,
        "------------------------------------------------------------------------"
    );
    for forward_all in [0.1, 0.25, 0.40, 0.55, 0.70] {
        // Re-normalize the remaining mass over the other behaviours in the
        // default proportions.
        let rest = 1.0 - forward_all;
        let d = PolicyMix::default();
        let base_rest = d.strip_all + d.strip_own + d.strip_unknown + d.selective;
        let mix = PolicyMix {
            forward_all,
            strip_all: d.strip_all / base_rest * rest,
            strip_own: d.strip_own / base_rest * rest,
            strip_unknown: d.strip_unknown / base_rest * rest,
            selective: d.selective / base_rest * rest,
        };
        // Average over three seeds: the small topology has only ~24
        // transits, so a single draw of the policy assignment is noisy.
        let [fwd, usage, distance] = headline_means(opts, 3, |seed| WorkloadParams {
            seed,
            mix,
            ..WorkloadParams::default()
        });
        let _ = writeln!(
            out,
            "{forward_all:>11.2}  {:>17.1}%  {:>20.1}%  {distance:>13.2}",
            fwd * 100.0,
            usage * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "\n(the measured forwarder fraction and propagation distances move with the \
         configured mix — the 14 % headline is a calibration point of PolicyMix, \
         not an assumption baked into the analysis)"
    );
    out
}

/// The §8 defense ("AS1 should send to AS2 only communities of the form
/// 2:xxx"), evaluated two ways: scenario-level (what it blocks and what it
/// cannot block) and measurement-level (what global adoption does to the
/// paper's headline statistics).
fn defense_adoption(opts: &Options) -> String {
    use bgpworms_attacks::ablation;

    let mut out = ablation::render(
        "Scenario level — a 5-AS provider chain, attacker two hops from the victim:",
        &ablation::scoped_defense(),
    );
    let _ = writeln!(
        out,
        "\nMeasurement level — global adoption sweep (small topology, 2-seed average):\n"
    );
    let _ = writeln!(
        out,
        "adoption  transit-forwarders  updates-w-communities  mean-distance"
    );
    let _ = writeln!(
        out,
        "----------------------------------------------------------------------"
    );
    for adoption in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let [fwd, usage, distance] = headline_means(opts, 2, |seed| WorkloadParams {
            seed,
            scoped_defense_adoption: adoption,
            ..WorkloadParams::default()
        });
        let _ = writeln!(
            out,
            "{adoption:>8.2}  {:>17.1}%  {:>20.1}%  {distance:>13.2}",
            fwd * 100.0,
            usage * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "\n(the defense confines communities to one hop beyond their tagger: \
         propagation distance and transit relaying collapse with adoption, while \
         the collector carve-out keeps direct-peer communities measurable; the \
         adjacent-hop case shows why authentication — not scoping — is the real \
         fix, as §8 argues)"
    );
    out
}

/// Ablation: sweep the Cisco fraction (§6.1: Cisco needs explicit
/// send-community) and watch collector-visible community coverage move.
fn ablation_vendor_mix(opts: &Options) -> String {
    use bgpworms_core::UsageAnalysis;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "cisco-fraction  send-community-prob  updates-w-communities"
    );
    let _ = writeln!(
        out,
        "--------------------------------------------------------------"
    );
    for (cisco, send_prob) in [
        (0.0, 1.0),
        (0.5, 0.85),
        (0.5, 0.5),
        (1.0, 0.85),
        (1.0, 0.25),
    ] {
        let params = WorkloadParams {
            seed: opts.seed,
            cisco_fraction: cisco,
            cisco_send_community_prob: send_prob,
            ..WorkloadParams::default()
        };
        let snap = Snapshot::build_custom(TopologyParams::small(), opts.seed, &params);
        let usage = UsageAnalysis::compute(&snap.observations);
        let _ = writeln!(
            out,
            "{cisco:>14.2}  {send_prob:>19.2}  {:>20.1}%",
            usage.overall_fraction * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\n(more silent-by-default Cisco sessions ⇒ fewer communities observable — \
         §6.1's default-behaviour finding at measurement scale)"
    );
    out
}

/// The flood-memoized full-table campaign: every allocated prefix of the
/// scale's Internet (deaggregated to table-realistic size), one streamed
/// run. Unlike the passive-snapshot artefacts this honours
/// `--scale internet` un-capped — flood memoization is what makes that
/// tractable — and `--sample N` keeps ~N prefixes (whole origins at a
/// time) for a quick look.
fn full_table_campaign(opts: &Options, degraded: &mut bool) -> String {
    use bgpworms_core::table::{pct, ratio, thousands};
    use bgpworms_topology::{addressing::AddressingParams, FullTableParams, PrefixAllocation};

    let built;
    let topo = if matches!(opts.scale, Scale::Internet) {
        TopologyParams::internet_cached()
    } else {
        built = opts.scale.topology().seed(opts.seed).build();
        &built
    };
    eprintln!(
        "[repro] full-table campaign over {} ASes (scale {:?}) …",
        topo.len(),
        opts.scale
    );
    let alloc = PrefixAllocation::assign(topo, AddressingParams { seed: opts.seed })
        .deaggregate(topo, FullTableParams { seed: opts.seed });
    let workload = bgpworms_routesim::Workload::policies(
        topo,
        &alloc,
        &WorkloadParams {
            seed: opts.seed,
            ..WorkloadParams::default()
        },
    );
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let report = wild::full_table::run_full_table(&workload, topo, &alloc, opts.sample, threads);
    let run = &report.run;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "table: {} prefixes over {} ASes{}",
        thousands(report.prefixes() as u64),
        thousands(topo.len() as u64),
        match opts.sample {
            Some(n) => format!(" (origin-preserving sample, target {n})"),
            None => String::new(),
        }
    );
    let _ = writeln!(
        out,
        "flood classes: {} — {} floods simulated, {} replayed",
        thousands(report.classes() as u64),
        thousands(run.class_sims),
        thousands(run.class_hits),
    );
    let _ = writeln!(
        out,
        "class-hit rate: {}  fold amplification: {} (prefixes folded per flood)",
        pct(report.hit_rate()),
        ratio(report.prefixes() as f64, report.classes() as f64),
    );
    let _ = writeln!(
        out,
        "engine events: {}  converged: {}",
        thousands(run.events),
        run.converged
    );
    let _ = writeln!(
        out,
        "collector observations: {} ({} still tagged, {})",
        thousands(run.sink.observations as u64),
        thousands(run.sink.tagged_observations as u64),
        pct(run.sink.tagged_observations as f64 / run.sink.observations.max(1) as f64),
    );
    if !run.diverged.is_empty() {
        *degraded = true;
        let _ = writeln!(out, "DEGRADED: {} prefix(es) diverged", run.diverged.len());
        for prefix in &run.diverged {
            let _ = writeln!(out, "diverged: {prefix} (event budget exhausted)");
        }
    }
    out
}

/// What the flood that made the snapshot's feed did, as the engine counts
/// it ([`Snapshot::flood`]), and how many of its prefixes their event budget
/// cut. Beside the engine's split of the collector updates it emitted, the
/// same split classified from the snapshot's feed
/// ([`bgpworms_core::UpdateSplit`]), which shares no code with the engine.
fn flood_stats(snap: &Snapshot) -> String {
    use bgpworms_core::UpdateSplit;
    use bgpworms_routesim::{router::ImportVerdict, UpdateKind};
    use bgpworms_routesim::{CloneSite, CopySite};

    let run = &snap.flood;
    let s = &run.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "floods: {} simulated, {} replayed (a replay counts the flood it stands for)",
        run.class_sims, run.class_hits
    );
    let cut = run.diverged.len();
    let _ = writeln!(out, "floods cut by their event budget: {cut}");
    let widths: Vec<String> = (s.dirty_width_log2.iter().enumerate())
        .filter(|(_, &n)| n > 0)
        .map(|(k, n)| format!("{}:{n}", 1u64 << k))
        .collect();
    let _ = writeln!(
        out,
        "rounds: {}  by dirty width (from): {}",
        s.rounds,
        widths.join(" ")
    );
    let _ = writeln!(
        out,
        "deliveries: {}  dropped at unread leaves: {}",
        s.deliveries, s.dropped_unread
    );
    let verdicts = [
        ("accepted", ImportVerdict::Accepted),
        ("loop", ImportVerdict::LoopRejected),
        ("validation", ImportVerdict::ValidationRejected),
        ("too specific", ImportVerdict::TooSpecific),
        ("withdrawn", ImportVerdict::Withdrawn),
    ];
    let admissions: Vec<String> = verdicts
        .iter()
        .map(|&(name, v)| format!("{name} {}", s.admissions[v as usize]))
        .collect();
    let _ = writeln!(out, "admissions: {}", admissions.join(", "));
    let _ = writeln!(out, "interns: {}  mints: {}", s.interns, s.mints);
    let sites = [
        ("import", CloneSite::Import),
        ("export", CloneSite::Export),
        ("route-server export", CloneSite::RouteServerExport),
        ("observation", CloneSite::Observation),
        ("retained final", CloneSite::RetainedFinal),
        ("snapshot clone", CloneSite::SnapshotClone),
    ];
    let clones: Vec<String> = sites
        .iter()
        .map(|&(name, site)| format!("{name} {}", s.handle_clones[site as usize]))
        .collect();
    let _ = writeln!(out, "handle clones: {}", clones.join(", "));
    let _ = writeln!(
        out,
        "  by replays of stored outcomes: {}",
        run.replay_clones
    );
    let sites = [
        ("import", CopySite::Import),
        ("export", CopySite::Export),
        ("route-server export", CopySite::RouteServerExport),
    ];
    let copies: Vec<String> = sites
        .iter()
        .map(|&(name, site)| format!("{name} {}", s.attr_copies[site as usize]))
        .collect();
    let _ = writeln!(out, "attribute copies: {}", copies.join(", "));
    let _ = writeln!(
        out,
        "export passes: {} run, {} skipped (best unchanged), {} slots scanned",
        s.passes, s.passes_skipped, s.slots_scanned
    );
    let [customer, provider, peer] = s.memo_hits;
    let _ = writeln!(
        out,
        "memo hits: customer {customer}, provider {provider}, peer {peer}  \
         exports suppressed (unchanged): {}",
        s.exports_suppressed
    );
    let _ = writeln!(
        out,
        "collector sessions evaluated: {}  nodes touched: {}",
        s.sessions_evaluated, s.nodes_touched
    );

    let feed = UpdateSplit::compute(&snap.observations);
    let _ = writeln!(out, "\ncollector updates   engine      feed");
    let kinds = [
        ("first", UpdateKind::First, feed.first),
        ("path change", UpdateKind::PathChange, feed.path_change),
        (
            "community-only",
            UpdateKind::CommunityOnly,
            feed.community_only,
        ),
        ("duplicate", UpdateKind::Duplicate, feed.duplicate),
        ("withdrawal", UpdateKind::Withdrawal, feed.withdrawal),
    ];
    for (name, kind, read) in kinds {
        let counted = s.updates[kind as usize];
        let _ = writeln!(out, "  {name:<16}{counted:>8}  {read:>8}");
    }
    out
}

fn blackhole_survey(opts: &Options) -> String {
    let report = wild::survey::run(&survey_params(opts));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "communities tested: {}  effective: {} ({:.1}%)",
        report.communities_tested,
        report.effective.len(),
        report.effective_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "vantage points affected: {} of {} ({:.1}%)",
        report.affected_vps.len(),
        report.total_vps,
        report.affected_vp_fraction() * 100.0
    );
    let _ = writeln!(out, "second round identical: {:?}", report.repeatable);
    let _ = writeln!(
        out,
        "hop distance of effective communities (0 = not on path):"
    );
    for (hops, n) in &report.hop_distribution {
        let _ = writeln!(out, "  {hops} hops\t{n} community-VP pairs");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selected(artefact: &str) -> Vec<&'static str> {
        let rows = select(artefact).expect("known artefact");
        rows.iter().map(|a| a.name).collect()
    }

    #[test]
    fn names_are_unique_and_all_in_the_usage_text() {
        let usage = usage();
        for (i, a) in ARTEFACTS.iter().enumerate() {
            assert!(
                ARTEFACTS[..i].iter().all(|b| b.name != a.name),
                "{} is in the table twice",
                a.name
            );
            assert!(
                usage.contains(&format!("\n  {} ", a.name)),
                "{} missing from usage",
                a.name
            );
        }
    }

    #[test]
    fn all_is_the_in_all_rows_in_table_order_without_full_table() {
        let in_all: Vec<_> = ARTEFACTS
            .iter()
            .filter(|a| a.in_all)
            .map(|a| a.name)
            .collect();
        assert_eq!(selected("all"), in_all);
        assert_eq!(in_all.len(), ARTEFACTS.len() - 1);
        assert!(!in_all.contains(&"full-table"));
    }

    #[test]
    fn unknown_artefact_is_named_in_the_error() {
        let err = select("tabel1").err().expect("not in the table");
        assert!(err.contains("tabel1"), "{err}");
    }
}
