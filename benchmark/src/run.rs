//! The run loop every workload goes through, and what it measures.
//!
//! A run is `C` set-up cycles — build the world from nothing, then one
//! warm-up pass on it — followed by the workload's `P` timed passes on the
//! last cycle's world; `--seconds` caps the timed passes, never below five.
//! One thread, one pass at a time (a closed loop with one client). Every
//! pass must produce the same counts and digests as every other; that, the
//! workload's own equivalence checks and the pinned counters of
//! `expected/<seed>.json` decide `correct`.
//!
//! The traced run (`--trace 1`) sets up once with the tracer on, then
//! alternates untraced and traced passes and runs the workload's probes;
//! per-layer times are medians over the traced passes.

use crate::trace::{self, Span, Tracer, ROOT};
use crate::workloads::{Counters, PassOutput, Samples, Workload};
use crate::{clock, expected, host, stats};
use std::collections::BTreeMap;

/// Set-up cycles of a run (`C`).
const CYCLES: usize = 3;
/// Timed passes of a run that `--seconds` cut short, at least.
const MIN_PASSES: usize = 5;
/// Traced (and interleaved untraced) passes of the traced run.
const TRACED_PASSES: usize = 5;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes to measure, at most.
    pub seconds: f64,
    /// Hardware threads of the machine (before the process was pinned to
    /// one of them).
    pub nproc: usize,
    /// Traced run.
    pub traced: bool,
    /// Compare the run's counters with `expected/<seed>.json`; off while
    /// that file is being written.
    pub check_expected: bool,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// What a work unit of the workload is.
    pub unit: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Traced run.
    pub traced: bool,
    /// Why `correct` is false; empty when it is true.
    pub problems: Vec<String>,
    /// Units per pass × timed passes.
    pub attempted: u64,
    /// Units whose check failed, over the timed passes.
    pub failed: u64,
    /// Metric values by name, in the unit `metrics.rs` gives.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Wall seconds of each timed (untraced) pass.
    pub passes: Vec<f64>,
    /// Wall seconds of each set-up cycle.
    pub setups: Vec<f64>,
    /// Exact counts and digests of the run.
    pub counters: Counters,
    /// Spans of the traced passes, one list per pass.
    pub spans: Vec<Vec<Span>>,
    /// Share of a traced pass each layer's self time takes (median over
    /// the traced passes); `pass` is what no span covers.
    pub layer_share: BTreeMap<&'static str, f64>,
}

impl Report {
    /// True when every output check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Checks a pass against the reference output. The warm-up may report
/// fewer counters than a pass; what it reports must agree.
fn agree(reference: &PassOutput, other: &PassOutput, what: &str, problems: &mut Vec<String>) {
    if reference.units != other.units {
        problems.push(format!(
            "{what}: {} units, the reference pass had {}",
            other.units, reference.units
        ));
    }
    for (name, value) in &other.counters {
        match reference.counters.get(name) {
            Some(v) if v == value => {}
            Some(v) => problems.push(format!("{what}: {name} = {value}, reference pass {v}")),
            None => problems.push(format!("{what}: {name} is not in the reference pass")),
        }
    }
}

/// Runs workload `W`.
pub fn run<W: Workload>(opts: Options) -> Report {
    let nproc = opts.nproc;
    let load = host::loadavg1();
    if load > nproc as f64 {
        eprintln!(
            "warning: load average {load} exceeds {nproc} hardware threads; timings will be noisy"
        );
    }
    let mut report = Report {
        workload: W::NAME,
        unit: W::UNIT,
        seed: opts.seed,
        traced: opts.traced,
        ..Report::default()
    };
    let mut tracer = if opts.traced {
        Tracer::on()
    } else {
        Tracer::off()
    };

    // Set-up cycles. The previous world is dropped before the next is
    // built, so peak memory is one world's.
    let cycles = if opts.traced { 1 } else { CYCLES };
    let mut world = None;
    let mut warm_ups = Vec::new();
    for _ in 0..cycles {
        drop(world.take());
        let start = clock::now();
        let built = W::prepare(opts.seed, &mut tracer);
        warm_ups.push(tracer.span(ROOT, |t| built.warm_up(t)));
        report.setups.push(start.elapsed().as_secs_f64());
        world = Some(built);
    }
    let world = world.expect("at least one set-up cycle");
    let setup_spans = tracer.take();

    // Timed passes.
    let mut off = Tracer::off();
    let mut outputs = Vec::new();
    let mut traced_secs = Vec::new();
    let timed = clock::now();
    loop {
        let (out, secs) = clock::time(|| world.pass(&mut off));
        outputs.push(out);
        report.passes.push(secs);
        if opts.traced {
            let (out, secs) = clock::time(|| tracer.span(ROOT, |t| world.pass(t)));
            outputs.push(out);
            traced_secs.push(secs);
            report.spans.push(tracer.take());
            if traced_secs.len() == TRACED_PASSES {
                break;
            }
        } else if report.passes.len() == W::PASSES
            || (report.passes.len() >= MIN_PASSES && timed.elapsed().as_secs_f64() >= opts.seconds)
        {
            break;
        }
    }

    // Output checks.
    let reference = outputs[0].clone();
    for (i, out) in outputs.iter().enumerate().skip(1) {
        agree(
            &reference,
            out,
            &format!("pass {}", i + 1),
            &mut report.problems,
        );
        if out.counters.len() != reference.counters.len() {
            report
                .problems
                .push(format!("pass {} reports fewer counters", i + 1));
        }
    }
    for (i, out) in warm_ups.iter().enumerate() {
        agree(
            &reference,
            out,
            &format!("warm-up {}", i + 1),
            &mut report.problems,
        );
    }
    let verified = world.verify();
    report.problems.extend(verified.problems);
    report.counters = world.world_counters();
    report.counters.extend(reference.counters.clone());
    report.counters.extend(verified.counters);
    report.counters.insert("units", reference.units);
    if opts.check_expected {
        report
            .problems
            .extend(expected::check(W::NAME, opts.seed, &report.counters));
    }

    let timed_outputs = outputs.len() as u64;
    report.attempted = reference.units * timed_outputs;
    report.failed = outputs.iter().map(|o| o.failed).sum::<u64>()
        + u64::from(!report.correct() && outputs.iter().all(|o| o.failed == 0));

    let mut samples = Samples::new();
    if opts.traced {
        world.probes(&mut samples);
    }
    drop(world);
    if opts.traced {
        report.layer_share = layer_share(&report.spans);
        report.metrics = per_layer(&report, &setup_spans, &traced_secs, &samples, nproc, load);
    } else {
        report.metrics = BTreeMap::from([
            ("pass_s", stats::second_fastest(&report.passes)),
            ("setup_s", stats::min(&report.setups)),
            (
                "peak_rss_mb",
                host::peak_rss_mb().unwrap_or_else(|e| {
                    report.problems.push(e);
                    0.0
                }),
            ),
        ]);
    }
    report
}

/// Per layer, the median over the traced passes of the share of the pass
/// its spans' self time takes.
fn layer_share(passes: &[Vec<Span>]) -> BTreeMap<&'static str, f64> {
    let mut shares: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for spans in passes {
        let Some(root) = spans.iter().find(|s| s.name == ROOT) else {
            continue;
        };
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, secs) in trace::self_times(spans) {
            *by_layer.entry(trace::layer_of(name)).or_insert(0.0) += secs;
        }
        for (layer, secs) in by_layer {
            shares
                .entry(layer)
                .or_default()
                .push(ratio(secs, root.end - root.start));
        }
    }
    shares
        .into_iter()
        .map(|(layer, v)| (layer, stats::median(&v)))
        .collect()
}

/// Median over the traced passes of the self time of spans named `name`;
/// for a span that only set-up opens, its self time there.
fn layer_seconds(
    name: &str,
    passes: &[BTreeMap<&'static str, f64>],
    setup: &BTreeMap<&'static str, f64>,
) -> f64 {
    let per_pass: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
    if per_pass.is_empty() {
        setup.get(name).copied().unwrap_or(0.0)
    } else {
        stats::median(&per_pass)
    }
}

/// Durations, in seconds, of every span named `name` in the traced passes.
fn span_durations(name: &str, passes: &[Vec<Span>]) -> Vec<f64> {
    passes
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run. A metric a workload does not
/// exercise reads 0.
fn per_layer(
    report: &Report,
    setup_spans: &[Span],
    traced_secs: &[f64],
    samples: &Samples,
    nproc: usize,
    load: f64,
) -> BTreeMap<&'static str, f64> {
    let setup = trace::self_times(setup_spans);
    let passes: Vec<_> = report.spans.iter().map(|s| trace::self_times(s)).collect();
    let seconds = |name: &str| layer_seconds(name, &passes, &setup);
    let count = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
    let sampled = |name: &str, p: f64| match samples.get(name) {
        Some(values) if !values.is_empty() => stats::percentile(values, p),
        _ => 0.0,
    };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for def in crate::metrics::PER_LAYER {
        // The two generic rules: `<span>_s` is that span's self time, and
        // a metric named like a counter is that count.
        let value = match def.name.strip_suffix("_s") {
            Some(span) if def.unit == "s" => seconds(span),
            _ => count(def.name),
        };
        m.insert(def.name, value);
    }

    // routesim: derived from the spans and counts above.
    m.insert(
        "routesim.ns_per_event",
        ratio(seconds("routesim.run") * 1e9, count("routesim.events")),
    );
    let (sims, hits) = (count("routesim.class_sims"), count("routesim.class_hits"));
    m.insert("routesim.class_hit_rate", ratio(hits, sims + hits));
    let campaign_s = seconds("routesim.campaign_run");
    m.insert("routesim.ms_per_flood", ratio(campaign_s * 1e3, sims));
    m.insert(
        "routesim.checkpoint_roundtrip_us",
        seconds("routesim.checkpoint_roundtrip") * 1e6,
    );
    // routesim: probes.
    let flood = sampled("routesim.flood_ms", 50.0);
    let flood_mt = sampled("routesim.flood_mt_ms", 50.0);
    let delta = sampled("routesim.delta_ms", 50.0);
    let campaign_mt = sampled("routesim.campaign_mt_s", 50.0);
    m.insert("routesim.flood_ms_p50", flood);
    m.insert("routesim.flood_ms_p90", sampled("routesim.flood_ms", 90.0));
    m.insert("routesim.flood_mt_ms_p50", flood_mt);
    m.insert("routesim.intra_flood_speedup", ratio(flood, flood_mt));
    m.insert("routesim.campaign_mt_s", campaign_mt);
    m.insert(
        "routesim.campaign_parallel_efficiency",
        ratio(campaign_s, campaign_mt * host::mt_threads() as f64),
    );
    m.insert(
        "routesim.snapshot_ms_p50",
        sampled("routesim.snapshot_ms", 50.0),
    );
    m.insert("routesim.delta_ms_p50", delta);
    m.insert("routesim.delta_ms_p90", sampled("routesim.delta_ms", 90.0));
    m.insert("routesim.delta_vs_fresh", ratio(delta, flood));
    m.insert(
        "routesim.replay_us_per_prefix",
        sampled("routesim.replay_us_per_prefix", 50.0),
    );

    // mrt and wire: throughputs and per-update costs.
    m.insert(
        "mrt.write_mb_per_s",
        ratio(
            count("mrt.bytes_written") / 1e6,
            seconds("routesim.archive"),
        ),
    );
    m.insert(
        "mrt.read_mb_per_s",
        ratio(count("mrt.update_bytes") / 1e6, seconds("mrt.read_raw")),
    );
    let updates = count("wire.updates");
    m.insert(
        "wire.decode_ns_per_update",
        ratio(seconds("wire.decode") * 1e9, updates),
    );
    m.insert(
        "wire.encode_ns_per_update",
        ratio(seconds("wire.encode") * 1e9, updates),
    );

    // dataplane: medians over the individual calls.
    for (metric, span, scale) in [
        ("dataplane.fib_with_ms_p50", "dataplane.fib_with", 1e3),
        (
            "dataplane.ping_campaign_ms_p50",
            "dataplane.ping_campaign",
            1e3,
        ),
        ("dataplane.trace_us_p50", "dataplane.trace", 1e6),
    ] {
        let durations = span_durations(span, &report.spans);
        let median = if durations.is_empty() {
            0.0
        } else {
            stats::median(&durations)
        };
        m.insert(metric, median * scale);
    }

    // The tracer itself, with the same estimator as `pass_s` on both sides,
    // and the host.
    let traced = stats::second_fastest(traced_secs);
    m.insert("trace.pass_s", traced);
    m.insert(
        "trace.overhead_ratio",
        ratio(traced, stats::second_fastest(&report.passes)),
    );
    m.insert(
        "trace.layer_coverage",
        1.0 - report.layer_share.get(ROOT).copied().unwrap_or(1.0),
    );
    m.insert(
        "trace.spans",
        ratio(
            report.spans.iter().map(Vec::len).sum::<usize>() as f64,
            report.spans.len() as f64,
        ),
    );
    m.insert("host.nproc", nproc as f64);
    m.insert("host.loadavg1", load);
    m
}
