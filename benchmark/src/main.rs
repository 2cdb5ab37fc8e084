//! The repo benchmark: one binary, four workloads, end-to-end metrics with
//! `--trace 0` and per-layer metrics with `--trace 1`. See `README.md` in
//! this directory for the commands, the workloads and how the metrics
//! interact, and `BENCHMARK.json` at the repo root for the declaration the
//! driver reads.
//!
//! ```text
//! bgpworms-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!                    [--out <file>] [--spans <file>]
//! bgpworms-benchmark --update-expected --seed <n> [--workload <name>]
//! bgpworms-benchmark --compare <A> <B>
//! ```
//!
//! A run starts itself again under `taskset` on one CPU and measures there
//! (see [`run_pinned`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod compare;
mod expected;
mod host;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Value;
use metrics::{END_TO_END, PER_LAYER};
use run::{Options, Report};
use std::io::Write as _;
use std::process::ExitCode;
use workloads::attacks::AttacksMedium;
use workloads::fulltable::FulltableLarge;
use workloads::monitor::MonitorMedium;
use workloads::repro::ReproMedium;
use workloads::Workload;

/// Seconds of timed passes one run measures at most; `BENCHMARK.json`
/// passes the same number as `--seconds`. On the box this was written on
/// the `P` passes of every workload end some seconds before it.
const RUN_SECONDS: u64 = 25;

/// Name and reason of every workload, in `BENCHMARK.json` order.
const WORKLOADS: [(&str, &str); 4] = [
    (ReproMedium::NAME, ReproMedium::WHY),
    (MonitorMedium::NAME, MonitorMedium::WHY),
    (FulltableLarge::NAME, FulltableLarge::WHY),
    (AttacksMedium::NAME, AttacksMedium::WHY),
];

fn run_workload(name: &str, opts: Options) -> Option<Report> {
    Some(match name {
        ReproMedium::NAME => run::run::<ReproMedium>(opts),
        MonitorMedium::NAME => run::run::<MonitorMedium>(opts),
        FulltableLarge::NAME => run::run::<FulltableLarge>(opts),
        AttacksMedium::NAME => run::run::<AttacksMedium>(opts),
        _ => return None,
    })
}

/// The metrics of a report as `{name: {value, unit}}`, in table order.
fn metrics_json(report: &Report) -> Value {
    let defs = if report.traced { PER_LAYER } else { END_TO_END };
    Value::obj(defs.iter().map(|d| {
        let value = report.metrics.get(d.name).copied().unwrap_or(0.0);
        (
            d.name,
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(d.unit.into())),
            ]),
        )
    }))
}

/// The result line the driver reads: exactly these four keys.
fn result_line(report: &Report) -> Value {
    Value::obj([
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.attempted as f64)),
        ("failed", Value::Num(report.failed as f64)),
        ("metrics", metrics_json(report)),
    ])
}

fn summary(samples: &[f64]) -> Value {
    Value::obj([
        ("n", Value::Num(samples.len() as f64)),
        ("min", Value::Num(stats::min(samples))),
        ("median", Value::Num(stats::median(samples))),
        ("max", Value::Num(stats::max(samples))),
        (
            "values",
            Value::Arr(samples.iter().copied().map(Value::Num).collect()),
        ),
    ])
}

/// The full report `--out` appends: the result line plus what explains it.
fn full_report(report: &Report) -> Value {
    let mut pairs = vec![
        ("workload".to_string(), Value::Str(report.workload.into())),
        ("unit".to_string(), Value::Str(report.unit.into())),
        ("seed".to_string(), Value::Num(report.seed as f64)),
        ("trace".to_string(), Value::Bool(report.traced)),
    ];
    pairs.extend(result_line(report).members().iter().cloned());
    pairs.push(("passes".into(), summary(&report.passes)));
    pairs.push(("setups".into(), summary(&report.setups)));
    pairs.push((
        "problems".into(),
        Value::Arr(report.problems.iter().cloned().map(Value::Str).collect()),
    ));
    if report.traced {
        pairs.push((
            "layer_share".into(),
            Value::obj(report.layer_share.iter().map(|(k, v)| (*k, Value::Num(*v)))),
        ));
    }
    pairs.push((
        "counters".into(),
        Value::obj(
            report
                .counters
                .iter()
                .map(|(k, v)| (*k, Value::Str(v.to_string()))),
        ),
    ));
    Value::Obj(pairs)
}

fn spans_json(report: &Report) -> Value {
    Value::Arr(
        report
            .spans
            .iter()
            .map(|pass| {
                Value::Arr(
                    pass.iter()
                        .map(|s| {
                            Value::obj([
                                ("name", Value::Str(s.name.into())),
                                ("start", Value::Num(s.start)),
                                ("end", Value::Num(s.end)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                                ),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    out: Option<String>,
    spans: Option<String>,
    update_expected: bool,
    compare: Option<(String, String)>,
    /// Set by [`run_pinned`] on the process it starts: the hardware threads
    /// the machine had before the pinning.
    pinned: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a name")?),
            "--seed" => {
                out.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--out" => out.out = Some(value("a file")?),
            "--spans" => out.spans = Some(value("a file")?),
            "--update-expected" => out.update_expected = true,
            "--compare" => out.compare = Some((value("two files")?, value("two files")?)),
            "--pinned" => {
                out.pinned = Some(
                    value("a thread count")?
                        .parse()
                        .map_err(|e| format!("--pinned: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Starts this program again with the same arguments under `taskset`, on
/// the last CPU it may use, waits for it and returns whether it succeeded;
/// `None` if there is only one CPU, no `taskset` or no permission to set
/// affinities, and the caller runs the workload itself.
///
/// On one CPU `std::thread::available_parallelism` is 1, which is the only
/// way to make the §7 entry points, `groundtruth::build` and every other
/// `Workload::simulation` default single-threaded from outside the crates,
/// as the rest of a run is; `SurveyContext::build`'s four hard-coded
/// workers then take turns on it. It also ends migrations between CPUs and
/// the second malloc arena: on the box this was written on, pass times,
/// set-up times and peak memory of `attacks-medium` all came out steadier
/// (README, "Noise").
fn run_pinned() -> Result<Option<bool>, String> {
    let cpus = host::allowed_cpus()?;
    let [_, .., cpu] = cpus[..] else {
        return Ok(None);
    };
    let pinned = |program: &std::ffi::OsStr| {
        let mut command = std::process::Command::new("taskset");
        command.arg("-c").arg(cpu.to_string()).arg(program);
        command
    };
    // A dry run tells a `taskset` that cannot pin from a workload that
    // failed.
    match pinned("true".as_ref()).status() {
        Ok(status) if status.success() => {}
        Ok(status) => {
            eprintln!(
                "warning: taskset: {status}; measuring on every CPU, timings will be noisier"
            );
            return Ok(None);
        }
        Err(e) => {
            eprintln!("warning: taskset: {e}; measuring on every CPU, timings will be noisier");
            return Ok(None);
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = pinned(exe.as_os_str())
        .args(std::env::args_os().skip(1))
        .arg("--pinned")
        .arg(cpus.len().to_string())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    Ok(Some(status.success()))
}

fn main_inner() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if let Some((a, b)) = &args.compare {
        let (table, ok) = compare::compare(&read(a)?, &read(b)?)?;
        print!("{table}");
        return Ok(ok);
    }
    let seed = args.seed.ok_or("--seed is required")?;
    let opts = Options {
        seed,
        seconds: args.seconds.unwrap_or(RUN_SECONDS as f64),
        nproc: args.pinned.unwrap_or_else(host::nproc),
        traced: args.traced,
        check_expected: !args.update_expected,
    };

    if args.update_expected {
        let names: Vec<&str> = match &args.workload {
            Some(name) => vec![name.as_str()],
            None => WORKLOADS.iter().map(|w| w.0).collect(),
        };
        // No timing is kept: the shortest run that still makes every check
        // but the one against the file being written.
        let shortest = Options {
            seconds: 0.0,
            ..opts
        };
        for name in names {
            let report = run_workload(name, shortest).ok_or(format!("unknown workload {name}"))?;
            if let Some(problem) = report.problems.first() {
                return Err(format!("{name}: not pinning an incorrect run: {problem}"));
            }
            expected::update(name, seed, &report.counters)?;
            eprintln!(
                "pinned {} counters of {name} for seed {seed}",
                report.counters.len()
            );
        }
        return Ok(true);
    }

    let name = args.workload.as_deref().ok_or("--workload is required")?;
    // The traced run of `fulltable-large` keeps every CPU: its `mt` probes
    // are the one place the benchmark wants two, and it sets the thread
    // count of everything else it runs itself.
    let wants_every_cpu = args.traced && name == FulltableLarge::NAME;
    if args.pinned.is_none() && !wants_every_cpu {
        if let Some(correct) = run_pinned()? {
            return Ok(correct);
        }
    }
    let report = run_workload(name, opts).ok_or(format!("unknown workload {name}"))?;
    for problem in &report.problems {
        eprintln!("incorrect: {problem}");
    }
    let full = full_report(&report).to_line();
    eprintln!("{full}");
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{full}").map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, spans_json(&report).to_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result_line(&report).to_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::valid_name;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` at the repo root, as committed.
    const DECLARED: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let declared = json::parse(DECLARED).expect("BENCHMARK.json parses");
        let list = |key: &str| match declared.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("BENCHMARK.json: {key} is {other:?}"),
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: no {key} in {v:?}"))
                .to_string()
        };
        let keys: Vec<&str> = declared.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let command: Vec<Value> = [
            "cargo",
            "run",
            "--quiet",
            "--release",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]
        .map(|s| Value::Str(s.into()))
        .to_vec();
        assert_eq!(list("command"), command);
        assert_eq!(list("paths"), [Value::Str("benchmark".into())]);
        assert_eq!(
            declared.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        assert_eq!(
            workloads,
            WORKLOADS.map(|(name, why)| (name.to_string(), why.to_string()))
        );

        // Names, units and bounds are the binary's; which way is better is
        // declared only there. Every end-to-end metric is a cost.
        let end_to_end: Vec<(String, String, Option<f64>)> = list("end_to_end")
            .iter()
            .map(|m| {
                assert_eq!(text(m, "better"), "lower");
                assert_eq!(m.members().len(), 4, "{m:?}");
                (
                    text(m, "name"),
                    text(m, "unit"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let emitted: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), Some(d.bound)))
            .collect();
        assert_eq!(end_to_end, emitted);
        let per_layer: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| {
                assert!(["lower", "higher"].contains(&text(m, "better").as_str()));
                assert_eq!(m.members().len(), 3, "{m:?}");
                (text(m, "name"), text(m, "unit"))
            })
            .collect();
        let emitted: Vec<_> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(per_layer, emitted);
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} is declared twice", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                def.name,
                def.unit
            );
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("é"));
        assert!(valid_name("0a_b.c-d"));
    }

    #[test]
    fn bounds_follow_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for def in END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys_and_every_declared_metric() {
        for traced in [false, true] {
            let report = Report {
                workload: "w",
                traced,
                attempted: 10,
                ..Report::default()
            };
            let line = json::parse(&result_line(&report).to_line()).unwrap();
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let emitted: Vec<&str> = line
                .get("metrics")
                .unwrap()
                .members()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let declared: Vec<&str> = if traced { PER_LAYER } else { END_TO_END }
                .iter()
                .map(|d| d.name)
                .collect();
            assert_eq!(emitted, declared);
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload repro-medium --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("repro-medium"));
        assert_eq!((a.seed, a.seconds, a.traced), (Some(7), Some(10.0), true));
        let c = parse("--compare a b").unwrap();
        assert_eq!(c.compare, Some(("a".into(), "b".into())));
        assert_eq!(parse("--pinned 2").unwrap().pinned, Some(2));
        for bad in [
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--bogus",
            "--seed",
            "--compare a",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
