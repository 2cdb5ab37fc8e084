//! CI perf-regression gate for the engine benchmarks.
//!
//! Runs `cargo bench -p bgpworms-bench --bench engine` (or parses an
//! already-captured output file), extracts the per-benchmark medians from
//! the harness's `bench: <name> median_ns=<n> …` lines, and compares each
//! one against the committed `BENCH_engine.json` baseline. Any benchmark
//! whose fresh median exceeds its baseline median by more than the
//! tolerance (default 15 %) fails the gate with a non-zero exit.
//!
//! ```text
//! bench_check [--baseline BENCH_engine.json]
//!             [--bench-output bench-output.txt]   # skip re-running
//!             [--tolerance 15]
//! ```
//!
//! Every entry in the baseline's `"results"` array is a real benchmark
//! (historical context like `seed_baseline` lives outside that array and
//! is never parsed), so a baseline entry with **no** fresh measurement is
//! itself a failure — deleting or renaming a benchmark cannot silently
//! remove its gate; the baseline must be updated in the same change (the
//! whole comparison lives in [`gate`], whose missing/regression verdicts
//! are unit-tested below so that guarantee cannot rot). The JSON "parser"
//! is deliberately minimal — the workspace builds hermetically without
//! serde — and only extracts `"benchmark"`/`"median_ns"` pairs from the
//! `"results"` array.
//!
//! # Derived metrics
//!
//! Some costs worth gating are functions of several measurements. After
//! parsing the fresh output, [`add_derived_metrics`] synthesizes one
//! entry per [`DERIVED_METRICS`] row over named fresh medians. A row is
//! either a **difference quotient** `(minuend − subtrahend) / divisor`
//! (a per-unit cost in nanoseconds) or a **scaled ratio**
//! `minuend / subtrahend × divisor` (dimensionless; divisor 10 000 reads
//! as basis points):
//!
//! * `engine/per-prefix-marginal` — `(campaign-internet-16px −
//!   run-internet-1px) / 15`: the steady marginal cost of one more
//!   *simulated* prefix in an internet-scale campaign, once the
//!   per-worker scratch exists;
//! * `engine/fulltable-amortized-per-prefix` —
//!   `campaign-internet-fulltable-sample / 512`: the realized cost of a
//!   mostly-duplicate-class prefix under flood memoization, which must
//!   sit far below the marginal for the full-table path to pay;
//! * `engine/delta-speedup` — `ab-pair/compile-once ÷ ab-pair-delta` in
//!   basis points (10 000 = parity): how much cheaper the A/B pair gets
//!   when the attack replays as a delta re-convergence on the baseline's
//!   snapshot instead of a second full run. Its baseline entry is marked
//!   `higher_is_better`, so the delta path losing its advantage fails
//!   the gate like a time regression.
//!
//! Derived entries are compared against same-named baseline entries like
//! any directly measured benchmark.
//!
//! # Direction
//!
//! A baseline entry may carry `"direction": "higher_is_better"` — used
//! for rate-style pseudo-measurements such as `engine/class-hit-rate`
//! (the full-table phase's replay rate in basis points, printed by the
//! bench harness in the standard `bench:` line format). Such an entry
//! regresses when its fresh value drops more than the tolerance *below*
//! the baseline, instead of rising above it.
//!
//! Medians are absolute wall times, so they only transfer between machines
//! of similar speed: when the gate trips on hardware change rather than a
//! code change, re-measure and re-commit the baseline alongside it.
//! (Direction-reversed rate entries are machine-independent.)

#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

struct Args {
    baseline: String,
    bench_output: Option<String>,
    tolerance_pct: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: "BENCH_engine.json".to_string(),
        bench_output: None,
        tolerance_pct: 15.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--baseline" => args.baseline = value("--baseline")?,
            "--bench-output" => args.bench_output = Some(value("--bench-output")?),
            "--tolerance" => {
                args.tolerance_pct = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// One baseline benchmark: its committed median and gate direction.
#[derive(Debug, PartialEq)]
struct BaselineEntry {
    name: String,
    median_ns: f64,
    /// `"direction": "higher_is_better"` in the JSON — rate-style entries
    /// regress *downward* instead of upward.
    higher_is_better: bool,
}

/// Extracts [`BaselineEntry`]s from the baseline JSON's `"results"` array.
/// Entries are flat objects, so the array spans from the `[` after the
/// `"results"` key to the next `]`.
fn parse_baseline(json: &str) -> Vec<BaselineEntry> {
    let Some(results_key) = json.find("\"results\"") else {
        return Vec::new();
    };
    let after = &json[results_key..];
    let Some(open) = after.find('[') else {
        return Vec::new();
    };
    let Some(close) = after[open..].find(']') else {
        return Vec::new();
    };
    let body = &after[open..open + close];

    let mut out = Vec::new();
    let mut rest = body;
    while let Some(pos) = rest.find("\"benchmark\"") {
        rest = &rest[pos + "\"benchmark\"".len()..];
        let Some(name) = quoted_value(rest) else {
            break;
        };
        // Per-entry fields must belong to this entry: stop at the next
        // "benchmark" key if one appears first.
        let entry = &rest[..rest.find("\"benchmark\"").unwrap_or(rest.len())];
        if let Some(median_ns) = numeric_field(entry, "\"median_ns\"") {
            let higher_is_better = entry
                .find("\"direction\"")
                .and_then(|p| quoted_value(&entry[p + "\"direction\"".len()..]))
                .is_some_and(|d| d == "higher_is_better");
            out.push(BaselineEntry {
                name,
                median_ns,
                higher_is_better,
            });
        }
    }
    out
}

/// The next `"quoted string"` after a `:` in `rest`.
fn quoted_value(rest: &str) -> Option<String> {
    let colon = rest.find(':')?;
    let after = &rest[colon + 1..];
    let start = after.find('"')? + 1;
    let len = after[start..].find('"')?;
    Some(after[start..start + len].to_string())
}

/// The numeric value of `"key": <number>` within `segment`.
fn numeric_field(segment: &str, key: &str) -> Option<f64> {
    let pos = segment.find(key)?;
    let after = &segment[pos + key.len()..];
    let colon = after.find(':')?;
    let digits: String = after[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    digits.parse().ok()
}

/// Extracts `(name, median_ns)` from the bench harness's stdout lines:
/// `bench: <name> median_ns=<n> min_ns=… max_ns=… iters=…`.
fn parse_bench_output(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("bench: ") else {
            continue;
        };
        let mut parts = rest.split_whitespace();
        let Some(name) = parts.next() else { continue };
        let Some(median) = parts
            .filter_map(|p| p.strip_prefix("median_ns="))
            .next()
            .and_then(|v| v.parse::<f64>().ok())
        else {
            continue;
        };
        out.push((name.to_string(), median));
    }
    out
}

/// How a [`DerivedMetric`] combines its input medians.
enum DerivedOp {
    /// `(minuend − subtrahend) / divisor` — a per-unit cost in ns.
    DiffQuotient,
    /// `minuend / subtrahend × divisor` — a dimensionless ratio scaled to
    /// integer units (divisor 10 000 reads as basis points). Requires a
    /// subtrahend; a non-positive denominator suppresses the entry.
    RatioScaled,
}

/// One derived metric over fresh medians (see [`DerivedOp`] for the
/// formula), appended under its own benchmark name.
struct DerivedMetric {
    name: &'static str,
    minuend: &'static str,
    /// `None` means a plain quotient of one measurement (`DiffQuotient`
    /// with a zero subtrahend).
    subtrahend: Option<&'static str>,
    divisor: f64,
    op: DerivedOp,
}

/// Every metric [`add_derived_metrics`] synthesizes (see the module docs).
const DERIVED_METRICS: &[DerivedMetric] = &[
    DerivedMetric {
        name: "engine/per-prefix-marginal",
        minuend: "engine/campaign-internet-16px/1",
        subtrahend: Some("engine/run-internet-1px/1"),
        divisor: 15.0,
        op: DerivedOp::DiffQuotient,
    },
    DerivedMetric {
        name: "engine/fulltable-amortized-per-prefix",
        minuend: "engine/campaign-internet-fulltable-sample/1",
        subtrahend: None,
        divisor: 512.0,
        op: DerivedOp::DiffQuotient,
    },
    DerivedMetric {
        name: "engine/delta-speedup",
        minuend: "engine/ab-pair/compile-once",
        subtrahend: Some("engine/ab-pair-delta"),
        divisor: 10_000.0,
        op: DerivedOp::RatioScaled,
    },
];

fn median_of(fresh: &[(String, f64)], name: &str) -> Option<f64> {
    fresh.iter().find(|(n, _)| n == name).map(|&(_, m)| m)
}

/// Appends every [`DERIVED_METRICS`] entry whose inputs are present (see
/// the module docs). A missing input simply skips the derivation — the
/// baseline entry for the derived name then reports "no fresh
/// measurement", which is the failure we want when a source benchmark
/// disappears.
fn add_derived_metrics(fresh: &mut Vec<(String, f64)>) {
    for d in DERIVED_METRICS {
        let Some(minuend) = median_of(fresh, d.minuend) else {
            continue;
        };
        let subtrahend = match d.subtrahend {
            Some(name) => match median_of(fresh, name) {
                Some(v) => v,
                None => continue,
            },
            None => 0.0,
        };
        // Guard both ops against degenerate inputs the same way
        // `core::table::ratio` guards its denominator: a non-finite input
        // (or a non-positive RatioScaled denominator) must suppress the
        // derivation — the baseline entry then hard-fails as "no fresh
        // measurement" instead of an inf/NaN value slipping through the
        // gate's comparisons.
        if !minuend.is_finite() || !subtrahend.is_finite() {
            eprintln!(
                "bench_check: refusing to derive {} from non-finite inputs \
                 ({} {minuend} ns, {} {subtrahend} ns)",
                d.name,
                d.minuend,
                d.subtrahend.unwrap_or("0"),
            );
            continue;
        }
        let value = match d.op {
            DerivedOp::DiffQuotient => (minuend - subtrahend) / d.divisor,
            DerivedOp::RatioScaled => {
                if subtrahend <= 0.0 {
                    eprintln!(
                        "bench_check: refusing to derive {} from a non-positive \
                         denominator ({} {subtrahend:.0} ns)",
                        d.name,
                        d.subtrahend.unwrap_or("0"),
                    );
                    continue;
                }
                minuend / subtrahend * d.divisor
            }
        };
        // A minuend measuring *below* its subtrahend means the measurement
        // itself is broken; suppress the derived entry so the baseline
        // reports "no fresh measurement" and the gate fails loudly instead
        // of reading nonsense as an improvement. (A RatioScaled value is
        // non-negative whenever its inputs are.)
        if value >= 0.0 {
            fresh.push((d.name.to_string(), value));
        } else {
            eprintln!(
                "bench_check: refusing to derive {} from a negative delta \
                 ({} {minuend:.0} ns < {} {subtrahend:.0} ns)",
                d.name,
                d.minuend,
                d.subtrahend.unwrap_or("0"),
            );
        }
    }
}

/// One benchmark's comparison against its baseline median.
struct Verdict {
    name: String,
    line: String,
    outcome: Outcome,
}

#[derive(PartialEq)]
enum Outcome {
    Ok,
    Missing,
    /// The comparison itself is meaningless: a zero / negative /
    /// non-finite baseline median, or a non-finite fresh one. Before this
    /// variant existed, `fresh / 0.0` produced an inf/NaN `delta_pct`
    /// whose comparisons were both false — a silently *passing* verdict
    /// for a broken baseline. Named hard-fail instead.
    Malformed,
    Regressed(f64),
}

/// Compares every baseline benchmark against the fresh medians: a baseline
/// entry with no fresh measurement is a failure (a dropped or renamed
/// phase must update the baseline in the same change), as is any median
/// more than `tolerance_pct` above its baseline — or, for
/// `higher_is_better` entries, more than `tolerance_pct` *below* it. A
/// comparison whose inputs cannot support a verdict (zero or non-finite
/// baseline, non-finite fresh median) is a [`Outcome::Malformed`]
/// hard-fail, guarded like `core::table::ratio` guards its denominator.
fn gate(baseline: &[BaselineEntry], fresh: &[(String, f64)], tolerance_pct: f64) -> Vec<Verdict> {
    baseline
        .iter()
        .map(|entry| {
            let name = &entry.name;
            let base_median = entry.median_ns;
            let Some((_, fresh_median)) = fresh.iter().find(|(n, _)| n == name) else {
                return Verdict {
                    name: name.clone(),
                    line: format!("  FAIL  {name}: no fresh measurement (bench crashed or renamed?)"),
                    outcome: Outcome::Missing,
                };
            };
            if base_median <= 0.0 || !base_median.is_finite() || !fresh_median.is_finite() {
                return Verdict {
                    name: name.clone(),
                    line: format!(
                        "  FAIL  {name}: malformed comparison (baseline {base_median} ns, \
                         fresh {fresh_median} ns) — fix the baseline entry or the harness"
                    ),
                    outcome: Outcome::Malformed,
                };
            }
            let delta_pct = (fresh_median / base_median - 1.0) * 100.0;
            let regressed = if entry.higher_is_better {
                delta_pct < -tolerance_pct
            } else {
                delta_pct > tolerance_pct
            };
            let (verdict, outcome) = if regressed {
                ("FAIL", Outcome::Regressed(delta_pct))
            } else {
                ("ok", Outcome::Ok)
            };
            Verdict {
                name: name.clone(),
                line: format!(
                    "  {verdict:<5} {name}: baseline {base_median:.0} ns → fresh {fresh_median:.0} ns ({delta_pct:+.1}%)"
                ),
                outcome,
            }
        })
        .collect()
}

fn run_engine_bench() -> Result<String, String> {
    eprintln!("bench_check: running `cargo bench -p bgpworms-bench --bench engine` …");
    let output = Command::new("cargo")
        .args(["bench", "-p", "bgpworms-bench", "--bench", "engine"])
        .output()
        .map_err(|e| format!("failed to spawn cargo bench: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("cargo bench failed with {}", output.status));
    }
    Ok(stdout)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };

    let baseline_text = match std::fs::read_to_string(&args.baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read baseline {}: {e}", args.baseline);
            return ExitCode::FAILURE;
        }
    };
    let baseline = parse_baseline(&baseline_text);
    if baseline.is_empty() {
        eprintln!(
            "bench_check: no results parsed from baseline {}",
            args.baseline
        );
        return ExitCode::FAILURE;
    }

    let fresh_text = match &args.bench_output {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_check: cannot read bench output {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match run_engine_bench() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_check: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut fresh = parse_bench_output(&fresh_text);
    add_derived_metrics(&mut fresh);

    println!(
        "bench_check: gate at +{:.0}% vs {}",
        args.tolerance_pct, args.baseline
    );
    let verdicts = gate(&baseline, &fresh, args.tolerance_pct);
    let mut matched = 0usize;
    let mut missing = Vec::new();
    let mut malformed = Vec::new();
    let mut regressions = Vec::new();
    for v in verdicts {
        println!("{}", v.line);
        match v.outcome {
            Outcome::Ok => matched += 1,
            Outcome::Missing => missing.push(v.name),
            Outcome::Malformed => {
                matched += 1;
                malformed.push(v.name);
            }
            Outcome::Regressed(delta) => {
                matched += 1;
                regressions.push((v.name, delta));
            }
        }
    }

    if matched == 0 {
        eprintln!("bench_check: no benchmark matched the baseline — rename drift?");
        return ExitCode::FAILURE;
    }
    if !malformed.is_empty() {
        eprintln!(
            "bench_check: {} baseline benchmark(s) cannot be compared (zero or \
             non-finite median): {}",
            malformed.len(),
            malformed.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if !missing.is_empty() {
        eprintln!(
            "bench_check: {} baseline benchmark(s) have no fresh measurement: {}",
            missing.len(),
            missing.join(", ")
        );
        eprintln!(
            "bench_check: update BENCH_engine.json in the same change if this is intentional"
        );
        return ExitCode::FAILURE;
    }
    if !regressions.is_empty() {
        eprintln!(
            "bench_check: {} benchmark(s) regressed more than {:.0}%:",
            regressions.len(),
            args.tolerance_pct
        );
        for (name, delta) in &regressions {
            eprintln!("  {name}: {delta:+.1}%");
        }
        return ExitCode::FAILURE;
    }
    println!("bench_check: all {matched} matched benchmarks within tolerance");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "benchmark": "engine (phases)",
      "results": [
        { "benchmark": "engine/run/1", "median_ns": 1000, "min_ns": 900, "max_ns": 1200, "iters": 10 },
        { "benchmark": "engine/compile", "median_ns": 50, "min_ns": 45, "max_ns": 60, "iters": 100 },
        { "benchmark": "engine/hit-rate", "direction": "higher_is_better", "median_ns": 9900 }
      ],
      "seed_baseline": { "benchmark": "old (PR 1)", "median_ns": 2000 }
    }"#;

    fn entry(name: &str, median_ns: f64) -> BaselineEntry {
        BaselineEntry {
            name: name.to_string(),
            median_ns,
            higher_is_better: false,
        }
    }

    #[test]
    fn baseline_parsing_extracts_results_only() {
        let parsed = parse_baseline(BASELINE);
        assert_eq!(
            parsed,
            vec![
                entry("engine/run/1", 1000.0),
                entry("engine/compile", 50.0),
                BaselineEntry {
                    name: "engine/hit-rate".to_string(),
                    median_ns: 9900.0,
                    higher_is_better: true,
                },
            ],
            "top-level and seed_baseline entries must not leak in; direction must be per-entry"
        );
    }

    #[test]
    fn bench_output_parsing() {
        let text = "noise\nbench: engine/run/1 median_ns=1100 min_ns=1000 max_ns=1300 iters=10\n\
                    bench: engine/compile median_ns=49 min_ns=40 max_ns=55 iters=100\n";
        let parsed = parse_bench_output(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], ("engine/run/1".to_string(), 1100.0));
        assert_eq!(parsed[1], ("engine/compile".to_string(), 49.0));
    }

    #[test]
    fn gate_fails_when_a_baseline_benchmark_disappears() {
        // A dropped or renamed phase must not silently lose its gate: the
        // baseline entry with no fresh counterpart is a hard failure.
        let baseline = vec![entry("engine/run/1", 1000.0), entry("engine/gone", 50.0)];
        let fresh = vec![("engine/run/1".to_string(), 1001.0)];
        let verdicts = gate(&baseline, &fresh, 15.0);
        assert_eq!(verdicts.len(), 2);
        assert!(matches!(verdicts[0].outcome, Outcome::Ok));
        assert!(
            matches!(verdicts[1].outcome, Outcome::Missing),
            "missing fresh measurement must fail the gate"
        );
        assert!(verdicts[1].line.contains("no fresh measurement"));
    }

    #[test]
    fn gate_flags_regressions_beyond_tolerance() {
        let baseline = vec![entry("engine/run/1", 1000.0)];
        let ok = gate(&baseline, &[("engine/run/1".to_string(), 1140.0)], 15.0);
        assert!(matches!(ok[0].outcome, Outcome::Ok), "+14% is within +15%");
        let bad = gate(&baseline, &[("engine/run/1".to_string(), 1200.0)], 15.0);
        match bad[0].outcome {
            Outcome::Regressed(delta) => assert!((delta - 20.0).abs() < 1e-9),
            _ => panic!("+20% must regress"),
        }
    }

    #[test]
    fn gate_reverses_for_higher_is_better_entries() {
        let baseline = vec![BaselineEntry {
            name: "engine/hit-rate".to_string(),
            median_ns: 10_000.0,
            higher_is_better: true,
        }];
        // Rising is never a regression, nor is a small dip …
        let up = gate(
            &baseline,
            &[("engine/hit-rate".to_string(), 12_000.0)],
            15.0,
        );
        assert!(matches!(up[0].outcome, Outcome::Ok), "higher must pass");
        let dip = gate(&baseline, &[("engine/hit-rate".to_string(), 8_600.0)], 15.0);
        assert!(matches!(dip[0].outcome, Outcome::Ok), "-14% is within -15%");
        // … but a drop past the tolerance fails the gate.
        let bad = gate(&baseline, &[("engine/hit-rate".to_string(), 8_000.0)], 15.0);
        match bad[0].outcome {
            Outcome::Regressed(delta) => assert!((delta + 20.0).abs() < 1e-9),
            _ => panic!("-20% must regress a higher_is_better entry"),
        }
    }

    #[test]
    fn per_prefix_marginal_is_derived_from_internet_phases() {
        let mut fresh = vec![
            ("engine/run-internet-1px/1".to_string(), 50_000_000.0),
            ("engine/campaign-internet-16px/1".to_string(), 800_000_000.0),
        ];
        add_derived_metrics(&mut fresh);
        let derived = fresh
            .iter()
            .find(|(n, _)| n == "engine/per-prefix-marginal")
            .expect("derived metric appended");
        assert!((derived.1 - 50_000_000.0).abs() < 1e-6, "(800 − 50) / 15");

        // Missing inputs skip the derivation instead of inventing numbers.
        let mut partial = vec![("engine/run-internet-1px/1".to_string(), 50.0)];
        add_derived_metrics(&mut partial);
        assert_eq!(partial.len(), 1);

        // A negative delta means the measurement is broken: the derived
        // entry is suppressed (so its baseline fails as missing), never
        // clamped into a fake improvement.
        let mut broken = vec![
            ("engine/run-internet-1px/1".to_string(), 50_000_000.0),
            ("engine/campaign-internet-16px/1".to_string(), 40_000_000.0),
        ];
        add_derived_metrics(&mut broken);
        assert_eq!(broken.len(), 2, "negative marginal must not be derived");
    }

    #[test]
    fn fulltable_amortized_is_a_plain_quotient() {
        // A subtrahend-free table row divides one measurement straight
        // down: 512 prefixes' campaign median → per-prefix cost.
        let mut fresh = vec![(
            "engine/campaign-internet-fulltable-sample/1".to_string(),
            512_000_000.0,
        )];
        add_derived_metrics(&mut fresh);
        let derived = fresh
            .iter()
            .find(|(n, _)| n == "engine/fulltable-amortized-per-prefix")
            .expect("derived metric appended");
        assert!((derived.1 - 1_000_000.0).abs() < 1e-6, "512 ms / 512");
    }

    #[test]
    fn delta_speedup_is_a_scaled_ratio() {
        // 150 ms full pair vs 100 ms delta pair → 1.5× → 15 000 bp.
        let mut fresh = vec![
            ("engine/ab-pair/compile-once".to_string(), 150_000_000.0),
            ("engine/ab-pair-delta".to_string(), 100_000_000.0),
        ];
        add_derived_metrics(&mut fresh);
        let derived = fresh
            .iter()
            .find(|(n, _)| n == "engine/delta-speedup")
            .expect("derived metric appended");
        assert!((derived.1 - 15_000.0).abs() < 1e-6);

        // A zero denominator suppresses the entry (baseline then fails as
        // missing) rather than deriving infinity.
        let mut broken = vec![
            ("engine/ab-pair/compile-once".to_string(), 150_000_000.0),
            ("engine/ab-pair-delta".to_string(), 0.0),
        ];
        add_derived_metrics(&mut broken);
        assert!(
            !broken.iter().any(|(n, _)| n == "engine/delta-speedup"),
            "non-positive denominator must not derive"
        );
    }

    #[test]
    fn derived_metrics_refuse_non_finite_inputs() {
        // RatioScaled with a NaN denominator must be suppressed, not
        // derived into NaN (which every gate comparison silently passes).
        let mut broken = vec![
            ("engine/ab-pair/compile-once".to_string(), 150_000_000.0),
            ("engine/ab-pair-delta".to_string(), f64::NAN),
        ];
        add_derived_metrics(&mut broken);
        assert!(
            !broken.iter().any(|(n, _)| n == "engine/delta-speedup"),
            "NaN denominator must not derive"
        );

        // … and an infinite numerator likewise (inf/x = inf, inf ≥ 0.0, so
        // without the guard it would be appended).
        let mut inf = vec![
            ("engine/ab-pair/compile-once".to_string(), f64::INFINITY),
            ("engine/ab-pair-delta".to_string(), 100_000_000.0),
        ];
        add_derived_metrics(&mut inf);
        assert!(!inf.iter().any(|(n, _)| n == "engine/delta-speedup"));

        // DiffQuotient is guarded the same way: inf − x = inf passes the
        // `value >= 0.0` suppression, so the input guard must catch it.
        let mut diff = vec![
            ("engine/run-internet-1px/1".to_string(), 50_000_000.0),
            ("engine/campaign-internet-16px/1".to_string(), f64::INFINITY),
        ];
        add_derived_metrics(&mut diff);
        assert!(!diff.iter().any(|(n, _)| n == "engine/per-prefix-marginal"));
    }

    #[test]
    fn gate_hard_fails_malformed_comparisons() {
        // A zero baseline median used to yield delta_pct = inf/NaN, whose
        // comparisons were both false — a silent pass. It must be a named
        // hard failure instead.
        let baseline = vec![entry("engine/run/1", 0.0)];
        let v = gate(&baseline, &[("engine/run/1".to_string(), 1000.0)], 15.0);
        assert!(
            matches!(v[0].outcome, Outcome::Malformed),
            "zero baseline must be malformed, not ok"
        );
        assert!(v[0].line.contains("malformed comparison"));

        // Non-finite fresh medians are equally unjudgeable.
        let baseline = vec![entry("engine/run/1", 1000.0)];
        let v = gate(&baseline, &[("engine/run/1".to_string(), f64::NAN)], 15.0);
        assert!(matches!(v[0].outcome, Outcome::Malformed));

        // A negative baseline is malformed too (the old code read a huge
        // negative delta as a pass for lower-is-better entries).
        let baseline = vec![entry("engine/run/1", -5.0)];
        let v = gate(&baseline, &[("engine/run/1".to_string(), 1000.0)], 15.0);
        assert!(matches!(v[0].outcome, Outcome::Malformed));

        // Boundary: a tiny-but-positive finite baseline still compares.
        let baseline = vec![entry("engine/run/1", 1e-9)];
        let v = gate(&baseline, &[("engine/run/1".to_string(), 1e-9)], 15.0);
        assert!(matches!(v[0].outcome, Outcome::Ok));
    }

    #[test]
    fn numeric_field_handles_whitespace() {
        assert_eq!(
            numeric_field("\"median_ns\":  42 ,", "\"median_ns\""),
            Some(42.0)
        );
        assert_eq!(numeric_field("\"median_ns\": }", "\"median_ns\""), None);
    }
}
