//! `--compare A B`: do two sets of runs agree? The sets are files of one
//! report per line, as `--out` appends them. Per workload and end-to-end
//! metric the table gives the two set medians, their difference, each
//! set's spread, the metric's bound and a verdict — the driver's test of a
//! benchmark, applied in both directions: two sets of the same code that
//! differ by more than the bound either way mean the benchmark cannot tell
//! identical code from a regression.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Values per (workload, metric) of one set.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn read_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let report = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = report
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let metrics = report.get("metrics").map_or(&[][..], Value::members);
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// The verdict on one metric of one workload. Every end-to-end metric is
/// lower-is-better. `checked_spread` is false for `setup_s`, whose spread
/// the driver does not hold to the bound.
fn verdict(difference: f64, spreads: [f64; 2], bound: f64, checked_spread: bool) -> &'static str {
    if checked_spread && spreads.iter().any(|s| *s > bound) {
        "NOISY"
    } else if difference > bound {
        "WORSE"
    } else if difference < -bound {
        "BETTER"
    } else {
        "ok"
    }
}

/// The comparison table of two sets, and whether every row is `ok`.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_set(a_text)?, read_set(b_text)?);
    let mut out = String::from(
        "| workload | metric | A median | B median | B − A | A spread | B spread | bound | verdict |\n\
         |---|---|---:|---:|---:|---:|---:|---:|---|\n",
    );
    let mut all_ok = true;
    let mut rows = 0;
    for ((workload, metric), a_values) in &a {
        let Some(def) = END_TO_END.iter().find(|d| d.name == metric) else {
            continue;
        };
        let Some(b_values) = b.get(&(workload.clone(), metric.clone())) else {
            return Err(format!(
                "{workload}/{metric} is missing from the second set"
            ));
        };
        if a_values.len() < 2 || b_values.len() < 2 {
            return Err(format!("{workload}/{metric}: a set needs two runs"));
        }
        let (ma, mb) = (stats::median(a_values), stats::median(b_values));
        // As a share of the smaller median, so that swapping the sets only
        // changes the sign.
        let difference = (mb - ma) / ma.min(mb);
        let spreads = [stats::spread(a_values), stats::spread(b_values)];
        let verdict = verdict(difference, spreads, def.bound, def.name != "setup_s");
        all_ok &= verdict == "ok";
        rows += 1;
        let _ = writeln!(
            out,
            "| {workload} | {metric} | {ma:.4} {unit} (n={na}) | {mb:.4} {unit} (n={nb}) | {pct:+.2}% | {sa:.2}% | {sb:.2}% | {bound:.0}% | {verdict} |",
            unit = def.unit,
            na = a_values.len(),
            nb = b_values.len(),
            pct = difference * 100.0,
            sa = spreads[0] * 100.0,
            sb = spreads[1] * 100.0,
            bound = def.bound * 100.0,
        );
    }
    if rows == 0 {
        return Err("no end-to-end metrics in the first set".into());
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, pass_s: f64, setup_s: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"metrics\":{{\"pass_s\":{{\"value\":{pass_s},\"unit\":\"s\"}},\
             \"setup_s\":{{\"value\":{setup_s},\"unit\":\"s\"}},\"other\":{{\"value\":1,\"unit\":\"x\"}}}}}}\n"
        )
    }

    fn set(workload: &str, pass_s: [f64; 3], setup_s: [f64; 3]) -> String {
        (0..3)
            .map(|i| line(workload, pass_s[i], setup_s[i]))
            .collect()
    }

    fn bound() -> f64 {
        END_TO_END
            .iter()
            .find(|d| d.name == "pass_s")
            .expect("pass_s is declared")
            .bound
    }

    #[test]
    fn medians_are_compared_against_the_bound_in_both_directions() {
        let steady = |median: f64| [median * 0.999, median, median * 1.001];
        let a = set("w", steady(2.0), steady(5.0));
        // Half a bound apart: agreement, whichever set comes first.
        let near = set("w", steady(2.0 * (1.0 + bound() / 2.0)), steady(5.0));
        let (table, ok) = compare(&a, &near).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains("| w | pass_s |") && table.contains("| w | setup_s |"));
        assert!(
            table.contains(&format!("{:+.2}%", bound() * 50.0)),
            "{table}"
        );
        assert!(!table.contains("other"));
        assert!(compare(&near, &a).unwrap().1);

        // One and a half bounds apart: WORSE one way, BETTER the other, and
        // not ok either way.
        let far = set("w", steady(2.0 * (1.0 + bound() * 1.5)), steady(5.0));
        let (table, ok) = compare(&a, &far).unwrap();
        assert!(!ok && table.contains("WORSE"), "{table}");
        let (table, ok) = compare(&far, &a).unwrap();
        assert!(!ok && table.contains("BETTER"), "{table}");
        assert!(
            table.contains(&format!("{:+.2}%", bound() * -150.0)),
            "{table}"
        );
    }

    #[test]
    fn a_spread_beyond_the_bound_is_noisy_except_for_setup() {
        let wide = |median: f64| [median / (1.0 + bound()), median, median * (1.0 + bound())];
        let (table, ok) = compare(
            &set("w", wide(2.0), [5.0, 5.0, 5.0]),
            &set("w", [2.0, 2.0, 2.0], [5.0, 5.0, 5.0]),
        )
        .unwrap();
        assert!(!ok && table.contains("NOISY"), "{table}");
        let (table, ok) = compare(
            &set("w", [2.0, 2.0, 2.0], wide(5.0)),
            &set("w", [2.0, 2.0, 2.0], [5.0, 5.0, 5.0]),
        )
        .unwrap();
        assert!(ok, "{table}");
    }

    #[test]
    fn a_missing_workload_a_single_run_or_an_empty_set_is_an_error() {
        let a = set("w", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]);
        assert!(compare(&a, &set("v", [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])).is_err());
        assert!(compare(&a, &line("w", 1.0, 1.0)).is_err());
        assert!(compare("", "").is_err());
        assert!(compare("not json", "").is_err());
    }
}
