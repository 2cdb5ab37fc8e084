//! The pinned outputs: `expected/<seed>.json` holds, per workload, every
//! exact count and digest a run with that seed must reproduce. A seed
//! without a file is checked by the run's own equivalences only.

use crate::json::{self, Value};
use crate::workloads::Counters;
use std::path::PathBuf;

/// Largest integer a JSON number holds exactly.
const MAX_EXACT: u64 = 1 << 53;

fn path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{seed}.json"))
}

/// A count as JSON: a number while it is exact, hex text beyond.
fn encode(n: u64) -> Value {
    if n <= MAX_EXACT {
        Value::Num(n as f64)
    } else {
        Value::Str(format!("{n:#018x}"))
    }
}

fn decode(v: &Value) -> Option<u64> {
    match v {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT as f64 => Some(*n as u64),
        Value::Str(s) => u64::from_str_radix(s.strip_prefix("0x")?, 16).ok(),
        _ => None,
    }
}

fn load(seed: u64) -> Result<Option<Value>, String> {
    let path = path(seed);
    match std::fs::read_to_string(&path) {
        Ok(text) => json::parse(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Compares `counters` against the pinned ones. Returns one line per
/// difference; nothing when they agree or the seed is not pinned.
pub fn check(workload: &str, seed: u64, counters: &Counters) -> Vec<String> {
    let file = match load(seed) {
        Ok(Some(file)) => file,
        Ok(None) => return Vec::new(),
        Err(e) => return vec![e],
    };
    let Some(pinned) = file.get("workloads").and_then(|w| w.get(workload)) else {
        return vec![format!(
            "expected/{seed}.json has no section for {workload}"
        )];
    };
    let mut problems = Vec::new();
    for (name, value) in pinned.members() {
        match (decode(value), counters.get(name.as_str())) {
            (Some(want), Some(got)) if want == *got => {}
            (Some(want), Some(got)) => problems.push(format!("{name} = {got}, expected {want}")),
            (Some(_), None) => problems.push(format!("{name} is pinned but was not produced")),
            (None, _) => problems.push(format!("expected/{seed}.json: bad value for {name}")),
        }
    }
    for name in counters.keys() {
        if pinned.get(name).is_none() {
            problems.push(format!("{name} was produced but is not pinned"));
        }
    }
    problems
}

/// Rewrites the section of `workload` in `expected/<seed>.json`, keeping
/// the other workloads' sections.
pub fn update(workload: &str, seed: u64, counters: &Counters) -> Result<(), String> {
    let mut sections: Vec<(String, Value)> = load(seed)?
        .and_then(|file| file.get("workloads").map(|w| w.members().to_vec()))
        .unwrap_or_default();
    let section = Value::obj(counters.iter().map(|(k, v)| (*k, encode(*v))));
    match sections.iter_mut().find(|(name, _)| name == workload) {
        Some(slot) => slot.1 = section,
        None => sections.push((workload.to_string(), section)),
    }
    let file = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("workloads", Value::Obj(sections)),
    ]);
    let path = path(seed);
    std::fs::write(&path, file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_round_trip_exactly_on_both_sides_of_two_to_the_53() {
        for n in [0, 1, 21_294, MAX_EXACT, MAX_EXACT + 1, u64::MAX] {
            assert_eq!(decode(&encode(n)), Some(n), "{n}");
            let text = encode(n).to_line();
            assert_eq!(decode(&json::parse(&text).unwrap()), Some(n), "{n}");
        }
        assert_eq!(decode(&Value::Num(1.5)), None);
        assert_eq!(decode(&Value::Num(-1.0)), None);
        assert_eq!(decode(&Value::Str("12".into())), None);
    }
}
