//! The determinism rules and the allow-marker engine.
//!
//! Every rule is a token-pattern check over [`crate::lexer`] output — code
//! text with literals blanked, comment text separated — so nothing inside
//! a string, char literal, or comment can trigger (or suppress) a rule by
//! accident. `#[cfg(test)]` regions are exempt from every rule: test code
//! exercises the determinism contract dynamically and is free to `unwrap`
//! and hash at will.
//!
//! # Marker vocabulary
//!
//! | marker | suppresses | meaning |
//! |---|---|---|
//! | `// lint: order-independent <why>` | `no-unordered-iteration` | the collection is probed/cleared, never iterated — or its iteration order cannot reach results |
//! | `// lint: infallible <why>` | `hot-path-panic` | the `unwrap()`/`expect(` cannot fire, with the invariant that guarantees it |
//! | `// ordering: <why>` | `atomic-ordering-justification` | why the chosen atomic `Ordering::*` is sufficient |
//!
//! A marker covers the line it sits on, or — when written on its own
//! comment line — the statement immediately below it (the coverage walk
//! follows multi-line method chains until it crosses a `;`, `{`, or `}`).
//! A marker **must** carry a justification; a bare marker is itself a
//! finding (`marker-justification`).

use crate::lexer::Line;
use crate::policy::CratePolicy;

/// One diagnostic: `file:line: [rule] message`, ready for terminal output
/// (the `file:line` prefix is what editors and CI annotations latch onto).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable kebab-case rule id.
    pub rule: &'static str,
    /// Human explanation, including how to satisfy the rule.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Rule ids, kept in one place so tests and docs cannot drift.
pub mod rule {
    /// Unjustified `HashMap`/`HashSet` in a result-affecting crate.
    pub const UNORDERED: &str = "no-unordered-iteration";
    /// Atomic `Ordering::*` without an adjacent `// ordering:` comment.
    pub const ATOMIC: &str = "atomic-ordering-justification";
    /// `Instant::now` / `SystemTime` outside bench/compat.
    pub const WALL_CLOCK: &str = "no-wall-clock";
    /// `unsafe` usage, or a crate root missing `#![forbid(unsafe_code)]`.
    pub const UNSAFE: &str = "unsafe-free";
    /// Unjustified `unwrap()`/`expect(` on an engine hot-path file.
    pub const HOT_PATH_PANIC: &str = "hot-path-panic";
    /// `std::env` / `thread::current` in result-affecting code.
    pub const ENV: &str = "no-env-dependence";
    /// An allow-marker with no justification text.
    pub const MARKER: &str = "marker-justification";
}

/// The allow-markers present on one line's comment text.
#[derive(Debug, Clone, Copy, Default)]
struct Markers {
    order_independent: bool,
    infallible: bool,
    ordering: bool,
    /// A marker keyword whose justification text is missing.
    unjustified: Option<&'static str>,
}

impl Markers {
    fn merge(&mut self, other: Markers) {
        self.order_independent |= other.order_independent;
        self.infallible |= other.infallible;
        self.ordering |= other.ordering;
    }
}

/// Parses the markers on one comment string. Markers must lead the
/// comment (after the `// /* * !` furniture), so prose like "ascending
/// node ordering: …" in a doc comment can never suppress a rule.
fn parse_markers(comment: &str) -> Markers {
    let mut m = Markers::default();
    let body = comment.trim_start_matches(['/', '*', '!', ' ', '\t']);
    if let Some(rest) = body.strip_prefix("lint:") {
        let rest = rest.trim_start();
        if let Some(why) = rest.strip_prefix("order-independent") {
            m.order_independent = true;
            if why.trim().is_empty() {
                m.unjustified = Some("lint: order-independent");
            }
        } else if let Some(why) = rest.strip_prefix("infallible") {
            m.infallible = true;
            if why.trim().is_empty() {
                m.unjustified = Some("lint: infallible");
            }
        }
    } else if let Some(why) = body.strip_prefix("ordering:") {
        m.ordering = true;
        if why.trim().is_empty() {
            m.unjustified = Some("ordering:");
        }
    }
    m
}

/// Marks every line belonging to a `#[cfg(test)]`-gated item (in this
/// workspace: the `mod tests` blocks). Brace depth is counted on lexed
/// code, so braces in strings/comments cannot derail the region.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut region_depth: Option<i64> = None;
    let mut pending_attr = false;
    for (i, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        if let Some(depth) = region_depth.as_mut() {
            mask[i] = true;
            *depth += brace_delta(code);
            if *depth <= 0 {
                region_depth = None;
            }
            continue;
        }
        if code.contains("#[cfg(test)]") {
            pending_attr = true;
            mask[i] = true;
            continue;
        }
        if pending_attr {
            mask[i] = true;
            if code.is_empty() {
                continue; // comment/blank line between attribute and item
            }
            let delta = brace_delta(code);
            if code.contains('{') {
                pending_attr = false;
                if delta > 0 {
                    region_depth = Some(delta);
                }
            } else if code.contains(';') {
                pending_attr = false; // e.g. `#[cfg(test)] use …;`
            }
            // else: item signature spans lines; stay pending.
        }
    }
    mask
}

fn brace_delta(code: &str) -> i64 {
    code.chars().fold(0, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    })
}

/// Collects the markers covering line `at`: markers on the line itself,
/// plus markers from the comment run directly above — walking upward
/// through the (possibly multi-line) statement `at` belongs to, stopping
/// at the previous statement boundary (`;`/`{`/`}`) or a fully blank line.
fn markers_covering(lines: &[Line], at: usize) -> Markers {
    let mut m = parse_markers(&lines[at].comment);
    let mut j = at;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        let code = line.code.trim();
        if code.is_empty() {
            if line.comment.trim().is_empty() {
                break; // blank line: coverage does not jump gaps
            }
            m.merge(parse_markers(&line.comment));
        } else {
            if code.contains(';') || code.contains('{') || code.contains('}') {
                break; // previous statement ended here
            }
            m.merge(parse_markers(&line.comment)); // same-statement line
        }
    }
    m
}

/// Byte offsets of `tok` in `code` at identifier boundaries.
fn token_positions(code: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let start = from + pos;
        let end = start + tok.len();
        let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let pre = start == 0 || !ident(bytes[start - 1]);
        let post = end >= bytes.len() || !ident(bytes[end]);
        if pre && post {
            out.push(start);
        }
        from = end;
    }
    out
}

/// First non-space character at or after byte offset `from`.
fn next_sig_char(code: &str, from: usize) -> Option<char> {
    code[from..].chars().find(|c| !c.is_whitespace())
}

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Runs every applicable rule over one lexed file.
///
/// `rel` is the workspace-relative path used in diagnostics; `is_crate_root`
/// enables the `#![forbid(unsafe_code)]` header check (`src/lib.rs`,
/// `src/main.rs`, `src/bin/*.rs`).
pub fn check_file(
    rel: &str,
    lines: &[Line],
    policy: &CratePolicy,
    is_crate_root: bool,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let tests = test_mask(lines);
    let basename = rel.rsplit('/').next().unwrap_or(rel);
    let hot_path = policy.hot_path.contains(&basename);
    let mut has_forbid = false;

    let finding = |line: usize, rule: &'static str, message: String| Finding {
        file: rel.to_string(),
        line: line + 1,
        rule,
        message,
    };

    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        if code.contains("#![forbid(unsafe_code)]") {
            has_forbid = true;
        }

        // Bare markers missing a justification are findings wherever they
        // appear (including test modules — a content-free marker elsewhere
        // would train readers to ignore the vocabulary).
        if let Some(kw) = parse_markers(&line.comment).unjustified {
            findings.push(finding(
                i,
                rule::MARKER,
                format!("`// {kw}` marker has no justification — say *why*"),
            ));
        }

        if tests[i] {
            continue;
        }

        // unsafe-free: the keyword itself (the header check is below).
        if !token_positions(code, "unsafe").is_empty() {
            findings.push(finding(
                i,
                rule::UNSAFE,
                "`unsafe` is banned in non-compat crates (\
                 `#![forbid(unsafe_code)]` is workspace policy)"
                    .to_string(),
            ));
        }

        // atomic-ordering-justification: every crate.
        for pos in token_positions(code, "Ordering") {
            let after = &code[pos + "Ordering".len()..];
            let Some(variant) = after.strip_prefix("::") else {
                continue;
            };
            if ATOMIC_ORDERINGS.iter().any(|v| {
                variant.starts_with(v)
                    && !variant[v.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            }) && !markers_covering(lines, i).ordering
            {
                findings.push(finding(
                    i,
                    rule::ATOMIC,
                    "atomic memory ordering chosen without an adjacent \
                     `// ordering: <why>` justification"
                        .to_string(),
                ));
            }
        }

        // no-wall-clock: every crate.
        for pos in token_positions(code, "Instant") {
            if code[pos + "Instant".len()..].starts_with("::now") {
                findings.push(finding(
                    i,
                    rule::WALL_CLOCK,
                    "`Instant::now` is banned — results must not depend on wall \
                     clocks; the repo benchmark, a package outside the workspace, \
                     is the only place that times anything"
                        .to_string(),
                ));
            }
        }
        if !token_positions(code, "SystemTime").is_empty() {
            findings.push(finding(
                i,
                rule::WALL_CLOCK,
                "`SystemTime` is banned — results must not depend on wall \
                 clocks; the repo benchmark, a package outside the workspace, \
                 is the only place that times anything"
                    .to_string(),
            ));
        }

        if policy.result_affecting {
            // no-unordered-iteration: a `HashMap`/`HashSet` *use* (type
            // position or constructor — bare re-export mentions pass).
            for tok in ["HashMap", "HashSet"] {
                for pos in token_positions(code, tok) {
                    let used = matches!(
                        next_sig_char(code, pos + tok.len()),
                        Some('<') | Some(':') | Some('(')
                    ) || pos + tok.len() == code.trim_end().len();
                    if used && !markers_covering(lines, i).order_independent {
                        findings.push(finding(
                            i,
                            rule::UNORDERED,
                            format!(
                                "`{tok}` in a result-affecting crate: iteration \
                                 order is nondeterministic — annotate \
                                 `// lint: order-independent <why>` or use a \
                                 sorted/dense-index structure"
                            ),
                        ));
                    }
                }
            }

            // no-env-dependence.
            if code.contains("std::env") || code.contains("thread::current") {
                findings.push(finding(
                    i,
                    rule::ENV,
                    "environment/thread-identity reads are banned in \
                     result-affecting code — results must be pure functions \
                     of (topology, configs, schedule)"
                        .to_string(),
                ));
            }
        }

        // hot-path-panic.
        if hot_path {
            for probe in [".unwrap", ".expect"] {
                let mut from = 0;
                while let Some(pos) = code[from..].find(probe) {
                    let end = from + pos + probe.len();
                    from = end;
                    if code[end..].starts_with('(') && !markers_covering(lines, i).infallible {
                        findings.push(finding(
                            i,
                            rule::HOT_PATH_PANIC,
                            format!(
                                "`{}(` on an engine hot-path file: a panic here \
                                 kills a campaign worker — annotate \
                                 `// lint: infallible <why>` or handle the None/Err",
                                probe
                            ),
                        ));
                    }
                }
            }
        }
    }

    if is_crate_root && !has_forbid {
        findings.push(finding(
            0,
            rule::UNSAFE,
            "crate root is missing `#![forbid(unsafe_code)]` (required in \
             every non-compat crate)"
                .to_string(),
        ));
    }

    findings.sort_by_key(|f| (f.line, f.rule));
    // Two tokens on one line (`let m: HashMap<_, _> = HashMap::new()`) are
    // one problem with one fix: report it once.
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn policy_ra() -> CratePolicy {
        CratePolicy {
            name: "test",
            src: "src",
            result_affecting: true,
            hot_path: &["hot.rs"],
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}";
        let lines = lex(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn markers_cover_multiline_statements() {
        let src = "\n// lint: infallible slot is always written\nlet x = slots[k]\n    .lock()\n    .expect(\"never\");\n";
        let lines = lex(src);
        // The .expect line (index 4) must see the marker through the chain.
        assert!(markers_covering(&lines, 4).infallible);
        // …but a blank line breaks coverage.
        let src2 = "// lint: infallible reason\n\nlet x = y.expect(\"no\");";
        let lines2 = lex(src2);
        assert!(!markers_covering(&lines2, 2).infallible);
    }

    #[test]
    fn marker_must_lead_the_comment() {
        // Prose mentioning "ordering:" mid-comment is not a marker.
        let m = parse_markers("// ascending node ordering: determinism");
        assert!(!m.ordering);
        let m = parse_markers("// ordering: Relaxed is a pure claim ticket");
        assert!(m.ordering);
        assert!(m.unjustified.is_none());
    }

    #[test]
    fn statement_boundary_stops_coverage() {
        let src = "a(); // lint: infallible covers only this line\nb.expect(\"x\");";
        let lines = lex(src);
        assert!(!markers_covering(&lines, 1).infallible);
    }

    #[test]
    fn atomic_rule_ignores_cmp_ordering() {
        let src = "#![forbid(unsafe_code)]\nfn f() { if a.cmp(&b) == Ordering::Greater { } }";
        let f = check_file("x/lib.rs", &lex(src), &policy_ra(), true);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unordered_rule_skips_import_lists() {
        let src = "#![forbid(unsafe_code)]\nuse std::collections::{BTreeMap, HashMap};";
        let f = check_file("x/lib.rs", &lex(src), &policy_ra(), true);
        assert!(f.is_empty(), "bare import mention must pass: {f:?}");
    }

    #[test]
    fn unwrap_or_else_is_not_a_panic_site() {
        let src = "#![forbid(unsafe_code)]\nfn f() { x.unwrap_or_else(|| 3); y.unwrap_or(4); }";
        let f = check_file("hot.rs", &lex(src), &policy_ra(), true);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn forbid_attr_is_not_an_unsafe_use() {
        let src = "#![forbid(unsafe_code)]\nfn f() {}";
        let f = check_file("x/lib.rs", &lex(src), &policy_ra(), true);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_crate_root_header_is_reported() {
        let f = check_file("x/lib.rs", &lex("fn f() {}"), &policy_ra(), true);
        assert_eq!(rules_of(&f), vec![rule::UNSAFE]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn infra_crates_skip_result_affecting_rules() {
        let infra = CratePolicy {
            result_affecting: false,
            ..policy_ra()
        };
        let src = "#![forbid(unsafe_code)]\nlet m: HashMap<u32, u32> = HashMap::new();\nlet a = std::env::args();";
        let f = check_file("x/lib.rs", &lex(src), &infra, true);
        assert!(f.is_empty(), "{f:?}");
    }
}
