//! Fixture tests: each seeded-violation file under `tests/fixtures/` pins
//! the exact (line, rule) set detlint reports, and each annotated twin
//! pins zero findings. The fixtures are data, not compiled code — they
//! live below `tests/` so neither cargo targets nor the workspace walker
//! (which only visits `src/` trees) ever touch them.

use bgpworms_lint::policy::CratePolicy;
use bgpworms_lint::rules::rule;
use bgpworms_lint::{lint_source, lint_unreferenced_pub, Finding};

/// The strictest policy: every rule armed, fixture file on the hot path.
const STRICT: CratePolicy = CratePolicy {
    name: "fixture",
    src: "tests/fixtures",
    result_affecting: true,
    hot_path: &[
        "hot_path_bad.rs",
        "hot_path_ok.rs",
        "marker_bad.rs",
        "clean_lib.rs",
    ],
};

fn lint_fixture(name: &str, src: &str, is_crate_root: bool) -> Vec<Finding> {
    lint_source(name, src, &STRICT, is_crate_root)
}

fn lines_and_rules(findings: &[Finding]) -> Vec<(usize, &'static str)> {
    findings.iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn unordered_fires_on_bad() {
    let f = lint_fixture(
        "unordered_bad.rs",
        include_str!("fixtures/unordered_bad.rs"),
        true,
    );
    assert_eq!(
        lines_and_rules(&f),
        vec![
            (9, rule::UNORDERED),
            (13, rule::UNORDERED),
            (15, rule::UNORDERED)
        ],
        "{f:#?}"
    );
}

#[test]
fn unordered_passes_when_annotated() {
    let f = lint_fixture(
        "unordered_ok.rs",
        include_str!("fixtures/unordered_ok.rs"),
        true,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn atomic_fires_on_bad_but_not_on_cmp_ordering() {
    let f = lint_fixture(
        "atomic_bad.rs",
        include_str!("fixtures/atomic_bad.rs"),
        true,
    );
    assert_eq!(
        lines_and_rules(&f),
        vec![(9, rule::ATOMIC), (13, rule::ATOMIC)],
        "{f:#?}"
    );
}

#[test]
fn atomic_passes_when_justified() {
    let f = lint_fixture("atomic_ok.rs", include_str!("fixtures/atomic_ok.rs"), true);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn wall_clock_fires_outside_bench() {
    let f = lint_fixture(
        "wall_clock_bad.rs",
        include_str!("fixtures/wall_clock_bad.rs"),
        true,
    );
    assert_eq!(
        lines_and_rules(&f),
        vec![(7, rule::WALL_CLOCK), (11, rule::WALL_CLOCK)],
        "{f:#?}"
    );
}

#[test]
fn wall_clock_fires_in_infra_crates_too() {
    let infra = CratePolicy {
        result_affecting: false,
        ..STRICT
    };
    let f = lint_source(
        "wall_clock_bad.rs",
        include_str!("fixtures/wall_clock_bad.rs"),
        &infra,
        true,
    );
    assert_eq!(
        lines_and_rules(&f),
        vec![(7, rule::WALL_CLOCK), (11, rule::WALL_CLOCK)],
        "{f:#?}"
    );
}

#[test]
fn env_dependence_fires() {
    let f = lint_fixture("env_bad.rs", include_str!("fixtures/env_bad.rs"), true);
    assert_eq!(
        lines_and_rules(&f),
        vec![(6, rule::ENV), (10, rule::ENV)],
        "{f:#?}"
    );
}

#[test]
fn hot_path_panic_fires_but_adapters_and_tests_are_exempt() {
    let f = lint_fixture(
        "hot_path_bad.rs",
        include_str!("fixtures/hot_path_bad.rs"),
        true,
    );
    assert_eq!(
        lines_and_rules(&f),
        vec![(7, rule::HOT_PATH_PANIC), (12, rule::HOT_PATH_PANIC)],
        "{f:#?}"
    );
}

#[test]
fn hot_path_panic_passes_when_justified() {
    let f = lint_fixture(
        "hot_path_ok.rs",
        include_str!("fixtures/hot_path_ok.rs"),
        true,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn off_hot_path_files_may_unwrap() {
    let off = CratePolicy {
        hot_path: &[],
        ..STRICT
    };
    let f = lint_source(
        "hot_path_bad.rs",
        include_str!("fixtures/hot_path_bad.rs"),
        &off,
        true,
    );
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn unsafe_block_and_missing_header_both_fire() {
    let f = lint_fixture(
        "unsafe_bad.rs",
        include_str!("fixtures/unsafe_bad.rs"),
        true,
    );
    assert_eq!(
        lines_and_rules(&f),
        vec![(1, rule::UNSAFE), (6, rule::UNSAFE)],
        "{f:#?}"
    );
}

#[test]
fn missing_header_not_required_off_crate_roots() {
    // Same file linted as a non-root module: only the `unsafe` use fires.
    let f = lint_fixture(
        "unsafe_bad.rs",
        include_str!("fixtures/unsafe_bad.rs"),
        false,
    );
    assert_eq!(lines_and_rules(&f), vec![(6, rule::UNSAFE)], "{f:#?}");
}

#[test]
fn bare_markers_need_justifications_but_still_suppress() {
    let f = lint_fixture(
        "marker_bad.rs",
        include_str!("fixtures/marker_bad.rs"),
        true,
    );
    assert_eq!(
        lines_and_rules(&f),
        vec![(10, rule::MARKER), (15, rule::MARKER), (19, rule::MARKER)],
        "one finding per problem, not marker + base rule: {f:#?}"
    );
}

#[test]
fn unnamed_pub_fields_of_default_structs_fire() {
    let f = lint_unreferenced_pub(&[
        (
            "pub_field_bad.rs",
            include_str!("fixtures/pub_field_bad.rs"),
            true,
        ),
        (
            "pub_field_user.rs",
            include_str!("fixtures/pub_field_user.rs"),
            false,
        ),
    ]);
    let rule = rule::UNREFERENCED_PUB;
    assert_eq!(
        lines_and_rules(&f),
        vec![(12, rule), (26, rule), (33, rule)],
        "{f:#?}"
    );
    assert!(
        f[0].message
            .starts_with("`pub` field `fixture_unnamed` is named in no other file"),
        "{}",
        f[0].message
    );
}

#[test]
fn pub_fields_pass_when_named_private_or_annotated() {
    let f = lint_unreferenced_pub(&[
        (
            "pub_field_ok.rs",
            include_str!("fixtures/pub_field_ok.rs"),
            true,
        ),
        (
            "pub_field_user.rs",
            include_str!("fixtures/pub_field_user.rs"),
            false,
        ),
    ]);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn lexer_robustness_fixture_is_clean() {
    let f = lint_fixture("clean_lib.rs", include_str!("fixtures/clean_lib.rs"), true);
    assert!(
        f.is_empty(),
        "tokens in strings/comments must never fire: {f:#?}"
    );
}

#[test]
fn findings_render_as_file_line_rule() {
    let f = lint_fixture("env_bad.rs", include_str!("fixtures/env_bad.rs"), true);
    let rendered = f[0].to_string();
    assert!(
        rendered.starts_with("env_bad.rs:6: [no-env-dependence]"),
        "{rendered}"
    );
}
