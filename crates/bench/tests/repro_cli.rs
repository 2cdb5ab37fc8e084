//! Drives the built `repro` binary: one good run, and every malformed
//! command line must exit 2 with a `repro: …` line instead of panicking.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A per-test output directory under the system temp dir (never created
/// here: `repro` creates `--out` itself).
fn out_dir(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bgpworms-repro-cli-{}-{test}", std::process::id()))
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn table1_tiny_writes_what_it_prints() {
    let dir = out_dir("table1");
    let out = repro(&[
        "table1",
        "--scale",
        "tiny",
        "--out",
        dir.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let written = std::fs::read_to_string(dir.join("table1.txt")).expect("table1.txt written");
    assert!(!written.is_empty());
    assert_eq!(stdout, format!("=== table1 ===\n{written}\n"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn bad_invocations_exit_2_without_panicking() {
    let dir = out_dir("bad");
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let bad: [&[&str]; 9] = [
        &[],
        &["table1", "--out", dir_arg, "--scale", "galactic"],
        &["table1", "--out", dir_arg, "--seed", "x"],
        &["table1", "--out", dir_arg, "--sample"],
        &["table1", "--out"],
        &["table1", "--out", dir_arg, "--seed"],
        &["table1", "--out", dir_arg, "--scale"],
        &["table1", "--out", dir_arg, "--frobnicate"],
        &["tabel1", "--out", dir_arg],
    ];
    for args in bad {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("repro: "), "{args:?}: {stderr}");
        assert_eq!(stderr.matches("repro: ").count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("\nusage: repro "), "{args:?}: {stderr}");
        assert!(stderr.contains("\n  full-table "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    assert!(
        !dir.exists(),
        "a rejected command line must not touch --out"
    );
}

#[test]
fn wild_artefacts_tiny_match_the_recorded_bytes() {
    // The §7 renderers end to end, byte for byte: `wild_tiny_2018.txt` is
    // the concatenated stdout of these eight runs, recorded at 77c08b5
    // (before the §7 entry points moved onto one `World`).
    let dir = out_dir("wild");
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let mut stdout = String::new();
    for artefact in [
        "wild-propagation",
        "wild-rtbh",
        "wild-steering",
        "wild-routeserver",
        "blackhole-survey",
        "survey-likely",
        "survey-steering",
        "survey-location",
    ] {
        let out = repro(&[
            artefact, "--scale", "tiny", "--seed", "2018", "--out", dir_arg,
        ]);
        assert!(out.status.success(), "{artefact}: {out:?}");
        stdout += std::str::from_utf8(&out.stdout).expect("utf-8 stdout");
    }
    assert_eq!(stdout, include_str!("wild_tiny_2018.txt"));
    std::fs::remove_dir_all(&dir).expect("clean up");
}
