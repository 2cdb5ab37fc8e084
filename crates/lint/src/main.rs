//! `detlint` binary: lint the workspace, print findings, exit nonzero on
//! any. CI runs this (`cargo run -p bgpworms-lint --release`) as its
//! `detlint` job; locally it takes an optional `--root <dir>`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // This is tooling, not simulation: reading argv here is sanctioned
    // (the lint crate is not result-affecting in the policy table).
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!(
                    "detlint — determinism & concurrency lint for this workspace\n\n\
                     usage: detlint [--root <workspace-dir>]\n\n\
                     Exit codes: 0 clean, 1 findings, 2 usage/io error."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("detlint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Default to the workspace containing this crate, so `cargo run -p
    // bgpworms-lint` works from any cwd.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    let findings = match bgpworms_lint::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("detlint: workspace clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "detlint: {} finding{} — see crates/lint/src/rules.rs for the \
             marker vocabulary",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
        ExitCode::FAILURE
    }
}
