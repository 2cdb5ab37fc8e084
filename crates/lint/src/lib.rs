//! `detlint` — the in-repo determinism & concurrency static-analysis pass.
//!
//! (`ARCHITECTURE.md` at the repository root lists the determinism
//! contracts this pass backs up, layer by layer.)
//!
//! This workspace's headline property is **bit-for-bit determinism**: a
//! campaign's results are a pure function of (topology, configs,
//! schedule), independent of thread count, hash seeds, environment, and
//! wall clocks. The type system cannot enforce that by itself — `HashMap`
//! iteration order, `Ordering::Relaxed`, and `std::env` reads all
//! type-check fine and silently break it. `detlint` closes the gap with
//! six lexical rules, enforced by CI's `detlint` job, and a seventh that
//! keeps the public surface to what is used:
//!
//! 1. **no-unordered-iteration** — `HashMap`/`HashSet` in a
//!    result-affecting crate needs `// lint: order-independent <why>`.
//! 2. **atomic-ordering-justification** — every atomic `Ordering::*`
//!    needs an adjacent `// ordering: <why>` comment.
//! 3. **no-wall-clock** — no `Instant::now`/`SystemTime` in any policy
//!    crate; only the repo benchmark, outside the workspace, times.
//! 4. **unsafe-free** — no `unsafe`, and every non-compat crate root
//!    declares `#![forbid(unsafe_code)]`.
//! 5. **hot-path-panic** — `unwrap()`/`expect(` on engine hot-path files
//!    needs `// lint: infallible <why>`.
//! 6. **no-env-dependence** — `std::env`/`thread::current` banned in
//!    result-affecting code.
//! 7. **unreferenced-pub** — a `pub` fn/const/static, or a `pub` field of
//!    a struct that derives or implements `Default`, whose name no other
//!    `.rs` file of the repository mentions (comments and `pub use`
//!    re-exports do not count), or a `pub` method (a fn taking `self`)
//!    that no other file calls as `.name(` or reaches as `Type::name`,
//!    needs `// lint: api <why>`.
//!
//! Deliberately hermetic: no `syn`, no `proc-macro2`, no filesystem
//! crawler crates — a hand-rolled [`lexer`] plus a [`policy`] table and a
//! [`rules`] engine, so the pass builds offline and runs in well under a
//! second on the whole workspace.
//!
//! Beside the pass, [`mutants`] holds the committed table of mutation
//! checks: which deliberate break of which arm which tests must catch.
//!
//! Run it locally with `cargo run -p bgpworms-lint --release`; the
//! workspace self-check also runs inside `cargo test` (see
//! `tests/self_check.rs`), so a violation fails the ordinary test suite
//! too, not just the dedicated CI job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod mutants;
pub mod policy;
pub mod rules;
mod walker;

pub use rules::Finding;
pub use walker::lint_workspace;

use lexer::lex;
use policy::CratePolicy;
use rules::check_file;

/// Lints a single source string under an explicit policy — the test
/// entry point for fixture files, bypassing the filesystem walker.
pub fn lint_source(
    rel: &str,
    src: &str,
    policy: &CratePolicy,
    is_crate_root: bool,
) -> Vec<Finding> {
    check_file(rel, &lex(src), policy, is_crate_root)
}

/// Runs `unreferenced-pub` over `(path, source, is a linted file)` triples
/// — the test entry point for its fixtures. Only a linted file's `pub`
/// items are checked; every file's code counts as a reference.
pub fn lint_unreferenced_pub(files: &[(&str, &str, bool)]) -> Vec<Finding> {
    let lexed: Vec<_> = files
        .iter()
        .map(|&(rel, src, linted)| (rel.to_string(), lex(src), linted))
        .collect();
    walker::unreferenced_pub_in(&lexed)
}
