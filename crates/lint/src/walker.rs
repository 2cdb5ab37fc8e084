//! Deterministic workspace walker: visits every `.rs` file under each
//! policy's `src` directory in sorted order, lexes it, and feeds it to the
//! rule engine. Only `src/` trees are linted — `tests/` fixtures (including
//! this crate's own seeded-violation fixtures) and generated output are
//! out of scope by construction.
//!
//! One rule needs the whole repository: `unreferenced-pub` looks for each
//! `pub` item's name in every other `.rs` file under the root (tests,
//! examples and the benchmark included; `target` directories and hidden
//! ones left out).

use crate::lexer::{lex, Line};
use crate::policy::{CratePolicy, POLICIES};
use crate::rules::{check_file, identifiers, method_uses, pub_items, rule, Finding, PubKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Lints the whole workspace rooted at `root` (the directory containing
/// the top-level `Cargo.toml`). Findings come back sorted by file then
/// line, so output is stable across runs and platforms.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for policy in POLICIES {
        let src_dir = root.join(policy.src);
        if !src_dir.is_dir() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "policy table lists `{}` but `{}` does not exist — \
                     update crates/lint/src/policy.rs",
                    policy.name,
                    src_dir.display()
                ),
            ));
        }
        for file in rust_files(&src_dir)? {
            findings.extend(lint_file(root, &src_dir, &file, policy)?);
        }
    }
    findings.extend(unreferenced_pub(root)?);
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(findings)
}

/// Lints one file under one policy's `src` tree.
fn lint_file(
    root: &Path,
    src_dir: &Path,
    file: &Path,
    policy: &CratePolicy,
) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(file)?;
    let rel = file
        .strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/");
    let lines = lex(&src);
    Ok(check_file(
        &rel,
        &lines,
        policy,
        is_crate_root(src_dir, file),
    ))
}

/// Runs `unreferenced-pub` over the repository rooted at `root`.
fn unreferenced_pub(root: &Path) -> std::io::Result<Vec<Finding>> {
    let linted: Vec<PathBuf> = POLICIES.iter().map(|p| root.join(p.src)).collect();
    let mut files = Vec::new();
    for path in rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let defines = linted.iter().any(|src| path.starts_with(src));
        files.push((rel, lex(&std::fs::read_to_string(&path)?), defines));
    }
    Ok(unreferenced_pub_in(&files))
}

/// `unreferenced-pub` over `(path, lexed source, is a linted file)`
/// triples: a `pub` fn/const/static, or a `pub` field of a struct that
/// derives or implements `Default`, of a linted file whose name no other
/// file mentions is a finding, and so is a `pub` method no other file
/// calls (`.name(`) or reaches by path (`Type::name`).
pub(crate) fn unreferenced_pub_in(files: &[(String, Vec<Line>, bool)]) -> Vec<Finding> {
    // How many files name each identifier, and call each method name.
    let mut named: BTreeMap<String, usize> = BTreeMap::new();
    let mut called: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for (rel, lines, _) in files {
        for word in identifiers(lines) {
            *named.entry(word).or_default() += 1;
        }
        for word in method_uses(lines) {
            called.entry(word).or_default().push(rel);
        }
    }
    let mut findings = Vec::new();
    for (rel, lines, _) in files.iter().filter(|(_, _, defines)| *defines) {
        for item in pub_items(lines) {
            let used = if item.kind == PubKind::Method {
                called
                    .get(&item.name)
                    .is_some_and(|users| users.iter().any(|user| user != rel))
            } else {
                // The definition names it once; a second file is a reference.
                named.get(&item.name).copied().unwrap_or(0) >= 2
            };
            if !used {
                let name = &item.name;
                let (what, how) = match item.kind {
                    PubKind::Item => ("item", "named"),
                    PubKind::Method => ("item", "called"),
                    PubKind::Field => ("field", "named"),
                };
                findings.push(Finding {
                    file: rel.clone(),
                    line: item.line + 1,
                    rule: rule::UNREFERENCED_PUB,
                    message: format!(
                        "`pub` {what} `{name}` is {how} in no other file — delete it, \
                         make it private, or annotate `// lint: api <why>`"
                    ),
                });
            }
        }
    }
    findings
}

/// `src/lib.rs`, `src/main.rs`, and `src/bin/*.rs` are crate roots: the
/// files where `#![forbid(unsafe_code)]` must appear.
fn is_crate_root(src_dir: &Path, file: &Path) -> bool {
    let Ok(rel) = file.strip_prefix(src_dir) else {
        return false;
    };
    let rel = rel.to_string_lossy().replace('\\', "/");
    rel == "lib.rs"
        || rel == "main.rs"
        || (rel.starts_with("bin/") && rel.matches('/').count() == 1)
}

/// All `.rs` files under `dir`, recursively, in sorted path order,
/// skipping `target` directories and hidden ones.
fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().map(|n| n.to_string_lossy());
                if !name.is_some_and(|n| n == "target" || n.starts_with('.')) {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_root_detection() {
        let src = Path::new("/w/crates/x/src");
        assert!(is_crate_root(src, &src.join("lib.rs")));
        assert!(is_crate_root(src, &src.join("main.rs")));
        assert!(is_crate_root(src, &src.join("bin/tool.rs")));
        assert!(!is_crate_root(src, &src.join("engine.rs")));
        assert!(!is_crate_root(src, &src.join("nested/lib.rs")));
    }

    #[test]
    fn unreferenced_pub_counts_only_code_in_other_files() {
        let defining = "\
pub fn used() {}
pub fn unused() {}
pub const ONLY_HERE: u8 = 1;
fn f() -> u8 { ONLY_HERE }
/// Doc text.
// lint: api the one caller lives outside the repository
pub fn kept() {}
pub(crate) fn internal() {}
pub struct Unnamed;
pub const fn also_unused() {}
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
        let other = "\
use a::used;
pub use a::{
    unused,
    also_unused,
};
// unused, named in a comment
fn g() { let s = \"unused\"; }
";
        let files = vec![
            ("a.rs".to_string(), lex(defining), true),
            ("b.rs".to_string(), lex(other), false),
        ];
        let found: Vec<(usize, &str)> = unreferenced_pub_in(&files)
            .iter()
            .map(|f| (f.line, f.rule))
            .collect();
        let rule = rule::UNREFERENCED_PUB;
        assert_eq!(found, vec![(2, rule), (3, rule), (10, rule)]);
    }

    #[test]
    fn unreferenced_pub_methods_count_only_calls_and_paths() {
        let defining = "\
impl Run {
    pub fn events(&self) -> u64 { self.events }
    pub fn called(&self) {}
    pub fn by_path<'a, F: Fn() -> u8>(
        &'a mut self,
        f: F,
    ) {}
    pub fn turbofish(mut self) {}
    pub fn typed(self: Box<Self>) {}
    pub fn assoc(x: u8) -> u8 { x }
    pub fn only_here(&self) { self.only_here() }
}
";
        let other = "\
fn g(r: Run) -> u64 {
    r.called();
    let f = Run::by_path;
    r.turbofish::<u8>();
    r.typed ();
    r.events + Run::assoc(1)
}
";
        let files = vec![
            ("a.rs".to_string(), lex(defining), true),
            ("b.rs".to_string(), lex(other), false),
        ];
        let found: Vec<usize> = unreferenced_pub_in(&files).iter().map(|f| f.line).collect();
        // A field read names `events` but calls nothing; a call in the
        // defining file does not count.
        assert_eq!(found, vec![2, 11]);
    }

    /// `hot_path` entries match by basename, so one naming a deleted or
    /// renamed file would silently match nothing and drop its coverage.
    #[test]
    fn every_hot_path_entry_names_an_existing_file() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for policy in POLICIES {
            let files = rust_files(&root.join(policy.src)).expect("policy src tree is walkable");
            for name in policy.hot_path {
                assert!(
                    files
                        .iter()
                        .any(|f| f.file_name().is_some_and(|b| b == *name)),
                    "policy `{}` lists hot-path file `{name}` but no such file exists under {}",
                    policy.name,
                    policy.src
                );
            }
        }
    }
}
