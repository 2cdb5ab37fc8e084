//! Deterministic workspace walker: visits every `.rs` file under each
//! policy's `src` directory in sorted order, lexes it, and feeds it to the
//! rule engine. Only `src/` trees are walked — `tests/` fixtures (including
//! this crate's own seeded-violation fixtures) and generated output are
//! out of scope by construction.

use crate::lexer::lex;
use crate::policy::{CratePolicy, POLICIES};
use crate::rules::{check_file, Finding};
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

/// All `.rs` files under `dir`, recursively, in sorted path order.
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
                stack.push(path);
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
