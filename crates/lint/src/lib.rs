//! `mmjoin-lint` — the workspace's repo-specific static-analysis pass.
//!
//! PRs 8–9 made the hot path fast by going unsafe (SIMD intrinsics, the
//! raw-pointer strided GEMM kernels, the chunk-claim tile scheduler, the
//! lock-free service metrics). The invariants that keep that sound —
//! every `unsafe` site carries its bounds argument, all parallelism
//! routes through the shared executor, every lock recovers from
//! poisoning, disabled tracing costs one relaxed atomic — previously
//! lived only in prose. This crate machine-checks them on every CI run,
//! the way the bench gates machine-check performance.
//!
//! * [`scan`] — line-oriented tokenizer separating code from comments,
//!   strings and test regions;
//! * [`rules`] — the seven rule passes plus the
//!   `// lint:allow(<rule>): <reason>` escape hatch;
//! * [`report`] — the JSON artifact CI uploads and `ci/check_lint.py`
//!   validates;
//! * [`selftest`] — seeded violations proving each rule still fires.
//!
//! Run it with `cargo run -p mmjoin-lint -- check` (see `README.md`).

pub mod report;
pub mod rules;
pub mod scan;
pub mod selftest;

use rules::Outcome;
use std::path::{Path, PathBuf};

/// Directories scanned, relative to the workspace root. `shims/` is
/// excluded on purpose: it vendors stand-ins for *external* crates and
/// is not governed by this repo's internal contracts.
pub const SCAN_DIRS: &[&str] = &["crates", "tests", "examples", "benchmark"];

/// Recursively collects `.rs` files under `root`'s scan dirs, skipping
/// build output. Paths come back sorted for deterministic reports.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let top = root.join(dir);
        if top.is_dir() {
            walk(&top, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace under `root`, returning the merged outcome
/// and the number of files scanned.
pub fn check_workspace(root: &Path) -> std::io::Result<(Outcome, usize)> {
    let files = collect_files(root)?;
    let mut out = Outcome::default();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        out.merge(rules::check_file(&scan::scan_str(&rel, &src)));
    }
    // Deterministic ordering: by path, then line, then rule.
    out.findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.allowances
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok((out, files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dogfood: the lint runs clean over its own workspace. This is the
    /// same assertion CI makes via `mmjoin-lint -- check`; having it in
    /// `cargo test` keeps local development honest too.
    #[test]
    fn workspace_is_clean() {
        // crates/lint/ → workspace root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let (out, files) = check_workspace(&root).unwrap();
        assert!(
            files > 50,
            "expected to scan the whole workspace, saw {files}"
        );
        assert!(
            out.findings.is_empty(),
            "workspace has lint violations:\n{}",
            out.findings
                .iter()
                .map(|v| format!("  {}:{}: [{}] {}", v.path, v.line, v.rule, v.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
        // The audit trail is populated (the workspace legitimately uses
        // SeqCst shutdown latches and bench client threads via allows).
        assert!(!out.allowances.is_empty());
    }
}
