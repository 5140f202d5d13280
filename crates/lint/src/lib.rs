#![forbid(unsafe_code)]
//! # beas-lint
//!
//! Project-specific static analysis for the BEAS workspace: a self-contained
//! token-level lexer plus a catalog of invariant rules (`L001`..`L011`) that
//! mechanically enforce disciplines the compiler cannot see — propagated
//! predicate errors, canonicalized join/index keys, quota checkpoints in
//! blocking loops, storage mutation behind the maintenance facade, approved
//! sync primitives in concurrent code, justified `#[allow]`s,
//! `#![forbid(unsafe_code)]` crate roots, canonical hashing in columnar
//! kernels, all product timing routed through `beas_obs::clock`, one
//! core-count read per process, and one bounded fetch loop.
//!
//! The rule catalog, the history behind each rule, and the suppression
//! syntax (`// beas-lint: allow(Lnnn) -- reason`) are documented in
//! `crates/lint/README.md`; the runnable *dynamic* counterparts the rules
//! point at are the `check_invariants()` methods on
//! `beas_storage::{Table, Database, ConstraintIndex}` and
//! `beas_core::BeasSystem`.
//!
//! Like the rand/proptest/criterion shims, this crate is dependency-free by
//! design: the build environment has no registry access, and the lint gate
//! must lint everything else in the workspace, including the shims'
//! consumers.

pub mod lexer;
pub mod rules;

pub use lexer::{lex, Token, TokenKind};
pub use rules::{lint_source, FileContext, Finding};

use std::path::{Path, PathBuf};

/// Every rule id the catalog enforces, in order.
pub const RULES: &[(&str, &str)] = &[
    ("L000", "malformed `beas-lint: allow(..)` suppression"),
    (
        "L001",
        "evaluation Results must propagate (no unwrap_or/ok on evaluate calls)",
    ),
    (
        "L002",
        "raw Value-keyed containers require beas_common::key canonicalization",
    ),
    (
        "L003",
        "blocking sort/aggregate/drain loops must checkpoint the session quota",
    ),
    (
        "L004",
        "storage mutation only via the storage crate or the maintenance facade",
    ),
    (
        "L005",
        "no static mut / non-approved sync primitives in concurrent code",
    ),
    ("L006", "every #[allow(..)] carries a justification comment"),
    ("L007", "non-shim crate roots carry #![forbid(unsafe_code)]"),
    (
        "L008",
        "columnar kernels hash via beas_common::key and reference the vectorized differential harness",
    ),
    (
        "L009",
        "raw Instant/SystemTime reads outside beas_obs; timing routes through beas_obs::clock",
    ),
    (
        "L010",
        "available_parallelism only in beas_common::default_workers (one core-count read per process)",
    ),
    (
        "L011",
        "constraint-index lookups in crates/core only in the bounded executor (one fetch loop)",
    ),
];

/// Directory names never descended into: build output, the in-tree
/// dependency shims (vendored stand-ins, not project code), and the lint
/// fixture corpus (deliberately-broken snippets).
const SKIP_DIRS: &[&str] = &["target", "shims", "fixtures", ".git"];

/// Lint one file on disk.  `rel` is its workspace-relative path (used for
/// scoping rules and labeling findings).
pub fn lint_file(path: &Path, rel: &str) -> Result<Vec<Finding>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let ctx = FileContext::from_path(rel);
    Ok(lint_source(&src, &ctx))
}

/// Walk the workspace rooted at `root` and lint every `.rs` file outside
/// the skipped directories (`target`, `shims`, `fixtures`, `.git`).
/// Findings come back sorted by (file, line, rule).
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files).map_err(|e| format!("walking {}: {e}", root.display()))?;
    files.sort();
    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(lint_file(&file, &rel)?);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render findings as a JSON array (stable field order, no dependencies).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_escapes_and_is_stable() {
        let findings = vec![Finding {
            rule: "L001",
            file: "a/b.rs".into(),
            line: 3,
            message: "say \"no\"".into(),
        }];
        let json = findings_to_json(&findings);
        assert!(json.contains("\"rule\": \"L001\""));
        assert!(json.contains("say \\\"no\\\""));
        assert_eq!(findings_to_json(&[]), "[]");
    }

    #[test]
    fn file_context_classification() {
        assert!(FileContext::from_path("crates/core/src/lib.rs").is_crate_root);
        assert!(FileContext::from_path("src/lib.rs").is_crate_root);
        assert!(FileContext::from_path("crates/bench/src/bin/bench_gate.rs").is_crate_root);
        assert!(!FileContext::from_path("crates/shims/rand/src/lib.rs").is_crate_root);
        assert!(!FileContext::from_path("crates/core/src/system.rs").is_crate_root);
        assert!(FileContext::from_path("crates/service/tests/concurrency.rs").is_test_code);
        assert!(FileContext::from_path("examples/quickstart.rs").is_test_code);
        assert!(FileContext::from_path("crates/bench/benches/micro_ops.rs").is_test_code);
    }
}
