//! # ent-lint — workspace static analysis for parser-safety invariants
//!
//! An offline, dependency-free analyzer that machine-checks the repo
//! invariants no compiler lint can state. It lexes the workspace with a
//! hand-rolled Rust lexer (no `syn`: the build is vendored-only), builds a
//! per-file symbol table plus an approximate intra-crate call graph
//! ([`symbols`]), and enforces seven coded lints:
//!
//! | code | invariant |
//! |------|-----------|
//! | E001 | no computed slice indexing in non-test ingest code (`wire`, `pcap`, `proto`, `flow`, `core`); a literal or const index behind an up-front length check passes |
//! | E002 | no unchecked offset arithmetic or truncating casts of length-derived values in parser hot paths (`wire`, `pcap`, `proto`); no std-SipHash `HashMap::new`/`default`/`with_capacity` in the named hot-map modules (`flow/table.rs`, `core/pipeline.rs`); no per-call `Vec::new()`/`vec![..]`/`.to_vec()` allocation in the named hot emission modules (`gen/synth.rs`, `wire/build.rs`) |
//! | E004 | every `crates/proto/src/*.rs` analyzer module is listed in `registry.rs`'s `ANALYZER_MODULES` (and vice versa) |
//! | E005 | every `Table N`/`Figure N` claimed in `crates/core/src/analyses` is referenced from test code |
//! | E006 | no nondeterminism on report-feeding paths in analysis crates: std `HashMap`/`HashSet` iteration reaching a report/signature/finalize sink without a sort or order-insensitive reduction, wall-clock/thread-id/env reads, float accumulation over unordered iteration |
//! | E008 | error-taxonomy totality: public fallible fns in ingest crates return typed taxonomy errors — no `Result<_, String>`, no `bool`/`Option` smuggling on fallible-verb names, no truncating `as` casts inside `Err(..)` construction |
//! | E009 | checkpoint/bench schema hygiene: every `Checkpoint` payload field and every key the `ent-bench-*` schema table declares is referenced from test code |
//!
//! Every check has one enforcer. What clippy or rustc already rejects is
//! theirs: `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
//! `unimplemented!` are denied for every crate by `[workspace.lints.clippy]`
//! (formerly E001's other half), the crate-hygiene attributes by
//! `[workspace.lints]` (formerly E003), and shared-state discipline by
//! `unsafe_code = "forbid"` plus `thread::scope`'s `Send` bound (formerly
//! E007). The rule scopes are module `const`s beside each check.
//!
//! E006, E008 and E009 are symbol-aware: they consult the call graph
//! ([`symbols::WorkspaceSymbols`]) rather than matching tokens alone, so a
//! map iteration is only a finding when its enclosing function actually
//! reaches a sink. Findings carry `file:line` anchors. A finding is
//! silenced by an inline comment on the same line or the line above:
//!
//! ```text
//! // ent-lint: allow(E001) — index bounded by the length check above
//! let b = buf[off];
//! ```
//!
//! The workspace runs `ent-lint` self-hosted as a tier-1 test
//! (`crates/lint/tests/selfhost.rs`): the tree must stay at zero findings.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checks;
pub mod checks_det;
pub mod lexer;
pub mod report;
pub mod source;
pub mod symbols;
pub mod walk;

pub use report::{Code, Finding, Report};

use source::SourceFile;
use std::io;
use std::path::Path;

/// Lint a whole workspace rooted at `root` (the directory holding
/// `crates/`). Reads every `.rs` file outside skipped directories, runs
/// all checks, applies inline suppressions, and returns the sorted report.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let entries = walk::walk_workspace(root)?;
    let mut sources = Vec::with_capacity(entries.len());
    for e in entries {
        let bytes = std::fs::read(&e.abs)?;
        sources.push(SourceFile::new(e.rel, e.crate_name, e.is_test_file, bytes));
    }
    Ok(lint_sources(sources))
}

/// Run all checks over pre-loaded sources. Exposed for the fixture tests.
pub fn lint_sources(sources: Vec<SourceFile>) -> Report {
    let mut findings = Vec::new();
    for file in &sources {
        findings.extend(checks::e001(file));
        findings.extend(checks::e002(file));
    }
    findings.extend(checks::e004(&sources));
    findings.extend(checks::e005(&sources));
    findings.extend(checks_det::symbol_checks(&sources));

    let mut suppressed = 0usize;
    findings.retain(|f| {
        let keep = !sources
            .iter()
            .find(|s| s.rel == f.file)
            .is_some_and(|s| s.suppressed(f.line, f.code));
        if !keep {
            suppressed += 1;
        }
        keep
    });
    findings.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    Report { files_scanned: sources.len(), findings, suppressed }
}

/// Walk upward from `start` to find the workspace root: the first ancestor
/// containing both `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_is_applied_and_counted() {
        let src = "fn f(b: &[u8], i: usize) -> u8 {\n    // ent-lint: allow(E001)\n    b[i]\n}\n";
        let file = SourceFile::new("crates/wire/src/x.rs".into(), "wire".into(), false, src.as_bytes().to_vec());
        let report = lint_sources(vec![file]);
        assert!(report.findings.iter().all(|f| f.code != Code::E001));
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn findings_sorted_by_location() {
        let src = "fn f(b: &[u8], i: usize) -> u8 {\n    b[i] + b[i + 1]\n}\nfn g(b: &[u8], i: usize) -> u8 {\n    b[i]\n}\n";
        let file = SourceFile::new("crates/wire/src/x.rs".into(), "wire".into(), false, src.as_bytes().to_vec());
        let report = lint_sources(vec![file]);
        let lines: Vec<u32> = report.findings.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(report.count(Code::E001), 3);
    }
}
