//! # ent-lint — workspace static analysis for parser-safety invariants
//!
//! An offline, dependency-free analyzer that machine-checks the repo
//! invariants no compiler lint can state. It lexes the workspace with a
//! hand-rolled Rust lexer (no `syn`: the build is vendored-only), reads
//! fn signatures off the token stream ([`symbols`]), and enforces four
//! coded lints, each a per-file check except E005's workspace-wide
//! coverage join:
//!
//! | code | invariant |
//! |------|-----------|
//! | E001 | no computed slice indexing in non-test ingest code (`wire`, `pcap`, `proto`, `flow`, `core`); a literal or const index behind an up-front length check passes |
//! | E002 | no unchecked offset arithmetic or truncating casts of length-derived values in parser hot paths (`wire`, `pcap`, `proto`) |
//! | E005 | every `Table N`/`Figure N` claimed in `crates/core/src/analyses` is referenced from test code |
//! | E008 | error-taxonomy totality: public fallible fns in ingest crates return typed taxonomy errors — no `Result<_, String>`, no `bool`/`Option` smuggling on fallible-verb names, no truncating `as` casts inside `Err(..)` construction |
//!
//! Every check has one enforcer. What clippy or rustc already rejects is
//! theirs: `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
//! `unimplemented!` are denied for every crate by `[workspace.lints.clippy]`
//! (formerly E001's other half), and so is report nondeterminism (formerly
//! E006): `clippy.toml`'s `disallowed_types` keeps std `HashMap`/`HashSet`
//! out of the report modules, `disallowed_methods` denies clock, thread-id
//! and environment reads, and `iter_over_hash_type` a `for` over a hash
//! collection. rustc holds the crate-hygiene attributes through
//! `[workspace.lints]` (formerly E003), and shared-state discipline through
//! `unsafe_code = "forbid"` plus `thread::scope`'s `Send` bound (formerly
//! E007). What the workspace's own types and tests already pin is theirs
//! too: the hot connection map's hasher by its type and the emission path's
//! allocations by `gen_alloc_pin.rs` (formerly E002's hot-module halves),
//! checkpoint fields by `walk_payload!` and bench keys by the emitter
//! goldens (formerly E009), and orphan modules by `selfhost.rs` (formerly
//! E004). The rule scopes are module `const`s beside each check.
//!
//! Findings carry `file:line` anchors. A finding is silenced by an inline
//! comment on the same line or the line above:
//!
//! ```text
//! // ent-lint: allow(E001) — index bounded by the length check above
//! let b = buf[off];
//! ```
//!
//! The workspace runs `ent-lint` self-hosted as a tier-1 test
//! (`crates/lint/tests/selfhost.rs`): the tree must stay at zero findings.

pub mod checks;
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
        findings.extend(checks::e008(file));
    }
    findings.extend(checks::e005(&sources));

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
