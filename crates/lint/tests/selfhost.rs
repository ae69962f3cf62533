//! Tier-1 gate: `ent-lint` run self-hosted over this workspace must report
//! zero findings. Any new computed index in ingest code, unchecked parser
//! arithmetic, unregistered analyzer, untested paper artifact,
//! nondeterminism hazard, untyped public error or uncovered schema key
//! fails `cargo test` — not just `scripts/check.sh`.

use ent_lint::{find_workspace_root, lint_workspace, walk};
use std::path::{Path, PathBuf};

fn workspace_root() -> Option<PathBuf> {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
}

#[test]
fn workspace_lints_clean() {
    let root = workspace_root().expect("workspace root above crates/lint");
    let report = lint_workspace(&root).expect("workspace readable");
    assert!(report.files_scanned > 50, "walker saw too few files: {}", report.files_scanned);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.findings.is_empty(),
        "ent-lint found {} issue(s) in the workspace:\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}

/// E005 and E009 look for references in test code, so they are only as
/// good as the walk: if the walker ever stops descending into the `tests`
/// member, every artifact and schema key reads as uncovered — or, worse,
/// a fixture's seeded reference covers one. Pin the coverage here.
#[test]
fn harness_crates_are_walked() {
    let root = workspace_root().expect("workspace root above crates/lint");
    let entries = walk::walk_workspace(&root).expect("workspace readable");
    assert!(
        entries.iter().any(|e| e.rel.starts_with("tests/")),
        "walker skipped the tests/ harness crate entirely"
    );
    // Fixture trees must never leak into the self-hosted walk: they hold
    // seeded violations by design.
    assert!(
        !entries.iter().any(|e| e.rel.contains("fixtures/")),
        "seeded-violation fixtures leaked into the workspace walk"
    );
}

/// The panic-surface, `unsafe_code` and `missing_docs` policy is
/// `[workspace.lints]`; a member whose manifest has no `[lints]` table
/// opts out of all of it without a word from cargo.
#[test]
fn every_member_opts_into_the_lint_policy() {
    let root = workspace_root().expect("workspace root above crates/lint");
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ readable");
    let mut members: Vec<PathBuf> = crates.map(|e| e.expect("dir entry").path()).collect();
    members.extend([root.join("examples"), root.join("tests")]);
    for manifest in members.iter().map(|dir| dir.join("Cargo.toml")) {
        let text = std::fs::read_to_string(&manifest).expect("member manifest readable");
        assert!(text.lines().any(|l| l.starts_with("[lints")), "{} has no [lints] table", manifest.display());
    }
}
