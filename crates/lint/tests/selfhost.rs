//! Tier-1 gate: `ent-lint` run self-hosted over this workspace must report
//! zero findings. Any new computed index in ingest code, unchecked parser
//! arithmetic, untested paper artifact, nondeterminism hazard or untyped
//! public error fails `cargo test` — not just `scripts/check.sh`. Beside
//! it sit the two workspace-shape checks no compiler makes: every member
//! opts into `[workspace.lints]`, and every source file is a module.

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

/// E005 looks for references in test code, so it is only as good as the
/// walk: if the walker ever stops descending into the `tests` member, every
/// paper artifact reads as uncovered — or, worse, a fixture's seeded
/// reference covers one. Pin the coverage here.
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

/// A `.rs` file under `crates/*/src` that no `mod name;` item in its parent
/// module file names is never compiled, so neither rustc nor clippy nor
/// ent-lint ever checks it. The parent is the crate root (`lib.rs` or
/// `main.rs`) for a top-level file, else the directory's `mod.rs` or `dir.rs`.
#[test]
fn every_source_file_is_a_declared_module() {
    let root = workspace_root().expect("workspace root above crates/lint");
    let declares = |parent: &String, name: &str| {
        std::fs::read_to_string(root.join(parent)).is_ok_and(|text| text.contains(&format!("mod {name};")))
    };
    let entries = walk::walk_workspace(&root).expect("workspace readable");
    let orphans: Vec<&str> = entries
        .iter()
        .map(|e| e.rel.as_str())
        .filter(|rel| rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src"))
        .filter(|rel| {
            let Some((dir, name)) = rel.strip_suffix(".rs").and_then(|r| r.rsplit_once('/')) else { return false };
            let parents = if dir.ends_with("/src") {
                [format!("{dir}/lib.rs"), format!("{dir}/main.rs")]
            } else {
                [format!("{dir}/mod.rs"), format!("{dir}.rs")]
            };
            !["lib", "main", "mod"].contains(&name) && !parents.iter().any(|p| declares(p, name))
        })
        .collect();
    assert!(orphans.is_empty(), "source files no `mod` item declares: {orphans:?}");
}
