//! Tier-1 gate: `ent-lint` run self-hosted over this workspace must report
//! zero findings. Any new computed index in ingest code, unchecked parser
//! arithmetic, untested paper artifact or untyped public error fails
//! `cargo test` — not just `scripts/check.sh`. Beside it sit the
//! workspace-shape checks no compiler makes: every member opts into
//! `[workspace.lints]`, the determinism lints stay configured, and every
//! source file is a module.

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

/// Report determinism is clippy's (DESIGN §6a): std `HashMap`/`HashSet`
/// are denied in the three report modules, and clock, thread-id and
/// environment reads and a `for` over a hash collection everywhere. Each
/// piece is one line of configuration that could go without a word from
/// cargo or clippy, so this names whichever one is missing.
#[test]
fn determinism_lints_stay_configured() {
    let root = workspace_root().expect("workspace root above crates/lint");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
    // The uncommented lines of a TOML table or array, up to the next one.
    let section = |text: &str, head: &str| -> Vec<String> {
        text.lines()
            .map(str::trim)
            .skip_while(|l| !l.starts_with(head))
            .skip(1)
            .take_while(|l| !l.starts_with('[') && *l != "]")
            .filter(|l| !l.starts_with('#'))
            .map(String::from)
            .collect()
    };
    let mut missing = Vec::new();
    let clippy = read("clippy.toml");
    let lists: [(&str, &[&str]); 2] = [
        ("disallowed-types", &["std::collections::HashMap", "std::collections::HashSet"]),
        (
            "disallowed-methods",
            &["std::time::Instant::now", "std::time::SystemTime::now", "std::thread::current", "std::env::var", "std::env::var_os"],
        ),
    ];
    for (list, paths) in lists {
        let entries = section(&clippy, &format!("{list} = ["));
        for path in paths {
            if !entries.iter().any(|l| l.contains(&format!("path = \"{path}\""))) {
                missing.push(format!("clippy.toml {list}: {path}"));
            }
        }
    }
    for (manifest, table) in [("Cargo.toml", "[workspace.lints.clippy]"), ("tests/Cargo.toml", "[lints.clippy]")] {
        let lints = section(&read(manifest), table);
        for lint in ["disallowed_methods = \"deny\"", "iter_over_hash_type = \"deny\""] {
            if !lints.iter().any(|l| l == lint) {
                missing.push(format!("{manifest} {table}: {lint}"));
            }
        }
    }
    for module in ["crates/core/src/analyses/mod.rs", "crates/core/src/study.rs", "crates/core/src/report.rs"] {
        if !read(module).lines().any(|l| l.trim() == "#![deny(clippy::disallowed_types)]") {
            missing.push(format!("{module}: #![deny(clippy::disallowed_types)]"));
        }
    }
    assert!(missing.is_empty(), "determinism enforcers missing:\n{}", missing.join("\n"));
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
