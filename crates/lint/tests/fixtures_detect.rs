//! Every seeded violation in `tests/fixtures/ws` must be detected, with
//! the expected counts per code, and the one inline suppression honored.

// Test helpers may abort on setup failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_lint::{lint_workspace, Code, Report};
use std::path::Path;

fn fixture_report() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    lint_workspace(&root).expect("fixture tree readable")
}

#[test]
fn every_code_is_detected() {
    let r = fixture_report();
    assert_eq!(r.count(Code::E001), 1, "computed index:\n{:#?}", r.findings);
    assert_eq!(r.count(Code::E002), 2, "off + 4, len() as u16:\n{:#?}", r.findings);
    assert_eq!(r.count(Code::E005), 1, "Figure 77 has no test reference:\n{:#?}", r.findings);
    assert_eq!(
        r.count(Code::E008),
        3,
        "String error, Option smuggling, Err truncation:\n{:#?}",
        r.findings
    );
}

#[test]
fn findings_anchor_to_the_seeded_lines() {
    let r = fixture_report();
    let has = |code: Code, file: &str, line: u32| {
        r.findings
            .iter()
            .any(|f| f.code == code && f.file == file && f.line == line)
    };
    assert!(has(Code::E001, "crates/wire/src/lib.rs", 6), "computed index site");
    assert!(has(Code::E002, "crates/wire/src/parse.rs", 6), "off + 4 site");
    assert!(has(Code::E002, "crates/wire/src/parse.rs", 7), "len() as u16 site");
    assert!(has(Code::E005, "crates/core/src/analyses/foo.rs", 1), "Figure 77 claim");
    assert!(has(Code::E008, "crates/pcap/src/load.rs", 6), "String error site");
    assert!(has(Code::E008, "crates/pcap/src/load.rs", 15), "Option smuggling site");
    assert!(has(Code::E008, "crates/pcap/src/load.rs", 22), "Err truncation site");
}

#[test]
fn suppression_is_honored() {
    let r = fixture_report();
    assert_eq!(r.suppressed, 1, "exactly the at_guarded index is silenced");
    // The suppressed site (lib.rs:13) must not surface as a finding.
    assert!(
        !r.findings
            .iter()
            .any(|f| f.file == "crates/wire/src/lib.rs" && f.line == 13),
        "suppressed finding leaked:\n{:#?}",
        r.findings
    );
}

#[test]
fn cold_paths_and_checked_forms_stay_quiet() {
    let r = fixture_report();
    // parse_ok (checked_add) and helper (cold path) must not be flagged.
    assert!(
        !r.findings
            .iter()
            .any(|f| f.file == "crates/wire/src/parse.rs" && f.line > 8),
        "false positive past the seeded lines:\n{:#?}",
        r.findings
    );
    // E008: the taxonomy-typed fn and the `has_payload` predicate pass.
    assert!(
        !r.findings
            .iter()
            .any(|f| f.file == "crates/pcap/src/load.rs" && ![6, 15, 22].contains(&f.line)),
        "E008 flagged a clean form:\n{:#?}",
        r.findings
    );
}

#[test]
fn report_is_deterministic_and_sorted() {
    let render = |r: &Report| r.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>();
    let r = fixture_report();
    assert_eq!(render(&r), render(&fixture_report()), "two runs over the same tree must agree");
    // Findings are sorted by (file, line, code), so reports diff cleanly
    // run-to-run.
    let keys: Vec<(String, u32, String)> = r
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.code.to_string()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings not in stable (file, line, code) order");
}
