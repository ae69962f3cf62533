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
    assert_eq!(
        r.count(Code::E002),
        6,
        "off + 4, len() as u16, hot-map HashMap::new, hot-alloc Vec::new/vec!/to_vec:\n{:#?}",
        r.findings
    );
    assert_eq!(r.count(Code::E004), 2, "ghost listed, http unlisted:\n{:#?}", r.findings);
    assert_eq!(r.count(Code::E005), 1, "Figure 77 has no test reference:\n{:#?}", r.findings);
    assert_eq!(
        r.count(Code::E006),
        3,
        "sink-reachable map iter, Instant::now, float accumulation:\n{:#?}",
        r.findings
    );
    assert_eq!(
        r.count(Code::E008),
        3,
        "String error, Option smuggling, Err truncation:\n{:#?}",
        r.findings
    );
    assert_eq!(
        r.count(Code::E009),
        2,
        "ghost checkpoint field, ghost bench key:\n{:#?}",
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
    assert!(has(Code::E002, "crates/flow/src/table.rs", 10), "hot-map HashMap::new site");
    assert!(has(Code::E002, "crates/gen/src/synth.rs", 7), "hot-alloc Vec::new site");
    assert!(has(Code::E002, "crates/gen/src/synth.rs", 14), "hot-alloc vec! site");
    assert!(has(Code::E002, "crates/gen/src/synth.rs", 19), "hot-alloc .to_vec site");
    assert!(has(Code::E005, "crates/core/src/analyses/foo.rs", 1), "Figure 77 claim");
    assert!(has(Code::E006, "crates/core/src/report.rs", 10), "sink-reachable map iter site");
    assert!(has(Code::E006, "crates/core/src/report.rs", 17), "Instant::now site");
    assert!(has(Code::E006, "crates/core/src/report.rs", 24), "float accumulation site");
    assert!(has(Code::E008, "crates/pcap/src/load.rs", 6), "String error site");
    assert!(has(Code::E008, "crates/pcap/src/load.rs", 15), "Option smuggling site");
    assert!(has(Code::E008, "crates/pcap/src/load.rs", 22), "Err truncation site");
    assert!(has(Code::E009, "crates/core/src/checkpoint.rs", 9), "ghost checkpoint field");
    assert!(has(Code::E009, "crates/core/src/metrics.rs", 21), "ghost bench key");
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
    // The registered dns module is quiet.
    assert!(!r.findings.iter().any(|f| f.message.contains("`dns`")));
    // The hasher-explicit map construction in the hot-map fixture is clean.
    assert!(
        !r.findings
            .iter()
            .any(|f| f.file == "crates/flow/src/table.rs" && f.line != 10),
        "hot-map rule flagged a hasher-explicit construction:\n{:#?}",
        r.findings
    );
    // The reused-buffer and pre-sized forms in the hot-alloc fixture are
    // clean — only the three per-call allocation sites surface.
    assert!(
        !r.findings
            .iter()
            .any(|f| f.file == "crates/gen/src/synth.rs" && ![7, 14, 19].contains(&f.line)),
        "hot-alloc rule flagged a reused-buffer form:\n{:#?}",
        r.findings
    );
    // E006 escapes: sorted, sum-reduced and hasher-explicit forms pass.
    assert!(
        !r.findings
            .iter()
            .any(|f| f.file == "crates/core/src/report.rs" && ![10, 17, 24].contains(&f.line)),
        "E006 flagged a clean escape form:\n{:#?}",
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
    // E009: the covered field and keys stay quiet; only the ghosts fire.
    assert!(
        !r.findings
            .iter()
            .any(|f| f.code == Code::E009 && f.message.contains("epoch_index")),
        "E009 flagged a covered checkpoint field:\n{:#?}",
        r.findings
    );
    assert!(
        !r.findings.iter().any(|f| {
            f.code == Code::E009
                && (f.message.contains("`schema`") || f.message.contains("`packets`"))
        }),
        "E009 flagged a covered bench key:\n{:#?}",
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
