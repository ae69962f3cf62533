//! End-to-end: generation → capture → flow tracking → protocol analysis →
//! the paper's tables, judged by the report's own claims table
//! (`ent_core::claims`) on the full study at scale 0.01, seeds 1 and 2005.

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::claims::{self, CLAIMS, SURPRISES, TITLE};
use ent_core::report::Table;
use ent_core::{build_report, run_study, StudyConfig, StudyReport};
use ent_gen::GenConfig;
use std::sync::OnceLock;

fn study(seed: u64) -> StudyReport {
    let gen = GenConfig {
        scale: 0.01,
        seed,
        hosts_per_subnet: None,
    };
    build_report(&run_study(&StudyConfig { gen, threads: 2, ..Default::default() }))
}

/// The reference study (`entreport study --scale 0.01 --seed 1`), built once.
fn seed1() -> &'static StudyReport {
    static REPORT: OnceLock<StudyReport> = OnceLock::new();
    REPORT.get_or_init(|| study(1))
}

fn claims_table(report: &StudyReport) -> &Table {
    report.tables.iter().find(|t| t.title == TITLE).expect("claims table")
}

/// Every `Match` row is in its band on every dataset it names, every
/// `Shape` row's ordering holds, and every `KnownDeviation` is still out.
fn assert_claims_keep_their_class(report: &StudyReport, seed: u64) {
    let rows = &claims_table(report).rows;
    let surprises: Vec<String> = rows
        .iter()
        .filter(|r| r.last().is_some_and(|v| SURPRISES.contains(&v.as_str())))
        .map(|r| r.join(" | "))
        .collect();
    assert!(surprises.is_empty(), "seed {seed}:\n{}", surprises.join("\n"));
}

fn read(rel: &str) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    std::fs::read_to_string(root.join(rel)).expect(rel)
}

#[test]
fn claims_hold_at_seed_1_and_the_committed_reports_are_its_output() {
    let report = seed1();
    assert_claims_keep_their_class(report, 1);
    let committed = read("study_scale0.01.txt");
    assert!(
        report.render().trim_end() == committed.trim_end(),
        "study_scale0.01.txt is stale: regenerate it (EXPERIMENTS.md, \"Regenerate everything\")"
    );
    let doc = read("EXPERIMENTS.md");
    let block = doc
        .split("<!-- claims:begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- claims:end -->").next())
        .expect("EXPERIMENTS.md claims block");
    let expected = claims::markdown(claims_table(report));
    assert!(block.trim() == expected.trim(), "EXPERIMENTS.md's claims block is stale; it reads:\n{expected}");
}

#[test]
fn claims_hold_at_seed_2005() {
    assert_claims_keep_their_class(&study(2005), 2005);
}

/// Every paper Table 1–15 and Figure 1–10 has a claim, and every claim's
/// artifact has a titled section in the full report.
#[test]
fn every_paper_artifact_has_a_claim() {
    let report = seed1();
    let tables = report.tables.iter().map(|t| t.title.as_str());
    let titles: Vec<&str> = tables.chain(report.figures.iter().map(|f| f.title.as_str())).collect();
    assert_eq!(claims::uncovered(CLAIMS, &titles), Vec::<String>::new());
}
