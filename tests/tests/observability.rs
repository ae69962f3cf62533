//! Observability layer end-to-end: stage metrics flow from the pipeline
//! through dataset aggregation into a schema-valid `BENCH_pipeline.json`.

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::metrics::{
    bench_json, json_parse, validate_bench_json, PipelineMetrics, Stage, Val, PIPELINE, STUDY_DOC,
};
use ent_core::run::{run_dataset, DatasetAnalysis, StudyConfig};
use ent_integration::{test_gen_config, trimmed_specs};

/// Dataset `name` on its first `subnets` monitored subnets, at the
/// integration test config.
fn small_dataset(name: &str, subnets: u16) -> DatasetAnalysis {
    let spec = trimmed_specs(subnets).into_iter().find(|d| d.name == name).expect("dataset");
    run_dataset(&spec, &StudyConfig { gen: test_gen_config(), ..Default::default() })
}

#[test]
fn study_metrics_export_is_schema_valid_and_live() {
    let d0 = small_dataset("D0", 6);
    let d4 = small_dataset("D4", 4);
    let mut total = PipelineMetrics::default();
    let mut datasets = Vec::new();
    for da in [&d0, &d4] {
        let m = da.pipeline_metrics();
        datasets.push(vec![
            ("name", Val::S(da.spec.name.to_string())),
            ("traces", Val::U(da.traces.len() as u64)),
            ("wall_us", Val::F(m.trace_wall_ns as f64 / 1e3)),
            ("packets", Val::U(m.packets())),
            ("bytes", Val::U(m.bytes())),
        ]);
        total.absorb(&m);
    }
    let gen = test_gen_config();
    let run = [
        ("scale", Val::F(gen.scale)),
        ("seed", Val::U(gen.seed)),
        ("threads", Val::U(2)),
        ("shards", Val::U(0)),
        ("study_wall_us", Val::F(total.trace_wall_ns as f64 / 1e3)),
    ];
    let doc = bench_json(&PIPELINE, &run, Some(&total), &datasets).expect("emit");
    let summary = validate_bench_json(&doc).expect("schema-valid export");
    assert_eq!(summary.traces, (d0.traces.len() + d4.traces.len()) as u64);
    assert_eq!(summary.packets, total.packets());
    let mandatory = Stage::ALL.iter().filter(|s| s.mandatory_in() & STUDY_DOC != 0);
    assert_eq!(summary.stages.len(), mandatory.count());
    // Every mandatory stage is live on a real two-dataset run: nonzero
    // wall time AND events (the instrumentation-rot invariant).
    for (name, wall_us, events) in &summary.stages {
        assert!(*wall_us > 0.0, "stage {name} has zero wall time");
        assert!(*events > 0, "stage {name} has zero events");
    }
    // The document parses as plain JSON and round-trips key run facts.
    let v = json_parse(&doc).expect("well-formed JSON");
    assert_eq!(
        v.get("threads").and_then(|t| t.as_f64()),
        Some(2.0),
        "threads field"
    );
    assert_eq!(
        v.get("packets").and_then(|p| p.as_f64()),
        Some(total.packets() as f64)
    );
}

#[test]
fn per_trace_metrics_are_consistent_with_analyses() {
    let d0 = small_dataset("D0", 6);
    for t in &d0.traces {
        // frame_parse sees every dissectable frame the analysis counted.
        assert_eq!(t.metrics.stages[Stage::FrameParse].events, t.packets);
        assert_eq!(t.metrics.stages[Stage::FlowIngest].events, t.packets);
        assert!(t.metrics.trace_wall_ns > 0);
        assert_eq!(t.metrics.traces, 1);
        // The conn-table high-water mark can never exceed what ingest saw.
        assert!(t.metrics.peak_open_conns <= t.metrics.stages[Stage::FlowIngest].events);
    }
    let m = d0.pipeline_metrics();
    assert_eq!(m.traces, d0.traces.len() as u64);
    assert_eq!(
        m.packets(),
        d0.traces.iter().map(|t| t.packets).sum::<u64>()
    );
}
