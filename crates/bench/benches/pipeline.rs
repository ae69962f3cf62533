//! What `benchmark/` (the repo's benchmark, see `BENCHMARK.json`) does not
//! measure as a per-layer figure: the std-hash reference connection table,
//! pcap writing, the stage-timer lap chain, and anonymization.

// Bench harnesses are not public API and may abort on setup failure.
#![allow(missing_docs, clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ent_bench::raw_trace;
use ent_core::metrics::Stage;
use ent_core::{PipelineMetrics, StageTimer};
use ent_flow::{CollectSummaries, ConnTable, TableConfig};
use ent_wire::{Packet, Timestamp};
use std::hint::black_box;

fn bench_flow_tracking(c: &mut Criterion) {
    let trace = raw_trace();
    let mut g = c.benchmark_group("flow");
    g.throughput(Throughput::Elements(trace.packets.len() as u64));
    // The SipHash reference table: the delta against `benchmark/`'s
    // `flow.ingest_ns_per_pkt` is the hashing overhaul's contribution in
    // isolation.
    g.bench_function("connection_tracking_std_hash", |b| {
        b.iter(|| {
            let mut table = ConnTable::with_std_hasher(TableConfig::default());
            let mut h = CollectSummaries::default();
            for p in &trace.packets {
                if let Ok(pkt) = Packet::parse(&p.frame) {
                    table.ingest(&pkt, p.ts, &mut h);
                }
            }
            table.finish(Timestamp::from_secs(4_000), &mut h);
            black_box(h.summaries.len())
        })
    });
    g.finish();
}

fn bench_pcap_io(c: &mut Criterion) {
    let trace = raw_trace();
    let mut buf = Vec::new();
    trace.write_pcap(&mut buf).expect("write");
    let mut g = c.benchmark_group("pcap");
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("write", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(buf.len());
            trace.write_pcap(&mut out).expect("write");
            black_box(out.len())
        })
    });
    g.finish();
}

fn bench_metrics_overhead(c: &mut Criterion) {
    // The observability layer's per-packet cost: two timer laps and two
    // StageStat updates. Measured standalone so a future perf PR can tell
    // analysis regressions from instrumentation overhead.
    let mut g = c.benchmark_group("metrics");
    g.throughput(Throughput::Elements(1));
    g.bench_function("per_packet_lap_chain", |b| {
        let mut m = PipelineMetrics::default();
        let mut t = StageTimer::start();
        b.iter(|| {
            m.stages[Stage::FrameParse].add(t.lap(), 1, 64);
            m.stages[Stage::FlowIngest].add(t.lap(), 1, 64);
            black_box(m.stages[Stage::FlowIngest].events)
        })
    });
    g.finish();
}

fn bench_anonymize(c: &mut Criterion) {
    let trace = raw_trace();
    let mut g = c.benchmark_group("anonymize");
    g.throughput(Throughput::Elements(trace.packets.len() as u64));
    g.bench_function("prefix_preserving_trace", |b| {
        b.iter(|| black_box(ent_anon::anonymize_trace(trace, "bench-key").packets.len()))
    });
    g.finish();
}

criterion_group!(
    pipeline,
    bench_flow_tracking,
    bench_pcap_io,
    bench_metrics_overhead,
    bench_anonymize
);
criterion_main!(pipeline);
