//! Pipeline-throughput benchmarks: generation, packet parsing, flow
//! tracking, full per-trace analysis, pcap I/O and anonymization.

// Bench harnesses are not public API and may abort on setup failure.
#![allow(missing_docs, clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ent_bench::{bench_gen_config, raw_trace};
use ent_core::metrics::Stage;
use ent_core::{analyze_trace, PipelineConfig, PipelineMetrics, StageTimer};
use ent_flow::{CollectSummaries, ConnTable, TableConfig};
use ent_gen::build::{build_site, generate_trace, generate_trace_into};
use ent_gen::dataset::all_datasets;
use ent_wire::{Packet, Timestamp};
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    let specs = all_datasets();
    let config = bench_gen_config();
    let (site, wan) = build_site(&specs[0], &config);
    let pkts = raw_trace().packets.len() as u64;
    let mut g = c.benchmark_group("generation");
    g.throughput(Throughput::Elements(pkts));
    g.bench_function("synthesize_trace", |b| {
        b.iter(|| black_box(generate_trace(&site, &wan, &specs[0], 3, 1, &config)))
    });
    // The zero-copy study path: emit + sort + tap inside one reused
    // arena, no owned-packet materialization. The delta against
    // `synthesize_trace` is what `captured_packets()` costs; the delta
    // against the old baseline is the arena rework's contribution.
    g.bench_function("generate_trace_arena", |b| {
        let mut arena = ent_pcap::PacketArena::unbounded();
        b.iter(|| {
            let (meta, timing) =
                generate_trace_into(&site, &wan, &specs[0], 3, 1, &config, &mut arena);
            black_box((meta, arena.len(), timing.captured_bytes))
        })
    });
    g.finish();
}

fn bench_parse(c: &mut Criterion) {
    let trace = raw_trace();
    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(trace.packets.len() as u64));
    g.bench_function("parse_packets", |b| {
        b.iter(|| {
            let mut ok = 0u64;
            for p in &trace.packets {
                if Packet::parse(&p.frame).is_ok() {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    g.finish();
}

fn bench_flow_tracking(c: &mut Criterion) {
    let trace = raw_trace();
    let mut g = c.benchmark_group("flow");
    g.throughput(Throughput::Elements(trace.packets.len() as u64));
    g.bench_function("connection_tracking", |b| {
        b.iter(|| {
            let mut table = ConnTable::new(TableConfig::default());
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
    // The SipHash reference table: the delta against `connection_tracking`
    // is the hashing overhaul's contribution in isolation.
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

fn bench_full_analysis(c: &mut Criterion) {
    let trace = raw_trace();
    let mut g = c.benchmark_group("analysis");
    g.throughput(Throughput::Elements(trace.packets.len() as u64));
    g.bench_function("analyze_trace_full", |b| {
        b.iter(|| black_box(analyze_trace(trace, &PipelineConfig::default())))
    });
    // The zero-copy ingest path: same workload serialized as pcap bytes,
    // analyzed straight off the buffer with the reusable record cursor
    // (no intermediate per-packet Vec materialization).
    let mut pcap_buf = Vec::new();
    trace.write_pcap(&mut pcap_buf).expect("write pcap");
    g.bench_function("analyze_capture_streaming", |b| {
        b.iter(|| {
            black_box(
                ent_core::analyze_capture(
                    &pcap_buf,
                    trace.meta.clone(),
                    &PipelineConfig::default(),
                )
                .expect("capture analyzes"),
            )
        })
    });
    // The fused parse+ingest study path: zero-copy frame views fed to
    // analyze_packets, where the Engine dissects each frame once and
    // feeds the connection table in the same pass with stride-sampled
    // stage clocks (no per-packet Instant reads). The delta against
    // `connection_tracking` is what the full analyzer + instrumentation
    // stack costs on top of bare flow tracking; this is the loop the
    // BENCH gate's throughput floor rides on.
    g.bench_function("analyze_trace_fused", |b| {
        b.iter(|| {
            let frames = trace.packets.iter().map(|p| (p.ts, &*p.frame, p.orig_len));
            black_box(ent_core::pipeline::analyze_packets(
                &trace.meta,
                frames,
                &PipelineConfig::default(),
                trace.packets.len(),
            ))
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
    g.bench_function("read", |b| {
        b.iter(|| {
            let t =
                ent_pcap::Trace::read_pcap(&buf[..], trace.meta.clone()).expect("read");
            black_box(t.packets.len())
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
    bench_generation,
    bench_parse,
    bench_flow_tracking,
    bench_full_analysis,
    bench_pcap_io,
    bench_metrics_overhead,
    bench_anonymize
);
criterion_main!(pipeline);
