//! The traced run: per-layer metrics from spans around the benchmark's
//! own calls into each layer's public functions.
//!
//! Each layer runs as a *separate pass over the same frames* — read, then
//! parse, then flow ingest, then analyzer replay — so every figure is
//! exclusive by construction. The passes therefore do not sum to the
//! fused loop's wall (they lose the fused loop's cache reuse and add a
//! parsed-packet `Vec`); `core.residual_ns_per_pkt` is the signed
//! reconciliation term against the inclusive `core.analyze` span.

use crate::input::{work_items, Capture, Counters, Settings};
use crate::json::Value;
use crate::ops::{self, Counts, OpResult};
use crate::spans::Recorder;
use crate::spec::{is_exact_count, Mode, Workload, PER_LAYER};
use crate::untraced::{
    capture_op, failures, setup, study_result, Input, Iteration, Outcome, Setup,
};
use crate::{stats, BenchError};
use ent_core::pipeline::analyze_packets;
use ent_core::scanners::{remove_scanners, ScannerConfig};
use ent_core::{build_report, run_study, PipelineConfig, StudyConfig, TraceAnalysis};
use ent_flow::{
    shard_of_packet, CollectSummaries, ConnIndex, ConnSummary, ConnTable, Dir, FlowHandler,
    FlowKey, Proto, TableConfig, DESIGNATED_SHARD,
};
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::all_datasets;
use ent_pcap::{PacketArena, RecoveringReader, TraceMeta};
use ent_proto::http::HttpAnalyzer;
use ent_proto::ncp::NcpAnalyzer;
use ent_proto::nfs::NfsAnalyzer;
use ent_proto::smtp::SmtpAnalyzer;
use ent_proto::{dns, well_known, AppProtocol, Transport};
use ent_wire::{Packet, Timestamp};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One timed frame, as every frame source hands it over.
type Frame<'a> = (Timestamp, &'a [u8], u32);

/// Shard count `flow.steer_*` steers for.
const STEER_SHARDS: usize = 4;

/// The five analyzers the replay covers: the costliest in
/// `BENCH_pipeline.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replayed {
    Http,
    Smtp,
    Ncp,
    NfsTcp,
    NfsUdp,
    Dns,
}

/// Which replayed analyzer a connection's responder port maps to. Mirrors
/// the analyzer attachment in `ent_core::pipeline` for these protocols
/// (minus dynamic ports and the originator-port fallback).
fn replayed_kind(key: &FlowKey) -> Option<Replayed> {
    match key.proto {
        Proto::Tcp => match well_known(key.resp.port, Transport::Tcp)? {
            AppProtocol::Http => Some(Replayed::Http),
            AppProtocol::Smtp => Some(Replayed::Smtp),
            AppProtocol::Ncp => Some(Replayed::Ncp),
            AppProtocol::Nfs => Some(Replayed::NfsTcp),
            _ => None,
        },
        Proto::Udp => match well_known(key.resp.port, Transport::Udp)? {
            AppProtocol::Nfs => Some(Replayed::NfsUdp),
            AppProtocol::Dns => Some(Replayed::Dns),
            _ => None,
        },
        Proto::Icmp => None,
    }
}

/// One delivery to an analyzer, kept for replay.
enum Chunk {
    Data {
        from_client: bool,
        ts: Timestamp,
        bytes: Vec<u8>,
    },
    Gap {
        from_client: bool,
    },
}

/// The benchmark's own `FlowHandler`: counts every delivery and keeps the
/// in-order chunks of the connections the replay covers. Like the
/// pipeline's handler it attaches nothing to header-only traces.
#[derive(Default)]
struct Recording {
    payload_ok: bool,
    open: Vec<Option<(Replayed, Vec<Chunk>)>>,
    closed: Vec<(Replayed, Vec<Chunk>)>,
    tcp_data_events: u64,
    tcp_data_bytes: u64,
    tcp_gap_events: u64,
    udp_datagrams: u64,
    udp_bytes: u64,
}

impl Recording {
    fn keep(&mut self, idx: ConnIndex, chunk: impl FnOnce() -> Chunk) {
        if let Some(Some((_, chunks))) = self.open.get_mut(idx) {
            chunks.push(chunk());
        }
    }
}

impl FlowHandler for Recording {
    fn on_new_conn(&mut self, idx: ConnIndex, key: &FlowKey, _ts: Timestamp) {
        if idx >= self.open.len() {
            self.open.resize_with(idx + 1, || None);
        }
        let kind = if self.payload_ok {
            replayed_kind(key)
        } else {
            None
        };
        if let Some(slot) = self.open.get_mut(idx) {
            *slot = kind.map(|k| (k, Vec::new()));
        }
    }

    fn on_tcp_data(&mut self, idx: ConnIndex, dir: Dir, ts: Timestamp, data: &[u8]) {
        self.tcp_data_events += 1;
        self.tcp_data_bytes += data.len() as u64;
        self.keep(idx, || Chunk::Data {
            from_client: dir == Dir::Orig,
            ts,
            bytes: data.to_vec(),
        });
    }

    fn on_tcp_gap(&mut self, idx: ConnIndex, dir: Dir, _wire_bytes: u64) {
        self.tcp_gap_events += 1;
        self.keep(idx, || Chunk::Gap {
            from_client: dir == Dir::Orig,
        });
    }

    fn on_udp_datagram(
        &mut self,
        idx: ConnIndex,
        dir: Dir,
        ts: Timestamp,
        data: &[u8],
        _wire: u32,
    ) {
        self.udp_datagrams += 1;
        self.udp_bytes += data.len() as u64;
        self.keep(idx, || Chunk::Data {
            from_client: dir == Dir::Orig,
            ts,
            bytes: data.to_vec(),
        });
    }

    fn on_conn_closed(&mut self, idx: ConnIndex, _summary: &ConnSummary) {
        if let Some((kind, chunks)) = self.open.get_mut(idx).and_then(Option::take) {
            if !chunks.is_empty() {
                self.closed.push((kind, chunks));
            }
        }
    }
}

/// A table sized as the pipeline sizes its own (`packets / 32`, clamped).
fn table_for(frames: usize) -> ConnTable {
    ConnTable::new(TableConfig {
        expected_conns: (frames / 32).clamp(64, 16_384),
        ..TableConfig::default()
    })
}

/// Where the pipeline closes a trace: its nominal duration past the first
/// packet, or the last packet, whichever is later.
fn trace_end(meta: &TraceMeta, frames: &[Frame<'_>]) -> Timestamp {
    let first = frames.first().map_or(0, |f| f.0.micros());
    let last = frames.last().map_or(Timestamp::ZERO, |f| f.0);
    Timestamp::from_micros(first.saturating_add(meta.duration.micros())).max(last)
}

/// Replay one analyzer's recorded streams inside one span; returns
/// `(payload bytes fed, records produced)`.
fn replay(
    rec: &mut Recorder,
    span: &'static str,
    tid: u32,
    streams: &[(Replayed, Vec<Chunk>)],
    kinds: &[Replayed],
) -> (u64, u64) {
    let group: Vec<&(Replayed, Vec<Chunk>)> =
        streams.iter().filter(|(k, _)| kinds.contains(k)).collect();
    fn data(chunks: &[Chunk]) -> impl Iterator<Item = (bool, Timestamp, &[u8])> {
        chunks.iter().filter_map(|c| match c {
            Chunk::Data {
                from_client,
                ts,
                bytes,
            } => Some((*from_client, *ts, bytes.as_slice())),
            Chunk::Gap { .. } => None,
        })
    }
    let bytes = group
        .iter()
        .flat_map(|(_, chunks)| data(chunks))
        .map(|(_, _, b)| b.len() as u64)
        .sum();
    let records = rec.time(span, tid, || {
        let mut records = 0u64;
        for (kind, chunks) in group {
            let fed = data(chunks);
            match kind {
                Replayed::Http => {
                    let mut a = HttpAnalyzer::new();
                    for c in chunks {
                        match c {
                            Chunk::Data {
                                from_client: true,
                                bytes,
                                ..
                            } => a.feed_request_data(bytes),
                            Chunk::Data { bytes, .. } => a.feed_response_data(bytes),
                            Chunk::Gap { from_client } => a.gap(*from_client),
                        }
                    }
                    a.finish();
                    records += a.take_transactions().len() as u64;
                }
                Replayed::Smtp => {
                    let mut a = SmtpAnalyzer::new();
                    for (from_client, _, b) in fed {
                        if from_client {
                            a.feed_client(b);
                        } else {
                            a.feed_server(b);
                        }
                    }
                    records += u64::from(black_box(a.session()).messages);
                }
                Replayed::Ncp => {
                    let mut a = NcpAnalyzer::new();
                    fed.for_each(|(from_client, ts, b)| a.feed(from_client, ts, b));
                    a.finish();
                    records += a.take_calls().len() as u64;
                }
                Replayed::NfsTcp | Replayed::NfsUdp => {
                    let mut a = NfsAnalyzer::new();
                    let udp = *kind == Replayed::NfsUdp;
                    fed.for_each(|(from_client, ts, b)| {
                        if udp {
                            a.feed_udp(from_client, ts, b);
                        } else {
                            a.feed_tcp(from_client, ts, b);
                        }
                    });
                    a.finish();
                    records += a.take_calls().len() as u64;
                }
                Replayed::Dns => {
                    records += fed
                        .filter(|(_, _, b)| black_box(dns::parse(b)).is_some())
                        .count() as u64;
                }
            }
        }
        records
    });
    (bytes, records)
}

/// `ent-wire`, `ent-flow` and `ent-proto`, each alone over one trace's
/// frames.
fn layer_passes(
    rec: &mut Recorder,
    counts: &mut Counters,
    tid: u32,
    meta: &TraceMeta,
    frames: &[Frame<'_>],
) {
    counts.add("wire.packets", frames.len() as u64);
    counts.add(
        "wire.captured_bytes",
        frames.iter().map(|f| f.1.len() as u64).sum(),
    );

    let mut parsed: Vec<Option<Packet<'_>>> = Vec::with_capacity(frames.len());
    rec.time("wire.parse", tid, || {
        parsed.extend(frames.iter().map(|f| Packet::parse(f.1).ok()))
    });
    counts.add(
        "wire.parse_rejects",
        parsed.iter().filter(|p| p.is_none()).count() as u64,
    );

    let end = trace_end(meta, frames);
    let mut table = table_for(frames.len());
    let mut sink = CollectSummaries::default();
    rec.time("flow.ingest", tid, || {
        for (f, p) in frames.iter().zip(&parsed) {
            if let Some(p) = p {
                table.ingest(p, f.0, &mut sink);
            }
        }
    });
    rec.time("flow.finish", tid, || table.finish(end, &mut sink));
    counts.add("flow.conns", sink.summaries.len() as u64);
    counts.max("flow.peak_open_conns", table.stats().peak_open_conns);

    let load = rec.time("flow.steer", tid, || {
        let mut load = [0u64; STEER_SHARDS];
        for p in &parsed {
            let shard = p
                .as_ref()
                .map_or(DESIGNATED_SHARD, |p| shard_of_packet(p, STEER_SHARDS));
            if let Some(slot) = load.get_mut(shard) {
                *slot += 1;
            }
        }
        load
    });
    counts.add("flow.steer_busiest", load.into_iter().max().unwrap_or(0));

    // Untimed second pass: the same table work, with the recording
    // handler in place of the summary sink.
    let mut table = table_for(frames.len());
    let mut recording = Recording {
        payload_ok: meta.has_payload(),
        ..Recording::default()
    };
    for (f, p) in frames.iter().zip(&parsed) {
        if let Some(p) = p {
            table.ingest(p, f.0, &mut recording);
        }
    }
    table.finish(end, &mut recording);
    counts.add("flow.tcp_data_events", recording.tcp_data_events);
    counts.add("flow.tcp_data_bytes", recording.tcp_data_bytes);
    counts.add("flow.tcp_gap_events", recording.tcp_gap_events);
    counts.add("flow.udp_datagrams", recording.udp_datagrams);
    counts.add("flow.udp_bytes", recording.udp_bytes);

    let streams = &recording.closed;
    let (b, n) = replay(rec, "proto.http", tid, streams, &[Replayed::Http]);
    counts.add("proto.http_bytes", b);
    counts.add("proto.http_transactions", n);
    let (b, _) = replay(rec, "proto.smtp", tid, streams, &[Replayed::Smtp]);
    counts.add("proto.smtp_bytes", b);
    let (b, n) = replay(rec, "proto.ncp", tid, streams, &[Replayed::Ncp]);
    counts.add("proto.ncp_bytes", b);
    counts.add("proto.ncp_calls", n);
    let (b, n) = replay(
        rec,
        "proto.nfs",
        tid,
        streams,
        &[Replayed::NfsTcp, Replayed::NfsUdp],
    );
    counts.add("proto.nfs_bytes", b);
    counts.add("proto.nfs_calls", n);
    let (b, n) = replay(rec, "proto.dns", tid, streams, &[Replayed::Dns]);
    counts.add("proto.dns_bytes", b);
    counts.add("proto.dns_msgs", n);
}

/// `core.scanners`: identification and removal over the connection
/// records of a `keep_scanners: true` analysis.
fn scanners_pass(rec: &mut Recorder, counts: &mut Counters, tid: u32, kept: TraceAnalysis) {
    let mut conns = kept.conns;
    counts.add("core.scanner_conns_examined", conns.len() as u64);
    let removed = rec.time("core.scanners", tid, || {
        remove_scanners(&mut conns, &ScannerConfig::default())
            .1
            .len()
    });
    counts.add("core.scanner_conns_removed", removed as u64);
}

fn keep_scanners() -> PipelineConfig {
    PipelineConfig {
        keep_scanners: true,
        ..PipelineConfig::default()
    }
}

/// The benchmark's own copy of the `drive_capture` loop, with a clock
/// around every `Monitor::observe` call: a call that returns a report is
/// an epoch flush — the stall a boundary imposes on the stream.
fn traced_monitor(
    rec: &mut Recorder,
    counts: &mut Counters,
    tid: u32,
    cap: &Capture,
    ckpt: &Path,
) -> Result<OpResult, BenchError> {
    let mut mon = ops::cold_monitor(cap)?;
    let mut observe_ns = 0u64;
    let drive = rec.enter("core.monitor.drive", tid);
    let mut reader = RecoveringReader::new(&cap.data)?;
    loop {
        let pos = reader.position();
        let clock = reader.last_clock_us();
        let stats_before = reader.stats().clone();
        let Some(r) = reader.next_record() else { break };
        let t0 = Instant::now();
        let reports = mon.observe(r.ts, r.frame, r.orig_len);
        let t1 = Instant::now();
        observe_ns += t1.duration_since(t0).as_nanos() as u64;
        if reports.is_empty() {
            continue;
        }
        rec.record("core.monitor.flush", tid, t0, t1);
        let mut capture = mon.prior_capture().clone();
        capture.absorb(&stats_before);
        for mut ck in mon.take_boundaries() {
            ck.resume_offset = pos;
            ck.reader_clock_us = clock;
            ck.capture = capture.clone();
            let bytes = rec.time("core.checkpoint.encode", tid, || ck.encode().len());
            rec.time("core.checkpoint.write", tid, || ck.write_atomic(ckpt))?;
            counts.add("core.checkpoint.bytes", bytes as u64);
            counts.add("core.checkpoint.written", 1);
        }
    }
    let (_, summary) = mon.finish(reader.stats());
    rec.exit(drive);
    counts.add("core.monitor.observe_ns", observe_ns);
    counts.add("core.monitor.epochs", summary.totals.epochs);
    Ok(OpResult::of_monitor(&summary, cap))
}

/// The inclusive span that is the workload's own call path.
fn own_span(mode: Mode) -> &'static str {
    match mode {
        Mode::Study => "core.study",
        Mode::Serial => "core.analyze",
        Mode::Monitor => "core.monitor.drive",
        Mode::Sharded => "core.shard.analyze",
    }
}

/// One traced pass over pcap buffers.
fn traced_captures(
    w: &Workload,
    caps: &[Capture],
    ckpt: &Path,
    rec: &mut Recorder,
    counts: &mut Counters,
) -> Result<Iteration, BenchError> {
    let start = Instant::now();
    let mut ops = Vec::with_capacity(caps.len());
    for (i, cap) in caps.iter().enumerate() {
        let tid = i as u32;
        let trace = rec.enter("trace", tid);

        // The workload's own call path first, then the serial analysis
        // the per-layer passes decompose.
        let serial = rec.time("core.analyze", tid, || capture_op(Mode::Serial, cap));
        ops.push(match w.mode {
            Mode::Sharded => rec.time("core.shard.analyze", tid, || capture_op(Mode::Sharded, cap)),
            Mode::Monitor => traced_monitor(rec, counts, tid, cap, ckpt)?,
            _ => serial,
        });

        let mut reader = RecoveringReader::new(&cap.data)?;
        let records = rec.time("pcap.read", tid, || {
            let mut n = 0u64;
            while let Some(r) = reader.next_record() {
                black_box(r);
                n += 1;
            }
            n
        });
        counts.add("pcap.records", records);
        counts.add("pcap.bytes", cap.data.len() as u64);
        counts.add("pcap.damage_events", reader.stats().damage_events());

        let mut reader = RecoveringReader::new(&cap.data)?;
        let mut meta = cap.meta.clone();
        meta.snaplen = reader.snaplen();
        let frames: Vec<Frame<'_>> =
            std::iter::from_fn(|| reader.next_record().map(|r| (r.ts, r.frame, r.orig_len)))
                .collect();
        layer_passes(rec, counts, tid, &meta, &frames);
        scanners_pass(rec, counts, tid, ops::serial(cap, &keep_scanners())?);
        rec.exit(trace);
    }
    Ok(Iteration {
        wall_s: start.elapsed().as_secs_f64(),
        ops,
        digest: 0,
    })
}

/// One traced study: the real call path under spans, then the same traces
/// regenerated one by one for the per-layer passes.
fn traced_study(
    config: &StudyConfig,
    rec: &mut Recorder,
    counts: &mut Counters,
) -> Result<Iteration, BenchError> {
    let start = Instant::now();
    let study = rec.enter("core.study", 0);
    let studies = rec.time("core.run_study", 0, || run_study(config));
    let report = rec.time("core.report", 0, || build_report(&studies));
    let text = rec.time("core.render", 0, || report.render());
    rec.exit(study);
    black_box(text);
    let mut it = study_result(&studies, &report, start.elapsed().as_secs_f64());
    drop((studies, report));

    let mut arena = PacketArena::unbounded();
    let mut tid = 0u32;
    for spec in all_datasets() {
        let (site, wan) = rec.time("gen.build_site", tid, || build_site(&spec, &config.gen));
        for (subnet, pass) in work_items(&spec) {
            let trace = rec.enter("trace", tid);
            let (meta, timing) = rec.time("gen.generate", tid, || {
                generate_trace_into(&site, &wan, &spec, subnet, pass, &config.gen, &mut arena)
            });
            counts.generated(&timing, &arena);

            rec.time("pcap.arena_iter", tid, || {
                for f in arena.captured_frames() {
                    black_box(f);
                }
            });
            let analysis = rec.time("core.analyze", tid, || {
                analyze_packets(
                    &meta,
                    arena.captured_frames(),
                    &config.pipeline,
                    arena.len(),
                )
            });
            // The regenerated trace must be the one `run_study` analysed.
            if let Some(op) = it.ops.get_mut(tid as usize) {
                op.ok &= op.counts == Counts::of(&analysis);
            }
            drop(analysis);

            let frames: Vec<Frame<'_>> = arena.captured_frames().collect();
            layer_passes(rec, counts, tid, &meta, &frames);
            let kept = analyze_packets(
                &meta,
                arena.captured_frames(),
                &keep_scanners(),
                arena.len(),
            );
            scanners_pass(rec, counts, tid, kept);
            rec.exit(trace);
            tid += 1;
        }
    }
    if tid as usize != it.ops.len() {
        it.ops.iter_mut().for_each(|op| op.ok = false);
    }
    Ok(it)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `core.residual_ns_per_pkt`: the inclusive analysis minus every part a
/// separate pass could isolate. Signed: the passes run apart from each
/// other, so together they may cost more than the fused loop.
pub fn residual(inclusive: f64, parts: &[f64]) -> f64 {
    inclusive - parts.iter().sum::<f64>()
}

/// Every per-layer metric of one traced pass.
fn derive(
    w: &Workload,
    rec: &Recorder,
    gen_rec: &Recorder,
    counts: &Counters,
    untraced_wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let ns = |name: &str| (rec.total_ns(name) + gen_rec.total_ns(name)) as f64;
    let c = |name: &str| counts.get(name);
    let pkts = c("wire.packets");
    let per_pkt = |name: &str| ratio(ns(name), pkts);
    let p50 = |name: &str, scale: f64| stats::median(&rec.durations_ns(name)) / scale;

    let proto_spans = [
        "proto.http",
        "proto.smtp",
        "proto.ncp",
        "proto.nfs",
        "proto.dns",
    ];
    let replayed: f64 = ["http", "smtp", "ncp", "nfs", "dns"]
        .iter()
        .map(|p| c(&format!("proto.{p}_bytes")))
        .sum();
    let parts: Vec<f64> = [
        "pcap.read",
        "pcap.arena_iter",
        "wire.parse",
        "flow.ingest",
        "flow.finish",
        "core.scanners",
    ]
    .iter()
    .chain(&proto_spans)
    .map(|name| per_pkt(name))
    .collect();
    let flush_us: Vec<f64> = rec
        .durations_ns("core.monitor.flush")
        .iter()
        .map(|d| d / 1e3)
        .collect();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("gen.build_site_ms", ns("gen.build_site") / 1e6),
        (
            "gen.generate_ns_per_pkt",
            ratio(ns("gen.generate"), c("gen.packets")),
        ),
        (
            "gen.generate_ns_per_wire_byte",
            ratio(ns("gen.generate"), c("gen.wire_bytes")),
        ),
        (
            "pcap.read_ns_per_pkt",
            ratio(ns("pcap.read"), c("pcap.records")),
        ),
        (
            "pcap.read_ns_per_byte",
            ratio(ns("pcap.read"), c("pcap.bytes")),
        ),
        ("pcap.arena_iter_ns_per_pkt", per_pkt("pcap.arena_iter")),
        ("wire.parse_ns_per_pkt", per_pkt("wire.parse")),
        (
            "wire.captured_bytes_per_pkt",
            ratio(c("wire.captured_bytes"), pkts),
        ),
        ("flow.ingest_ns_per_pkt", per_pkt("flow.ingest")),
        (
            "flow.finish_ns_per_conn",
            ratio(ns("flow.finish"), c("flow.conns")),
        ),
        ("flow.steer_ns_per_pkt", per_pkt("flow.steer")),
        (
            "flow.steer_skew",
            ratio(c("flow.steer_busiest") * STEER_SHARDS as f64, pkts),
        ),
        (
            "proto.http_ns_per_byte",
            ratio(ns("proto.http"), c("proto.http_bytes")),
        ),
        (
            "proto.smtp_ns_per_byte",
            ratio(ns("proto.smtp"), c("proto.smtp_bytes")),
        ),
        (
            "proto.ncp_ns_per_byte",
            ratio(ns("proto.ncp"), c("proto.ncp_bytes")),
        ),
        (
            "proto.nfs_ns_per_byte",
            ratio(ns("proto.nfs"), c("proto.nfs_bytes")),
        ),
        (
            "proto.dns_ns_per_msg",
            ratio(ns("proto.dns"), c("proto.dns_msgs")),
        ),
        (
            "proto.replayed_share",
            ratio(replayed, c("flow.tcp_data_bytes") + c("flow.udp_bytes")),
        ),
        ("core.analyze_ns_per_pkt", per_pkt("core.analyze")),
        (
            "core.residual_ns_per_pkt",
            residual(per_pkt("core.analyze"), &parts),
        ),
        (
            "core.scanners_ns_per_conn",
            ratio(ns("core.scanners"), c("core.scanner_conns_examined")),
        ),
        ("core.report_ms", ns("core.report") / 1e6),
        ("core.render_ms", ns("core.render") / 1e6),
        (
            "core.monitor.observe_ns_per_pkt",
            ratio(c("core.monitor.observe_ns"), pkts),
        ),
        ("core.monitor.flush_us_p50", stats::median(&flush_us)),
        ("core.monitor.flush_us_p99", stats::tail(&flush_us)),
        (
            "core.checkpoint.encode_us_p50",
            p50("core.checkpoint.encode", 1e3),
        ),
        (
            "core.checkpoint.write_us_p50",
            p50("core.checkpoint.write", 1e3),
        ),
        (
            "core.checkpoint.bytes_per_epoch",
            ratio(c("core.checkpoint.bytes"), c("core.checkpoint.written")),
        ),
        (
            "core.shard.analyze_ns_per_pkt",
            per_pkt("core.shard.analyze"),
        ),
        (
            "core.shard.overhead_ratio",
            ratio(ns("core.shard.analyze"), ns("core.analyze")),
        ),
        (
            "trace.overhead_ratio",
            ratio(ns(own_span(w.mode)) / 1e9, untraced_wall_s),
        ),
    ]);
    // Everything else in the table is a counter under its own name.
    for def in &PER_LAYER {
        m.entry(def.name).or_insert_with(|| c(def.name));
    }
    m
}

/// Run `w` traced and report every per-layer metric; write the last
/// pass's spans to `out_dir/<workload>.spans.json`.
pub fn run(w: &Workload, s: &Settings, out_dir: &Path) -> Result<Outcome, BenchError> {
    // Monitor checkpoints go to a directory of this process's own, inside
    // the checkout, removed again before the run returns.
    let scratch = out_dir.join(format!("ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let outcome = run_in(w, s, &scratch.join("monitor.ckpt"), out_dir);
    std::fs::remove_dir_all(&scratch)?;
    outcome
}

fn run_in(w: &Workload, s: &Settings, ckpt: &Path, out_dir: &Path) -> Result<Outcome, BenchError> {
    let Setup {
        input,
        gen: (gen_rec, gen_counts),
        warm,
        warm_s,
        ..
    } = setup(w, s)?;
    let untraced_wall_s = stats::median(&warm_s);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last_rec = Recorder::new();
    let start = Instant::now();
    while passes.is_empty() || (!s.smoke && start.elapsed().as_secs_f64() < s.seconds) {
        let mut rec = Recorder::new();
        let mut counts = gen_counts.clone();
        let it = match &input {
            Input::Study(config) => traced_study(config, &mut rec, &mut counts)?,
            Input::Captures(caps) => traced_captures(w, caps, ckpt, &mut rec, &mut counts)?,
        };
        attempted += it.ops.len() as u64;
        failed += failures(&it, &warm);
        passes.push(derive(w, &rec, &gen_rec, &counts, untraced_wall_s));
        last_rec = rec;
    }

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for def in &PER_LAYER {
        let values: Vec<f64> = passes
            .iter()
            .filter_map(|m| m.get(def.name).copied())
            .collect();
        // A count that differs between two passes over one input is a
        // wrong count.
        if is_exact_count(def) && values.iter().any(|v| Some(v) != values.first()) {
            failed += 1;
        }
        metrics.push((def.name, stats::median(&values)));
    }

    let spans_path = out_dir.join(format!("{}.spans.json", w.name));
    std::fs::write(
        &spans_path,
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"setup_spans\": {}, \"iteration_spans\": {}}}\n",
            w.name,
            s.seed,
            gen_rec.to_json(),
            last_rec.to_json()
        ),
    )?;
    let detail = Value::obj([
        ("traced_iterations", Value::Num(passes.len() as f64)),
        (
            "untraced_iteration_wall_ms",
            Value::Num(untraced_wall_s * 1e3),
        ),
        ("spans_file", Value::str(spans_path.display().to_string())),
        ("spans", Value::Num(last_rec.spans().len() as f64)),
    ]);
    Ok(Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_signed_inclusive_minus_parts() {
        assert_eq!(residual(230.0, &[70.0, 30.0, 50.0, 5.0, 40.0]), 35.0);
        // Separate passes can cost more than the fused loop they came from.
        assert_eq!(residual(76.0, &[30.0, 25.0, 28.0]), -7.0);
        assert_eq!(residual(10.0, &[]), 10.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }

    #[test]
    fn replay_covers_the_five_costliest_analyzers_by_responder_port() {
        use ent_flow::Endpoint;
        use ent_wire::ipv4::Addr;
        let key = |proto, port| FlowKey {
            proto,
            orig: Endpoint::new(Addr::new(10, 100, 1, 1), 40_000),
            resp: Endpoint::new(Addr::new(10, 100, 2, 2), port),
        };
        assert_eq!(replayed_kind(&key(Proto::Tcp, 80)), Some(Replayed::Http));
        assert_eq!(replayed_kind(&key(Proto::Tcp, 25)), Some(Replayed::Smtp));
        assert_eq!(replayed_kind(&key(Proto::Tcp, 524)), Some(Replayed::Ncp));
        assert_eq!(
            replayed_kind(&key(Proto::Tcp, 2049)),
            Some(Replayed::NfsTcp)
        );
        assert_eq!(
            replayed_kind(&key(Proto::Udp, 2049)),
            Some(Replayed::NfsUdp)
        );
        assert_eq!(replayed_kind(&key(Proto::Udp, 53)), Some(Replayed::Dns));
        // DNS over TCP gets no analyzer in the pipeline either.
        assert_eq!(replayed_kind(&key(Proto::Tcp, 53)), None);
        assert_eq!(replayed_kind(&key(Proto::Tcp, 443)), None);
        assert_eq!(replayed_kind(&key(Proto::Icmp, 0)), None);
    }
}
