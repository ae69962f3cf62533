//! What `BENCHMARK.json` declares, as tables the code runs from: the six
//! workloads, every end-to-end metric with its bound, every per-layer
//! metric. A unit test holds the two in step.

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run_study` → `build_report` → `render`, generation included.
    Study,
    /// Pre-built pcap buffers through `analyze_capture`.
    Serial,
    /// The same buffers through `Monitor` + `drive_capture`, every
    /// checkpoint written to disk.
    Monitor,
    /// The same buffers through the shard dispatcher with one worker.
    Sharded,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Call path.
    pub mode: Mode,
    /// Datasets whose traces make the input (all five for studies).
    pub datasets: &'static [&'static str],
    /// Generator scale.
    pub scale: f64,
    /// Fewest timed iterations, however long one takes.
    pub min_iters: usize,
    /// One line: why this workload exists.
    pub why: &'static str,
}

const ALL: &[&str] = &["D0", "D1", "D2", "D3", "D4"];
const PAYLOAD: &[&str] = &["D0", "D3"];
const HEADERS: &[&str] = &["D1"];

/// The six workloads, in the order `run` executes them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "study_gate",
        mode: Mode::Study,
        datasets: ALL,
        scale: 0.01,
        min_iters: 5,
        why: "Full D0-D4 study at the gate config (scale 0.01, 1 thread, serial ingest): the ROADMAP headline; ent-gen does over half the work here and none in the capture workloads.",
    },
    Workload {
        name: "study_scale03",
        mode: Mode::Study,
        datasets: ALL,
        scale: 0.03,
        min_iters: 3,
        why: "Same call path at scale 0.03 (about 9 M packets, 3x the resident set): shows a gain that holds only while arena and ConnTable fit in cache.",
    },
    Workload {
        name: "analyze_payload",
        mode: Mode::Serial,
        datasets: PAYLOAD,
        scale: 0.01,
        min_iters: 10,
        why: "D0+D3 full-payload pcap buffers through analyze_capture: what a capture analyst pays; reader, TCP delivery and the ent-proto analyzers dominate, ent-gen does nothing.",
    },
    Workload {
        name: "analyze_headers",
        mode: Mode::Serial,
        datasets: HEADERS,
        scale: 0.01,
        min_iters: 10,
        why: "D1 snaplen-68 buffers through analyze_capture: smallest packets, ent-proto bypassed, so Packet::parse and ConnTable::ingest dominate; analyzer work predicts no change here.",
    },
    Workload {
        name: "monitor_headers",
        mode: Mode::Monitor,
        datasets: HEADERS,
        scale: 0.01,
        min_iters: 10,
        why: "The analyze_headers buffers through Monitor + drive_capture, 60 s epochs, every checkpoint encoded: same Engine used resident, so a batch gain that costs rotation or checkpointing shows.",
    },
    Workload {
        name: "analyze_sharded",
        mode: Mode::Sharded,
        datasets: PAYLOAD,
        scale: 0.01,
        min_iters: 10,
        why: "The analyze_payload buffers through the shard dispatcher with one worker: measures dispatch, steer, channel and merge overhead, so serial-path changes that slow it are seen.",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}
use Better::{Higher, Lower};

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, reported by every workload on an untraced run.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("pkts_per_s", "packets/s", Higher, 0.25),
    e2e("trace_ns_per_pkt_p50", "ns/packet", Lower, 0.25),
];

/// Measured on every untraced run and kept in the result file, but not
/// end-to-end metrics with a bound: over the driver's ten different seeds
/// they spread wider than any bound allowed, because the seed decides how
/// big the input and its heaviest trace are (README, "Demoted").
pub const DIAGNOSTICS: [MetricDef; 2] = [
    layer("peak_rss_mb", "MB", Lower),
    layer("trace_ns_per_pkt_tail", "ns/packet", Lower),
];

/// Per-layer metrics, reported by every workload on a traced run; a layer
/// the workload does not touch reads 0.
pub const PER_LAYER: [MetricDef; 55] = [
    // ent-gen
    layer("gen.build_site_ms", "ms", Lower),
    layer("gen.generate_ns_per_pkt", "ns/packet", Lower),
    layer("gen.generate_ns_per_wire_byte", "ns/byte", Lower),
    layer("gen.synth_packets", "count", Lower),
    layer("gen.sorted_packets", "count", Lower),
    layer("gen.captured_bytes", "bytes", Lower),
    // ent-pcap
    layer("pcap.read_ns_per_pkt", "ns/packet", Lower),
    layer("pcap.read_ns_per_byte", "ns/byte", Lower),
    layer("pcap.arena_iter_ns_per_pkt", "ns/packet", Lower),
    layer("pcap.records", "count", Lower),
    layer("pcap.damage_events", "count", Lower),
    // ent-wire
    layer("wire.parse_ns_per_pkt", "ns/packet", Lower),
    layer("wire.captured_bytes_per_pkt", "bytes/packet", Lower),
    layer("wire.parse_rejects", "count", Lower),
    // ent-flow
    layer("flow.ingest_ns_per_pkt", "ns/packet", Lower),
    layer("flow.finish_ns_per_conn", "ns/conn", Lower),
    layer("flow.steer_ns_per_pkt", "ns/packet", Lower),
    layer("flow.steer_skew", "ratio", Lower),
    layer("flow.conns", "count", Lower),
    layer("flow.peak_open_conns", "count", Lower),
    layer("flow.tcp_data_events", "count", Lower),
    layer("flow.tcp_data_bytes", "bytes", Lower),
    layer("flow.udp_datagrams", "count", Lower),
    layer("flow.tcp_gap_events", "count", Lower),
    // ent-proto
    layer("proto.http_ns_per_byte", "ns/byte", Lower),
    layer("proto.smtp_ns_per_byte", "ns/byte", Lower),
    layer("proto.ncp_ns_per_byte", "ns/byte", Lower),
    layer("proto.nfs_ns_per_byte", "ns/byte", Lower),
    layer("proto.dns_ns_per_msg", "ns/msg", Lower),
    layer("proto.http_bytes", "bytes", Lower),
    layer("proto.smtp_bytes", "bytes", Lower),
    layer("proto.ncp_bytes", "bytes", Lower),
    layer("proto.nfs_bytes", "bytes", Lower),
    layer("proto.dns_bytes", "bytes", Lower),
    layer("proto.dns_msgs", "count", Lower),
    layer("proto.http_transactions", "count", Lower),
    layer("proto.ncp_calls", "count", Lower),
    layer("proto.nfs_calls", "count", Lower),
    layer("proto.replayed_share", "ratio", Higher),
    // ent-core
    layer("core.analyze_ns_per_pkt", "ns/packet", Lower),
    layer("core.residual_ns_per_pkt", "ns/packet", Lower),
    layer("core.scanners_ns_per_conn", "ns/conn", Lower),
    layer("core.scanner_conns_removed", "count", Lower),
    layer("core.report_ms", "ms", Lower),
    layer("core.render_ms", "ms", Lower),
    layer("core.monitor.observe_ns_per_pkt", "ns/packet", Lower),
    layer("core.monitor.flush_us_p50", "us", Lower),
    layer("core.monitor.flush_us_p99", "us", Lower),
    layer("core.monitor.epochs", "count", Lower),
    layer("core.checkpoint.encode_us_p50", "us", Lower),
    layer("core.checkpoint.write_us_p50", "us", Lower),
    layer("core.checkpoint.bytes_per_epoch", "bytes", Lower),
    layer("core.shard.analyze_ns_per_pkt", "ns/packet", Lower),
    layer("core.shard.overhead_ratio", "ratio", Lower),
    // harness
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// True for metrics that are exact counts of the input or of the work
/// done on it: they must repeat bit-for-bit at one seed.
pub fn is_exact_count(m: &MetricDef) -> bool {
    matches!(m.unit, "count" | "bytes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn items<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no `{key}` array"),
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let doc = declared();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let workloads = items(&doc, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (d, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(d, "name"), w.name);
            assert_eq!(field(d, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = items(&doc, key);
            assert_eq!(declared.len(), table.len(), "{key}");
            for (d, m) in declared.iter().zip(table) {
                assert_eq!(field(d, "name"), m.name);
                assert_eq!(field(d, "unit"), m.unit, "{}", m.name);
                let better = if m.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                assert_eq!(field(d, "better"), better, "{}", m.name);
                assert_eq!(
                    d.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER).chain(&DIAGNOSTICS) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
