//! Differential equivalence suite: every execution mode of the pipeline
//! — 4 worker threads, the worker lane on the same traces written as
//! captures, and the resident monitor on those captures — must be
//! output-identical to the serial single-thread run on every dataset
//! D0–D4 (the monitor: on D0 and D3, record for record). (That the fast hasher changes nothing is proven one level down,
//! callback for callback against a std-SipHash `ConnTable`, in
//! `hash_table_props.rs`.)
//!
//! Optimization without regression pinning silently drifts results; this
//! suite is the safety case for the hot-path overhaul. Three layers are
//! compared against the serial reference:
//!
//! 1. `events_signature()` — every stage's and analyzer's event/byte
//!    totals (wall times excluded by construction);
//! 2. per-trace `TraceAnalysis` fingerprints — record counts per kind plus
//!    connection-level aggregates and health counters;
//! 3. study-level table inputs — the rendered report, byte-for-byte.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::metrics::Stage;
use ent_core::run::DatasetAnalysis;
use ent_core::{
    analyze_capture, drive_capture, Monitor, MonitorConfig, PipelineConfig, PipelineMetrics,
    TraceAnalysis,
};
use ent_flow::FlowKey;
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::DatasetSpec;
use ent_gen::GenConfig;
use ent_integration::fault::record_offsets;
use ent_integration::{differential_study, test_gen_config, trimmed_specs};
use ent_pcap::{PacketArena, TraceMeta};
use ent_wire::Timestamp;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SCALE: f64 = 0.01;
const SUBNETS: u16 = 3;

/// Everything about one trace's output that must not drift, flattened to
/// a comparable/printable form. Includes per-kind record counts (the
/// satellite requirement) plus aggregate byte sums and health counters so
/// a drifted summary field cannot hide behind an unchanged count.
fn trace_fingerprint(t: &TraceAnalysis) -> String {
    let payload: u64 = t
        .conns
        .iter()
        .map(|c| c.summary.orig.payload_bytes + c.summary.resp.payload_bytes)
        .sum();
    let unique: u64 = t
        .conns
        .iter()
        .map(|c| c.summary.orig.unique_bytes + c.summary.resp.unique_bytes)
        .sum();
    let duration_us: u64 = t.conns.iter().map(|c| c.summary.duration_us()).sum();
    format!(
        "{}/s{}p{} pkts={} ip={} arp={} ipx={} other={} conns={} http={} dns={} nbns={} \
         cifs={} rpc={} nfs={} ncp={} tls={} smtp={} imap={} scan_removed={} scan_conns={} \
         retx_ent={:?} retx_wan={:?} payload={payload} unique={unique} dur={duration_us} \
         bins={} binsum={} health=[{}] peak={}",
        t.dataset,
        t.subnet,
        t.pass,
        t.packets,
        t.ip_packets,
        t.arp_packets,
        t.ipx_packets,
        t.other_l3_packets,
        t.conns.len(),
        t.http.len(),
        t.dns.len(),
        t.nbns.len(),
        t.cifs.len(),
        t.rpc.len(),
        t.nfs.len(),
        t.ncp.len(),
        t.tls.len(),
        t.smtp_message_bytes.len(),
        t.imap_polls.len(),
        t.scanners_removed.len(),
        t.scanner_conns_removed,
        t.retx_ent,
        t.retx_wan,
        t.bytes_per_second.len(),
        t.bytes_per_second.iter().sum::<u64>(),
        t.health,
        t.metrics.peak_open_conns,
    )
}

fn study_fingerprints(study: &[DatasetAnalysis]) -> Vec<String> {
    study
        .iter()
        .flat_map(|d| d.traces.iter().map(trace_fingerprint))
        .collect()
}

fn assert_equivalent(reference: &[DatasetAnalysis], candidate: &[DatasetAnalysis], label: &str) {
    // Layer 1: stage/analyzer event signatures, per dataset.
    for (r, c) in reference.iter().zip(candidate) {
        assert_eq!(
            r.pipeline_metrics().events_signature(),
            c.pipeline_metrics().events_signature(),
            "events_signature drifted for {} under {label}",
            r.spec.name
        );
    }
    // Layer 2: per-trace record counts and aggregates.
    let (rf, cf) = (study_fingerprints(reference), study_fingerprints(candidate));
    assert_eq!(rf.len(), cf.len(), "trace count drifted under {label}");
    for (r, c) in rf.iter().zip(&cf) {
        assert_eq!(r, c, "trace fingerprint drifted under {label}");
    }
    // Layer 3: study-level table inputs, byte-for-byte.
    let rr = ent_core::build_report(reference).render();
    let cr = ent_core::build_report(candidate).render();
    assert_eq!(rr, cr, "rendered study report drifted under {label}");
}

/// One dataset's traces as pcap buffers, each with its generator metadata.
type Captures = (DatasetSpec, Vec<(TraceMeta, Vec<u8>)>);

/// One connection record: key, start, end, packets, payload bytes.
type Record = (FlowKey, Timestamp, Timestamp, u64, u64);

/// The datasets `specs` at `(scale, seed)`, every trace written as a pcap
/// buffer, dataset by dataset.
fn captures(scale: f64, seed: u64, specs: Vec<DatasetSpec>) -> Vec<Captures> {
    let config = GenConfig {
        scale,
        seed,
        hosts_per_subnet: Some(10),
    };
    let mut arena = PacketArena::unbounded();
    specs
        .into_iter()
        .map(|spec| {
            let (site, wan) = build_site(&spec, &config);
            let traces = spec
                .slots()
                .map(|(subnet, pass)| {
                    let (meta, _) =
                        generate_trace_into(&site, &wan, &spec, subnet, pass, &config, &mut arena);
                    (meta, arena.write_pcap(Vec::new()).expect("write pcap"))
                })
                .collect();
            (spec, traces)
        })
        .collect()
}

/// Every capture through `analyze_capture` at `shards`, as a study.
fn analyze_captures(
    captures: &[Captures],
    shards: usize,
) -> Vec<DatasetAnalysis> {
    let config = PipelineConfig {
        shards,
        ..PipelineConfig::default()
    };
    captures
        .iter()
        .map(|(spec, traces)| DatasetAnalysis {
            spec: *spec,
            traces: traces
                .iter()
                .map(|(meta, bytes)| {
                    analyze_capture(bytes, meta.clone(), &config).expect("clean capture")
                })
                .collect(),
            // A capture does not carry its generator scale.
            scale: 0.0,
        })
        .collect()
}

/// Every trace's connection records in close order.
fn records(study: &[DatasetAnalysis]) -> Vec<Vec<Record>> {
    let trace = |t: &TraceAnalysis| {
        t.conns
            .iter()
            .map(|c| {
                let s = &c.summary;
                (s.key, s.start, s.end, s.orig.packets + s.resp.packets, s.total_payload())
            })
            .collect()
    };
    study.iter().flat_map(|d| d.traces.iter().map(trace)).collect()
}

/// Only the lane's dispatcher times its hand-off (the `backpressure`
/// wall): a lane run that reads zero here ran inline.
fn lane_ran(study: &[DatasetAnalysis]) -> bool {
    study
        .iter()
        .flat_map(|d| &d.traces)
        .all(|t| t.metrics.stages[Stage::Backpressure].wall_ns > 0)
}

/// The one differential run: a serial single-thread reference vs the
/// 4-thread variant, and the same traces as captures on the worker lane
/// vs inline. One test (not two) so the reference study is generated
/// once.
#[test]
fn every_execution_mode_is_output_identical_to_the_serial_reference() {
    let reference = differential_study(SCALE, 1, SUBNETS);
    // Sanity: the workload exercises every dataset and produces records.
    assert_eq!(reference.len(), 5);
    assert!(reference.iter().all(|d| !d.traces.is_empty()));
    let total_conns: usize = reference
        .iter()
        .flat_map(|d| &d.traces)
        .map(|t| t.conns.len())
        .sum();
    assert!(total_conns > 1_000, "workload too small: {total_conns}");

    let multi_thread = differential_study(SCALE, 4, SUBNETS);
    assert_equivalent(&reference, &multi_thread, "4 threads");

    // The worker lane serves borrowed frames (a generated trace always
    // ingests inline), and there it is event-for-event identical to the
    // inline engine across all three layers: every frame reaches the one
    // worker in arrival order, so the connection table sees the exact
    // ingest sequence the inline engine does — same records, same order,
    // same peak.
    let caps = captures(SCALE, 2005, trimmed_specs(SUBNETS));
    let inline = analyze_captures(&caps, 0);
    let lane = analyze_captures(&caps, 1);
    assert!(lane_ran(&lane), "a capture at shards = 1 ran inline");
    assert_equivalent(&inline, &lane, "1 shard @ 1 thread");
    assert_eq!(records(&inline), records(&lane), "records drifted on the lane");

    // The resident monitor steps the same frame loop into the same engine,
    // closing a window per epoch instead of once.
    let d0_d3 = || trimmed_specs(SUBNETS).into_iter().filter(|s| ["D0", "D3"].contains(&s.name));
    let seed_1 = captures(SCALE, 1, d0_d3().collect());
    let seed_2005 = caps.iter().filter(|(spec, _)| d0_d3().any(|s| s.name == spec.name));
    for (seed, (spec, traces)) in seed_1.iter().map(|c| (1, c)).chain(seed_2005.map(|c| (2005, c))) {
        for (meta, bytes) in traces {
            let what = format!("{} subnet {} seed {seed}", spec.name, meta.subnet);
            assert_monitor_matches_batch(meta, bytes, &what);
        }
    }
}

/// A window's records: every connection record in close order and every
/// application record, as printed.
fn window_records(t: &TraceAnalysis) -> String {
    format!(
        "{:?}",
        (&t.conns, &t.http, &t.dns, &t.nbns, &t.cifs, &t.rpc, &t.nfs, &t.ncp, &t.tls)
    ) + &format!("{:?}", (&t.smtp_message_bytes, &t.imap_polls, &t.scanner_conns))
}

/// Every batch stage's and analyzer's events and bytes: the signature
/// less the monitor's own stages and the trace count the seal sets.
fn batch_signature(t: &TraceAnalysis) -> Vec<(String, u64, u64)> {
    let monitor_only = ["stage:epoch_rotate", "stage:checkpoint", "traces"];
    let mut sig = t.metrics.events_signature();
    sig.retain(|(name, ..)| !monitor_only.contains(&name.as_str()));
    sig
}

/// `drive_capture` against `analyze_capture` on one capture. With one
/// epoch covering the capture, the epoch is the batch window: the same
/// records in the same order and the same events and bytes on every batch
/// stage (the load bins are sized by the window, so they are not
/// compared). At 60 s epochs, the epochs sum to the batch run's packets,
/// wire bytes and `frame_parse` events. Returns the batch analysis.
fn assert_monitor_matches_batch(meta: &TraceMeta, bytes: &[u8], what: &str) -> TraceAnalysis {
    let batch = analyze_capture(bytes, meta.clone(), &PipelineConfig::default())
        .expect("clean capture");
    let epochs = |epoch_secs: u64| {
        let cfg = MonitorConfig {
            epoch_secs,
            ..MonitorConfig::default()
        };
        let mut monitor = Monitor::new(meta.clone(), cfg, bytes.len() / 600);
        let mut epochs = Vec::new();
        let on_epoch = |e: &ent_core::EpochReport| epochs.push(e.analysis.clone());
        drive_capture(bytes, &mut monitor, None, None, on_epoch, |_| {}).expect("clean capture");
        epochs
    };
    let whole = epochs(meta.duration.micros() / 1_000_000 + 1);
    assert_eq!(whole.len(), 1, "{what}: one epoch must cover the capture");
    assert!(!batch.conns.is_empty(), "{what}: no connections");
    assert!(
        window_records(&whole[0]) == window_records(&batch),
        "{what}: the monitor's records drifted from the batch run's"
    );
    assert_eq!(batch_signature(&whole[0]), batch_signature(&batch), "{what}: stage events drifted");

    let counts = |t: &TraceAnalysis| [t.packets, t.wire_bytes, t.metrics.stages[Stage::FrameParse].events];
    let minutes = epochs(60);
    assert!(minutes.len() > 1, "{what}: 60 s epochs must cut the capture");
    let mut summed = [0; 3];
    for epoch in &minutes {
        summed.iter_mut().zip(counts(epoch)).for_each(|(sum, n)| *sum += n);
    }
    assert_eq!(summed, counts(&batch), "{what}: 60 s epochs do not sum to the batch run");
    batch
}

/// Damage about one payload frame in twelve of a capture buffer written by
/// `PcapWriter` (little-endian records): 1–3 bytes past offset 54 (beyond
/// the Ethernet, IPv4 and bare TCP headers) are each flipped, zeroed or
/// set to 0xff. Returns the number of frames damaged.
fn mutate_payloads(bytes: &mut [u8], rng: &mut StdRng) -> usize {
    const PAST_HEADERS: usize = 54;
    let mut damaged = 0;
    for (at, caplen) in record_offsets(bytes) {
        let caplen = caplen as usize;
        if caplen > PAST_HEADERS && rng.random_bool(0.08) {
            for _ in 0..rng.random_range(1..=3usize) {
                let i = at + 16 + rng.random_range(PAST_HEADERS..caplen);
                bytes[i] = match rng.random_range(0..3u32) {
                    0 => bytes[i] ^ (rng.random::<u8>() | 1),
                    1 => 0,
                    _ => 0xff,
                };
            }
            damaged += 1;
        }
    }
    damaged
}

/// The payload-mutation campaign: D0, D3 and D4 (the full-payload
/// datasets) at two subnets and two seeds of the integration config, with
/// about 8 % of each capture's payload frames damaged. No analyzer may
/// fail on them — a panic would be contained and counted, but the
/// analyzers are expected to be panic-free — and the monitor must still
/// reproduce the batch run record for record.
#[test]
fn mutated_payloads_fail_no_analyzer_and_keep_monitor_equal_to_batch() {
    let payload = |s: &DatasetSpec| ["D0", "D3", "D4"].contains(&s.name);
    let mut rng = StdRng::seed_from_u64(0x7d);
    let (mut captured, mut damaged) = (0, 0);
    for seed in [test_gen_config().seed, 2005] {
        let specs = trimmed_specs(2).into_iter().filter(payload).collect();
        for (spec, traces) in captures(test_gen_config().scale, seed, specs) {
            for (meta, mut bytes) in traces {
                let what = format!("{} subnet {} seed {seed}, payloads mutated", spec.name, meta.subnet);
                damaged += mutate_payloads(&mut bytes, &mut rng);
                let batch = assert_monitor_matches_batch(&meta, &bytes, &what);
                assert_eq!(batch.health.analyzer_failures, 0, "{what}: {}", batch.health);
                captured += 1;
            }
        }
    }
    assert!(captured >= 12, "{captured} captures");
    assert!(damaged > 2_000, "only {damaged} frames mutated");
}

/// The worker-lane determinism gate at test scale: `events_signature`,
/// the packet count, the peak and every connection record in order must
/// be identical inline and on the worker lane, for more than one
/// generator seed. (`scripts/check.sh` pins the same on the `entreport
/// analyze` output of a D0 and a D1 capture at seed 2005.)
#[test]
fn events_signature_is_invariant_across_shard_counts() {
    for seed in [1u64, 2005] {
        let caps = captures(0.004, seed, trimmed_specs(2));
        let mut curve: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut conns = Vec::new();
        for shards in [0usize, 1] {
            let study = analyze_captures(&caps, shards);
            assert!(shards == 0 || lane_ran(&study), "seed {seed}: the lane ran inline");
            let mut total = PipelineMetrics::default();
            for d in &study {
                total.absorb(&d.pipeline_metrics());
            }
            curve.push((
                shards,
                total.events_signature_hash(),
                total.packets(),
                total.peak_open_conns,
            ));
            conns.push(records(&study));
        }
        let (_, ref_sig, ref_packets, serial_peak) = curve[0];
        assert!(ref_packets > 0, "seed {seed}: empty workload");
        for &(shards, sig, packets, peak) in &curve {
            assert_eq!(
                sig, ref_sig,
                "seed {seed}: events signature drifted at {shards} shards"
            );
            assert_eq!(
                packets, ref_packets,
                "seed {seed}: packet count drifted at {shards} shards"
            );
            assert_eq!(
                peak, serial_peak,
                "seed {seed}: peak open conns drifted at {shards} shards"
            );
        }
        assert_eq!(conns[0], conns[1], "seed {seed}: records drifted on the lane");
    }
}
