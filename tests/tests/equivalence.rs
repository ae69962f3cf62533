//! Differential equivalence suite: every execution mode of the pipeline
//! — 4 worker threads, the sharded machinery at one shard — must be
//! output-identical to the serial single-thread run on every dataset
//! D0–D4. (That the fast hasher changes nothing is proven one level down,
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

use ent_core::run::{run_datasets, DatasetAnalysis, StudyConfig};
use ent_core::{PipelineConfig, PipelineMetrics, TraceAnalysis};
use ent_gen::GenConfig;
use ent_integration::{differential_study, trimmed_specs};

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

/// The one differential run: a serial single-thread reference vs the
/// 4-thread and 1-shard variants. One test (not two) so the reference
/// study is generated once.
#[test]
fn every_execution_mode_is_output_identical_to_the_serial_reference() {
    let reference = differential_study(SCALE, 1, SUBNETS, 0);
    // Sanity: the workload exercises every dataset and produces records.
    assert_eq!(reference.len(), 5);
    assert!(reference.iter().all(|d| !d.traces.is_empty()));
    let total_conns: usize = reference
        .iter()
        .flat_map(|d| &d.traces)
        .map(|t| t.conns.len())
        .sum();
    assert!(total_conns > 1_000, "workload too small: {total_conns}");

    let multi_thread = differential_study(SCALE, 4, SUBNETS, 0);
    assert_equivalent(&reference, &multi_thread, "4 threads");

    // The sharded pipeline at one shard is event-for-event identical to
    // the serial path across all three layers: every frame steers to the
    // one worker in arrival order, so the connection table sees the exact
    // ingest sequence the serial engine does — same records, same order,
    // same peak.
    let one_shard = differential_study(SCALE, 1, SUBNETS, 1);
    assert_equivalent(&reference, &one_shard, "1 shard @ 1 thread");
}

/// The sharding determinism gate at test scale: `events_signature` must
/// be byte-identical across the serial path and every shard count, for
/// more than one generator seed. (The committed `BENCH_scaling.json`
/// pins the same invariant at the gate configuration — scale 0.01, seed
/// 2005 — via `scripts/check.sh`.) `peak_open_conns` is the one value
/// allowed to vary: a sharded run reports the sum of per-shard peaks,
/// which can only be ≥ the serial peak.
#[test]
fn events_signature_is_invariant_across_shard_counts() {
    for seed in [1u64, 2005] {
        let mut curve: Vec<(usize, u64, u64, u64)> = Vec::new();
        for shards in [0usize, 1, 2, 4, 8] {
            let study = run_datasets(
                &trimmed_specs(2),
                &StudyConfig {
                    gen: GenConfig {
                        scale: 0.004,
                        seed,
                        hosts_per_subnet: Some(10),
                    },
                    pipeline: PipelineConfig {
                        shards,
                        ..Default::default()
                    },
                    threads: 1,
                },
            );
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
            assert!(
                peak >= serial_peak || shards == 0,
                "seed {seed}: sum-of-shard-peaks {peak} below serial peak {serial_peak}"
            );
        }
    }
}
