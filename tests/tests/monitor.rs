//! Monitor-mode crash-safety suite: checkpoint round-trips, kill-at-a-
//! random-epoch resume equivalence across every dataset at two seeds, and
//! damaged-checkpoint degradation.
//!
//! The contract under test (DESIGN §9): resuming from the checkpoint
//! written at any epoch boundary reproduces the remaining epoch reports
//! byte-for-byte and lands on the same cumulative events signature as the
//! uninterrupted run — and a checkpoint damaged in any way degrades to a
//! typed error (counted cold start), never a panic or a wrong resume.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::monitor::{drive_capture, Monitor, MonitorConfig};
use ent_core::{capture_meta, Checkpoint, CheckpointError, PipelineConfig};
use ent_gen::build::{build_site, generate_trace};
use ent_gen::dataset::all_datasets;
use ent_gen::GenConfig;
use ent_pcap::{Fault, FaultInjector};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const EPOCH_SECS: u64 = 60;

fn capture_bytes(dataset: &str, seed: u64) -> Vec<u8> {
    let spec = all_datasets()
        .into_iter()
        .find(|d| d.name == dataset)
        .expect("dataset");
    let config = GenConfig {
        scale: 0.004,
        seed,
        hosts_per_subnet: Some(8),
    };
    let (site, wan) = build_site(&spec, &config);
    let trace = generate_trace(&site, &wan, &spec, spec.monitored.start, 1, &config);
    let mut bytes = Vec::new();
    trace.write_pcap(&mut bytes).expect("serialize");
    bytes
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        epoch_secs: EPOCH_SECS,
        checkpoints: true,
        pipeline: PipelineConfig::default(),
    }
}

/// Everything one monitor run produces that determinism is judged on:
/// the rendered report of every flushed epoch, every boundary checkpoint,
/// and the terminal summary's rendered form (which embeds the cumulative
/// events signature).
struct Run {
    reports: Vec<String>,
    checkpoints: Vec<Checkpoint>,
    summary_text: String,
    signature: Vec<(String, u64, u64)>,
}

fn full_run(data: &[u8], name: &str) -> Run {
    let meta = capture_meta(name, data).expect("capture meta");
    let mut monitor = Monitor::new(meta, monitor_config(), data.len() / 600);
    let mut reports = Vec::new();
    let mut checkpoints = Vec::new();
    let summary = drive_capture(
        data,
        &mut monitor,
        None,
        None,
        |rep| reports.push(rep.render()),
        |ck| checkpoints.push(ck.clone()),
    )
    .expect("monitor run")
    .expect("summary");
    Run {
        reports,
        checkpoints,
        summary_text: summary.render(),
        signature: summary.metrics.events_signature(),
    }
}

/// Resume from `ck` (after an encode→parse round-trip, as a real restart
/// would) and drive the rest of the capture.
fn resumed_run(data: &[u8], name: &str, ck: &Checkpoint) -> Run {
    let ck = Checkpoint::parse(&ck.encode()).expect("checkpoint round-trip");
    let meta = capture_meta(name, data).expect("capture meta");
    let mut monitor =
        Monitor::from_checkpoint(meta, monitor_config(), &ck, data.len() / 600).expect("resume");
    let mut reports = Vec::new();
    let mut checkpoints = Vec::new();
    let summary = drive_capture(
        data,
        &mut monitor,
        Some((ck.resume_offset, ck.reader_clock_us)),
        None,
        |rep| reports.push(rep.render()),
        |ck| checkpoints.push(ck.clone()),
    )
    .expect("monitor run")
    .expect("summary");
    Run {
        reports,
        checkpoints,
        summary_text: summary.render(),
        signature: summary.metrics.events_signature(),
    }
}

/// A checkpoint's deterministic content: everything except the wall-time
/// halves of the metrics, which legitimately differ between two
/// wall-clock runs of the same stream.
fn checkpoint_fingerprint(ck: &Checkpoint) -> String {
    format!(
        "len={} idx={} base={:?} off={} clock={:?} capture={:?} carry={:?} health=[{}] \
         totals={:?} ports={:?} config={:?} sig={:?}",
        ck.epoch_len_us,
        ck.epoch_index,
        ck.stream_base_us,
        ck.resume_offset,
        ck.reader_clock_us,
        ck.capture,
        ck.carry,
        ck.health,
        ck.totals,
        ck.dynamic_ports,
        ck.config,
        ck.metrics.events_signature(),
    )
}

/// Resume equivalence at every dataset and two seeds, killing at a
/// seeded-random epoch boundary: the resumed run must reproduce the
/// remaining epoch reports byte-for-byte and the full run's cumulative
/// events signature and summary exactly.
#[test]
fn kill_at_random_epoch_resumes_equivalently() {
    let mut rng = StdRng::seed_from_u64(0x6d6f_6e69);
    for dataset in ["D0", "D1", "D2", "D3", "D4"] {
        for seed in [1u64, 2005] {
            let data = capture_bytes(dataset, seed);
            let full = full_run(&data, dataset);
            assert!(
                full.checkpoints.len() >= 2,
                "{dataset}/{seed}: need >=2 boundaries, got {}",
                full.checkpoints.len()
            );
            let kill_at = rng.random_range(0..full.checkpoints.len());
            let ck = &full.checkpoints[kill_at];
            let resumed = resumed_run(&data, dataset, ck);
            let remaining = &full.reports[ck.epoch_index as usize..];
            assert_eq!(
                remaining,
                &resumed.reports[..],
                "{dataset}/{seed}: epoch reports diverge after resume at epoch {}",
                ck.epoch_index
            );
            assert_eq!(
                full.signature, resumed.signature,
                "{dataset}/{seed}: cumulative events signature diverges"
            );
            assert_eq!(
                full.summary_text, resumed.summary_text,
                "{dataset}/{seed}: summary diverges"
            );
            // The boundary checkpoints written after the kill point must
            // also match the full run's (wall times aside) — a resumed
            // monitor is indistinguishable going forward.
            let norm: Vec<_> = full.checkpoints[kill_at + 1..]
                .iter()
                .map(checkpoint_fingerprint)
                .collect();
            let resumed_norm: Vec<_> = resumed
                .checkpoints
                .iter()
                .map(checkpoint_fingerprint)
                .collect();
            assert_eq!(
                norm, resumed_norm,
                "{dataset}/{seed}: post-resume checkpoints diverge"
            );
        }
    }
}

/// Every boundary checkpoint must round-trip the binary codec exactly —
/// not just the randomly chosen one the resume test uses.
#[test]
fn every_boundary_checkpoint_roundtrips() {
    let data = capture_bytes("D0", 2005);
    let full = full_run(&data, "D0");
    for ck in &full.checkpoints {
        let back = Checkpoint::parse(&ck.encode()).expect("round-trip");
        assert_eq!(*ck, back);
    }
}

/// The injector's checkpoint fault modes must always land in a typed
/// parse error (the counted-cold-start path), never a panic or a
/// silently-accepted wrong state.
#[test]
fn damaged_checkpoints_degrade_to_typed_errors() {
    let data = capture_bytes("D3", 1);
    let full = full_run(&data, "D3");
    let clean = full.checkpoints.last().expect("boundary").encode();
    let mut inj = FaultInjector::new(0xdead_c0de);
    let mut damaged_seen = 0;
    for round in 0..64 {
        for fault in Fault::CHECKPOINT {
            let mut bytes = clean.clone();
            if !inj.apply(&mut bytes, fault) {
                continue;
            }
            damaged_seen += 1;
            match Checkpoint::parse(&bytes) {
                Err(
                    CheckpointError::Truncated
                    | CheckpointError::ChecksumMismatch
                    | CheckpointError::BadMagic
                    | CheckpointError::UnsupportedVersion(_)
                    | CheckpointError::Malformed(_),
                ) => {}
                Err(other) => panic!("round {round}: unexpected error class {other:?}"),
                Ok(_) => panic!("round {round}: damaged checkpoint parsed cleanly"),
            }
        }
    }
    assert!(damaged_seen >= 100, "injector barely ran: {damaged_seen}");

    // And the monitor-side answer to a bad checkpoint is a *counted* cold
    // start: the recovery lands in cumulative health.
    let meta = capture_meta("D3", &data).expect("capture meta");
    let mut monitor = Monitor::new(meta, monitor_config(), data.len() / 600);
    monitor.note_checkpoint_recovery();
    let mut last_report = None;
    let summary = drive_capture(
        &data,
        &mut monitor,
        None,
        None,
        |rep| last_report = Some(rep.health.checkpoint_recoveries),
        |_| {},
    )
    .expect("run")
    .expect("summary");
    assert_eq!(summary.health.checkpoint_recoveries, 1);
    assert_eq!(last_report, Some(1), "recovery missing from epoch reports");
}

/// A resume against config that differs from the checkpoint's (budgets or
/// epoch length) must refuse with the typed mismatch, since silently
/// resuming would change results.
#[test]
fn config_drift_refuses_resume() {
    let data = capture_bytes("D0", 1);
    let full = full_run(&data, "D0");
    let ck = full.checkpoints.first().expect("boundary");
    let meta = capture_meta("D0", &data).expect("capture meta");
    let mut capped = monitor_config();
    capped.pipeline.max_conns = 128;
    assert!(matches!(
        Monitor::from_checkpoint(meta, capped, ck, 64),
        Err(CheckpointError::ConfigMismatch(_))
    ));
}
