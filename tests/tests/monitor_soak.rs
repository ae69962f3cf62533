//! Long-soak pin for monitor mode: hours-equivalent traffic through a
//! fixed-budget resident monitor must run at *flat* steady-state memory.
//!
//! The net-bytes mode of `ent_integration::alloc_count` (alloc adds the
//! layout size, dealloc subtracts it) watches the replay of one epoch's worth of realistic
//! traffic over and over with shifted timestamps — 2+ hours of trace time.
//! After a warmup that lets every retained structure (connection table,
//! analyzer slab, dynamic-port registry) reach its working capacity, the
//! net heap level at the same phase of every subsequent epoch must be
//! exactly the level at the end of warmup: zero steady-state growth, the
//! property that makes the monitor residency-safe.
//!
//! A second, tightly-budgeted pass pins the backpressure contract: with
//! `max_conns` below the traffic's natural concurrency, peak open
//! connections stay at the budget, evictions actually happen, and every
//! degradation event is accounted in `IngestHealth` and the
//! `backpressure` stage.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::monitor::{Monitor, MonitorConfig};
use ent_core::PipelineConfig;
use ent_gen::build::build_site;
use ent_gen::dataset::all_datasets;
use ent_gen::GenConfig;
use ent_pcap::TraceMeta;
use ent_integration::alloc_count::{self, CountingAlloc};
use ent_integration::owned_trace;
use ent_wire::Timestamp;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One pooled frame: (relative timestamp µs, frame bytes, original length).
type PooledFrame = (u64, Vec<u8>, u32);

/// One epoch's worth of realistic frames, timestamps rebased to zero —
/// built entirely *before* counting starts.
fn frame_pool() -> (Vec<PooledFrame>, TraceMeta, u64) {
    let spec = all_datasets()
        .into_iter()
        .find(|d| d.name == "D0")
        .expect("dataset");
    let config = GenConfig {
        scale: 0.004,
        seed: 7,
        hosts_per_subnet: Some(8),
    };
    let (site, wan) = build_site(&spec, &config);
    let trace = owned_trace(&site, &wan, &spec, spec.monitored.start, 1, &config);
    let base = trace.packets.first().expect("packets").ts.micros();
    let pool: Vec<PooledFrame> = trace
        .packets
        .iter()
        .map(|p| (p.ts.micros() - base, p.frame.to_vec(), p.orig_len))
        .collect();
    let span_us = pool.last().expect("packets").0;
    // Epoch strictly containing one replay, so each replay is one epoch.
    let epoch_secs = span_us / 1_000_000 + 2;
    (pool, trace.meta, epoch_secs)
}

/// Replay the pool as epoch `k` (timestamps shifted by whole epochs).
fn replay(monitor: &mut Monitor, pool: &[PooledFrame], k: u64, epoch_secs: u64) {
    for (rel, frame, orig_len) in pool {
        let ts = Timestamp::from_micros(k * epoch_secs * 1_000_000 + rel);
        let _ = monitor.observe(ts, frame, *orig_len);
    }
}

#[test]
fn hours_equivalent_soak_holds_memory_flat_and_accounts_degradation() {
    let (pool, meta, epoch_secs) = frame_pool();
    assert!(pool.len() > 5_000, "pool too small: {}", pool.len());

    // ---- Pass 1: budgeted monitor, flat steady-state memory ----
    const WARMUP: u64 = 3;
    const MEASURED: u64 = 12; // WARMUP+MEASURED epochs ≈ hours of trace time
    let cfg = MonitorConfig {
        epoch_secs,
        checkpoints: false,
        pipeline: PipelineConfig {
            max_conns: 512,
            max_pending: 4,
            ..Default::default()
        },
    };
    let mut levels = Vec::with_capacity(MEASURED as usize);
    alloc_count::start();
    let mut monitor = Monitor::new(meta.clone(), cfg, pool.len());
    for k in 0..WARMUP {
        replay(&mut monitor, &pool, k, epoch_secs);
    }
    let after_warmup = alloc_count::net_bytes();
    for k in WARMUP..WARMUP + MEASURED {
        replay(&mut monitor, &pool, k, epoch_secs);
        levels.push(alloc_count::net_bytes());
    }
    alloc_count::stop();
    let (last, summary) = monitor.finish(&ent_pcap::IngestStats::default());
    assert_eq!(last.expect("final epoch").index, WARMUP + MEASURED - 1);
    assert_eq!(summary.totals.epochs, WARMUP + MEASURED);
    assert_eq!(
        summary.totals.packets,
        pool.len() as u64 * (WARMUP + MEASURED)
    );
    for (i, level) in levels.iter().enumerate() {
        assert_eq!(
            *level,
            after_warmup,
            "steady-state heap drifted by {} bytes at epoch {} (warmup level {})",
            *level - after_warmup,
            WARMUP + i as u64,
            after_warmup,
        );
    }
    assert!(
        summary.metrics.peak_open_conns <= 512,
        "peak open conns {} exceeded the budget",
        summary.metrics.peak_open_conns
    );

    // ---- Pass 2: budget below natural concurrency — bounded and counted ----
    let natural_peak = summary.metrics.peak_open_conns;
    assert!(natural_peak > 2, "traffic too serial to exercise the budget");
    let budget = (natural_peak / 2).max(1) as usize;
    let tight = MonitorConfig {
        epoch_secs,
        checkpoints: false,
        pipeline: PipelineConfig {
            max_conns: budget,
            max_pending: 1,
            ..Default::default()
        },
    };
    let mut monitor = Monitor::new(meta, tight, pool.len());
    for k in 0..2 {
        replay(&mut monitor, &pool, k, epoch_secs);
    }
    let (_, summary) = monitor.finish(&ent_pcap::IngestStats::default());
    assert!(
        summary.metrics.peak_open_conns <= budget as u64,
        "peak {} above budget {budget}",
        summary.metrics.peak_open_conns
    );
    assert!(
        summary.health.evicted_conns > 0,
        "budget below natural peak must force evictions"
    );
    // Every degradation event is accounted, in the health counters alone.
    assert!(!summary.health.is_clean());
}
