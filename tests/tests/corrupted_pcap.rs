//! Graceful-degradation corpus: every fault mode the injector knows,
//! driven through the FULL pipeline (recovering pcap ingest → dissection →
//! flow table → application analyzers → records), with the damage showing
//! up in the analysis's ingest-health tallies — plus large seeded mutation
//! harnesses over the raw parsers.

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::metrics::Stage;
use ent_core::{analyze_capture, AnalysisError, PipelineConfig, TraceAnalysis};
use ent_gen::build::{build_site, generate_trace};
use ent_gen::dataset::all_datasets;
use ent_integration::test_gen_config;
use ent_pcap::{Fault, FaultInjector, RecoveringReader, Trace, TraceMeta};
use ent_wire::{build, ethernet::MacAddr, ipv4::Addr, Packet, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One serialized D0 trace: realistic traffic with a few hundred records.
fn base_capture() -> (Vec<u8>, TraceMeta) {
    let specs = all_datasets();
    let config = test_gen_config();
    let (site, wan) = build_site(&specs[0], &config);
    let trace = generate_trace(&site, &wan, &specs[0], 3, 1, &config);
    let mut bytes = Vec::new();
    trace.write_pcap(&mut bytes).expect("serialize");
    (bytes, trace.meta)
}

fn analyze(bytes: &[u8], meta: &TraceMeta) -> Result<TraceAnalysis, AnalysisError> {
    analyze_capture(bytes, meta.clone(), &PipelineConfig::default())
}

/// Every non-fatal fault mode must flow end-to-end: the analysis succeeds,
/// most packets survive, and the damage is visible in the health tallies
/// wherever the fault is detectable at all.
#[test]
fn corrupted_corpus_survives_full_pipeline() {
    let (clean_bytes, meta) = base_capture();
    let clean = analyze(&clean_bytes, &meta).expect("clean capture analyzes");
    assert!(clean.health.is_clean(), "clean baseline: {}", clean.health);
    assert!(clean.packets > 100, "baseline too small: {}", clean.packets);

    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        let mut bytes = clean_bytes.clone();
        let mut inj = FaultInjector::new(0xC0FFEE + i as u64);
        assert!(inj.apply(&mut bytes, fault), "{fault:?} did not apply");

        if fault.is_fatal() {
            assert!(
                matches!(analyze(&bytes, &meta), Err(AnalysisError::Ingest(_))),
                "{fault:?} must be a typed fatal error"
            );
            continue;
        }
        let a = analyze(&bytes, &meta)
            .unwrap_or_else(|e| panic!("{fault:?} must stay analyzable: {e}"));
        // Localized damage must not take down the bulk of the trace.
        assert!(
            a.packets * 2 >= clean.packets,
            "{fault:?} lost too much: {} of {} packets",
            a.packets,
            clean.packets
        );
        assert!(!a.conns.is_empty(), "{fault:?} produced no connections");

        // Mode-specific damage accounting.
        let h = &a.health;
        match fault {
            Fault::TruncateTail => assert!(h.capture.truncated_tail, "{fault:?}"),
            Fault::AbsurdSnaplen => assert!(h.capture.snaplen_clamped, "{fault:?}"),
            Fault::ZeroCaplen => assert!(h.capture.zero_len_records > 0, "{fault:?}"),
            Fault::AbsurdCaplen | Fault::GarbageRecordHeader => {
                assert!(h.capture.malformed_records > 0, "{fault:?}: {h}")
            }
            Fault::CaplenExceedsOrig => {
                assert!(h.capture.repaired_records > 0, "{fault:?}: {h}")
            }
            Fault::TimestampRegression | Fault::ReorderRecords => {
                assert!(h.capture.clock_regressions > 0, "{fault:?}: {h}")
            }
            Fault::InsertGarbage => {
                assert!(h.capture.bytes_skipped > 0, "{fault:?}: {h}")
            }
            // Duplicates and payload bit-flips are legitimate-looking
            // records; they surface (if at all) as retransmissions or
            // malformed frames, not capture damage.
            Fault::DuplicateRecord | Fault::FlipPayloadBits => {}
            // Checkpoint modes live in Fault::CHECKPOINT, not Fault::ALL;
            // they damage checkpoint files (tests/tests/monitor.rs).
            Fault::BadMagic | Fault::TruncateCheckpoint | Fault::CorruptCheckpoint => {
                panic!("{fault:?} is fatal (skipped above) or not in Fault::ALL")
            }
        }
    }
}

/// Capture analysis is the same ingest session as every other batch entry
/// point, so it runs the worker lane too — and damage must not make the
/// lane disagree with the inline engine. Every non-fatal fault mode x 8
/// injector seeds: same events, same rendered health (capture tally and
/// clock clamps included), same packet and byte totals, and the same
/// connection records in the same order.
#[test]
fn damaged_captures_agree_across_shard_counts() {
    let (clean_bytes, meta) = base_capture();
    let with_shards = |bytes: &[u8], shards: usize| {
        let config = PipelineConfig {
            shards,
            ..PipelineConfig::default()
        };
        analyze_capture(bytes, meta.clone(), &config).expect("non-fatal damage stays analyzable")
    };
    // The knob is honored, not ignored: only the lane's dispatcher times
    // its hand-off, as the backpressure stage's wall.
    let backpressure_ns = |a: &TraceAnalysis| a.metrics.stages[Stage::Backpressure].wall_ns;
    assert!(backpressure_ns(&with_shards(&clean_bytes, 1)) > 0, "analyze_capture ran inline at shards = 1");
    assert_eq!(backpressure_ns(&with_shards(&clean_bytes, 0)), 0);
    let keys = |a: &TraceAnalysis| a.conns.iter().map(|c| c.summary.key).collect::<Vec<_>>();
    let mut damaged = 0;
    for fault in Fault::ALL.into_iter().filter(|f| !f.is_fatal()) {
        for seed in 0..8u64 {
            let mut bytes = clean_bytes.clone();
            let mut inj = FaultInjector::new(0x5EED_0000 + seed);
            assert!(inj.apply(&mut bytes, fault), "{fault:?} did not apply");
            damaged += 1;
            let serial = with_shards(&bytes, 0);
            let lane = with_shards(&bytes, 1);
            let at = format!("{fault:?} seed {seed}");
            assert_eq!(
                lane.metrics.events_signature(),
                serial.metrics.events_signature(),
                "{at}"
            );
            assert_eq!(lane.health.to_string(), serial.health.to_string(), "{at}");
            assert_eq!(lane.packets, serial.packets, "{at}");
            assert_eq!(lane.wire_bytes, serial.wire_bytes, "{at}");
            assert_eq!(keys(&lane), keys(&serial), "{at}");
        }
    }
    assert_eq!(damaged, 88, "11 non-fatal modes x 8 seeds");
}

/// Compounded damage: several distinct faults at once still ingest, and
/// the tallies reflect each of them.
#[test]
fn compound_faults_accumulate_in_health() {
    let (mut bytes, meta) = base_capture();
    let mut inj = FaultInjector::new(7);
    // Ordered so each fault's record picks stay valid: the garbled record
    // header goes last because the injector cannot walk record offsets
    // past it.
    for fault in [
        Fault::TruncateTail,
        Fault::ZeroCaplen,
        Fault::CaplenExceedsOrig,
        Fault::TimestampRegression,
        Fault::GarbageRecordHeader,
    ] {
        assert!(inj.apply(&mut bytes, fault), "{fault:?} did not apply");
    }
    let a = analyze(&bytes, &meta).expect("compound damage still analyzable");
    let h = &a.health;
    assert!(h.capture.zero_len_records > 0, "{h}");
    assert!(h.capture.repaired_records > 0, "{h}");
    assert!(h.capture.malformed_records > 0, "{h}");
    assert!(h.capture.clock_regressions > 0, "{h}");
    assert!(h.capture.truncated_tail, "{h}");
    assert!(h.capture.damage_events() >= 4, "{h}");
    assert!(!a.conns.is_empty());
}

/// The whole-file fuzz sweep: every fault applied repeatedly with distinct
/// seeds, each mutant run end-to-end. Nothing may panic or error except
/// the designed-fatal magic corruption.
#[test]
fn repeated_fault_rounds_never_panic() {
    let (clean_bytes, meta) = base_capture();
    let mut inj = FaultInjector::new(0xDEAD);
    for round in 0..6 {
        let mut bytes = clean_bytes.clone();
        // Stack `round + 1` random non-fatal faults on one buffer.
        let mut rng = StdRng::seed_from_u64(round);
        for _ in 0..=round {
            let fault = Fault::ALL[rng.random_range(0..Fault::ALL.len())];
            if fault.is_fatal() {
                continue;
            }
            inj.apply(&mut bytes, fault);
        }
        let a = analyze(&bytes, &meta).expect("non-fatal mutants stay analyzable");
        assert!(a.packets > 0, "round {round} salvaged nothing");
    }
}

fn sample_frames() -> Vec<Vec<u8>> {
    let tcp = build::tcp_frame(
        &build::TcpFrameSpec {
            src_mac: MacAddr::from_host_id(1),
            dst_mac: MacAddr::from_host_id(2),
            src_ip: Addr::new(10, 100, 0, 1),
            dst_ip: Addr::new(10, 100, 0, 2),
            src_port: 40_000,
            dst_port: 80,
            seq: 1,
            ack: 2,
            flags: ent_wire::tcp::Flags::ACK | ent_wire::tcp::Flags::PSH,
            window: 8_192,
            ttl: 64,
        },
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    let udp = build::udp_frame(
        &build::UdpFrameSpec {
            src_mac: MacAddr::from_host_id(3),
            dst_mac: MacAddr::from_host_id(4),
            src_ip: Addr::new(10, 100, 1, 1),
            dst_ip: Addr::new(10, 100, 1, 53),
            src_port: 5_353,
            dst_port: 53,
            ttl: 64,
        },
        b"\x12\x34\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00",
    );
    vec![tcp, udp]
}

/// Seeded mutation harness over `Packet::parse`: byte flips, truncations,
/// and extensions of valid frames. 60k inputs; parse must be total.
#[test]
fn packet_parse_mutation_harness() {
    let frames = sample_frames();
    let mut rng = StdRng::seed_from_u64(0xFACADE);
    let mut parsed = 0u64;
    for i in 0..60_000u64 {
        let mut frame = frames[(i % frames.len() as u64) as usize].clone();
        match rng.random_range(0..4u32) {
            0 => {
                // Flip up to 8 random bytes.
                for _ in 0..rng.random_range(1..=8usize) {
                    let at = rng.random_range(0..frame.len());
                    frame[at] ^= rng.random::<u8>() | 1;
                }
            }
            1 => frame.truncate(rng.random_range(0..=frame.len())),
            2 => {
                let extra = rng.random_range(1..64usize);
                frame.extend((0..extra).map(|_| rng.random::<u8>()));
            }
            _ => {
                // Flip + truncate combined.
                let at = rng.random_range(0..frame.len());
                frame[at] ^= 0xFF;
                frame.truncate(rng.random_range(0..=frame.len()));
            }
        }
        if Packet::parse(&frame).is_ok() {
            parsed += 1;
        }
    }
    // Sanity: the harness is exercising both accept and reject paths.
    assert!(parsed > 0, "no mutant ever parsed");
    assert!(parsed < 60_000, "every mutant parsed — mutations too weak");
}

/// Seeded mutation harness over the pcap reader: 50k mutated capture
/// buffers through the recovering reader, which must always terminate and
/// report consistent tallies.
#[test]
fn pcap_reader_mutation_harness() {
    // A small capture (fast per-iteration) built from alternating frames.
    let frames = sample_frames();
    let packets: Vec<_> = (0..24)
        .map(|i| {
            ent_pcap::TimedPacket::new(
                Timestamp::from_micros(i * 500),
                frames[(i % 2) as usize].clone(),
            )
        })
        .collect();
    let trace = Trace {
        meta: TraceMeta {
            dataset: "fuzz".into(),
            subnet: 0,
            pass: 1,
            duration: Timestamp::from_secs(1),
            snaplen: 1500,
            link_capacity_bps: 100_000_000,
        },
        packets,
    };
    let mut base = Vec::new();
    trace.write_pcap(&mut base).expect("serialize");

    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let (mut recovered_records, mut clean) = (0u64, 0u64);
    for _ in 0..50_000u32 {
        let mut bytes = base.clone();
        for _ in 0..rng.random_range(1..=4usize) {
            match rng.random_range(0..4u32) {
                0 => {
                    if bytes.is_empty() {
                        continue;
                    }
                    let at = rng.random_range(0..bytes.len());
                    bytes[at] ^= rng.random::<u8>() | 1;
                }
                1 => bytes.truncate(rng.random_range(0..=bytes.len())),
                2 => {
                    let at = rng.random_range(0..=bytes.len());
                    let extra: Vec<u8> =
                        (0..rng.random_range(1..32usize)).map(|_| rng.random()).collect();
                    bytes.splice(at..at, extra);
                }
                _ => {
                    // Overwrite a 4-byte word with an extreme value.
                    if bytes.len() >= 4 {
                        let at = rng.random_range(0..bytes.len() - 3);
                        let v: u32 = if rng.random_bool(0.5) { u32::MAX } else { 0 };
                        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        if let Ok(r) = RecoveringReader::new(&bytes) {
            let (pkts, stats) = r.read_all();
            assert_eq!(pkts.len() as u64, stats.records);
            assert!(stats.bytes_skipped <= bytes.len() as u64);
            recovered_records += stats.records;
            clean += u64::from(stats.is_clean());
        }
    }
    assert!(recovered_records > 0, "recovering reader salvaged nothing");
    assert!(clean > 0, "no mutant read clean");
}
