//! Cross-crate invariants: pcap round trips and anonymization.

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::PipelineConfig;
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::all_datasets;
use ent_integration::{
    analyze_trace, anonymize_trace, owned_packets, owned_trace, test_gen_config, Fault,
    FaultInjector, Trace,
};
use ent_pcap::{PacketArena, Tap, TraceMeta};

fn sample_trace(dataset_idx: usize, subnet: u16) -> Trace {
    let specs = all_datasets();
    let config = test_gen_config();
    let (site, wan) = build_site(&specs[dataset_idx], &config);
    owned_trace(&site, &wan, &specs[dataset_idx], subnet, 1, &config)
}

/// Re-capture an owned trace at `snaplen` through `tap` on the product
/// path: stage its frames in an arena at the trace's snaplen, lower that
/// to `snaplen`, then `apply_tap`.
fn recapture(trace: &Trace, snaplen: usize, tap: &mut Tap) -> Trace {
    let mut arena = PacketArena::unbounded();
    arena.set_snaplen(trace.meta.snaplen as usize);
    for p in &trace.packets {
        arena.frame_buf().extend_from_slice(&p.frame);
        arena.commit(p.ts, p.orig_len as usize);
    }
    arena.set_snaplen(snaplen);
    arena.apply_tap(tap);
    Trace {
        meta: TraceMeta {
            snaplen: arena.snaplen() as u32,
            ..trace.meta.clone()
        },
        packets: owned_packets(&mut arena),
    }
}

/// `entreport generate` writes a capture off the arena's stream
/// (`PacketArena::write_pcap`): byte for byte the file that the same
/// trace's owned packets write, on a payload and a print-server trace.
#[test]
fn the_streamed_capture_is_the_owned_trace_file() {
    let specs = all_datasets();
    let config = test_gen_config();
    let mut arena = PacketArena::unbounded();
    for (dataset_idx, subnet) in [(0, 3), (4, 30)] {
        let spec = &specs[dataset_idx];
        let (site, wan) = build_site(spec, &config);
        let (meta, _) = generate_trace_into(&site, &wan, spec, subnet, 1, &config, &mut arena);
        let streamed = arena.write_pcap(Vec::new()).expect("write streamed");
        let owned = Trace {
            meta,
            packets: owned_packets(&mut arena),
        };
        let mut want = Vec::new();
        owned.write_pcap(&mut want).expect("write owned");
        assert!(owned.packets.len() > 1_000, "{}: trace too small", spec.name);
        assert!(streamed == want, "{} subnet {subnet}: the streamed file differs", spec.name);
    }
}

#[test]
fn pcap_roundtrip_preserves_analysis() {
    let trace = sample_trace(0, 4);
    let mut buf = Vec::new();
    trace.write_pcap(&mut buf).expect("write");
    let (back, stats) = Trace::read_pcap(&buf, trace.meta.clone()).expect("read");
    assert!(stats.is_clean(), "{stats}");
    assert_eq!(back.packets, trace.packets);
    let a = analyze_trace(&trace, &PipelineConfig::default());
    let b = analyze_trace(&back, &PipelineConfig::default());
    assert_eq!(a.conns.len(), b.conns.len());
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.http.len(), b.http.len());
    assert_eq!(a.nfs.len(), b.nfs.len());
}

#[test]
fn snaplen68_dataset_survives_transport_analysis() {
    // D1 traces are 68-byte captures with injected drops: connection
    // tracking must still work; payload analyzers must stay silent.
    let trace = sample_trace(1, 3);
    assert!(trace.packets.iter().all(|p| p.frame.len() <= 68));
    let a = analyze_trace(&trace, &PipelineConfig::default());
    assert!(!a.conns.is_empty());
    assert!(a.http.is_empty());
    assert!(a.rpc.is_empty());
    // Byte accounting uses wire lengths, not captured lengths: TCP byte
    // totals must exceed what was physically captured.
    let payload: u64 = a.conns.iter().map(|c| c.payload_bytes()).sum();
    let captured: u64 = trace.packets.iter().map(|p| p.frame.len() as u64).sum();
    assert!(
        payload > captured,
        "wire payload {payload} should exceed captured bytes {captured}"
    );
    // The ablation proper: a full-payload trace re-captured header-only
    // keeps every connection and loses the HTTP records it had.
    let full = sample_trace(0, 3);
    let cut = recapture(&full, 68, &mut Tap::new(0));
    assert_eq!(cut.meta.snaplen, 68);
    let (f, c) = (
        analyze_trace(&full, &PipelineConfig::default()),
        analyze_trace(&cut, &PipelineConfig::default()),
    );
    assert!(!f.http.is_empty() && c.http.is_empty(), "payload analyses need the payload");
    assert_eq!(f.conns.len(), c.conns.len(), "transport analyses must not");
}

#[test]
fn anonymization_preserves_every_aggregate() {
    let trace = sample_trace(3, 24);
    let anon = anonymize_trace(&trace, "integration-key");
    assert_eq!(anon.packets.len(), trace.packets.len());
    // No frame survives unchanged (addresses always rewritten)...
    let changed = trace
        .packets
        .iter()
        .zip(&anon.packets)
        .filter(|(a, b)| a.frame != b.frame)
        .count();
    assert!(changed > trace.packets.len() * 9 / 10);
    // ...but every analysis does. Scanner removal is disabled here:
    // prefix-preserving anonymization deliberately randomizes address
    // *order* within a subnet, so the paper's monotone-sweep heuristic
    // cannot fire on an anonymized trace — a known property of
    // tcpmkpub-style release (scan detection must run pre-anonymization).
    let cfg = PipelineConfig {
        keep_scanners: true,
        ..Default::default()
    };
    let a = analyze_trace(&trace, &cfg);
    let b = analyze_trace(&anon, &cfg);
    assert_eq!(a.conns.len(), b.conns.len());
    assert_eq!(a.dns.len(), b.dns.len());
    assert_eq!(a.nbns.len(), b.nbns.len());
    assert_eq!(a.http.len(), b.http.len());
    // DCE/RPC on Endpoint-Mapper-learned ports is the one analysis that
    // *cannot* survive address anonymization: the mapping advertised in
    // the EPM response payload no longer matches the rewritten addresses
    // (payloads are not rewritten — the real release stripped them).
    // Pipe-carried RPC (classified by port 139/445) must survive.
    assert!(b.rpc.len() <= a.rpc.len());
    let bytes = |x: &ent_core::TraceAnalysis| -> u64 {
        x.conns.iter().map(|c| c.payload_bytes()).sum()
    };
    assert_eq!(bytes(&a), bytes(&b));
}

/// `entreport anonymize` reads a damaged capture the way `analyze` and
/// `monitor` do. For every non-fatal fault at two seeds: the anonymized
/// salvage writes out a capture that reads back clean, and the analyses of
/// the salvage and of its anonymization agree.
#[test]
fn anonymizing_a_damaged_capture_salvages_it() {
    let trace = sample_trace(0, 3);
    let mut clean = Vec::new();
    trace.write_pcap(&mut clean).expect("write");
    let cfg = PipelineConfig {
        keep_scanners: true,
        ..Default::default()
    };
    let mut damaged = 0;
    for fault in Fault::ALL.into_iter().filter(|f| !f.is_fatal()) {
        for seed in 0..2u64 {
            let at = format!("{fault:?} seed {seed}");
            let mut bytes = clean.clone();
            assert!(
                FaultInjector::new(0xA2_0000 + seed).apply(&mut bytes, fault),
                "{at}: not applied"
            );
            damaged += 1;
            let (salvaged, stats) = Trace::read_pcap(&bytes, trace.meta.clone())
                .unwrap_or_else(|e| panic!("{at}: {e}"));

            let anon = anonymize_trace(&salvaged, "integration-key");
            let mut out = Vec::new();
            anon.write_pcap(&mut out).expect("write anonymized");
            let (back, back_stats) =
                Trace::read_pcap(&out, anon.meta.clone()).expect("read anonymized");
            assert!(back_stats.is_clean(), "{at}: {back_stats}");
            assert_eq!(back_stats.records, stats.records, "{at}");
            assert_eq!(back.packets, anon.packets, "{at}");

            let (a, b) = (analyze_trace(&salvaged, &cfg), analyze_trace(&anon, &cfg));
            assert_eq!(a.packets, b.packets, "{at}");
            assert_eq!(a.conns.len(), b.conns.len(), "{at}");
            assert_eq!(a.dns.len(), b.dns.len(), "{at}");
            assert_eq!(a.http.len(), b.http.len(), "{at}");
        }
    }
    assert_eq!(damaged, 22, "11 non-fatal modes x 2 seeds");
}

#[test]
fn anonymization_defeats_scan_detection() {
    // The flip side of prefix preservation: the sweep scanners detected in
    // the raw trace disappear after anonymization (their target order is
    // scrambled). This is why the paper's pipeline removes scanners
    // *before* release. Sweeps are probabilistic per trace, so search a
    // few subnets for one that was swept.
    let mut checked = false;
    for subnet in 22..34 {
        let trace = sample_trace(3, subnet);
        let raw = analyze_trace(&trace, &PipelineConfig::default());
        if raw.scanner_conns_removed == 0 {
            continue;
        }
        // Removal is what it says: with scanners kept, the same trace
        // carries exactly the removed connections on top.
        let kept = analyze_trace(
            &trace,
            &PipelineConfig { keep_scanners: true, ..Default::default() },
        );
        assert_eq!(kept.conns.len() as u64, raw.conns.len() as u64 + raw.scanner_conns_removed);
        let anon = analyze_trace(
            &anonymize_trace(&trace, "integration-key"),
            &PipelineConfig::default(),
        );
        assert!(
            anon.scanner_conns_removed < raw.scanner_conns_removed,
            "anonymization should hide sequential sweeps ({} vs {})",
            anon.scanner_conns_removed,
            raw.scanner_conns_removed
        );
        checked = true;
        break;
    }
    assert!(checked, "no swept trace found across twelve subnets");
}

#[test]
fn capture_drops_detected_as_acked_unseen() {
    // Re-capture a clean trace through a lossy tap; some connection must
    // show the paper's §2 anomaly — a receiver acknowledging data absent
    // from the trace.
    let clean = sample_trace(0, 3);
    let mut tap = Tap::new(97);
    let lossy = recapture(&clean, 1_500, &mut tap);
    assert!(tap.dropped() > 0, "tap must drop packets");
    let a = analyze_trace(&lossy, &PipelineConfig::default());
    assert!(
        a.conns.iter().any(|c| c.summary.acked_unseen_data),
        "injected capture drops should surface as acked-unseen data"
    );
    // The clean trace shows no such anomaly.
    let b = analyze_trace(&clean, &PipelineConfig::default());
    assert!(!b.conns.iter().any(|c| c.summary.acked_unseen_data));
}
