//! Capture-file round trip: synthesize a trace, write it as a classic
//! pcap, read it back, and verify the analysis pipeline sees the same
//! thing — plus a demonstration of what snaplen truncation (the paper's
//! D1/D2 68-byte captures) does to payload analyses.
//!
//! Run with: `cargo run --release -p ent-examples --bin capture_roundtrip`

// Examples abort on setup failure rather than degrade.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_core::{analyze_trace, PipelineConfig};
use ent_gen::build::{build_site, generate_trace};
use ent_gen::dataset::dataset;
use ent_gen::GenConfig;
use ent_pcap::{PacketArena, Tap, Trace};

fn main() {
    let spec = dataset("D3").expect("D3 exists");
    let config = GenConfig {
        scale: 0.02,
        seed: 5,
        hosts_per_subnet: None,
    };
    let (site, wan) = build_site(&spec, &config);
    let trace = generate_trace(&site, &wan, &spec, 30, 1, &config); // print-server subnet

    // Write to an in-memory pcap (a file works identically).
    let mut pcap_bytes = Vec::new();
    trace.write_pcap(&mut pcap_bytes).expect("write pcap");
    println!(
        "wrote pcap: {} packets -> {} bytes on disk",
        trace.packets.len(),
        pcap_bytes.len()
    );

    // Read back and compare: the reader finds nothing to repair.
    let (back, health) = Trace::read_pcap(&pcap_bytes, trace.meta.clone()).expect("read pcap");
    assert!(health.is_clean(), "{health}");
    assert_eq!(back.packets.len(), trace.packets.len());
    assert_eq!(back.packets, trace.packets);
    println!("round trip: byte-identical packets ✓");

    // Analyze both; results must agree.
    let a = analyze_trace(&trace, &PipelineConfig::default());
    let b = analyze_trace(&back, &PipelineConfig::default());
    assert_eq!(a.conns.len(), b.conns.len());
    assert_eq!(a.http.len(), b.http.len());
    println!(
        "analysis agrees: {} conns, {} HTTP transactions, {} RPC calls ✓",
        a.conns.len(),
        a.http.len(),
        a.rpc.len()
    );

    // Now the D1/D2 story: re-capture the same traffic at snaplen 68,
    // staging the frames in an arena and applying the tap there, as trace
    // generation does.
    let mut arena = PacketArena::unbounded();
    arena.set_snaplen(trace.meta.snaplen as usize);
    for p in &trace.packets {
        arena.frame_buf().extend_from_slice(&p.frame);
        arena.commit(p.ts, p.orig_len as usize);
    }
    arena.apply_tap(&mut Tap::new(68));
    let truncated = Trace {
        meta: ent_pcap::TraceMeta {
            snaplen: 68,
            ..trace.meta.clone()
        },
        packets: arena.captured_packets(),
    };
    let c = analyze_trace(&truncated, &PipelineConfig::default());
    println!(
        "\nsnaplen 68 re-capture: {} conns still tracked (transport analyses survive),",
        c.conns.len()
    );
    println!(
        "but payload analyses go dark: {} HTTP transactions, {} RPC calls, {} NFS calls",
        c.http.len(),
        c.rpc.len(),
        c.nfs.len()
    );
    println!("— exactly why the paper omits D1/D2 from application-layer analyses.");
    assert!(c.http.is_empty() && c.rpc.is_empty());
    assert!(!c.conns.is_empty());
}
