//! Capture-file round trip: synthesize a trace, write it as a classic
//! pcap, read it back, and verify the analysis pipeline sees the same
//! thing — plus a demonstration of what snaplen truncation (the paper's
//! D1/D2 68-byte captures) does to payload analyses.
//!
//! Run with: `cargo run --release -p ent-examples --bin capture_roundtrip`

// Examples abort on setup failure rather than degrade.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_core::{analyze_arena, analyze_trace, PipelineConfig};
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::dataset;
use ent_gen::GenConfig;
use ent_pcap::{PacketArena, Trace};

fn main() {
    let spec = dataset("D3").expect("D3 exists");
    let config = GenConfig {
        scale: 0.02,
        seed: 5,
        hosts_per_subnet: None,
    };
    let (site, wan) = build_site(&spec, &config);
    let mut arena = PacketArena::unbounded();
    // The print-server subnet.
    let (meta, _) = generate_trace_into(&site, &wan, &spec, 30, 1, &config, &mut arena);

    // Write to an in-memory pcap (a file works identically), streaming the
    // frames out of the arena as `entreport generate` does.
    let pcap_bytes = arena.write_pcap(Vec::new()).expect("write pcap");
    println!(
        "wrote pcap: {} packets -> {} bytes on disk",
        arena.len(),
        pcap_bytes.len()
    );

    // Read back and compare: the reader finds nothing to repair, and the
    // packets it returns write the same file again.
    let (back, health) = Trace::read_pcap(&pcap_bytes, meta.clone()).expect("read pcap");
    assert!(health.is_clean(), "{health}");
    assert_eq!(back.packets.len(), arena.len());
    let mut again = Vec::new();
    back.write_pcap(&mut again).expect("write pcap");
    assert!(again == pcap_bytes);
    println!("round trip: byte-identical packets ✓");

    // Analyze both; results must agree.
    let a = analyze_arena(&meta, &mut arena, &PipelineConfig::default());
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
    // staging the frames in an arena and lowering its snaplen (a filled
    // arena's snaplen only goes down, cutting every view of its frames).
    arena.clear();
    for p in &back.packets {
        arena.frame_buf().extend_from_slice(&p.frame);
        arena.commit(p.ts, p.orig_len as usize);
    }
    arena.set_snaplen(68);
    let meta68 = ent_pcap::TraceMeta { snaplen: 68, ..meta };
    let c = analyze_arena(&meta68, &mut arena, &PipelineConfig::default());
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
