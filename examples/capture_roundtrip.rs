//! Capture-file round trip: synthesize a trace, write it as a classic
//! pcap, read it back record by record, and verify the analysis pipeline
//! sees the same thing — plus a demonstration of what snaplen truncation (the paper's
//! D1/D2 68-byte captures) does to payload analyses.
//!
//! Run with: `cargo run --release -p ent-examples --bin capture_roundtrip`

// Examples abort on setup failure rather than degrade.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_core::{analyze_arena, analyze_capture, PipelineConfig};
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::dataset;
use ent_gen::GenConfig;
use ent_pcap::{PacketArena, RecoveringReader};

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

    // Analyze the capture as `entreport analyze` does (each record lent
    // straight off the buffer) and the arena directly; results must agree.
    let a = analyze_arena(&meta, &mut arena, &PipelineConfig::default());
    let b = analyze_capture(&pcap_bytes, meta.clone(), &PipelineConfig::default())
        .expect("read pcap");
    assert!(b.health.capture.is_clean(), "{}", b.health.capture);
    assert_eq!(b.packets, a.packets);
    assert_eq!(a.conns.len(), b.conns.len());
    assert_eq!(a.http.len(), b.http.len());
    println!(
        "analysis agrees: {} conns, {} HTTP transactions, {} RPC calls ✓",
        a.conns.len(),
        a.http.len(),
        a.rpc.len()
    );

    // Read the records back one at a time into the arena: the reader finds
    // nothing to repair, and the records it lends write the same file again.
    let mut reader = RecoveringReader::new(&pcap_bytes).expect("read pcap");
    arena.clear();
    while let Some(r) = reader.next_record() {
        arena.frame_buf().extend_from_slice(r.frame);
        arena.commit(r.ts, r.orig_len as usize);
    }
    assert!(reader.stats().is_clean(), "{}", reader.stats());
    assert!(arena.write_pcap(Vec::new()).expect("write pcap") == pcap_bytes);
    println!("round trip: byte-identical records ✓");

    // Now the D1/D2 story: re-capture the same traffic at snaplen 68 by
    // lowering the arena's snaplen (a filled arena's snaplen only goes
    // down, cutting every view of its frames).
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
