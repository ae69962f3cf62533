//! Quickstart: generate one synthetic enterprise trace (dataset D0,
//! an NFS-heavy subnet), run the full analysis pipeline over it, and
//! print what a network operator would want to know first.
//!
//! Run with: `cargo run --release -p ent-examples --bin quickstart`

// Examples abort on setup failure rather than degrade.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_core::{analyze_arena, PipelineConfig};
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::dataset;
use ent_gen::GenConfig;
use ent_pcap::PacketArena;

fn main() {
    // 1. Pick a dataset spec (D0 = the paper's 10-minute full-payload
    //    capture) and a generation scale.
    let spec = dataset("D0").expect("D0 exists");
    let config = GenConfig {
        scale: 0.05,
        seed: 42,
        hosts_per_subnet: None,
    };

    // 2. Build the site model and synthesize one monitored-subnet trace
    //    into an arena (the study reuses one per worker thread).
    let (site, wan) = build_site(&spec, &config);
    let subnet = 3; // hosts an NFS and an NCP server
    let mut arena = PacketArena::unbounded();
    let (meta, _) = generate_trace_into(&site, &wan, &spec, subnet, 1, &config, &mut arena);
    println!(
        "generated trace: dataset {} subnet {} — {} packets, {} wire bytes",
        spec.name,
        subnet,
        arena.len(),
        arena.wire_bytes()
    );

    // 3. Analyze, streaming the frames out of the arena: connection
    //    tracking, protocol analyzers, scanner removal.
    let analysis = analyze_arena(&meta, &mut arena, &PipelineConfig::default());
    println!(
        "network layers: {} IP, {} ARP, {} IPX, {} other",
        analysis.ip_packets, analysis.arp_packets, analysis.ipx_packets, analysis.other_l3_packets
    );
    println!(
        "connections: {} ({} removed as scanner traffic from {:?})",
        analysis.conns.len(),
        analysis.scanner_conns_removed,
        analysis.scanners_removed
    );

    // 4. The paper's signature observation (§3): UDP dominates connection
    //    counts while TCP dominates bytes.
    let mut tcp = (0u64, 0u64);
    let mut udp = (0u64, 0u64);
    for c in &analysis.conns {
        let slot = match c.proto() {
            ent_flow::Proto::Tcp => &mut tcp,
            ent_flow::Proto::Udp => &mut udp,
            ent_flow::Proto::Icmp => continue,
        };
        slot.0 += 1;
        slot.1 += c.payload_bytes();
    }
    println!(
        "TCP: {} conns / {} bytes   UDP: {} conns / {} bytes",
        tcp.0,
        ent_core::report::fmt_bytes(tcp.1),
        udp.0,
        ent_core::report::fmt_bytes(udp.1)
    );

    // 5. Application mix at this vantage.
    let mut by_cat: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for c in &analysis.conns {
        let e = by_cat.entry(c.category.label()).or_default();
        e.0 += 1;
        e.1 += c.payload_bytes();
    }
    println!("\n{:<14}{:>8}  {:>10}", "category", "conns", "bytes");
    for (cat, (c, b)) in &by_cat {
        println!("{cat:<14}{c:>8}  {:>10}", ent_core::report::fmt_bytes(*b));
    }

    // 6. Application-layer records parsed from actual payload bytes.
    println!(
        "\napp records: {} HTTP transactions, {} DNS lookups, {} NBNS ops, {} NFS calls, {} NCP calls",
        analysis.http.len(),
        analysis.dns.len(),
        analysis.nbns.len(),
        analysis.nfs.len(),
        analysis.ncp.len()
    );
    if let Some(f) = analysis
        .nfs
        .iter()
        .map(|r| r.reply_bytes)
        .max()
    {
        println!("largest NFS reply: {f} bytes (8 KB read replies are the paper's Figure 8 mode)");
    }
}
