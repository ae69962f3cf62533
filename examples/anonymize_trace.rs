//! Trace anonymization, as the paper's authors did before releasing their
//! traces: prefix-preserving address rewriting with checksum repair, one
//! capture record at a time, on the path `entreport anonymize` takes.
//! Demonstrates that (i) addresses change, (ii) subnet structure is
//! preserved, and (iii) the analyses still produce the same aggregate
//! numbers on the anonymized capture.
//!
//! Run with: `cargo run --release -p ent-examples --bin anonymize_trace`

// Examples abort on setup failure rather than degrade.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_anon::prefix::common_prefix_len;
use ent_anon::{anonymize_frame, Anonymizer};
use ent_core::{analyze_capture, PipelineConfig};
use ent_gen::build::{build_site, generate_trace_into};
use ent_gen::dataset::dataset;
use ent_gen::GenConfig;
use ent_pcap::{PacketArena, PcapWriter, RecoveringReader, TimedPacket};
use ent_wire::{ipv4, Timestamp};

fn main() {
    let spec = dataset("D0").expect("D0 exists");
    let config = GenConfig {
        scale: 0.02,
        seed: 13,
        hosts_per_subnet: None,
    };
    let (site, wan) = build_site(&spec, &config);
    let mut arena = PacketArena::unbounded();
    let (meta, _) = generate_trace_into(&site, &wan, &spec, 6, 1, &config, &mut arena);
    // What gets anonymized is a capture file: write the trace as one.
    let pcap = arena.write_pcap(Vec::new()).expect("write pcap");

    // Prefix preservation on its own.
    let mut anon = Anonymizer::new("release-key-2005");
    let a = ipv4::Addr::new(10, 100, 6, 40);
    let b = ipv4::Addr::new(10, 100, 6, 41);
    let c = ipv4::Addr::new(10, 100, 9, 10);
    let (aa, ab, ac) = (anon.ip(a), anon.ip(b), anon.ip(c));
    println!("{a} -> {aa}");
    println!("{b} -> {ab}");
    println!("{c} -> {ac}");
    println!(
        "shared /24 preserved: {} bits common (was {}); shared /16: {} bits (was {})",
        common_prefix_len(aa, ab),
        common_prefix_len(a, b),
        common_prefix_len(aa, ac),
        common_prefix_len(a, c),
    );

    // The capture, record by record under the same key: each salvaged
    // record is copied into one reused packet, rewritten in place and
    // written out.
    let mut reader = RecoveringReader::new(&pcap).expect("read pcap");
    let mut out = PcapWriter::new(Vec::new(), reader.snaplen()).expect("write pcap");
    let mut pkt = TimedPacket::new(Timestamp::ZERO, Vec::new());
    while let Some(r) = reader.next_record() {
        (pkt.ts, pkt.orig_len) = (r.ts, r.orig_len);
        pkt.frame.clear();
        pkt.frame.extend_from_slice(r.frame);
        anonymize_frame(&mut anon, &mut pkt.frame);
        out.write_packet(&pkt).expect("write pcap");
    }
    assert!(reader.stats().is_clean(), "{}", reader.stats());
    println!(
        "\nanonymized {} packets (timestamps and sizes untouched)",
        out.packets_written()
    );
    let anon_pcap = out.finish().expect("flush");

    // Aggregate analyses are invariant (scanner removal disabled: the
    // monotone-sweep heuristic cannot fire once address order inside a
    // subnet is scrambled, which is precisely why the paper removed
    // scanners *before* anonymizing for release).
    let cfg = PipelineConfig {
        keep_scanners: true,
        ..Default::default()
    };
    let before = analyze_capture(&pcap, meta.clone(), &cfg).expect("analyze capture");
    let after = analyze_capture(&anon_pcap, meta, &cfg).expect("analyze anonymized capture");
    assert_eq!(before.packets, after.packets);
    println!(
        "connections: {} -> {} | HTTP tx: {} -> {} | DNS: {} -> {}",
        before.conns.len(),
        after.conns.len(),
        before.http.len(),
        after.http.len(),
        before.dns.len(),
        after.dns.len()
    );
    assert_eq!(before.conns.len(), after.conns.len());
    assert_eq!(before.http.len(), after.http.len());
    let bytes_before: u64 = before.conns.iter().map(|c| c.payload_bytes()).sum();
    let bytes_after: u64 = after.conns.iter().map(|c| c.payload_bytes()).sum();
    assert_eq!(bytes_before, bytes_after);
    println!("aggregate payload bytes identical: {bytes_before} ✓");
    println!("\nno address survives: every internal host is remapped, but every");
    println!("analysis in this repository produces the same tables either way.");
}
