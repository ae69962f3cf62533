//! Accounting invariants: nothing the pipeline reports can exceed (or
//! silently drop) what is physically in the trace.

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::{analyze_trace, PipelineConfig};
use ent_gen::build::{build_site, generate_trace};
use ent_gen::dataset::all_datasets;
use ent_integration::test_gen_config;
use ent_wire::{Packet, Transport};

#[test]
fn packet_and_byte_conservation() {
    let specs = all_datasets();
    let config = test_gen_config();
    let (site, wan) = build_site(&specs[0], &config);
    let trace = generate_trace(&site, &wan, &specs[0], 3, 1, &config);

    // Ground truth straight from the frames.
    let (mut tcp_pkts, mut udp_pkts, mut icmp_pkts) = (0u64, 0u64, 0u64);
    let (mut tcp_payload, mut udp_payload) = (0u64, 0u64);
    for p in &trace.packets {
        match Packet::parse(&p.frame).map(|pkt| pkt.transport) {
            Ok(Transport::Tcp {
                wire_payload_len, ..
            }) => {
                tcp_pkts += 1;
                tcp_payload += wire_payload_len as u64;
            }
            Ok(Transport::Udp {
                wire_payload_len, ..
            }) => {
                udp_pkts += 1;
                udp_payload += wire_payload_len as u64;
            }
            Ok(Transport::Icmp { .. }) => icmp_pkts += 1,
            _ => {}
        }
    }

    // Pipeline accounting, with scanner traffic retained so everything is
    // attributed to some connection.
    let a = analyze_trace(
        &trace,
        &PipelineConfig {
            keep_scanners: true,
            ..Default::default()
        },
    );
    let mut conn_pkts = [0u64; 3];
    let mut conn_payload = [0u64; 3];
    for c in &a.conns {
        let i = match c.proto() {
            ent_flow::Proto::Tcp => 0,
            ent_flow::Proto::Udp => 1,
            ent_flow::Proto::Icmp => 2,
        };
        conn_pkts[i] += c.summary.total_packets();
        conn_payload[i] += c.payload_bytes();
    }
    assert_eq!(conn_pkts[0], tcp_pkts, "every TCP packet lands in exactly one conn");
    assert_eq!(conn_pkts[1], udp_pkts, "every UDP packet lands in exactly one conn");
    assert_eq!(conn_pkts[2], icmp_pkts, "every ICMP packet lands in exactly one conn");
    assert_eq!(conn_payload[0], tcp_payload, "TCP payload bytes conserved");
    assert_eq!(conn_payload[1], udp_payload, "UDP payload bytes conserved");
    // Host-pair de-duplication (the paper's §5 failure-rate methodology)
    // is a real collapse here: retries fold into fewer pairs than TCP
    // connections, so the success rate it yields is not the raw one.
    let tcp = || a.conns.iter().filter(|c| c.proto() == ent_flow::Proto::Tcp);
    let mut pairs = std::collections::BTreeMap::new();
    for c in tcp() {
        *pairs.entry(c.summary.key.host_pair()).or_insert(false) |= c.successful();
    }
    let (conns, ok) = (tcp().count(), tcp().filter(|c| c.successful()).count());
    let pairs_ok = pairs.values().filter(|ok| **ok).count();
    assert!(pairs.len() < conns, "{} pairs of {conns} conns", pairs.len());
    assert_ne!(pairs_ok * conns, ok * pairs.len(), "success rate must move under de-duplication");
    // Utilization bins account for every captured wire byte.
    let binned: u64 = a.bytes_per_second.iter().sum();
    let wire: u64 = trace.packets.iter().map(|p| p.orig_len as u64).sum();
    assert_eq!(binned, wire, "utilization bins conserve wire bytes");
    // Layer counts partition the packet count.
    assert_eq!(
        a.ip_packets + a.arp_packets + a.ipx_packets + a.other_l3_packets,
        a.packets
    );
    assert_eq!(a.packets, trace.packets.len() as u64);
}
