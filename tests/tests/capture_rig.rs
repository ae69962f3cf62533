//! The capture rig: unidirectional taps merged by timestamp must yield
//! the same analysis as a directly ordered capture (the paper's 4-NIC
//! methodology, §2).

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::{analyze_trace, PipelineConfig};
use ent_gen::build::{build_site, generate_trace};
use ent_gen::dataset::all_datasets;
use ent_integration::test_gen_config;
use ent_pcap::merge::{merge_streams, Stream};
use ent_pcap::Trace;
use ent_wire::Packet;

#[test]
fn tap_merge_equals_direct_capture() {
    let specs = all_datasets();
    let config = test_gen_config();
    let (site, wan) = build_site(&specs[0], &config);
    let trace = generate_trace(&site, &wan, &specs[0], 6, 1, &config);

    // Split into two unidirectional streams, as one Shomiti tap pair
    // would: traffic entering vs leaving the subnet.
    let mut inbound = Vec::new();
    let mut outbound = Vec::new();
    for p in &trace.packets {
        let into_subnet = Packet::parse(&p.frame)
            .ok()
            .and_then(|pkt| pkt.ipv4_addrs())
            .map(|(_, dst)| dst.octets()[2] == 6)
            .unwrap_or(false);
        if into_subnet {
            inbound.push(p.clone());
        } else {
            outbound.push(p.clone());
        }
    }
    assert!(!inbound.is_empty() && !outbound.is_empty());
    let merged = merge_streams(vec![
        Stream::synchronized(inbound),
        Stream::synchronized(outbound),
    ]);
    assert_eq!(merged.len(), trace.packets.len());
    assert!(merged.windows(2).all(|w| w[0].ts <= w[1].ts));

    let rebuilt = Trace {
        meta: trace.meta.clone(),
        packets: merged,
    };
    let a = analyze_trace(&trace, &PipelineConfig::default());
    let b = analyze_trace(&rebuilt, &PipelineConfig::default());
    assert_eq!(a.conns.len(), b.conns.len());
    assert_eq!(a.http.len(), b.http.len());
    assert_eq!(a.dns.len(), b.dns.len());
    assert_eq!(a.packets, b.packets);
}

#[test]
fn clock_skew_within_tolerance_preserves_connections() {
    // Residual NIC clock skew must not break connection tracking as long
    // as it stays below application think times.
    let specs = all_datasets();
    let config = test_gen_config();
    let (site, wan) = build_site(&specs[3], &config);
    let trace = generate_trace(&site, &wan, &specs[3], 24, 1, &config);
    let mut inbound = Vec::new();
    let mut outbound = Vec::new();
    for p in &trace.packets {
        let into_subnet = Packet::parse(&p.frame)
            .ok()
            .and_then(|pkt| pkt.ipv4_addrs())
            .map(|(_, dst)| dst.octets()[2] == 24)
            .unwrap_or(false);
        if into_subnet {
            inbound.push(p.clone());
        } else {
            outbound.push(p.clone());
        }
    }
    let merged = merge_streams(vec![
        Stream {
            packets: inbound,
            clock_offset_us: 40, // one NIC 40 microseconds fast
        },
        Stream::synchronized(outbound),
    ]);
    let rebuilt = Trace {
        meta: trace.meta.clone(),
        packets: merged,
    };
    let a = analyze_trace(&trace, &PipelineConfig::default());
    let b = analyze_trace(&rebuilt, &PipelineConfig::default());
    // Counts stay identical; only sub-RTT timing shifted.
    assert_eq!(a.conns.len(), b.conns.len());
}
