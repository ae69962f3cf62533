//! Property-based tests over the core data structures and invariants,
//! spanning crates. Each property runs a few hundred seeded-random cases
//! through the vendored deterministic RNG (no external proptest); failures
//! therefore reproduce exactly from the fixed seeds.

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_anon::prefix::{common_prefix_len, Anonymizer};
use ent_core::stats::Ecdf;
use ent_pcap::{PcapReader, PcapWriter, TimedPacket};
use ent_wire::{build, ethernet::MacAddr, ipv4, tcp, Packet, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Cases per property: enough to exercise edge cases, fast enough for CI.
const CASES: usize = 256;

fn rand_bytes(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<u8> {
    let n = rng.random_range(lo..hi);
    (0..n).map(|_| rng.random::<u8>()).collect()
}

/// Any built TCP frame parses back to exactly its inputs.
#[test]
fn tcp_frame_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x7c9_0001);
    for _ in 0..CASES {
        let src = rng.random::<u32>();
        let dst = rng.random::<u32>();
        let sp = rng.random_range(1u16..65535);
        let dp = rng.random_range(1u16..65535);
        let seq = rng.random::<u32>();
        let ack = rng.random::<u32>();
        let window = rng.random::<u16>();
        let payload = rand_bytes(&mut rng, 0, 1400);
        let frame = build::tcp_frame(
            &build::TcpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr::from_host_id(2),
                src_ip: ipv4::Addr(src),
                dst_ip: ipv4::Addr(dst),
                src_port: sp,
                dst_port: dp,
                seq,
                ack,
                flags: tcp::Flags::ACK | tcp::Flags::PSH,
                window,
                ttl: 64,
            },
            &payload,
        );
        let pkt = Packet::parse(&frame).unwrap();
        let t = pkt.tcp().unwrap();
        assert_eq!(t.src_port, sp);
        assert_eq!(t.dst_port, dp);
        assert_eq!(t.seq, seq);
        assert_eq!(t.ack, ack);
        assert_eq!(t.window, window);
        assert_eq!(pkt.payload(), &payload[..]);
        assert_eq!(pkt.ipv4_addrs(), Some((ipv4::Addr(src), ipv4::Addr(dst))));
        // Checksums valid.
        assert!(ent_wire::checksum::verify(&frame[14..34]));
    }
}

/// Truncating a frame (snaplen) never makes the parser panic, and any
/// successfully parsed truncation agrees on ports.
#[test]
fn truncation_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x7c9_0002);
    for _ in 0..CASES {
        let cut = rng.random_range(14usize..200);
        let payload = rand_bytes(&mut rng, 0, 600);
        let frame = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr::from_host_id(2),
                src_ip: ipv4::Addr::new(10, 0, 0, 1),
                dst_ip: ipv4::Addr::new(10, 0, 0, 2),
                src_port: 1111,
                dst_port: 2222,
                ttl: 64,
            },
            &payload,
        );
        let cut = cut.min(frame.len());
        if let Ok(pkt) = Packet::parse(&frame[..cut]) {
            if let Some((sp, dp, _)) = pkt.udp() {
                assert_eq!(sp, 1111);
                assert_eq!(dp, 2222);
            }
        }
    }
}

/// pcap files round-trip arbitrary packet sequences.
#[test]
fn pcap_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x7c9_0003);
    for _ in 0..CASES {
        let n = rng.random_range(0usize..40);
        let mut pkts: Vec<(u64, Vec<u8>)> = (0..n)
            .map(|_| {
                (
                    rng.random_range(0u64..10_000_000),
                    rand_bytes(&mut rng, 14, 200),
                )
            })
            .collect();
        pkts.sort_by_key(|(ts, _)| *ts);
        let packets: Vec<TimedPacket> = pkts
            .into_iter()
            .map(|(ts, frame)| TimedPacket::new(Timestamp::from_micros(ts), frame))
            .collect();
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, 65_535).unwrap();
            for p in &packets {
                w.write_packet(p).unwrap();
            }
        }
        let got = PcapReader::new(&buf[..]).unwrap().read_all().unwrap();
        assert_eq!(got, packets);
    }
}

/// Prefix-preserving anonymization: for any two addresses, the common
/// prefix length is exactly preserved, and the mapping is injective.
#[test]
fn anonymization_prefix_property() {
    let mut rng = StdRng::seed_from_u64(0x7c9_0004);
    for i in 0..CASES {
        let a = rng.random::<u32>();
        // Mix in nearby addresses so long shared prefixes actually occur.
        let b = match i % 4 {
            0 => rng.random::<u32>(),
            1 => a ^ 1,
            2 => a ^ (1 << rng.random_range(0u32..32)),
            _ => a,
        };
        let seed = rng.random::<u64>();
        let mut anon = Anonymizer::new(&format!("k{seed}"));
        let (x, y) = (ipv4::Addr(a), ipv4::Addr(b));
        let (ax, ay) = (anon.ip(x), anon.ip(y));
        assert_eq!(common_prefix_len(ax, ay), common_prefix_len(x, y));
        if a != b {
            assert_ne!(ax, ay);
        } else {
            assert_eq!(ax, ay);
        }
    }
}

/// ECDF invariants: quantiles are monotone, bounded by the sample range,
/// and fraction_le is a valid CDF.
#[test]
fn ecdf_invariants() {
    let mut rng = StdRng::seed_from_u64(0x7c9_0005);
    for _ in 0..CASES {
        let n = rng.random_range(1usize..200);
        let samples: Vec<f64> = (0..n).map(|_| rng.random_range(-1e12..1e12)).collect();
        let e = Ecdf::new(samples.clone());
        let (lo, hi) = e.range().unwrap();
        let mut prev = lo;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = e.quantile(q).unwrap();
            assert!(v >= prev - 1e-9, "quantiles must be monotone");
            assert!(v >= lo && v <= hi);
            prev = v;
        }
        assert_eq!(e.fraction_le(hi), 1.0);
        assert!(e.fraction_le(lo - 1.0) == 0.0);
        // fraction_le is monotone.
        assert!(e.fraction_le(lo) <= e.fraction_le(hi));
    }
}

/// The TCP sequence tracker delivers exactly the sent byte stream, no
/// matter how retransmissions are interleaved.
#[test]
fn flow_delivery_exact_under_retx() {
    use ent_flow::tcp::TcpConn;
    use ent_flow::Dir;
    use ent_wire::packet::TcpSummary;
    let mut rng = StdRng::seed_from_u64(0x7c9_0006);
    for _ in 0..CASES {
        let n_chunks = rng.random_range(1usize..10);
        let chunks: Vec<Vec<u8>> = (0..n_chunks)
            .map(|_| rand_bytes(&mut rng, 1, 300))
            .collect();
        let dup_mask = rng.random::<u16>();
        let mut conn = TcpConn::new();
        let mut seq = 1_000u32;
        let mut delivered = Vec::new();
        let mut expected = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            expected.extend_from_slice(chunk);
            let seg = TcpSummary {
                src_port: 1,
                dst_port: 2,
                seq,
                ack: 0,
                flags: tcp::Flags::ACK,
                window: 1000,
                wire_payload_len: chunk.len() as u32,
            };
            let d = conn.process(Dir::Orig, &seg, chunk.len());
            delivered.extend_from_slice(&chunk[chunk.len() - d.deliver_captured..]);
            // Maybe duplicate this segment (a retransmission).
            if dup_mask & (1 << (i % 16)) != 0 {
                let d2 = conn.process(Dir::Orig, &seg, chunk.len());
                assert!(d2.retransmission);
                assert_eq!(d2.deliver_captured, 0);
            }
            seq = seq.wrapping_add(chunk.len() as u32);
        }
        assert_eq!(delivered, expected);
    }
}

/// The pcap reader never panics on arbitrary bytes — corrupt capture
/// files must fail cleanly.
#[test]
fn pcap_reader_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x7c9_0007);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 0, 600);
        if let Ok(mut r) = PcapReader::new(&bytes[..]) {
            // Drain until error or EOF; must not panic or loop forever.
            let mut n = 0;
            while let Ok(Some(_)) = r.next_packet() {
                n += 1;
                if n > 1_000 {
                    break;
                }
            }
        }
    }
}

/// The packet dissector never panics on arbitrary bytes.
#[test]
fn packet_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x7c9_0008);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 0, 400);
        let _ = Packet::parse(&bytes);
    }
}

/// The whole per-trace analysis pipeline survives garbage frames mixed
/// into a trace (failure injection): no panics, and valid packets are
/// still counted.
#[test]
fn pipeline_survives_garbage_frames() {
    use ent_core::{analyze_trace, PipelineConfig};
    use ent_pcap::{Trace, TraceMeta};
    let mut rng = StdRng::seed_from_u64(0x7c9_0009);
    for _ in 0..64 {
        let n = rng.random_range(1usize..20);
        let mut packets: Vec<TimedPacket> = (0..n)
            .map(|i| {
                TimedPacket::new(
                    Timestamp::from_millis(i as u64),
                    rand_bytes(&mut rng, 14, 120),
                )
            })
            .collect();
        // One known-good flow in the middle.
        let good = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr::from_host_id(2),
                src_ip: ipv4::Addr::new(10, 100, 1, 30),
                dst_ip: ipv4::Addr::new(10, 100, 2, 10),
                src_port: 5_000,
                dst_port: 53,
                ttl: 64,
            },
            &ent_proto::dns::encode_query(7, "x.example", ent_proto::dns::QType::A),
        );
        packets.push(TimedPacket::new(Timestamp::from_secs(2), good));
        packets.sort_by_key(|p| p.ts);
        let trace = Trace {
            meta: TraceMeta {
                dataset: "fuzz".into(),
                subnet: 1,
                pass: 1,
                duration: Timestamp::from_secs(10),
                snaplen: 1_500,
                link_capacity_bps: 100_000_000,
            },
            packets,
        };
        let a = analyze_trace(&trace, &PipelineConfig::default());
        assert!(a.packets >= 1, "the valid packet must be counted");
    }
}

/// Anonymizing arbitrary (possibly non-IP) frames never panics and never
/// changes the frame length.
#[test]
fn anonymize_frame_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x7c9_000a);
    for _ in 0..CASES {
        let bytes = rand_bytes(&mut rng, 0, 200);
        let mut anon = Anonymizer::new("fuzz");
        let mut frame = bytes.clone();
        let _ = ent_anon::trace::anonymize_frame(&mut anon, &mut frame);
        assert_eq!(frame.len(), bytes.len());
    }
}
