//! Property tests for the hot-path hasher and the pre-sized flow table,
//! hand-rolled over the vendored deterministic RNG (no external proptest;
//! failures reproduce exactly from the fixed seeds).
//!
//! Two properties pin the hashing overhaul:
//!
//! 1. **Lookup-after-insert totality** — arbitrary `FlowKey` streams,
//!    including shuffled and adversarially-similar orderings (packet-trace
//!    complexity varies between temporally-local and shuffled extremes),
//!    never collide-corrupt an `FxHashMap`: every inserted key stays
//!    retrievable with its latest value, exactly matching a std-hash map
//!    fed the same operations.
//! 2. **Eviction parity** — under `max_conns` pressure the fx-hash
//!    `ConnTable` makes the same eviction decisions, in the same order,
//!    as the std-hash reference table, decision-for-decision: both tables
//!    issue the identical sequence of [`FlowHandler`] callbacks. The
//!    pipeline's output is a function of that sequence alone, so this is
//!    the whole fx≡std proof — there is no std-hash pipeline to compare.
//!    The same parity holds at the two extremes of the table's last-flow
//!    memo: a stream where every lookup misses it and one where every
//!    lookup hits it.

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_flow::{
    fx_map_with_capacity, ConnIndex, ConnSummary, ConnTable, Dir, Endpoint, FlowHandler, FlowKey,
    FlowStats, FxHashMap, Proto, TableConfig,
};
use ent_gen::build::build_site;
use ent_gen::GenConfig;
use ent_integration::owned_trace;
use ent_wire::{build, ethernet::MacAddr, ipv4::Addr, Packet, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

fn rand_key(rng: &mut StdRng) -> FlowKey {
    let proto = match rng.random_range(0u8..3) {
        0 => Proto::Tcp,
        1 => Proto::Udp,
        _ => Proto::Icmp,
    };
    FlowKey {
        proto,
        orig: Endpoint::new(Addr(rng.random::<u32>()), rng.random::<u16>()),
        resp: Endpoint::new(Addr(rng.random::<u32>()), rng.random::<u16>()),
    }
}

/// Keys differing from `base` in exactly one low-entropy way — the
/// adversarial shape for a multiply-rotate hash (shared prefixes, single
/// bit/byte deltas, swapped endpoints).
fn similar_key(base: FlowKey, rng: &mut StdRng) -> FlowKey {
    let mut k = base;
    match rng.random_range(0u8..5) {
        0 => k.orig.port = k.orig.port.wrapping_add(1),
        1 => k.resp.port = k.resp.port.wrapping_add(1),
        2 => k.orig.addr = Addr(k.orig.addr.0 ^ 1),
        3 => k.resp.addr = Addr(k.resp.addr.0 ^ (1 << rng.random_range(0u32..32))),
        _ => std::mem::swap(&mut k.orig, &mut k.resp),
    }
    k
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0usize..i + 1);
        v.swap(i, j);
    }
}

#[test]
fn fx_map_lookup_after_insert_is_total_on_flow_key_streams() {
    let mut rng = StdRng::seed_from_u64(0xfa57_0001);
    for case in 0..64 {
        // Mix fresh random keys with adversarially-similar ones.
        let mut keys: Vec<FlowKey> = Vec::new();
        for i in 0..512 {
            let k = if i > 0 && rng.random_bool(0.5) {
                let base = keys[rng.random_range(0usize..keys.len())];
                similar_key(base, &mut rng)
            } else {
                rand_key(&mut rng)
            };
            keys.push(k);
        }
        // Exercise both temporally-local and shuffled insertion orders.
        if case % 2 == 1 {
            shuffle(&mut keys, &mut rng);
        }
        let mut fx: FxHashMap<(Proto, Endpoint, Endpoint), u64> = fx_map_with_capacity(64);
        let mut std_map: HashMap<(Proto, Endpoint, Endpoint), u64> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            fx.insert(k.canonical(), i as u64);
            std_map.insert(k.canonical(), i as u64);
        }
        assert_eq!(fx.len(), std_map.len(), "population diverged (case {case})");
        for k in &keys {
            let canon = k.canonical();
            assert_eq!(
                fx.get(&canon),
                std_map.get(&canon),
                "lookup-after-insert broke for {k:?} (case {case})"
            );
            assert!(fx.contains_key(&canon), "inserted key lost: {k:?}");
        }
        // Removals stay coherent too.
        for k in keys.iter().step_by(3) {
            assert_eq!(fx.remove(&k.canonical()), std_map.remove(&k.canonical()));
        }
        for k in &keys {
            assert_eq!(fx.get(&k.canonical()), std_map.get(&k.canonical()));
        }
    }
}

/// A randomized UDP workload over a small endpoint pool: enough key reuse
/// to grow flows, enough churn to force evictions at `max_conns`.
fn eviction_workload(rng: &mut StdRng, packets: usize) -> Vec<(Vec<u8>, Timestamp)> {
    let mut ts = 0u64;
    let mut out = Vec::with_capacity(packets);
    for _ in 0..packets {
        // Occasionally idle long enough to split flows; occasionally run
        // the clock backwards to exercise the monotone clamp.
        ts = match rng.random_range(0u8..20) {
            0 => ts + 70_000_000,
            1 => ts.saturating_sub(5_000),
            _ => ts + rng.random_range(0u64..2_000),
        };
        let src = Addr::new(10, 0, rng.random_range(0u8..4), rng.random_range(1u8..30));
        let dst = Addr::new(10, 0, 9, rng.random_range(1u8..6));
        let frame = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr::from_host_id(2),
                src_ip: src,
                dst_ip: dst,
                src_port: rng.random_range(1024u16..1024 + 64),
                dst_port: rng.random_range(50u16..60),
                ttl: 64,
            },
            &vec![0u8; rng.random_range(0usize..200)],
        );
        out.push((frame, Timestamp::from_micros(ts)));
    }
    out
}

/// Every callback a table issues, in order, with the connection index
/// and the payload length it carried.
#[derive(Default)]
struct Recorder {
    events: Vec<String>,
    tcp_data: u64,
    tcp_gaps: u64,
    udp_datagrams: u64,
}

impl FlowHandler for Recorder {
    fn on_new_conn(&mut self, idx: ConnIndex, key: &FlowKey, ts: Timestamp) {
        self.events.push(format!("new {idx:?} {key:?} @{}", ts.micros()));
    }
    fn on_tcp_data(&mut self, idx: ConnIndex, dir: Dir, ts: Timestamp, data: &[u8]) {
        self.tcp_data += 1;
        self.events.push(format!("tcp {idx:?} {dir:?} @{} len={}", ts.micros(), data.len()));
    }
    fn on_tcp_gap(&mut self, idx: ConnIndex, dir: Dir, wire_bytes: u64) {
        self.tcp_gaps += 1;
        self.events.push(format!("gap {idx:?} {dir:?} bytes={wire_bytes}"));
    }
    fn on_udp_datagram(&mut self, idx: ConnIndex, dir: Dir, ts: Timestamp, data: &[u8], wire_len: u32) {
        self.udp_datagrams += 1;
        self.events.push(format!("udp {idx:?} {dir:?} @{} len={} wire={wire_len}", ts.micros(), data.len()));
    }
    fn on_conn_closed(&mut self, idx: ConnIndex, summary: &ConnSummary) {
        self.events.push(format!("closed {idx:?} {summary:?}"));
    }
}

/// Feed one packet stream to an fx-hash and a std-hash table under the
/// same `config` and require identical stats and callback sequences.
/// Returns the fx table's recorder and stats for workload sanity checks.
fn assert_callback_parity<'a>(
    config: TableConfig,
    packets: impl Iterator<Item = (&'a [u8], Timestamp)>,
    label: &str,
) -> (Recorder, FlowStats) {
    let mut fx = ConnTable::new(config);
    let mut std_t = ConnTable::with_std_hasher(config);
    let mut fx_sink = Recorder::default();
    let mut std_sink = Recorder::default();
    for (frame, ts) in packets {
        let pkt = Packet::parse(frame).expect("generated frame parses");
        fx.ingest(&pkt, ts, &mut fx_sink);
        std_t.ingest(&pkt, ts, &mut std_sink);
    }
    let end = Timestamp::from_secs(100_000);
    fx.finish(end, &mut fx_sink);
    std_t.finish(end, &mut std_sink);
    assert_eq!(fx.stats(), std_t.stats(), "flow stats diverged ({label})");
    assert_eq!(fx.packets_seen(), std_t.packets_seen());
    let (fl, sl) = (&fx_sink.events, &std_sink.events);
    assert_eq!(fl.len(), sl.len(), "callback count diverged ({label})");
    for (i, (a, b)) in fl.iter().zip(sl).enumerate() {
        assert_eq!(a, b, "callback {i} diverged ({label})");
    }
    (fx_sink, *fx.stats())
}

#[test]
fn eviction_under_max_conns_matches_std_hash_table_decision_for_decision() {
    let mut rng = StdRng::seed_from_u64(0xfa57_0002);
    for case in 0..16 {
        let config = TableConfig {
            max_conns: 24,
            expected_conns: 8, // deliberately undersized: forces rehashing
        };
        let workload = eviction_workload(&mut rng, 2_000);
        let packets = workload.iter().map(|(frame, ts)| (frame.as_slice(), *ts));
        let (_, stats) = assert_callback_parity(config, packets, &format!("case {case}"));
        assert!(
            stats.evicted_conns > 0,
            "workload never hit the cap (case {case})"
        );
    }
    // The synthetic workload above is UDP only. Generated enterprise traces
    // drive the TCP side through the same undersized, capped tables: D0
    // delivers full in-order payloads, D1's 68-byte snaplen turns every
    // data segment into a delivery plus a gap.
    let gen = GenConfig {
        scale: 0.004,
        seed: 7,
        hosts_per_subnet: Some(8),
    };
    let config = TableConfig {
        max_conns: 24,
        expected_conns: 8,
    };
    let (mut tcp_data, mut tcp_gaps, mut udp_datagrams) = (0, 0, 0);
    for name in ["D0", "D1"] {
        let spec = ent_gen::dataset::dataset(name).expect("dataset");
        let (site, wan) = build_site(&spec, &gen);
        let trace = owned_trace(&site, &wan, &spec, spec.monitored.start, 1, &gen);
        let packets = trace.packets.iter().map(|p| (&*p.frame, p.ts));
        let (seen, stats) =
            assert_callback_parity(config, packets, &format!("generated {name} trace"));
        assert!(
            stats.evicted_conns > 0,
            "workload never hit the cap (generated {name} trace)"
        );
        tcp_data += seen.tcp_data;
        tcp_gaps += seen.tcp_gaps;
        udp_datagrams += seen.udp_datagrams;
    }
    assert!(tcp_data > 0, "traces delivered no TCP data");
    assert!(tcp_gaps > 0, "traces produced no TCP gaps");
    assert!(udp_datagrams > 0, "traces delivered no UDP datagrams");
}

#[test]
fn last_flow_memo_hits_and_misses_match_std_hash_table() {
    let udp = |src: Addr, dst: Addr, src_port: u16, dst_port: u16| {
        build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr::from_host_id(2),
                src_ip: src,
                dst_ip: dst,
                src_port,
                dst_port,
                ttl: 64,
            },
            b"memo",
        )
    };
    let (client, server) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 9, 9));
    // Strict ping-pong between two flows: every lookup misses the table's
    // last-flow memo. One flow's requests and replies back to back: every
    // lookup after the first hits it. Both idle past the split timeout
    // every 500 packets, so splits land on both sides of the memo.
    let ping_pong = [
        udp(client, server, 5_000, 53),
        udp(client, server, 5_001, 53),
    ];
    let burst = [
        udp(client, server, 5_000, 53),
        udp(server, client, 53, 5_000),
    ];
    let mut ts = 0u64;
    let stamps: Vec<Timestamp> = (0..2_000u64)
        .map(|n| {
            ts += if n % 500 == 0 { 70_000_000 } else { 1_000 };
            Timestamp::from_micros(ts)
        })
        .collect();
    for (label, frames) in [("ping-pong", &ping_pong), ("burst", &burst)] {
        let packets = stamps
            .iter()
            .enumerate()
            .map(|(n, ts)| (frames[n % 2].as_slice(), *ts));
        let (seen, _) = assert_callback_parity(TableConfig::default(), packets, label);
        let opened = seen.events.iter().filter(|e| e.starts_with("new ")).count();
        assert_eq!(seen.udp_datagrams, 2_000, "{label}");
        // Each flow opens four times: at its first packet and after each
        // of three idle gaps.
        assert_eq!(opened, if label == "burst" { 4 } else { 8 }, "{label}");
    }
}
