//! Allocation pin for connection finalization.
//!
//! The hot-path overhaul removed the per-connection `summary.clone()` on
//! the finalize path: summaries now flow to handlers as `&ConnSummary` and
//! are materialized by copy (`ConnSummary` is `Copy`). This test pins that
//! contract with a counting global allocator: draining a full table emits
//! every summary with **zero** heap allocations, independent of how many
//! connections are open — so a reintroduced per-conn clone/box shows up as
//! an O(n) allocation count, not a silent perf regression.
//!
//! The counting allocator (`ent_integration::alloc_count`) counts per
//! thread, so these tests may run in parallel with each other and with
//! the harness's own bookkeeping.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::{Monitor, MonitorConfig};
use ent_flow::{
    shard_of_key, shard_of_packet, shard_of_pair, ConnSummary, ConnTable, Endpoint, FlowHandler,
    FlowKey, Proto, TableConfig,
};
use ent_pcap::TraceMeta;
use ent_integration::alloc_count::{self, CountingAlloc};
use ent_wire::{build, ethernet::MacAddr, ipv4::Addr, Packet, Timestamp};

/// Compile-time proof that `ConnSummary` stays `Copy` (the property that
/// makes clone-free finalize possible; see `crates/flow/src/summary.rs`).
const fn assert_copy<T: Copy>() {}
const _: () = assert_copy::<ConnSummary>();

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Observes every summary by reference and aggregates without storing —
/// the shape of a handler that needs no per-conn heap state.
#[derive(Default)]
struct Aggregate {
    closed: u64,
    payload: u64,
}

impl FlowHandler for Aggregate {
    fn on_conn_closed(&mut self, _idx: ent_flow::ConnIndex, summary: &ConnSummary) {
        self.closed += 1;
        self.payload += summary.orig.payload_bytes + summary.resp.payload_bytes;
    }
}

/// Open `n` distinct UDP connections, then count heap allocations while
/// `finish` drains and summarizes all of them.
fn finish_alloc_count(n: u16) -> (u64, u64) {
    let mut table = ConnTable::new(TableConfig {
        expected_conns: usize::from(n),
        ..Default::default()
    });
    let mut sink = Aggregate::default();
    for i in 0..n {
        let frame = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr::from_host_id(2),
                src_ip: Addr::new(10, 0, 1, 5),
                dst_ip: Addr::new(10, 0, 2, 9),
                src_port: 1024 + i,
                dst_port: 53,
                ttl: 64,
            },
            b"payload",
        );
        let pkt = Packet::parse(&frame).expect("generated frame parses");
        table.ingest(&pkt, Timestamp::from_micros(u64::from(i)), &mut sink);
    }
    alloc_count::start();
    table.finish(Timestamp::from_secs(10), &mut sink);
    let allocs = alloc_count::stop();
    (allocs, sink.closed)
}

/// Shard steering sits on the per-packet dispatch path of the sharded
/// pipeline, so it must never touch the heap: hashing a host pair is pure
/// register work. A reintroduced allocation (e.g. a keyed hasher that
/// boxes state) would cost O(packets) allocations per trace.
#[test]
fn shard_steering_makes_zero_allocations() {
    let frame = build::udp_frame(
        &build::UdpFrameSpec {
            src_mac: MacAddr::from_host_id(3),
            dst_mac: MacAddr::from_host_id(4),
            src_ip: Addr::new(10, 0, 3, 7),
            dst_ip: Addr::new(10, 0, 4, 11),
            src_port: 40_000,
            dst_port: 53,
            ttl: 64,
        },
        b"steer",
    );
    let pkt = Packet::parse(&frame).expect("generated frame parses");
    let key = FlowKey {
        proto: Proto::Udp,
        orig: Endpoint::new(Addr::new(10, 0, 3, 7), 40_000),
        resp: Endpoint::new(Addr::new(10, 0, 4, 11), 53),
    };
    alloc_count::start();
    let mut acc = 0usize;
    for n in [1usize, 2, 4, 8] {
        acc += shard_of_pair(Addr::new(10, 0, 3, 7), Addr::new(10, 0, 4, 11), n);
        acc += shard_of_key(&key, n);
        acc += shard_of_packet(&pkt, n);
    }
    let allocs = alloc_count::stop();
    assert!(acc < 3 * (1 + 2 + 4 + 8), "steering out of range");
    assert_eq!(allocs, 0, "shard steering allocated on the dispatch path");
}

/// The fused parse+ingest pass (Engine::ingest_dissected) in steady
/// state: once the connection table, per-second bins and analyzer slab
/// are warm, re-observing established flows must perform **zero** heap
/// allocations per packet — frame dissection, layer tallying, stage-stat
/// updates and flow ingest all run in place. A reintroduced per-packet
/// allocation (owned frame copy, boxed analyzer state, a Vec in the lap
/// accounting) shows up here as an O(packets) count.
#[test]
fn fused_parse_ingest_makes_zero_steady_state_allocations() {
    let frames: Vec<Vec<u8>> = (0..32u16)
        .map(|i| {
            build::udp_frame(
                &build::UdpFrameSpec {
                    src_mac: MacAddr::from_host_id(7),
                    dst_mac: MacAddr::from_host_id(8),
                    src_ip: Addr::new(10, 0, 7, 3),
                    dst_ip: Addr::new(10, 0, 8, 4),
                    src_port: 2_048 + i,
                    dst_port: 9_009,
                    ttl: 64,
                },
                b"fused-pin",
            )
        })
        .collect();
    let meta = TraceMeta {
        dataset: "pin".into(),
        subnet: 0,
        pass: 1,
        duration: Timestamp::from_secs(300),
        snaplen: 1_500,
        link_capacity_bps: 100_000_000,
    };
    let mut mon = Monitor::new(meta, MonitorConfig::default(), 4_096);
    // Warm pass: opens every flow, sizes the table/slab/bins once.
    for (i, f) in frames.iter().enumerate() {
        let reports = mon.observe(Timestamp::from_micros(i as u64), f, f.len() as u32);
        assert!(reports.is_empty(), "warm pass must stay inside one epoch");
    }

    // Steady passes: same flows, later timestamps, same epoch. This walks
    // the fused loop well past a LAP_STRIDE boundary so the sampled
    // (clocked) packets are covered too.
    alloc_count::start();
    let mut quiet = true;
    for rep in 1..=4u64 {
        for (i, f) in frames.iter().enumerate() {
            let ts = Timestamp::from_micros(rep * 1_000_000 + i as u64);
            quiet &= mon.observe(ts, f, f.len() as u32).is_empty();
        }
    }
    let allocs = alloc_count::stop();
    assert!(quiet, "steady passes must stay inside one epoch");
    assert_eq!(
        allocs, 0,
        "fused parse+ingest allocated on the per-packet path"
    );
}

#[test]
fn finalize_makes_zero_per_conn_summary_allocations() {
    let (small_allocs, small_closed) = finish_alloc_count(64);
    let (large_allocs, large_closed) = finish_alloc_count(512);
    assert_eq!(small_closed, 64, "every opened conn must be summarized");
    assert_eq!(large_closed, 512, "every opened conn must be summarized");
    assert_eq!(
        small_allocs, 0,
        "finalize allocated on the summary path (n=64)"
    );
    assert_eq!(
        large_allocs, 0,
        "finalize allocated on the summary path (n=512)"
    );
}
