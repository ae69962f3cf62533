//! Allocation pin for the generator's steady-state emission path.
//!
//! The arena rework made packet emission write header templates straight
//! into one reused [`PacketArena`] byte buffer: a packet is a `(ts, off,
//! len)` record, not an owned `Vec<u8>`. This test pins that contract with
//! a counting global allocator: once the arena is warm (first trace of a
//! worker), re-emitting TCP, UDP and ICMP sessions — and clamping the
//! result through the capture tap — performs **zero** heap allocations,
//! so a reintroduced per-packet `Vec` shows up as an O(packets) count,
//! not a silent throughput regression. (The lint half of the same pin is
//! ent-lint's E002 hot-alloc rule over `gen/synth.rs` + `wire/build.rs`.)
//!
//! The counting allocator is `ent_integration::alloc_count`, shared with
//! `alloc_pin.rs`.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_integration::alloc_count::{self, CountingAlloc};
use ent_gen::synth::{
    emit_icmp_echo, emit_tcp, emit_udp, Exchange, Payload, Peer, TcpSessionSpec, UdpFlowSpec,
    UdpMessage,
};
use ent_pcap::{Clip, PacketArena, Tap};
use ent_wire::{ethernet::MacAddr, ipv4::Addr, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn peer(host_id: u32, last_octet: u8, port: u16) -> Peer {
    Peer::wan(
        Addr::new(10, 9, 0, last_octet),
        MacAddr::from_host_id(host_id),
        port,
    )
}

/// The session mix one emission pass writes: a TCP dialogue, a UDP
/// exchange, and an answered ICMP ping train. Specs are built outside the
/// counted region — session *setup* may allocate (dialogue vecs); it is
/// per-packet emission that must not.
fn session_specs() -> (TcpSessionSpec, UdpFlowSpec) {
    let tcp = TcpSessionSpec::success(
        Timestamp::ZERO,
        peer(1, 5, 40_000),
        peer(2, 9, 80),
        400,
        vec![
            Exchange::client(Payload::fill(0x41, 300), 100),
            Exchange::server(Payload::fill(0x42, 9_000), 2_000),
        ],
    );
    let udp = UdpFlowSpec {
        start: Timestamp::from_micros(50),
        client: peer(3, 11, 1_024),
        server: peer(4, 12, 53),
        half_rtt_us: 200,
        messages: vec![
            UdpMessage {
                from_client: true,
                payload: Payload::fill(0x43, 40),
                gap_us: 0,
            },
            UdpMessage {
                from_client: false,
                payload: Payload::fill(0x44, 120),
                gap_us: 10,
            },
        ],
        multicast_mac: None,
    };
    (tcp, udp)
}

/// Emit the whole mix into `arena` with a fixed RNG seed (so every pass
/// produces identical bytes and the warm capacity always suffices).
fn emit_all(tcp: &TcpSessionSpec, udp: &UdpFlowSpec, arena: &mut PacketArena) {
    let mut rng = StdRng::seed_from_u64(7);
    emit_tcp(tcp, &mut rng, arena, Clip::Counted);
    emit_udp(udp, arena, Clip::Counted);
    emit_icmp_echo(
        Timestamp::from_micros(90),
        peer(5, 13, 0),
        peer(6, 14, 0),
        30_000,
        77,
        3,
        true,
        arena,
        Clip::Counted,
    );
}

#[test]
fn warm_arena_emission_makes_zero_allocations() {
    let (tcp, udp) = session_specs();
    let mut arena = PacketArena::unbounded();

    // Warm pass: grows the arena's record and byte buffers once, exactly
    // like a worker's first trace.
    emit_all(&tcp, &udp, &mut arena);
    let packets = arena.len();
    assert!(packets > 20, "mix too small to pin anything: {packets}");
    arena.clear();

    // Steady state: same sessions into the warm arena.
    alloc_count::start();
    emit_all(&tcp, &udp, &mut arena);
    let allocs = alloc_count::stop();
    assert_eq!(arena.len(), packets, "passes must emit identical traffic");
    assert_eq!(
        allocs, 0,
        "steady-state emission allocated on the per-packet path"
    );

    // The in-place capture tap (sort excluded: stable sort legitimately
    // uses scratch) must stay allocation-free too.
    let mut tap = Tap::new(68).with_drop_period(29);
    alloc_count::start();
    let captured = arena.apply_tap(&mut tap);
    let allocs = alloc_count::stop();
    assert!(captured > 0, "tap must keep most of the mix");
    assert_eq!(
        allocs, 0,
        "apply_tap allocated while clamping records in place"
    );
}
