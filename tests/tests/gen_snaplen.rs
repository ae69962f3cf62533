//! The generator writes what the tap keeps.
//!
//! `TraceCtx::with_arena` hands the dataset's snaplen to the arena and the
//! frame writers stop there, so a header-only trace (D1, D2: snaplen 68)
//! never stores the payload bytes nothing will read. These tests pin that
//! this is an optimisation and nothing else: the capture is exactly what
//! full-length generation followed by a snaplen tap produces, an arena
//! carries nothing from one dataset's snaplen into the next, and the byte
//! store really is bounded by the snaplen.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_gen::build::{build_site, generate_trace_into, GenConfig, GenTiming};
use ent_gen::dataset::{all_datasets, DatasetSpec};
use ent_integration::streamed;
use ent_pcap::{PacketArena, Tap};

/// Same `(ts, captured bytes, orig_len, label)` sequence in both arenas.
fn same_frames(a: &mut PacketArena, b: &mut PacketArena) -> bool {
    streamed(a) == streamed(b)
}

/// The deterministic half of a [`GenTiming`].
fn counts(t: &GenTiming) -> (u64, u64, u64, u64) {
    (t.synth_packets, t.synth_bytes, t.sorted_packets, t.captured_bytes)
}

/// D0 (snaplen 1500), D1 and D2 (snaplen 68). D1's tap drops one packet in
/// 200 000, more than a trace holds at test scale, so the period is
/// shortened until drops occur in every trace.
fn specs() -> Vec<DatasetSpec> {
    let mut specs: Vec<DatasetSpec> = all_datasets().into_iter().take(3).collect();
    specs[1].tap_drop_period = 97;
    specs
}

fn config(seed: u64) -> GenConfig {
    GenConfig {
        scale: 0.004,
        seed,
        hosts_per_subnet: Some(10),
    }
}

#[test]
fn writing_at_the_snaplen_equals_writing_everything_then_tapping() {
    for seed in [1, 2005] {
        let config = config(seed);
        for spec in specs() {
            let (site, wan) = build_site(&spec, &config);
            // Every frame stored whole and none dropped, as the generator
            // worked before it knew the snaplen.
            let whole = DatasetSpec {
                snaplen: 65_535,
                tap_drop_period: 0,
                ..spec
            };
            let mut direct = PacketArena::unbounded();
            let mut tapped = PacketArena::unbounded();
            for (subnet, pass) in spec.slots().take(3) {
                let (_, want) =
                    generate_trace_into(&site, &wan, &spec, subnet, pass, &config, &mut direct);
                let (_, mut got) =
                    generate_trace_into(&site, &wan, &whole, subnet, pass, &config, &mut tapped);
                assert_eq!(tapped.wire_bytes(), got.captured_bytes, "nothing cut yet");
                tapped.set_snaplen(spec.snaplen as usize);
                let mut tap = Tap::new(spec.tap_drop_period);
                got.captured_bytes = tapped.apply_tap(&mut tap);
                let what = format!("{} subnet {subnet} pass {pass} seed {seed}", spec.name);
                assert_eq!(counts(&got), counts(&want), "{what}: GenTiming counts");
                assert_eq!(tapped.wire_bytes(), direct.wire_bytes(), "{what}: wire bytes");
                assert!(same_frames(&mut tapped, &mut direct), "{what}: captured records differ");
                if spec.tap_drop_period > 0 {
                    assert!(tap.dropped() > 0, "{what}: drop period never fired");
                }
                if spec.snaplen < 1500 {
                    assert!(want.captured_bytes < direct.wire_bytes(), "{what}: nothing truncated");
                }
            }
        }
    }
}

#[test]
fn a_reused_arena_carries_no_snaplen_from_one_dataset_into_the_next() {
    let config = config(2005);
    let specs = specs();
    let mut reused = PacketArena::unbounded();
    // Full payload, then header-only, then full payload again: the third
    // trace fails if the arena kept D1's snaplen, the second if it kept
    // D0's.
    for spec in [&specs[0], &specs[1], &specs[0]] {
        let (site, wan) = build_site(spec, &config);
        let (subnet, pass) = spec.slots().next().unwrap();
        let mut fresh = PacketArena::unbounded();
        let (_, want) = generate_trace_into(&site, &wan, spec, subnet, pass, &config, &mut fresh);
        let (_, got) = generate_trace_into(&site, &wan, spec, subnet, pass, &config, &mut reused);
        assert_eq!(counts(&got), counts(&want), "{}: GenTiming counts", spec.name);
        assert!(same_frames(&mut reused, &mut fresh), "{}: reused arena differs", spec.name);
        // Dropped records leave their bytes behind, so the bound is over
        // every record that was committed (= went through the sort).
        assert!(
            reused.stored_bytes() as u64 <= u64::from(spec.snaplen) * got.sorted_packets,
            "{}: {} bytes stored for {} records at snaplen {}",
            spec.name,
            reused.stored_bytes(),
            got.sorted_packets,
            spec.snaplen
        );
        // A full-payload trace stores its header images and protocol
        // heads, not its filler: a fraction of what it captures.
        if spec.snaplen == 1500 {
            assert!(
                reused.stored_bytes() as u64 * 3 < got.captured_bytes,
                "{}: {} bytes stored for {} captured",
                spec.name,
                reused.stored_bytes(),
                got.captured_bytes
            );
        }
    }
}
