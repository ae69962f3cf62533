//! The study reads each generated frame where it is written.
//!
//! A payload trace's arena stores each frame's header image and protocol
//! head, plus the byte of the filler run that follows them. Every product
//! reader (`ent_core::pipeline::analyze_arena`, pack scoring, `entreport
//! generate`) writes each record into one reused frame buffer as it reads
//! it (`PacketArena::stream`); the benchmark harness alone still reads the
//! arena's one materialisation (`captured_frames`). These tests pin that
//! the two are the same frames, and that analysing
//! either gives the same result.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::pipeline::{analyze_arena, analyze_packets, PipelineConfig};
use ent_gen::build::{build_site, generate_trace_into, GenConfig};
use ent_gen::dataset::all_datasets;
use ent_pcap::PacketArena;

fn config(seed: u64) -> GenConfig {
    GenConfig {
        scale: 0.002,
        seed,
        hosts_per_subnet: Some(10),
    }
}

#[test]
fn streamed_frames_equal_the_materialised_ones_in_every_slot() {
    let mut arena = PacketArena::unbounded();
    for seed in [1, 2005] {
        let config = config(seed);
        for spec in all_datasets() {
            let (site, wan) = build_site(&spec, &config);
            for (subnet, pass) in spec.slots() {
                generate_trace_into(&site, &wan, &spec, subnet, pass, &config, &mut arena);
                let what = format!("{} subnet {subnet} pass {pass} seed {seed}", spec.name);
                let want: Vec<_> = arena.captured_frames().map(|(t, f, l)| (t, f.to_vec(), l)).collect();
                let mut frames = arena.stream();
                let mut n = 0;
                while let Some((ts, frame, orig_len, _)) = frames.next_frame() {
                    let Some(p) = want.get(n) else {
                        panic!("{what}: the stream runs past {n} frames");
                    };
                    assert!(
                        (ts, frame, orig_len) == (p.0, p.1.as_slice(), p.2),
                        "{what}: frame {n} differs"
                    );
                    n += 1;
                }
                assert_eq!(n, want.len(), "{what}: the stream ends early");
            }
        }
    }
}

#[test]
fn the_streamed_and_the_materialised_arena_analyse_alike() {
    let config = config(2005);
    let pipeline = PipelineConfig::default();
    let mut arena = PacketArena::unbounded();
    for spec in all_datasets() {
        let (site, wan) = build_site(&spec, &config);
        let (subnet, pass) = spec.slots().next().expect("every dataset has a slot");
        let (meta, _) = generate_trace_into(&site, &wan, &spec, subnet, pass, &config, &mut arena);
        let materialised = analyze_packets(&meta, arena.captured_frames(), &pipeline, arena.len());
        let streamed = analyze_arena(&meta, &mut arena, &pipeline);
        assert!(streamed.packets > 0, "{}: empty trace", spec.name);
        assert_eq!(
            streamed.metrics.events_signature(),
            materialised.metrics.events_signature(),
            "{}",
            spec.name
        );
        assert_eq!(streamed.packets, materialised.packets, "{}", spec.name);
        assert_eq!(streamed.conns.len(), materialised.conns.len(), "{}", spec.name);
        assert_eq!(streamed.health, materialised.health, "{}", spec.name);
    }
}
