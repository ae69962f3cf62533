//! Differential scenario-pack suite plus label-conservation properties.
//!
//! Pack scoring feeds a committed gate document (`BENCH_packs.json`), so
//! its output must be configuration-invariant: the same report — integer
//! counts, confusion matrix, and bit-identical derived rates and
//! entropies — at every worker-thread count and intra-trace shard count,
//! for more than one generator seed. The property half pins the label
//! plumbing underneath: ground-truth labels must survive arena admission
//! ([`Clip::Counted`]/[`Clip::Silent`]), the global record sort, and the
//! capture tap without ever detaching from their frames.

// Test helpers may abort, but must say why: a bare `unwrap` outside a
// `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::{run_pack, PackReport, StudyConfig, PipelineConfig};
use ent_gen::GenConfig;
use ent_integration::streamed;
use ent_pcap::{Clip, PacketArena, Tap};
use ent_wire::Timestamp;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

fn pack_config(seed: u64, threads: usize, shards: usize) -> StudyConfig {
    StudyConfig {
        gen: GenConfig {
            scale: 0.004,
            seed,
            hosts_per_subnet: Some(10),
        },
        pipeline: PipelineConfig {
            shards,
            ..Default::default()
        },
        threads,
    }
}

/// Everything about a pack report that must not drift under a thread or
/// shard reconfiguration. The f64 rates and entropies are compared by bit
/// pattern: the gate demands byte-stable output, not approximate
/// equality. (`peak_open_conns` is deliberately absent — a sharded run
/// reports the sum of per-shard peaks — and `events_signature` excludes
/// it by construction.)
#[allow(clippy::type_complexity)]
fn report_key(r: &PackReport) -> (String, [u64; 8], [u64; 5], Vec<(String, u64, u64)>) {
    (
        r.name.clone(),
        [
            r.traces,
            r.packets,
            r.attack_packets,
            r.scan_sources,
            r.flagged,
            r.score.true_pos,
            r.score.false_pos,
            r.score.false_neg,
        ],
        [
            r.score.precision().to_bits(),
            r.score.recall().to_bits(),
            r.score.f1().to_bits(),
            r.entropy_nontemporal.to_bits(),
            r.entropy_temporal.to_bits(),
        ],
        r.metrics.events_signature(),
    )
}

/// The differential run: serial single-thread reference vs 4 threads, and
/// vs a config asking for the worker lane (`shards = 1`), which a pack's
/// arenas never read — they ingest inline — at two seeds, for every pack.
/// One pass per (seed, pack) so the reference is generated once.
#[test]
fn pack_reports_are_invariant_across_threads_and_shards() {
    for seed in [1u64, 2005] {
        for pack in ent_gen::packs::all_packs() {
            let reference = run_pack(&pack, &pack_config(seed, 1, 0));
            assert!(
                reference.packets > 0,
                "seed {seed}: pack {} generated no packets",
                pack.name
            );
            if pack.name == "sweep" {
                assert!(
                    reference.score.true_pos > 0,
                    "seed {seed}: sweep pack scored no true positives"
                );
            }
            let want = report_key(&reference);
            for (threads, shards) in [(1, 1), (4, 0)] {
                let got = report_key(&run_pack(&pack, &pack_config(seed, threads, shards)));
                assert_eq!(
                    want, got,
                    "seed {seed}: pack {} report drifted at threads={threads} shards={shards}",
                    pack.name
                );
            }
        }
    }
}

/// One randomized arena round: commit labeled frames (each frame's first
/// byte mirrors its label, so a label detaching from its record is
/// observable), with a window limit exercising both admission clips.
/// Returns the expected in-window label histogram.
fn build_labeled_arena(rng: &mut StdRng, arena: &mut PacketArena) -> BTreeMap<u32, u64> {
    let limit = 1_000 + rng.random_range(0..5_000u64);
    arena.set_limit(Timestamp::from_micros(limit));
    let mut expected: BTreeMap<u32, u64> = BTreeMap::new();
    for _ in 0..rng.random_range(40..160usize) {
        let label = rng.random_range(0..6u32);
        arena.set_label(label);
        // Timestamps straddle the window limit; out-of-window packets
        // must vanish from the records (and the histogram) regardless of
        // whether the site counts them.
        let ts = Timestamp::from_micros(rng.random_range(0..8_000u64));
        let clip = if rng.random::<bool>() {
            Clip::Counted
        } else {
            Clip::Silent
        };
        let len = rng.random_range(1..120usize);
        let mut frame = vec![0u8; len];
        frame[0] = label as u8;
        arena.push_frame(ts, clip, &frame);
        if ts.micros() < limit {
            *expected.entry(label).or_insert(0) += 1;
        }
    }
    expected
}

fn histogram(arena: &PacketArena) -> BTreeMap<u32, u64> {
    arena.label_counts().into_iter().collect()
}

/// Labels are conserved through admission, sort and tap: the histogram
/// matches the admitted pushes exactly, sorting moves records without
/// touching labels, and a lowered snaplen + the tap's drops never
/// detach a label from its frame (first byte keeps mirroring the label).
#[test]
fn labels_are_conserved_through_admission_sort_and_tap() {
    let mut rng = StdRng::seed_from_u64(0x9ac4_0007);
    for case in 0..200 {
        let mut arena = PacketArena::unbounded();
        let expected = build_labeled_arena(&mut rng, &mut arena);
        let admitted: u64 = expected.values().sum();
        assert_eq!(arena.len() as u64, admitted, "case {case}: admission count");
        assert_eq!(histogram(&arena), expected, "case {case}: pre-sort histogram");
        arena.sort_records();
        assert_eq!(histogram(&arena), expected, "case {case}: post-sort histogram");
        // A small snaplen and a tap's periodic drops: survivors keep
        // their label pairing, and the survivor histogram re-derives from
        // the surviving records alone.
        let snaplen = rng.random_range(4..80usize);
        arena.set_snaplen(snaplen);
        arena.apply_tap(&mut Tap::new(rng.random_range(3..9u64)));
        let mut survivors: BTreeMap<u32, u64> = BTreeMap::new();
        for (_, frame, _, label) in streamed(&mut arena) {
            assert_eq!(
                frame[0] as u32, label,
                "case {case}: label detached from its frame"
            );
            assert!(frame.len() <= snaplen, "case {case}: snaplen not applied");
            *survivors.entry(label).or_insert(0) += 1;
        }
        assert_eq!(histogram(&arena), survivors, "case {case}: post-tap histogram");
        for (label, kept) in &survivors {
            assert!(
                kept <= expected.get(label).unwrap_or(&0),
                "case {case}: tap grew label {label}"
            );
        }
        assert_eq!(
            survivors.values().sum::<u64>(),
            arena.len() as u64,
            "case {case}: survivor total"
        );
    }
}
