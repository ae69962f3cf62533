//! Golden generator-fingerprint regression suite.
//!
//! Pins the generator's byte-for-byte output: for each dataset D0–D4 at
//! scale 0.01, a digest folding every trace's `(ts, frame, orig_len)`
//! sequence (see `ent_integration::trace_fingerprint`). The constants
//! below were captured from the pre-arena generator; the arena/template
//! rewrite must reproduce them exactly, which proves every downstream
//! paper table is unchanged. Two seeds guard against a rewrite that is
//! only accidentally correct for one RNG stream.
//!
//! If a fingerprint changes, generator output changed. That is only
//! acceptable for a deliberate modeling change, in which case rerun with
//! `ENT_PRINT_FINGERPRINTS=1` and update the constants in the same
//! commit (and expect BENCH_pipeline.json events/bytes to move too).

use ent_integration::{generator_fingerprints, pack_fingerprints};

const SCALE: f64 = 0.01;

/// Expected (dataset, digest, traces) at scale 0.01, seed 1.
const GOLDEN_SEED_1: [(&str, u64, usize); 5] = [
    ("D0", 0xf8192ee2fb52100b, 22),
    ("D1", 0x5fdac19cca14409a, 44),
    ("D2", 0xe4dae02ef6ea5bc2, 22),
    ("D3", 0x75740970adc3c8cd, 18),
    ("D4", 0xa68a4019f7f68601, 27),
];

/// Expected (dataset, digest, traces) at scale 0.01, seed 2005 (the
/// committed BENCH_pipeline.json workload).
const GOLDEN_SEED_2005: [(&str, u64, usize); 5] = [
    ("D0", 0xdf9ec45ce0eddff6, 22),
    ("D1", 0x7a7c676afdbe67be, 44),
    ("D2", 0x64f5dc15b7047852, 22),
    ("D3", 0xda8106c53f7845b9, 18),
    ("D4", 0x671ff75939625143, 27),
];

/// Expected (pack, digest, traces) at scale 0.01, seed 1. The digest
/// folds ground-truth labels alongside bytes, so a label moving between
/// records fails the suite even when frame bytes are unchanged.
const PACK_GOLDEN_SEED_1: [(&str, u64, usize); 7] = [
    ("base", 0x295f79791acbe2a1, 2),
    ("sweep", 0xfb9968461411df17, 2),
    ("synflood", 0x6b0d96174683001f, 2),
    ("bruteforce", 0x7324dad24a798991, 2),
    ("exfil", 0x03bbc4493f488554, 2),
    ("tlsweb", 0x5c19da630dbc9c57, 2),
    ("v6heavy", 0xc2f755cf2578ce12, 2),
];

/// Expected (pack, digest, traces) at scale 0.01, seed 2005 (the
/// committed BENCH_packs.json workload).
const PACK_GOLDEN_SEED_2005: [(&str, u64, usize); 7] = [
    ("base", 0x54f0dffae8a6ef08, 2),
    ("sweep", 0x1ecf5a17217975ee, 2),
    ("synflood", 0x9b5e3481a09af478, 2),
    ("bruteforce", 0xabf95cafc6ec2df9, 2),
    ("exfil", 0x9b02043159a210bc, 2),
    ("tlsweb", 0xfa351f0029c02c70, 2),
    ("v6heavy", 0xf001112c47487d6f, 2),
];

fn check_golden(
    seed: u64,
    got: Vec<(String, u64, usize)>,
    golden: &[(&str, u64, usize)],
    what: &str,
) {
    #[expect(clippy::disallowed_methods, reason = "opt-in printing of new goldens; asserts nothing")]
    let print = std::env::var_os("ENT_PRINT_FINGERPRINTS").is_some();
    if print {
        for (name, digest, traces) in &got {
            println!("    (\"{name}\", {digest:#018x}, {traces}),");
        }
    }
    let want: Vec<(String, u64, usize)> = golden
        .iter()
        .map(|(n, d, t)| (n.to_string(), *d, *t))
        .collect();
    assert_eq!(
        got, want,
        "{what} output drifted at scale {SCALE}, seed {seed} \
         (rerun with ENT_PRINT_FINGERPRINTS=1 to capture new values)"
    );
}

fn check(seed: u64, golden: &[(&str, u64, usize); 5]) {
    check_golden(seed, generator_fingerprints(SCALE, seed), golden, "generator");
}

fn check_packs(seed: u64, golden: &[(&str, u64, usize); 7]) {
    check_golden(seed, pack_fingerprints(SCALE, seed), golden, "scenario pack");
}

#[test]
fn golden_generator_fingerprints_seed_1() {
    check(1, &GOLDEN_SEED_1);
}

#[test]
fn golden_generator_fingerprints_seed_2005() {
    check(2005, &GOLDEN_SEED_2005);
}

#[test]
fn golden_pack_fingerprints_seed_1() {
    check_packs(1, &PACK_GOLDEN_SEED_1);
}

#[test]
fn golden_pack_fingerprints_seed_2005() {
    check_packs(2005, &PACK_GOLDEN_SEED_2005);
}
