//! Shared helpers for the cross-crate integration tests.

pub mod alloc_count;

use ent_core::run::{run_dataset, run_datasets, DatasetAnalysis, StudyConfig};
use ent_core::PipelineConfig;
use ent_gen::dataset::{all_datasets, DatasetSpec};
use ent_gen::GenConfig;

/// A fast generation config for integration tests.
pub fn test_gen_config() -> GenConfig {
    GenConfig {
        scale: 0.006,
        seed: 17,
        hosts_per_subnet: Some(10),
    }
}

/// Run a reduced-subnet version of a dataset (fast but representative).
// A dataset name no spec carries is a typo in the calling test; aborting
// that test with the name is the diagnostic.
#[allow(clippy::panic)]
pub fn small_dataset(name: &str, subnets: u16) -> DatasetAnalysis {
    let Some(mut spec) = all_datasets().into_iter().find(|d| d.name == name) else {
        panic!("unknown dataset {name}");
    };
    let start = spec.monitored.start;
    spec.monitored = (start..(start + subnets).min(spec.monitored.end)).into();
    run_dataset(
        &spec,
        &StudyConfig {
            gen: test_gen_config(),
            ..Default::default()
        },
    )
}

/// Every dataset spec (D0–D4) trimmed to its first `subnets` monitored
/// subnets — the fixed workload for differential runs.
pub fn trimmed_specs(subnets: u16) -> Vec<DatasetSpec> {
    all_datasets()
        .into_iter()
        .map(|mut spec| {
            let start = spec.monitored.start;
            spec.monitored = (start..(start + subnets).min(spec.monitored.end)).into();
            spec
        })
        .collect()
}

/// One step of the word-at-a-time mixer behind the generator
/// fingerprints: rotate, xor, multiply by a large odd constant. Cheap
/// enough for debug builds, sensitive to order and content.
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Fold a byte slice into the digest, 8 little-endian bytes at a time
/// (trailing partial word zero-padded).
fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        h = mix(h, u64::from_le_bytes(w));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(w));
    }
    h
}

/// Digest seed (the FNV-1a offset basis, reused as a familiar constant).
const FP_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Order- and content-sensitive digest of one generated trace: every
/// packet's timestamp, wire length, capture length and captured bytes.
/// Any byte-level change to generator output changes this value.
pub fn trace_fingerprint(trace: &ent_pcap::Trace) -> u64 {
    let mut h = FP_SEED;
    h = mix(h, trace.packets.len() as u64);
    for p in &trace.packets {
        h = mix(h, p.ts.micros());
        h = mix(h, p.orig_len as u64);
        h = mix(h, p.frame.len() as u64);
        h = mix_bytes(h, &p.frame);
    }
    h
}

/// Per-dataset generator digests for one `(scale, seed)`: for each of
/// D0–D4, the fold of every trace's [`trace_fingerprint`] in
/// (pass, subnet) generation order, plus the trace count. Generation
/// only — no analysis — so this pins the generator's byte-for-byte
/// output across refactors.
pub fn generator_fingerprints(scale: f64, seed: u64) -> Vec<(String, u64, usize)> {
    let config = GenConfig {
        scale,
        seed,
        hosts_per_subnet: None,
    };
    all_datasets()
        .iter()
        .map(|spec| {
            let mut h = FP_SEED;
            let mut traces = 0usize;
            ent_gen::build::for_each_trace(spec, &config, |t| {
                h = mix(h, trace_fingerprint(&t));
                traces += 1;
            });
            (spec.name.to_string(), h, traces)
        })
        .collect()
}

/// Order-, content- and label-sensitive digest of one generated pack
/// arena: every record's timestamp, original wire length, ground-truth
/// label and captured bytes. A byte change *or* a label move changes the
/// digest, so the pack goldens pin the actor output and the label
/// plumbing together.
pub fn labeled_arena_fingerprint(arena: &ent_pcap::PacketArena) -> u64 {
    let mut h = FP_SEED;
    h = mix(h, arena.len() as u64);
    for (ts, frame, orig_len, label) in arena.labeled_frames() {
        h = mix(h, ts.micros());
        h = mix(h, orig_len as u64);
        h = mix(h, label as u64);
        h = mix(h, frame.len() as u64);
        h = mix_bytes(h, frame);
    }
    h
}

/// Per-pack generator digests for one `(scale, seed)`: for each scenario
/// pack, the fold of every trace slot's [`labeled_arena_fingerprint`] in
/// deterministic slot order, plus the trace count. The pack analogue of
/// [`generator_fingerprints`].
pub fn pack_fingerprints(scale: f64, seed: u64) -> Vec<(String, u64, usize)> {
    let config = GenConfig {
        scale,
        seed,
        hosts_per_subnet: None,
    };
    ent_gen::packs::all_packs()
        .iter()
        .map(|pack| {
            let (site, wan) = ent_gen::build::build_site(&pack.spec, &config);
            let mut h = FP_SEED;
            let mut traces = 0usize;
            let mut arena = ent_pcap::PacketArena::unbounded();
            for (subnet, pass) in pack.spec.slots() {
                ent_gen::packs::generate_pack_trace_into(
                    pack, &site, &wan, subnet, pass, &config, &mut arena,
                );
                h = mix(h, labeled_arena_fingerprint(&arena));
                traces += 1;
            }
            (pack.name.to_string(), h, traces)
        })
        .collect()
}

/// Run the trimmed D0–D4 study at `scale` with an explicit thread count
/// and intra-trace shard count (0 = serial path). The differential
/// equivalence suite calls this with every (threads, shards) combination
/// it gates and requires identical results.
pub fn differential_study(
    scale: f64,
    threads: usize,
    subnets: u16,
    shards: usize,
) -> Vec<DatasetAnalysis> {
    let specs = trimmed_specs(subnets);
    run_datasets(
        &specs,
        &StudyConfig {
            gen: GenConfig {
                scale,
                seed: 2005,
                hosts_per_subnet: Some(10),
            },
            pipeline: PipelineConfig {
                shards,
                ..Default::default()
            },
            threads,
        },
    )
}
