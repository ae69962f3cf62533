//! Trace and dataset assembly: run every generator for a monitored
//! subnet, order packets in time, then pass them through the capture tap
//! (snaplen + drops) exactly as the paper's rig did.

use crate::apps::{self, TraceCtx};
use crate::dataset::DatasetSpec;
use crate::network::{Site, WanPool, TOTAL_SUBNETS};
use ent_pcap::{Tap, Trace, TraceMeta};
use ent_wire::Timestamp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Count scale factor relative to the real site (1.0 = full volume;
    /// 0.01 keeps distributional shape at 1% of the session counts).
    pub scale: f64,
    /// Extra seed entropy so different runs differ reproducibly.
    pub seed: u64,
    /// Workstations per subnet (overrides the dataset default when Some;
    /// smaller numbers speed up tests).
    pub hosts_per_subnet: Option<usize>,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            scale: 0.01,
            seed: 1,
            hosts_per_subnet: None,
        }
    }
}

/// Build the site and WAN pool for a dataset (deterministic per seed).
pub fn build_site(spec: &DatasetSpec, config: &GenConfig) -> (Site, WanPool) {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ config.seed.rotate_left(17));
    let hosts = config
        .hosts_per_subnet
        .unwrap_or_else(|| scaled_hosts(spec.hosts_per_subnet, config.scale));
    let site = Site::build(&mut rng, TOTAL_SUBNETS, hosts);
    let wan = WanPool::new(((spec.wan_pool as f64) * config.scale.sqrt().clamp(0.05, 1.0)) as u32);
    (site, wan)
}

/// Host populations shrink sub-linearly with scale: fewer sessions touch
/// fewer distinct hosts, but the host *pool* must stay rich enough for
/// fan-in/fan-out shape (Table 1 counts are reported per-scale in
/// EXPERIMENTS.md).
fn scaled_hosts(full: usize, scale: f64) -> usize {
    ((full as f64) * scale.sqrt().clamp(0.08, 1.0)).max(8.0) as usize
}

/// Wall-time and count breakdown of one [`generate_trace`] call, for the
/// observability layer's `gen_synth` / `gen_sort` / `gen_tap` sub-stages.
///
/// `ent-gen` has no dependency on the metrics module, so this is a plain
/// struct of monotonic nanoseconds (from [`std::time::Instant`]) and
/// deterministic counts; `ent_core::run` folds it into `StageStat`s.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GenTiming {
    /// Wall ns spent emitting application sessions into the trace buffer.
    pub synth_ns: u64,
    /// Wall ns spent in the global timestamp sort.
    pub sort_ns: u64,
    /// Wall ns spent in tap admission (injected drops; the snaplen was
    /// applied as the frames were written).
    pub tap_ns: u64,
    /// Logical packets emitted, including the beyond-window tail the
    /// trace never materializes.
    pub synth_packets: u64,
    /// Logical wire bytes of the emitted packets (same tail included).
    pub synth_bytes: u64,
    /// In-window records that went through the sort.
    pub sorted_packets: u64,
    /// Captured (post-snaplen) bytes that survived the tap.
    pub captured_bytes: u64,
}

/// Generate one trace: the packets seen at one subnet's router port
/// during one monitoring pass, as owned packets.
pub fn generate_trace(
    site: &Site,
    wan: &WanPool,
    spec: &DatasetSpec,
    subnet: u16,
    pass: u8,
    config: &GenConfig,
) -> Trace {
    let mut arena = ent_pcap::PacketArena::unbounded();
    let (meta, _) = generate_trace_into(site, wan, spec, subnet, pass, config, &mut arena);
    Trace {
        meta,
        packets: arena.captured_packets(),
    }
}

/// The zero-copy core of trace generation: emit, sort and tap the trace
/// entirely inside a caller-owned [`PacketArena`](ent_pcap::PacketArena),
/// returning the per-sub-stage [`GenTiming`] breakdown beside the meta.
/// Afterwards the arena holds the post-tap capture as `(ts, offset, len)`
/// records over a single byte buffer that stores each frame cut at
/// `spec.snaplen` (the generator writes what the tap keeps); callers
/// either iterate it borrowed (`captured_frames`, what the study pipeline
/// does) or materialize owned packets (`captured_packets`). A worker loop reuses one arena's buffers
/// across many traces: after the first trace the steady-state emission
/// path performs no heap allocation at all. The arena is cleared
/// (capacity kept) before generation.
pub fn generate_trace_into(
    site: &Site,
    wan: &WanPool,
    spec: &DatasetSpec,
    subnet: u16,
    pass: u8,
    config: &GenConfig,
    arena: &mut ent_pcap::PacketArena,
) -> (TraceMeta, GenTiming) {
    generate_trace_into_with(site, wan, spec, subnet, pass, config, arena, |_| {})
}

/// [`generate_trace_into`] with an extra-actor hook: `actors` runs after
/// the base application generators but before the sort/tap stages, so
/// scenario packs (`crate::packs`) can append adversarial or variant
/// sessions that interleave naturally in time. The base generators see
/// an RNG stream untouched by the hook (actors draw only *after* all
/// base draws), so for a no-op hook the trace is byte-identical to
/// [`generate_trace_into`] — the golden-fingerprint suite pins this.
#[allow(clippy::too_many_arguments)]
pub fn generate_trace_into_with<F>(
    site: &Site,
    wan: &WanPool,
    spec: &DatasetSpec,
    subnet: u16,
    pass: u8,
    config: &GenConfig,
    arena: &mut ent_pcap::PacketArena,
    actors: F,
) -> (TraceMeta, GenTiming)
where
    F: FnOnce(&mut TraceCtx<'_>),
{
    let seed = spec
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((subnet as u64) << 8 | pass as u64)
        .wrapping_add(config.seed.rotate_left(32));
    let rng = StdRng::seed_from_u64(seed);
    let mut timing = GenTiming::default();
    let mut clock = std::time::Instant::now();
    let mut lap = |acc: &mut u64| {
        let now = std::time::Instant::now();
        *acc += now.duration_since(clock).as_nanos() as u64;
        clock = now;
    };
    let staged = std::mem::replace(arena, ent_pcap::PacketArena::unbounded());
    let mut ctx = TraceCtx::with_arena(rng, site, wan, spec, subnet, config.scale, staged);
    apps::generate_all(&mut ctx);
    actors(&mut ctx);
    // Sessions can overrun the monitoring window; the arena already
    // clipped those at admission, but they still count as emitted work.
    timing.synth_packets = ctx.out.logical_len();
    timing.synth_bytes = ctx.out.logical_wire_bytes();
    lap(&mut timing.synth_ns);
    let limit = Timestamp::from_micros(spec.trace_secs * 1_000_000);
    ctx.out.sort_records();
    timing.sorted_packets = ctx.out.len() as u64;
    lap(&mut timing.sort_ns);
    // Through the capture tap: injected drops, applied to the records in
    // place. The frames were already written cut at `spec.snaplen` (the
    // arena got it from `TraceCtx::with_arena`), so the tap's snaplen
    // finds nothing left to clamp.
    let mut tap = Tap::new(spec.snaplen as usize);
    if spec.tap_drop_period > 0 {
        tap = tap.with_drop_period(spec.tap_drop_period);
    }
    timing.captured_bytes = ctx.out.apply_tap(&mut tap);
    lap(&mut timing.tap_ns);
    let meta = TraceMeta {
        dataset: spec.name.into(),
        subnet,
        pass,
        duration: limit,
        snaplen: spec.snaplen,
        link_capacity_bps: 100_000_000,
    };
    *arena = ctx.out;
    (meta, timing)
}

/// Generate a dataset trace-by-trace, invoking `f` on each so callers can
/// analyze and drop traces without holding the whole dataset.
pub fn for_each_trace<F: FnMut(Trace)>(spec: &DatasetSpec, config: &GenConfig, mut f: F) {
    let (site, wan) = build_site(spec, config);
    for (subnet, pass) in spec.slots() {
        f(generate_trace(&site, &wan, spec, subnet, pass, config));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::all_datasets;

    fn tiny_config() -> GenConfig {
        GenConfig {
            scale: 0.004,
            seed: 7,
            hosts_per_subnet: Some(10),
        }
    }

    #[test]
    fn trace_is_sorted_bounded_and_capped_to_snaplen() {
        let specs = all_datasets();
        let config = tiny_config();
        let (site, wan) = build_site(&specs[1], &config);
        let t = generate_trace(&site, &wan, &specs[1], 3, 1, &config);
        assert!(!t.packets.is_empty());
        assert!(t.packets.windows(2).all(|w| w[0].ts <= w[1].ts));
        let limit = Timestamp::from_secs(3_600);
        assert!(t.packets.iter().all(|p| p.ts < limit));
        assert!(t.packets.iter().all(|p| p.frame.len() <= 68), "D1 snaplen 68");
        assert_eq!(t.meta.snaplen, 68);
        assert_eq!(&*t.meta.dataset, "D1");
    }

    #[test]
    fn deterministic_given_seed() {
        let specs = all_datasets();
        let config = tiny_config();
        let (site, wan) = build_site(&specs[0], &config);
        let a = generate_trace(&site, &wan, &specs[0], 5, 1, &config);
        let b = generate_trace(&site, &wan, &specs[0], 5, 1, &config);
        assert_eq!(a.packets.len(), b.packets.len());
        assert_eq!(a.packets[0].frame, b.packets[0].frame);
        // Different subnet differs.
        let c = generate_trace(&site, &wan, &specs[0], 6, 1, &config);
        assert_ne!(a.packets.len(), c.packets.len());
    }

    #[test]
    fn dataset_trace_counts_match_table1() {
        let specs = all_datasets();
        let config = GenConfig {
            scale: 0.001,
            seed: 1,
            hosts_per_subnet: Some(6),
        };
        let mut count = 0;
        for_each_trace(&specs[0], &config, |_| count += 1);
        assert_eq!(count, 22);
        let mut count = 0;
        for_each_trace(&specs[1], &config, |_| count += 1);
        assert_eq!(count, 44);
        let mut count = 0;
        for_each_trace(&specs[4], &config, |t| {
            assert!(t.meta.subnet >= 22);
            count += 1;
        });
        assert_eq!(count, 27); // 18 once + 9 odd subnets twice
    }

    #[test]
    fn d1_injects_capture_drops() {
        let specs = all_datasets();
        let config = tiny_config();
        let spec = DatasetSpec {
            monitored: (0..2).into(),
            ..specs[1]
        };
        let mut traces = 0;
        for_each_trace(&spec, &config, |_| traces += 1);
        assert_eq!(traces, 4);
    }

    #[test]
    fn full_payload_dataset_has_parsable_http() {
        let specs = all_datasets();
        let config = tiny_config();
        let (site, wan) = build_site(&specs[0], &config);
        let t = generate_trace(&site, &wan, &specs[0], 6, 1, &config);
        let mut http_payloads = 0;
        for p in &t.packets {
            if let Ok(pkt) = ent_wire::Packet::parse(&p.frame) {
                if pkt.payload().starts_with(b"GET ") || pkt.payload().starts_with(b"HTTP/1.1") {
                    http_payloads += 1;
                }
            }
        }
        assert!(http_payloads > 0, "full-snaplen trace must carry HTTP text");
    }
}
