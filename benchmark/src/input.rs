//! Workload inputs, made from the seed alone: generator configs for the
//! study workloads, in-memory pcap buffers for the capture workloads.

use crate::spans::Recorder;
use crate::spec::Workload;
use crate::BenchError;
use ent_gen::build::{build_site, generate_trace_into, GenConfig, GenTiming};
use ent_gen::dataset::{dataset, DatasetSpec};
use ent_pcap::{PacketArena, PcapWriter, TimedPacket, TraceMeta};
use ent_wire::Timestamp;
use std::collections::BTreeMap;

/// What the command line chose for one run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Workload seed: every input is a function of it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Tiny inputs and a single iteration, for CI.
    pub smoke: bool,
}

/// The generator config a workload runs at.
pub fn gen_config(w: &Workload, s: &Settings) -> GenConfig {
    GenConfig {
        scale: if s.smoke { 0.002 } else { w.scale },
        seed: s.seed,
        hosts_per_subnet: s.smoke.then_some(8),
    }
}

/// The dataset specs a workload draws its traces from.
pub fn specs(w: &Workload) -> Result<Vec<DatasetSpec>, BenchError> {
    w.datasets
        .iter()
        .map(|name| dataset(name).ok_or_else(|| BenchError(format!("no dataset {name}"))))
        .collect()
}

/// `(subnet, pass)` of every trace of a dataset, in study order. Mirrors
/// the work list of `ent_core::run_datasets` (D4 monitored only the odd
/// subnets twice), which has no public form; the traced study run checks
/// that both walks see the same packets.
pub fn work_items(spec: &DatasetSpec) -> Vec<(u16, u8)> {
    let mut out = Vec::new();
    for pass in 1..=spec.passes {
        for subnet in spec.monitored {
            if spec.name == "D4" && pass == 2 && subnet % 2 == 0 {
                continue;
            }
            out.push((subnet, pass));
        }
    }
    out
}

/// Named sums and maxima gathered beside the spans: exact counts of the
/// work each layer was given.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    /// Add to a sum.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_insert(0.0) += v as f64;
    }

    /// Raise a maximum.
    pub fn max(&mut self, name: &'static str, v: u64) {
        let slot = self.0.entry(name).or_insert(0.0);
        *slot = slot.max(v as f64);
    }

    /// Count one generated trace: the `gen.*` counts of its `GenTiming`
    /// (whose `*_ns` clocks are the program's own and are not used) and
    /// the packets and wire bytes left in the arena.
    pub fn generated(&mut self, timing: &GenTiming, arena: &PacketArena) {
        self.add("gen.synth_packets", timing.synth_packets);
        self.add("gen.sorted_packets", timing.sorted_packets);
        self.add("gen.captured_bytes", timing.captured_bytes);
        self.add("gen.packets", arena.len() as u64);
        self.add("gen.wire_bytes", arena.wire_bytes());
    }

    /// Read a counter (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One generated trace serialised as a pcap file image.
#[derive(Debug)]
pub struct Capture {
    /// The trace's metadata as the generator stamped it.
    pub meta: TraceMeta,
    /// The pcap bytes.
    pub data: Vec<u8>,
    /// Records written: the frames every analysis of this buffer is fed.
    pub packets: u64,
    /// Summed original wire lengths of those frames.
    pub wire_bytes: u64,
}

/// Generate every trace of the workload's datasets and serialise each to
/// an in-memory pcap buffer, as `entreport generate` would write it,
/// reusing the allocations of `recycled` (an earlier build's buffers, in
/// order). Generation is timed into `rec` (`gen.build_site`,
/// `gen.generate`) and counted into `counts` (`gen.*`).
pub fn build_captures(
    w: &Workload,
    config: &GenConfig,
    recycled: Vec<Vec<u8>>,
    rec: &mut Recorder,
    counts: &mut Counters,
) -> Result<Vec<Capture>, BenchError> {
    let mut out = Vec::new();
    let mut recycled = recycled.into_iter();
    let mut arena = PacketArena::unbounded();
    let mut pkt = TimedPacket::new(Timestamp::ZERO, Vec::new());
    for spec in specs(w)? {
        let (site, wan) = rec.time("gen.build_site", 0, || build_site(&spec, config));
        for (subnet, pass) in work_items(&spec) {
            let tid = out.len() as u32;
            let (meta, timing) = rec.time("gen.generate", tid, || {
                generate_trace_into(&site, &wan, &spec, subnet, pass, config, &mut arena)
            });
            counts.generated(&timing, &arena);

            let mut buf = recycled.next().unwrap_or_default();
            buf.clear();
            buf.reserve(24 + 16 * arena.len() + timing.captured_bytes as usize);
            let mut writer = PcapWriter::new(buf, meta.snaplen)?;
            for (ts, frame, orig_len) in arena.captured_frames() {
                pkt.ts = ts;
                pkt.orig_len = orig_len;
                pkt.frame.clear();
                pkt.frame.extend_from_slice(frame);
                writer.write_packet(&pkt)?;
            }
            let packets = writer.packets_written();
            out.push(Capture {
                meta,
                data: writer.finish()?,
                packets,
                wire_bytes: arena.wire_bytes(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_gen::dataset::all_datasets;

    #[test]
    fn work_items_cover_the_133_study_traces() {
        let per_dataset: Vec<usize> = all_datasets().iter().map(|s| work_items(s).len()).collect();
        assert_eq!(per_dataset, [22, 44, 22, 18, 27]);
    }

    #[test]
    fn counters_add_and_max() {
        let mut c = Counters::default();
        c.add("a", 2);
        c.add("a", 3);
        c.max("m", 4);
        c.max("m", 1);
        assert_eq!((c.get("a"), c.get("m"), c.get("never")), (5.0, 4.0, 0.0));
    }
}
