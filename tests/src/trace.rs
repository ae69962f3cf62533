//! Owned traces: a whole capture held as packets, the reference the
//! streaming product path (`RecoveringReader::next_record` →
//! `anonymize_frame` → `PcapWriter`, `analyze_capture`) is compared
//! against. A test that keeps, edits, splits or re-reads a trace's packets
//! holds them in a [`Trace`].

use ent_anon::{anonymize_frame, Anonymizer};
use ent_core::pipeline::analyze_packets;
use ent_core::{PipelineConfig, TraceAnalysis};
use ent_pcap::{IngestStats, PcapWriter, RecoveringReader, Result, TimedPacket, TraceMeta};
use std::io::Write;

/// A captured trace: metadata plus timestamp-ordered packets.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Capture metadata.
    pub meta: TraceMeta,
    /// Packets in timestamp order.
    pub packets: Vec<TimedPacket>,
}

impl Trace {
    /// Write the packets as a pcap stream.
    pub fn write_pcap<W: Write>(&self, out: W) -> Result<()> {
        let mut w = PcapWriter::new(out, self.meta.snaplen)?;
        for p in &self.packets {
            w.write_packet(p)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Read a capture's packets through [`RecoveringReader`] with the given
    /// metadata (which the pcap format does not store), plus the reader's
    /// damage tally. The file snaplen overrides `meta.snaplen`. Only an
    /// unusable global header is an error.
    #[deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]
    pub fn read_pcap(data: &[u8], mut meta: TraceMeta) -> Result<(Trace, IngestStats)> {
        let r = RecoveringReader::new(data)?;
        meta.snaplen = r.snaplen();
        let (packets, stats) = read_all(r);
        Ok((Trace { meta, packets }, stats))
    }
}

/// Drain every salvageable record of `reader` as owned packets and return
/// the final damage tally.
pub fn read_all(mut reader: RecoveringReader<'_>) -> (Vec<TimedPacket>, IngestStats) {
    let packets = std::iter::from_fn(|| reader.next_record())
        .map(|r| TimedPacket {
            ts: r.ts,
            frame: r.frame.to_vec(),
            orig_len: r.orig_len,
        })
        .collect();
    (packets, *reader.stats())
}

/// Analyze one owned trace: its packets lent to `analyze_packets`.
pub fn analyze_trace(trace: &Trace, config: &PipelineConfig) -> TraceAnalysis {
    let frames = trace
        .packets
        .iter()
        .map(|p| (p.ts, &*p.frame, p.orig_len));
    analyze_packets(&trace.meta, frames, config, trace.packets.len())
}

/// Anonymize every packet of a trace under the given seed.
pub fn anonymize_trace(trace: &Trace, seed: &str) -> Trace {
    let mut anon = Anonymizer::new(seed);
    let packets = trace
        .packets
        .iter()
        .map(|p| {
            let mut frame = p.frame.clone();
            anonymize_frame(&mut anon, &mut frame);
            TimedPacket {
                ts: p.ts,
                frame,
                orig_len: p.orig_len,
            }
        })
        .collect();
    Trace {
        meta: trace.meta.clone(),
        packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_wire::{build, ethernet, ipv4, tcp, Timestamp};

    fn meta() -> TraceMeta {
        TraceMeta {
            dataset: "D0".into(),
            subnet: 3,
            pass: 1,
            duration: Timestamp::from_secs(600),
            snaplen: 1500,
            link_capacity_bps: 100_000_000,
        }
    }

    #[test]
    fn pcap_roundtrip_preserves_packets() {
        let t = Trace {
            meta: meta(),
            packets: (0..20)
                .map(|i| TimedPacket::new(Timestamp::from_micros(i * 100), vec![i as u8; 64]))
                .collect(),
        };
        let mut buf = Vec::new();
        t.write_pcap(&mut buf).unwrap();
        let (back, stats) = Trace::read_pcap(&buf, meta()).unwrap();
        assert!(stats.is_clean(), "{stats}");
        assert_eq!(back.packets, t.packets);
        assert_eq!(back.meta.snaplen, 1500);
    }

    fn sample_frame() -> Vec<u8> {
        build::tcp_frame(
            &build::TcpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(1),
                dst_mac: ethernet::MacAddr::from_host_id(2),
                src_ip: ipv4::Addr::new(131, 243, 7, 9),
                dst_ip: ipv4::Addr::new(131, 243, 7, 77),
                src_port: 40000,
                dst_port: 80,
                seq: 1,
                ack: 2,
                flags: tcp::Flags::ACK | tcp::Flags::PSH,
                window: 100,
                ttl: 64,
            },
            b"GET / HTTP/1.1\r\n\r\n",
        )
    }

    #[test]
    fn whole_trace() {
        let trace = Trace {
            meta: TraceMeta {
                subnet: 1,
                ..meta()
            },
            packets: (0..5)
                .map(|i| TimedPacket::new(Timestamp::from_micros(i), sample_frame()))
                .collect(),
        };
        let out = anonymize_trace(&trace, "key");
        assert_eq!(out.packets.len(), 5);
        assert_ne!(out.packets[0].frame, trace.packets[0].frame);
        assert_eq!(out.packets[0].ts, trace.packets[0].ts);
        // Deterministic.
        let again = anonymize_trace(&trace, "key");
        assert_eq!(out.packets[0].frame, again.packets[0].frame);
    }
}
