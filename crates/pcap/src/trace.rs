//! Traces: the unit of capture and analysis.
//!
//! In the paper each *trace* is one monitoring period of one subnet's router
//! port (10 minutes in D0, 1 hour in D1–D4), and each *dataset* is the
//! collection of traces across 18–22 subnets. Per-trace analyses (the
//! utilization and retransmission figures, §6) operate on [`Trace`]; dataset
//! analyses aggregate across them.

use crate::{IngestStats, PcapWriter, RecoveringReader, Result, TimedPacket};
use ent_wire::Timestamp;
use std::io::Write;
use std::sync::Arc;

/// Metadata describing one monitored-subnet trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Dataset label ("D0".."D4"), interned: cloning the metadata (or
    /// stamping the label into per-trace analyses) bumps a refcount
    /// instead of copying the string.
    pub dataset: Arc<str>,
    /// Index of the monitored subnet within the site.
    pub subnet: u16,
    /// Which monitoring pass over this subnet this is (the paper's
    /// "per tap" column: D1 and parts of D4 monitored each subnet twice).
    pub pass: u8,
    /// Nominal duration of the monitoring period.
    pub duration: Timestamp,
    /// Snaplen in force during capture.
    pub snaplen: u32,
    /// Nominal link capacity of the monitored port, bits per second
    /// (100 Mb/s for the LBNL subnets).
    pub link_capacity_bps: u64,
}

/// True if a capture cut at `snaplen` keeps application payloads (full
/// snaplen), i.e. its traces are usable for payload analyses. The paper
/// omits D1/D2 (snaplen 68) from all application-layer message parsing.
pub fn keeps_payload(snaplen: u32) -> bool {
    snaplen >= 1500
}

impl TraceMeta {
    /// [`keeps_payload`] for this trace's snaplen.
    pub fn has_payload(&self) -> bool {
        keeps_payload(self.snaplen)
    }
}

/// A captured trace: metadata plus timestamp-ordered packets.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Capture metadata.
    pub meta: TraceMeta,
    /// Packets in timestamp order.
    pub packets: Vec<TimedPacket>,
}

impl Trace {
    /// Total on-the-wire bytes (sum of original frame lengths).
    pub fn wire_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.orig_len as u64).sum()
    }

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
    pub fn read_pcap(data: &[u8], mut meta: TraceMeta) -> Result<(Trace, IngestStats)> {
        let r = RecoveringReader::new(data)?;
        meta.snaplen = r.snaplen();
        let (packets, stats) = r.read_all();
        Ok((Trace { meta, packets }, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(back.wire_bytes(), 20 * 64);
    }

    #[test]
    fn payload_capability() {
        let mut m = meta();
        assert!(m.has_payload());
        m.snaplen = 68;
        assert!(!m.has_payload());
    }
}
