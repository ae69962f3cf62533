//! Classic libpcap file format (the `.pcap` produced by tcpdump on the
//! paper's FreeBSD 4.10 capture host).
//!
//! Layout: a 24-byte global header (magic 0xA1B2C3D4, microsecond
//! timestamps), then per-packet 16-byte record headers. The header parsers
//! accept both byte orders (the reader is [`crate::RecoveringReader`]);
//! writes are native-magic little-endian.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::{PcapError, Result, TimedPacket};
use std::io::Write;

/// Magic for microsecond-resolution pcap, written in our byte order.
pub const MAGIC_USEC: u32 = 0xA1B2_C3D4;
/// LINKTYPE_ETHERNET (DLT_EN10MB).
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Upper bound on a single record's captured bytes, regardless of the
/// snaplen claimed by the file header. A crafted header advertising a
/// multi-gigabyte snaplen must not let one 16-byte record header drive a
/// multi-gigabyte allocation; 256 KiB comfortably exceeds any real
/// Ethernet frame (even jumbo + encapsulation).
pub const MAX_RECORD_BYTES: u32 = 256 * 1024;

/// The per-record caplen bound implied by a file-header snaplen: at least
/// the classic 64 KiB (tolerating files whose header understates their
/// records), never more than [`MAX_RECORD_BYTES`].
pub(crate) fn record_limit(snaplen: u32) -> u32 {
    snaplen.clamp(65_535, MAX_RECORD_BYTES)
}

/// Length of the global file header.
pub(crate) const GLOBAL_HEADER_LEN: usize = 24;
/// Length of a per-packet record header.
pub(crate) const RECORD_HEADER_LEN: usize = 16;

/// The `u32` at `off` in a header, in the file's byte order.
#[inline]
fn u32_at(hdr: &[u8], off: usize, swapped: bool) -> u32 {
    let b = match hdr.get(off..off.saturating_add(4)) {
        Some(&[a, b, c, d]) => [a, b, c, d],
        _ => [0; 4],
    };
    if swapped {
        u32::from_be_bytes(b)
    } else {
        u32::from_le_bytes(b)
    }
}

/// What the 24-byte global header says about the rest of the file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GlobalHeader {
    /// Multi-byte fields are big-endian (the writer's byte order was not
    /// ours).
    pub swapped: bool,
    /// Snaplen as recorded, unclamped.
    pub snaplen: u32,
}

impl GlobalHeader {
    /// Read the global header: the magic gives the byte order; nanosecond
    /// captures and link types other than Ethernet are rejected.
    pub(crate) fn parse(hdr: &[u8; GLOBAL_HEADER_LEN]) -> Result<GlobalHeader> {
        let swapped = match u32_at(hdr, 0, false) {
            MAGIC_USEC => false,
            m if m == MAGIC_USEC.swap_bytes() => true,
            0xA1B2_3C4D | 0x4D3C_B2A1 => {
                return Err(PcapError::BadFormat("nanosecond pcap not supported"))
            }
            _ => return Err(PcapError::BadFormat("bad magic")),
        };
        if u32_at(hdr, 20, swapped) != LINKTYPE_ETHERNET {
            return Err(PcapError::BadFormat("only Ethernet link type supported"));
        }
        Ok(GlobalHeader {
            swapped,
            snaplen: u32_at(hdr, 16, swapped),
        })
    }
}

/// The four fields of a 16-byte record header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordHeader {
    pub sec: u32,
    pub usec: u32,
    pub caplen: u32,
    pub orig_len: u32,
}

impl RecordHeader {
    /// Read a record header in the file's byte order. Any 16 bytes decode;
    /// [`RecordHeader::defect`] says whether they can be a record.
    #[inline]
    pub(crate) fn parse(rec: &[u8; RECORD_HEADER_LEN], swapped: bool) -> RecordHeader {
        RecordHeader {
            sec: u32_at(rec, 0, swapped),
            usec: u32_at(rec, 4, swapped),
            caplen: u32_at(rec, 8, swapped),
            orig_len: u32_at(rec, 12, swapped),
        }
    }

    /// Why these fields cannot head a record of a file with this header
    /// snaplen, if they cannot. Random bytes pass with probability ~1.4e-8
    /// (usec bound ~2.3e-4 times caplen bound ~6e-5).
    #[inline]
    pub(crate) fn defect(&self, snaplen: u32) -> Option<&'static str> {
        if self.usec >= 1_000_000 {
            Some("microseconds out of range")
        } else if self.caplen > record_limit(snaplen) {
            Some("caplen exceeds snaplen")
        } else {
            None
        }
    }

    /// The record's timestamp, microseconds.
    #[inline]
    pub(crate) fn ts_us(&self) -> u64 {
        u64::from(self.sec)
            .saturating_mul(1_000_000)
            .saturating_add(u64::from(self.usec))
    }
}

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
    snaplen: u32,
    packets_written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header. `snaplen` is recorded in
    /// the header; packets are additionally truncated to it on write.
    pub fn new(mut out: W, snaplen: u32) -> Result<PcapWriter<W>> {
        let mut hdr = [0u8; 24];
        hdr[0..4].copy_from_slice(&MAGIC_USEC.to_le_bytes());
        hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // major
        hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // minor
        // thiszone = 0, sigfigs = 0
        hdr[16..20].copy_from_slice(&snaplen.to_le_bytes());
        hdr[20..24].copy_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        out.write_all(&hdr)?;
        Ok(PcapWriter {
            out,
            snaplen,
            packets_written: 0,
        })
    }

    /// Append one packet record, truncating to the file snaplen.
    pub fn write_packet(&mut self, pkt: &TimedPacket) -> Result<()> {
        let caplen = pkt.frame.len().min(self.snaplen as usize);
        let (sec, usec) = pkt.ts.to_sec_usec();
        let mut rec = [0u8; 16];
        rec[0..4].copy_from_slice(&sec.to_le_bytes());
        rec[4..8].copy_from_slice(&usec.to_le_bytes());
        rec[8..12].copy_from_slice(&u32::try_from(caplen).unwrap_or(u32::MAX).to_le_bytes());
        rec[12..16].copy_from_slice(&pkt.orig_len.to_le_bytes());
        self.out.write_all(&rec)?;
        self.out.write_all(pkt.frame.get(..caplen).unwrap_or(&[]))?;
        self.packets_written = self.packets_written.saturating_add(1);
        Ok(())
    }

    /// Number of records written so far.
    pub fn packets_written(&self) -> u64 {
        self.packets_written
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::tests::read_all;
    use crate::RecoveringReader;
    use ent_wire::Timestamp;

    /// Read a written capture back through the reader that ships, which
    /// must find nothing to repair.
    fn read_clean(buf: &[u8]) -> (u32, Vec<TimedPacket>) {
        let r = RecoveringReader::new(buf).unwrap();
        let snaplen = r.snaplen();
        let (pkts, stats) = read_all(r);
        assert!(stats.is_clean(), "{stats}");
        (snaplen, pkts)
    }

    fn sample_packets() -> Vec<TimedPacket> {
        (0..10)
            .map(|i| {
                TimedPacket::new(
                    Timestamp::from_micros(i * 1_000 + 999_999),
                    vec![i as u8; 60 + i as usize],
                )
            })
            .collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let pkts = sample_packets();
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65_535).unwrap();
        for p in &pkts {
            w.write_packet(p).unwrap();
        }
        assert_eq!(w.packets_written(), 10);
        w.finish().unwrap();
        assert_eq!(read_clean(&buf), (65_535, pkts));
    }

    #[test]
    fn snaplen_truncates_on_write() {
        let pkt = TimedPacket::new(Timestamp::ZERO, vec![7u8; 200]);
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 68).unwrap();
        w.write_packet(&pkt).unwrap();
        w.finish().unwrap();
        let (snaplen, got) = read_clean(&buf);
        assert_eq!(snaplen, 68);
        assert_eq!(got[0].frame.len(), 68);
        assert_eq!(got[0].orig_len, 200);
    }

    #[test]
    fn record_limit_clamps_both_ways() {
        assert_eq!(record_limit(68), 65_535);
        assert_eq!(record_limit(65_535), 65_535);
        assert_eq!(record_limit(100_000), 100_000);
        assert_eq!(record_limit(u32::MAX), MAX_RECORD_BYTES);
    }
}
