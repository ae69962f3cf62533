//! Deterministic fault injection for capture files.
//!
//! The robustness tests need capture files damaged in the ways real ones
//! are: disks fill mid-record, NIC clocks run backwards, crashed capture
//! hosts leave garbage runs, buggy writers emit impossible lengths. A
//! [`FaultInjector`] applies each [`Fault`] mode to a well-formed pcap
//! byte buffer at a seeded-random location, so a corrupted-file corpus is
//! fully reproducible from `(seed, fault list)`.
//!
//! Faults operate on the *serialized* little-endian file our
//! [`PcapWriter`](ent_pcap::PcapWriter) produces — damage is byte-level, the
//! same thing a torn write or bit rot produces, not a structured mutation
//! of in-memory packets.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One way a capture file can be damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Cut the file off mid-record (header or payload), as when a capture
    /// disk fills.
    TruncateTail,
    /// Corrupt the global-header magic: the file is no longer recognizably
    /// a capture (fatal, by design).
    BadMagic,
    /// Rewrite the global-header snaplen to `u32::MAX`, the allocation-
    /// attack shape.
    AbsurdSnaplen,
    /// Rewrite one record's caplen to zero and drop its payload bytes.
    ZeroCaplen,
    /// Rewrite one record's caplen to an absurd (> 1 GiB) value.
    AbsurdCaplen,
    /// Rewrite one record's orig_len below its caplen.
    CaplenExceedsOrig,
    /// Overwrite one record's entire 16-byte header with garbage.
    GarbageRecordHeader,
    /// Push one record's timestamp behind its predecessor's.
    TimestampRegression,
    /// Duplicate one record (header + payload) in place.
    DuplicateRecord,
    /// Swap two adjacent records' bytes.
    ReorderRecords,
    /// Insert a run of random bytes at a record boundary.
    InsertGarbage,
    /// Flip a few random bits inside one record's payload.
    FlipPayloadBits,
    /// Cut a checkpoint file off at a random point, as when a monitor host
    /// loses power mid-write (torn write without the atomic rename).
    TruncateCheckpoint,
    /// Flip random bytes inside a checkpoint's payload, past the header
    /// magic — bit rot the checksum must catch.
    CorruptCheckpoint,
}

impl Fault {
    /// Every fault mode, for corpus sweeps.
    pub const ALL: [Fault; 12] = [
        Fault::TruncateTail,
        Fault::BadMagic,
        Fault::AbsurdSnaplen,
        Fault::ZeroCaplen,
        Fault::AbsurdCaplen,
        Fault::CaplenExceedsOrig,
        Fault::GarbageRecordHeader,
        Fault::TimestampRegression,
        Fault::DuplicateRecord,
        Fault::ReorderRecords,
        Fault::InsertGarbage,
        Fault::FlipPayloadBits,
    ];

    /// The checkpoint-file fault modes. Kept out of [`Fault::ALL`] because
    /// they damage `ent_core::checkpoint` files, not pcap buffers — the
    /// capture-corpus sweeps iterate `ALL` against pcaps only.
    pub const CHECKPOINT: [Fault; 2] = [Fault::TruncateCheckpoint, Fault::CorruptCheckpoint];

    /// True if this fault leaves the file unreadable even for the
    /// recovering reader (the global header itself is destroyed).
    pub fn is_fatal(self) -> bool {
        matches!(self, Fault::BadMagic)
    }
}

/// Little-endian u32 at `off`, or 0 when out of range.
fn le32_at(data: &[u8], off: usize) -> u32 {
    match data.get(off..off.saturating_add(4)) {
        Some(&[a, b, c, d]) => u32::from_le_bytes([a, b, c, d]),
        _ => 0,
    }
}

/// Overwrite `bytes.len()` bytes at `off`; out-of-range writes are dropped.
fn put_at(data: &mut [u8], off: usize, bytes: &[u8]) {
    if let Some(dst) = data.get_mut(off..off.saturating_add(bytes.len())) {
        dst.copy_from_slice(bytes);
    }
}

/// Byte offsets of each record in a well-formed little-endian capture
/// buffer, paired with its caplen.
pub fn record_offsets(data: &[u8]) -> Vec<(usize, u32)> {
    let mut v = Vec::new();
    let mut pos = 24;
    while pos + 16 <= data.len() {
        let caplen = le32_at(data, pos + 8);
        let Some(end) = (pos + 16).checked_add(caplen as usize) else {
            break;
        };
        if end > data.len() {
            break;
        }
        v.push((pos, caplen));
        pos = end;
    }
    v
}

/// Seeded injector applying [`Fault`] modes to capture buffers.
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// Create an injector; the same seed reproduces the same damage.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Apply one fault to `data` (a well-formed little-endian capture
    /// buffer). Returns `false` when the file has too few records for the
    /// requested fault (nothing was changed).
    pub fn apply(&mut self, data: &mut Vec<u8>, fault: Fault) -> bool {
        let recs = record_offsets(data);
        match fault {
            Fault::TruncateTail => {
                let Some(&(off, caplen)) = recs.last() else {
                    return false;
                };
                // Cut anywhere strictly inside the final record.
                let end = off + 16 + caplen as usize;
                let cut = self.rng.random_range(off + 1..end);
                data.truncate(cut);
            }
            Fault::BadMagic => {
                if data.len() < 4 {
                    return false;
                }
                put_at(data, 0, &0xDEAD_BEEFu32.to_le_bytes());
            }
            Fault::AbsurdSnaplen => {
                if data.len() < 24 {
                    return false;
                }
                put_at(data, 16, &u32::MAX.to_le_bytes());
            }
            Fault::ZeroCaplen => {
                let Some(&(off, caplen)) = self.pick(&recs) else {
                    return false;
                };
                put_at(data, off + 8, &0u32.to_le_bytes());
                data.drain(off + 16..off + 16 + caplen as usize);
            }
            Fault::AbsurdCaplen => {
                let Some(&(off, _)) = self.pick(&recs) else {
                    return false;
                };
                let absurd = 0x4000_0000u32 | self.rng.random_range(0u32..0x1000);
                put_at(data, off + 8, &absurd.to_le_bytes());
            }
            Fault::CaplenExceedsOrig => {
                let candidates: Vec<_> = recs.iter().filter(|(_, c)| *c > 0).copied().collect();
                let Some(&(off, caplen)) = self.pick(&candidates) else {
                    return false;
                };
                let orig = self.rng.random_range(0..caplen);
                put_at(data, off + 12, &orig.to_le_bytes());
            }
            Fault::GarbageRecordHeader => {
                let Some(&(off, _)) = self.pick(&recs) else {
                    return false;
                };
                if let Some(hdr) = data.get_mut(off..off + 16) {
                    for b in hdr {
                        *b = self.rng.random::<u8>();
                    }
                }
                // Guarantee implausibility so the damage is detectable
                // regardless of the random draw.
                put_at(data, off + 4, &0x7FFF_FFFFu32.to_le_bytes());
            }
            Fault::TimestampRegression => {
                if recs.len() < 2 {
                    return false;
                }
                let i = self.rng.random_range(1..recs.len());
                let (Some(&(prev, _)), Some(&(off, _))) = (recs.get(i - 1), recs.get(i)) else {
                    return false;
                };
                let prev_sec = le32_at(data, prev);
                let back = self.rng.random_range(1u32..100);
                put_at(data, off, &prev_sec.saturating_sub(back).to_le_bytes());
                put_at(data, off + 4, &0u32.to_le_bytes());
            }
            Fault::DuplicateRecord => {
                let Some(&(off, caplen)) = self.pick(&recs) else {
                    return false;
                };
                let end = off + 16 + caplen as usize;
                let copy = data.get(off..end).unwrap_or(&[]).to_vec();
                data.splice(end..end, copy);
            }
            Fault::ReorderRecords => {
                if recs.len() < 2 {
                    return false;
                }
                let i = self.rng.random_range(0..recs.len() - 1);
                let (Some(&(a_off, a_cap)), Some(&(b_off, b_cap))) = (recs.get(i), recs.get(i + 1))
                else {
                    return false;
                };
                let a_end = a_off + 16 + a_cap as usize;
                let b_end = b_off + 16 + b_cap as usize;
                let mut swapped = Vec::with_capacity(b_end - a_off);
                swapped.extend_from_slice(data.get(b_off..b_end).unwrap_or(&[]));
                swapped.extend_from_slice(data.get(a_off..a_end).unwrap_or(&[]));
                data.splice(a_off..b_end, swapped);
            }
            Fault::InsertGarbage => {
                let Some(&(off, _)) = self.pick(&recs) else {
                    return false;
                };
                let n = self.rng.random_range(1usize..64);
                let garbage: Vec<u8> = (0..n).map(|_| self.rng.random::<u8>()).collect();
                data.splice(off..off, garbage);
            }
            Fault::FlipPayloadBits => {
                let candidates: Vec<_> = recs.iter().filter(|(_, c)| *c > 0).copied().collect();
                let Some(&(off, caplen)) = self.pick(&candidates) else {
                    return false;
                };
                let flips = self.rng.random_range(1usize..8);
                for _ in 0..flips {
                    let byte = off + 16 + self.rng.random_range(0..caplen as usize);
                    let mask = 1u8 << self.rng.random_range(0u32..8);
                    if let Some(b) = data.get_mut(byte) {
                        *b ^= mask;
                    }
                }
            }
            Fault::TruncateCheckpoint => {
                // Checkpoint faults treat the buffer as opaque bytes: no
                // record structure to respect, just a torn write.
                if data.len() < 2 {
                    return false;
                }
                let cut = self.rng.random_range(1..data.len());
                data.truncate(cut);
            }
            Fault::CorruptCheckpoint => {
                // Flip bytes strictly past the 16-byte magic/version/len
                // prefix so the checksum — not the magic check — must
                // catch the damage.
                if data.len() <= 16 {
                    return false;
                }
                let flips = self.rng.random_range(1usize..8);
                for _ in 0..flips {
                    let byte = 16 + self.rng.random_range(0..data.len() - 16);
                    let mask = 1u8 << self.rng.random_range(0u32..8);
                    if let Some(b) = data.get_mut(byte) {
                        *b ^= mask;
                    }
                }
            }
        }
        true
    }

    fn pick<'r>(&mut self, recs: &'r [(usize, u32)]) -> Option<&'r (usize, u32)> {
        if recs.is_empty() {
            return None;
        }
        recs.get(self.rng.random_range(0..recs.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_all;
    use ent_pcap::{PcapWriter, RecoveringReader, TimedPacket};
    use ent_wire::Timestamp;

    fn sample_pcap(n: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65_535).unwrap();
        for i in 0..n {
            w.write_packet(&TimedPacket::new(
                Timestamp::from_micros(i * 1_000),
                vec![i as u8; 60],
            ))
            .unwrap();
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn injection_is_deterministic() {
        for fault in Fault::ALL {
            let mut a = sample_pcap(8);
            let mut b = sample_pcap(8);
            FaultInjector::new(99).apply(&mut a, fault);
            FaultInjector::new(99).apply(&mut b, fault);
            assert_eq!(a, b, "{fault:?} not deterministic");
        }
    }

    #[test]
    fn every_fault_changes_the_file() {
        let clean = sample_pcap(8);
        for fault in Fault::ALL {
            let mut damaged = clean.clone();
            assert!(
                FaultInjector::new(7).apply(&mut damaged, fault),
                "{fault:?} not applied"
            );
            assert_ne!(damaged, clean, "{fault:?} left the file unchanged");
        }
    }

    #[test]
    fn every_nonfatal_fault_is_survivable() {
        for (i, fault) in Fault::ALL.into_iter().enumerate() {
            if fault.is_fatal() {
                continue;
            }
            let mut buf = sample_pcap(10);
            FaultInjector::new(1000 + i as u64).apply(&mut buf, fault);
            let (pkts, stats) = read_all(
                RecoveringReader::new(&buf).unwrap_or_else(|e| panic!("{fault:?} unreadable: {e}")),
            );
            // Most of the trace must survive every single-point fault.
            assert!(pkts.len() >= 7, "{fault:?}: only {} records", pkts.len());
            // And the damage (if visible at the pcap layer) must be tallied.
            let invisible = matches!(
                fault,
                Fault::DuplicateRecord | Fault::ReorderRecords | Fault::FlipPayloadBits
            );
            assert!(
                invisible || !stats.is_clean(),
                "{fault:?}: damage not tallied ({stats})"
            );
        }
    }

    #[test]
    fn fatal_fault_is_a_typed_error() {
        let mut buf = sample_pcap(3);
        FaultInjector::new(5).apply(&mut buf, Fault::BadMagic);
        assert!(RecoveringReader::new(&buf).is_err());
    }

    #[test]
    fn reorder_fault_shows_up_as_clock_regression() {
        let mut buf = sample_pcap(6);
        FaultInjector::new(3).apply(&mut buf, Fault::ReorderRecords);
        let (pkts, stats) = read_all(RecoveringReader::new(&buf).unwrap());
        assert_eq!(pkts.len(), 6);
        assert_eq!(stats.clock_regressions, 1);
    }

    #[test]
    fn checkpoint_faults_change_opaque_buffers_deterministically() {
        // Any byte buffer with a 16-byte header prefix qualifies; no pcap
        // structure is required for the checkpoint fault modes.
        let clean: Vec<u8> = (0u16..200).map(|i| i as u8).collect();
        for (i, fault) in Fault::CHECKPOINT.into_iter().enumerate() {
            let mut a = clean.clone();
            let mut b = clean.clone();
            assert!(FaultInjector::new(40 + i as u64).apply(&mut a, fault));
            assert!(FaultInjector::new(40 + i as u64).apply(&mut b, fault));
            assert_eq!(a, b, "{fault:?} not deterministic");
            assert_ne!(a, clean, "{fault:?} left the buffer unchanged");
            assert!(!fault.is_fatal());
        }
    }

    #[test]
    fn corrupt_checkpoint_spares_the_header_prefix() {
        let clean = vec![0xAAu8; 64];
        for seed in 0..32 {
            let mut damaged = clean.clone();
            assert!(FaultInjector::new(seed).apply(&mut damaged, Fault::CorruptCheckpoint));
            assert_eq!(
                &damaged[..16],
                &clean[..16],
                "seed {seed} touched the magic/version prefix"
            );
            assert_ne!(&damaged[16..], &clean[16..]);
        }
    }

    #[test]
    fn checkpoint_faults_refuse_degenerate_buffers() {
        let mut tiny = vec![1u8];
        assert!(!FaultInjector::new(1).apply(&mut tiny, Fault::TruncateCheckpoint));
        let mut header_only = vec![0u8; 16];
        assert!(!FaultInjector::new(1).apply(&mut header_only, Fault::CorruptCheckpoint));
    }

    #[test]
    fn empty_capture_refuses_record_faults() {
        let mut buf = sample_pcap(0);
        assert!(!FaultInjector::new(1).apply(&mut buf, Fault::TruncateTail));
        assert!(!FaultInjector::new(1).apply(&mut buf, Fault::DuplicateRecord));
        assert!(FaultInjector::new(1).apply(&mut buf, Fault::BadMagic));
    }
}
