//! Damage-tolerant pcap ingest.
//!
//! Real capture files arrive damaged: the paper's own apparatus produced
//! truncated files when disks filled, records with clock regressions when
//! NIC timestamp counters wrapped or drifted, and the occasional garbage
//! run when a capture host crashed mid-write. The strict
//! [`PcapReader`](crate::PcapReader) fails the whole file on the first bad
//! record; [`RecoveringReader`] instead salvages everything salvageable and
//! tallies exactly what it had to skip or repair in [`IngestStats`], so an
//! analysis over a damaged trace is *labelled* degraded rather than
//! silently wrong.
//!
//! Recovery semantics:
//!
//! * A malformed record header (impossible microseconds, caplen beyond the
//!   clamped snaplen bound) triggers a byte-wise **resync scan** for the
//!   next plausible record header; skipped bytes are counted.
//! * A record whose payload runs past end-of-file marks the trace
//!   truncated and ends iteration cleanly.
//! * `caplen > orig_len` is repaired (`orig_len` raised to `caplen`) and
//!   counted.
//! * Timestamp regressions are clamped to the previous record's timestamp
//!   (output stays monotone) and counted.
//! * A timestamp leaping more than a minute forward is pinned to the
//!   previous clock (and counted) when the next record falls back behind
//!   it — a genuine capture gap, however isolated the packet after it,
//!   passes through, while a corrupted `sec` field or false resync lock
//!   cannot poison the monotone clamp.
//! * Zero-length records are dropped and counted.
//! * A file-header snaplen above [`MAX_RECORD_BYTES`] is clamped before any
//!   allocation and flagged.
//!
//! Only the 24-byte global header is load-bearing: a bad magic, an
//! unsupported link type, or a file shorter than the header is a fatal
//! [`PcapError`] — there is no frame boundary to recover.

use crate::format::{
    GlobalHeader, RecordHeader, GLOBAL_HEADER_LEN, MAX_RECORD_BYTES, RECORD_HEADER_LEN,
};
use crate::{PcapError, Result, TimedPacket};
use ent_wire::Timestamp;

/// Tally of everything a [`RecoveringReader`] skipped, repaired, or
/// clamped while ingesting one capture file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records successfully delivered.
    pub records: u64,
    /// Damaged record headers skipped via resync scan.
    pub malformed_records: u64,
    /// Records delivered after repairing `caplen > orig_len`.
    pub repaired_records: u64,
    /// Zero-length records dropped.
    pub zero_len_records: u64,
    /// Records whose timestamp ran backwards (clamped to monotone).
    pub clock_regressions: u64,
    /// Bytes discarded while resynchronizing or at a truncated tail.
    pub bytes_skipped: u64,
    /// The file ended mid-record.
    pub truncated_tail: bool,
    /// The file-header snaplen exceeded [`MAX_RECORD_BYTES`] and was
    /// clamped before any allocation.
    pub snaplen_clamped: bool,
}

impl IngestStats {
    /// True when the file was ingested without any skip, repair, or clamp.
    pub fn is_clean(&self) -> bool {
        self.damage_events() == 0 && self.bytes_skipped == 0
    }

    /// Total count of distinct damage events observed.
    pub fn damage_events(&self) -> u64 {
        self.malformed_records
            + self.repaired_records
            + self.zero_len_records
            + self.clock_regressions
            + u64::from(self.truncated_tail)
            + u64::from(self.snaplen_clamped)
    }

    /// Fold another tally into this one (e.g. across a dataset's traces).
    pub fn absorb(&mut self, other: &IngestStats) {
        self.records += other.records;
        self.malformed_records += other.malformed_records;
        self.repaired_records += other.repaired_records;
        self.zero_len_records += other.zero_len_records;
        self.clock_regressions += other.clock_regressions;
        self.bytes_skipped += other.bytes_skipped;
        self.truncated_tail |= other.truncated_tail;
        self.snaplen_clamped |= other.snaplen_clamped;
    }
}

impl core::fmt::Display for IngestStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            return write!(f, "{} records, clean", self.records);
        }
        write!(
            f,
            "{} records; {} malformed skipped, {} repaired, {} zero-length, \
             {} clock regressions, {} bytes skipped{}{}",
            self.records,
            self.malformed_records,
            self.repaired_records,
            self.zero_len_records,
            self.clock_regressions,
            self.bytes_skipped,
            if self.truncated_tail { ", truncated tail" } else { "" },
            if self.snaplen_clamped { ", snaplen clamped" } else { "" },
        )
    }
}

/// A salvaged record borrowed straight from the capture buffer — the
/// zero-copy counterpart of [`TimedPacket`], produced by
/// [`RecoveringReader::next_record`].
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// Capture timestamp (after monotone clamping/pinning).
    pub ts: Timestamp,
    /// Captured frame bytes, borrowed from the input buffer.
    pub frame: &'a [u8],
    /// Original on-the-wire length (repaired if the header under-reported).
    pub orig_len: u32,
}

/// Recovering pcap reader over an in-memory capture file.
///
/// Operates on a byte slice rather than a stream because resynchronization
/// needs random access to scan for the next plausible record boundary.
pub struct RecoveringReader<'a> {
    data: &'a [u8],
    pos: usize,
    swapped: bool,
    snaplen: u32,
    last_ts_us: Option<u64>,
    resynced: bool,
    stats: IngestStats,
}

/// Largest unvouched clock step (either direction) a record may take. A
/// false resync lock or a corrupted `sec` field yields an arbitrary
/// timestamp; without this bound one such record poisons the monotone
/// clamp and flattens every later timestamp in the file. Larger forward
/// jumps are still accepted when the following record's clock does not
/// fall back behind them (a genuine capture gap), so idle periods survive.
const MAX_CLOCK_JUMP_US: u64 = 60 * 1_000_000;

/// How far past the first structurally-plausible candidate a resync keeps
/// scanning for one that is also clock-consistent. One maximum-size record
/// is enough to step over a false lock inside a damaged record's payload;
/// further damage is handled by the next resync.
const RESYNC_CLOCK_SCAN: usize = MAX_RECORD_BYTES as usize;

impl<'a> RecoveringReader<'a> {
    /// Open a capture buffer, validating only the global header (which is
    /// unrecoverable when damaged — without it there is no byte order and
    /// no reason to believe the file is a capture at all).
    pub fn new(data: &'a [u8]) -> Result<RecoveringReader<'a>> {
        let hdr = data
            .first_chunk()
            .ok_or(PcapError::BadFormat("file shorter than pcap global header"))?;
        let GlobalHeader { swapped, mut snaplen } = GlobalHeader::parse(hdr)?;
        let mut stats = IngestStats::default();
        if snaplen > MAX_RECORD_BYTES {
            stats.snaplen_clamped = true;
            snaplen = MAX_RECORD_BYTES;
        }
        Ok(RecoveringReader {
            data,
            pos: GLOBAL_HEADER_LEN,
            swapped,
            snaplen,
            last_ts_us: None,
            resynced: false,
            stats,
        })
    }

    /// Reopen a capture buffer at a previously-recorded byte offset with a
    /// previously-recorded clock watermark — the checkpoint-resume entry
    /// point. The global header is validated exactly as in
    /// [`RecoveringReader::new`]; the offset is only clamped to the buffer,
    /// never trusted to be a record boundary. If it is stale or wrong (a
    /// checkpoint against a different file), the very first
    /// [`RecoveringReader::next_record`] call fails the header sanity check
    /// and the normal resync scan walks to the next plausible record — the
    /// same salvage path damaged captures already take, with the damage
    /// tallied in [`IngestStats`].
    pub fn resume(
        data: &'a [u8],
        offset: u64,
        last_ts_us: Option<u64>,
    ) -> Result<RecoveringReader<'a>> {
        let mut r = RecoveringReader::new(data)?;
        // ent-lint: allow(E002) — clamped min() against the buffer length
        r.pos = (offset as usize).min(data.len()).max(GLOBAL_HEADER_LEN);
        r.last_ts_us = last_ts_us;
        Ok(r)
    }

    /// Byte offset of the next unread record (24 right after open). Taken
    /// *before* a [`RecoveringReader::next_record`] call, this is the
    /// resume offset that makes that record the first one delivered after
    /// [`RecoveringReader::resume`].
    pub fn position(&self) -> u64 {
        self.pos as u64
    }

    /// The monotone clock watermark (microseconds of the last delivered
    /// record, `None` before the first). Serialized alongside
    /// [`RecoveringReader::position`] so a resumed reader clamps damaged
    /// timestamps exactly like the uninterrupted one.
    pub fn last_clock_us(&self) -> Option<u64> {
        self.last_ts_us
    }

    /// The file-header snaplen, after clamping to [`MAX_RECORD_BYTES`].
    pub fn snaplen(&self) -> u32 {
        self.snaplen
    }

    /// Damage tally so far (final once iteration returns `None`).
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The record header at `off`, if 16 bytes remain there.
    #[inline]
    fn header_at(&self, off: usize) -> Option<RecordHeader> {
        let rec = self.data.get(off..)?.first_chunk()?;
        Some(RecordHeader::parse(rec, self.swapped))
    }

    /// A whole, field-sane record header at `off` (see
    /// [`RecordHeader::defect`]).
    fn sane_header_at(&self, off: usize) -> Option<RecordHeader> {
        self.header_at(off).filter(|h| h.defect(self.snaplen).is_none())
    }

    /// Could a record plausibly start at `off`? Used only while
    /// resynchronizing, where a false lock is expensive (it can swallow
    /// the rest of the file), so beyond field sanity the candidate must
    /// fit in the remaining bytes and chain into end-of-file or another
    /// sane header. Payload bytes that happen to look like a header fail
    /// the chain check because their bogus caplen points nowhere valid.
    fn plausible(&self, off: usize) -> Option<RecordHeader> {
        let h = self.sane_header_at(off)?;
        let end = off + RECORD_HEADER_LEN + h.caplen as usize;
        (end == self.data.len() || self.sane_header_at(end).is_some()).then_some(h)
    }

    /// Is `h`'s timestamp believable given the last good clock? Payload
    /// bytes that chain into a structurally valid record still carry an
    /// arbitrary `sec` field; the clock is the one signal a misaligned
    /// parse cannot fake.
    fn clock_consistent(&self, h: &RecordHeader) -> bool {
        let Some(last) = self.last_ts_us else {
            return true;
        };
        let ts = h.ts_us();
        ts + MAX_CLOCK_JUMP_US >= last && ts <= last + MAX_CLOCK_JUMP_US
    }

    /// Does the record after the current one (at `self.pos`, already
    /// advanced) keep the clock at or past `ts_us`, give or take the
    /// jump bound? Vouches for a large forward jump being a genuine
    /// capture gap rather than a one-record outlier the stream falls back
    /// from. How far *ahead* the next record lies says nothing: in a
    /// sparse capture an intact packet sits alone inside a quiet stretch.
    fn next_clock_confirms(&self, ts_us: u64) -> bool {
        self.sane_header_at(self.pos)
            .is_some_and(|next| next.ts_us() + MAX_CLOCK_JUMP_US >= ts_us)
    }

    /// Skip forward from a damaged record header to the next plausible one.
    ///
    /// Prefers a candidate whose timestamp agrees with the last good clock:
    /// on files with uniform record sizes a misaligned lock is structurally
    /// self-consistent forever, so structure alone cannot reject it. If no
    /// clock-consistent candidate appears within [`RESYNC_CLOCK_SCAN`] of
    /// the first structural match, the structural match is used as a
    /// fallback (a real capture may simply have a gap).
    fn resync(&mut self) {
        let start = self.pos;
        self.stats.malformed_records += 1;
        let mut fallback: Option<usize> = None;
        let mut off = self.pos.saturating_add(1);
        let mut lock: Option<usize> = None;
        while off.saturating_add(RECORD_HEADER_LEN) <= self.data.len() {
            if let Some(f) = fallback {
                if off > f.saturating_add(RESYNC_CLOCK_SCAN) {
                    break;
                }
            }
            if let Some(h) = self.plausible(off) {
                if self.clock_consistent(&h) {
                    lock = Some(off);
                    break;
                }
                fallback.get_or_insert(off);
            }
            off = off.saturating_add(1);
        }
        self.pos = lock.or(fallback).unwrap_or(self.data.len());
        self.stats.bytes_skipped += self.pos.saturating_sub(start) as u64;
        self.resynced = true;
    }

    /// Deliver the next salvageable record as a borrowed view into the
    /// capture buffer; `None` at end of input. Never fails: damage is
    /// skipped or repaired and tallied in [`stats`].
    ///
    /// This is the zero-copy hot path: the frame slice borrows the input
    /// buffer directly (lifetime `'a`, independent of `&mut self`, so the
    /// caller may keep views while continuing to read). Use
    /// [`RecoveringReader::next_packet`] when an owned copy is needed.
    ///
    /// [`stats`]: RecoveringReader::stats
    pub fn next_record(&mut self) -> Option<RecordView<'a>> {
        loop {
            let remaining = self.data.len().saturating_sub(self.pos);
            if remaining == 0 {
                return None;
            }
            let Some(h) = self.header_at(self.pos) else {
                // Tail shorter than a record header: mid-record EOF.
                self.stats.truncated_tail = true;
                self.stats.bytes_skipped += remaining as u64;
                self.pos = self.data.len();
                return None;
            };
            if h.defect(self.snaplen).is_some() {
                self.resync();
                continue;
            }
            if h.caplen == 0 {
                // ent-lint: allow(E002) — u64 damage counter, not offset math
                self.stats.zero_len_records += 1;
                self.pos = self.pos.saturating_add(RECORD_HEADER_LEN);
                continue;
            }
            let cap = h.caplen as usize;
            if cap > remaining.saturating_sub(RECORD_HEADER_LEN) {
                // Payload runs past end-of-file: mid-record EOF.
                self.stats.truncated_tail = true;
                self.stats.bytes_skipped += remaining as u64;
                self.pos = self.data.len();
                return None;
            }
            let payload_start = self.pos.saturating_add(RECORD_HEADER_LEN);
            let frame = self
                .data
                .get(payload_start..payload_start.saturating_add(cap))
                .unwrap_or(&[]);
            self.pos = payload_start.saturating_add(cap);
            let mut orig_len = h.orig_len;
            if orig_len < h.caplen {
                self.stats.repaired_records += 1;
                orig_len = h.caplen;
            }
            let mut ts_us = h.ts_us();
            if let Some(last) = self.last_ts_us {
                if ts_us < last {
                    self.stats.clock_regressions += 1;
                    ts_us = last;
                } else if ts_us > last + MAX_CLOCK_JUMP_US
                    && (self.resynced || !self.next_clock_confirms(ts_us))
                {
                    // A wildly future clock is either a false resync lock
                    // or a corrupted `sec` field — unless the next record
                    // stays up there with it (a genuine capture gap). Pin
                    // the outlier so it cannot poison the monotone clamp.
                    self.stats.clock_regressions += 1;
                    ts_us = last;
                }
            }
            self.resynced = false;
            self.last_ts_us = Some(ts_us);
            self.stats.records += 1;
            return Some(RecordView {
                ts: Timestamp::from_micros(ts_us),
                frame,
                orig_len,
            });
        }
    }

    /// Deliver the next salvageable record as an owned [`TimedPacket`].
    /// A copying convenience wrapper around [`RecoveringReader::next_record`].
    #[allow(clippy::should_implement_trait)] // mirrors PcapReader::next_packet
    pub fn next_packet(&mut self) -> Option<TimedPacket> {
        self.next_record().map(|r| TimedPacket {
            ts: r.ts,
            frame: r.frame.to_vec(),
            orig_len: r.orig_len,
        })
    }

    /// Drain every salvageable record and return the final damage tally.
    pub fn read_all(mut self) -> (Vec<TimedPacket>, IngestStats) {
        let mut v = Vec::new();
        while let Some(p) = self.next_packet() {
            v.push(p);
        }
        (v, self.stats)
    }
}

impl Iterator for RecoveringReader<'_> {
    type Item = TimedPacket;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_packet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcapWriter;

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
    fn clean_file_reads_clean() {
        let buf = sample_pcap(10);
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 10);
        assert!(stats.is_clean(), "{stats}");
        assert_eq!(stats.records, 10);
    }

    /// The same capture as a big-endian host would have written it: every
    /// header field byte-reversed, frame bytes untouched.
    fn byte_swapped(le: &[u8]) -> Vec<u8> {
        let mut out = le.to_vec();
        let mut reverse = |range: std::ops::Range<usize>| out[range].reverse();
        for r in [0..4, 4..6, 6..8, 8..12, 12..16, 16..20, 20..24] {
            reverse(r);
        }
        let mut off = GLOBAL_HEADER_LEN;
        while off < le.len() {
            for field in 0..4 {
                reverse(off + 4 * field..off + 4 * field + 4);
            }
            let caplen = u32::from_le_bytes(le[off + 8..off + 12].try_into().unwrap());
            off += RECORD_HEADER_LEN + caplen as usize;
        }
        out
    }

    #[test]
    fn both_readers_agree_in_both_byte_orders() {
        let mut le = Vec::new();
        let mut w = PcapWriter::new(&mut le, 1_500).unwrap();
        for i in 0..40u64 {
            let mut p = TimedPacket::new(
                Timestamp::from_micros(1_100_000_000_000_000 + i * 999_983),
                (0..60 + 7 * i as usize).map(|b| (b as u8) ^ (i as u8)).collect(),
            );
            p.orig_len += (i as u32 % 3) * 500;
            w.write_packet(&p).unwrap();
        }
        w.finish().unwrap();
        let be = byte_swapped(&le);
        assert_ne!(le, be);

        let strict = |file: &[u8]| {
            let mut r = crate::PcapReader::new(file).unwrap();
            (r.snaplen(), r.read_all().unwrap())
        };
        let recovering = |file: &[u8]| {
            let r = RecoveringReader::new(file).unwrap();
            let snaplen = r.snaplen();
            let (pkts, stats) = r.read_all();
            assert!(stats.is_clean(), "{stats}");
            (snaplen, pkts)
        };
        let want = strict(&le);
        assert_eq!((want.0, want.1.len()), (1_500, 40));
        assert_eq!(strict(&be), want);
        assert_eq!(recovering(&le), want);
        assert_eq!(recovering(&be), want);

        // What neither reader opens, in either byte order, and why.
        for file in [&le, &be] {
            let swapped = file[0] == 0xA1;
            let field = |v: u32| if swapped { v.to_be_bytes() } else { v.to_le_bytes() };
            let mut nanos = file.clone();
            nanos[0..4].copy_from_slice(&field(0xA1B2_3C4D));
            let mut wifi = file.clone();
            wifi[20..24].copy_from_slice(&field(105));
            for (bad, why) in [
                (&nanos, "nanosecond pcap not supported"),
                (&wifi, "only Ethernet link type supported"),
            ] {
                let strict = crate::PcapReader::new(&bad[..]).err().expect("strict rejects");
                let recovering = RecoveringReader::new(bad).err().expect("recovering rejects");
                assert!(matches!(strict, PcapError::BadFormat(w) if w == why), "{strict:?}");
                assert!(matches!(recovering, PcapError::BadFormat(w) if w == why), "{recovering:?}");
            }
        }
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut buf = sample_pcap(2);
        buf[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        assert!(matches!(
            RecoveringReader::new(&buf),
            Err(PcapError::BadFormat("bad magic"))
        ));
    }

    #[test]
    fn short_file_is_fatal() {
        assert!(RecoveringReader::new(&[0u8; 10]).is_err());
    }

    #[test]
    fn truncated_tail_salvages_prefix() {
        let mut buf = sample_pcap(5);
        buf.truncate(buf.len() - 30); // cut into the last record's payload
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 4);
        assert!(stats.truncated_tail);
        assert!(stats.bytes_skipped > 0);
    }

    #[test]
    fn garbage_header_resyncs_to_next_record() {
        let mut buf = sample_pcap(5);
        // Destroy record 2's header (records start at 24, each 16+60).
        let off = 24 + 2 * 76;
        buf[off..off + 16].copy_from_slice(&[0xFF; 16]);
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        // Records 0,1 then resync past the damaged record into 3,4. The
        // damaged record's payload (0x02 x 60) contains no plausible header
        // (usec bytes all 0x02020202 > 1e6), so resync lands on record 3.
        assert_eq!(pkts.len(), 4);
        assert_eq!(stats.malformed_records, 1);
        assert!(stats.bytes_skipped >= 16);
        assert_eq!(pkts[2].frame[0], 3);
    }

    #[test]
    fn resync_skips_wild_clock_candidate() {
        let mut buf = sample_pcap(4);
        // Destroy record 1's header so the reader must resync, then give
        // record 2 a far-future `sec` — the shape a false lock on payload
        // bytes produces. Resync must step over it and lock record 3,
        // whose clock agrees with record 0; otherwise the monotone clamp
        // is dragged to year ~2106 and flattens the rest of the file.
        let r1 = 24 + 76;
        buf[r1..r1 + 16].copy_from_slice(&[0xFF; 16]);
        let r2 = 24 + 2 * 76;
        buf[r2..r2 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 2);
        assert_eq!(stats.malformed_records, 1);
        assert_eq!(stats.clock_regressions, 0);
        assert_eq!(pkts[1].frame[0], 3);
        assert_eq!(pkts[1].ts, Timestamp::from_micros(3_000));
    }

    #[test]
    fn wild_clock_fallback_lock_is_pinned() {
        let mut buf = sample_pcap(3);
        // Same shape, but the wild record is the last one in the file, so
        // no clock-consistent candidate exists and resync must fall back
        // to it. Its timestamp is pinned to the last good clock instead of
        // advancing the watermark ~136 years.
        let r1 = 24 + 76;
        buf[r1..r1 + 16].copy_from_slice(&[0xFF; 16]);
        let r2 = 24 + 2 * 76;
        buf[r2..r2 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 2);
        assert_eq!(stats.malformed_records, 1);
        assert_eq!(stats.clock_regressions, 1);
        assert_eq!(pkts[1].frame[0], 2);
        assert_eq!(pkts[1].ts, pkts[0].ts);
    }

    #[test]
    fn isolated_wild_timestamp_is_pinned() {
        let mut buf = sample_pcap(4);
        // Flip a high bit in record 2's `sec` field, as a storage error
        // would. Record 3's clock disowns the jump, so the outlier is
        // pinned instead of dragging the monotone clamp 34 years forward.
        let r2 = 24 + 2 * 76;
        buf[r2 + 3] ^= 0x40;
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 4);
        assert_eq!(stats.clock_regressions, 1);
        assert_eq!(pkts[2].ts, pkts[1].ts);
        assert_eq!(pkts[3].ts, Timestamp::from_micros(3_000));
    }

    #[test]
    fn corroborated_clock_jump_is_a_real_gap() {
        // Two records, a year of idle capture, two more records: the jump
        // is corroborated by its successor and must survive untouched.
        let year_us: u64 = 31_536_000_000_000;
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65_535).unwrap();
        for (i, ts) in [0, 1_000, year_us, year_us + 1_000].iter().enumerate() {
            w.write_packet(&TimedPacket::new(
                Timestamp::from_micros(*ts),
                vec![i as u8; 60],
            ))
            .unwrap();
        }
        w.finish().unwrap();
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 4);
        assert!(stats.is_clean(), "{stats}");
        assert_eq!(pkts[2].ts, Timestamp::from_micros(year_us));
    }

    #[test]
    fn sparse_intact_capture_reads_clean() {
        // Quiet stretches longer than the jump bound on both sides of an
        // isolated packet (70 s), and of a pair (140/141 s): every jump is
        // followed by a record that does not fall back, so nothing is
        // damage and no timestamp is rewritten.
        let secs = [0u64, 70, 140, 141, 300, 301];
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, 65_535).unwrap();
        for (i, s) in secs.iter().enumerate() {
            w.write_packet(&TimedPacket::new(Timestamp::from_secs(*s), vec![i as u8; 60]))
                .unwrap();
        }
        w.finish().unwrap();
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert!(stats.is_clean(), "{stats}");
        let read: Vec<_> = pkts.iter().map(|p| p.ts).collect();
        assert_eq!(read, secs.map(Timestamp::from_secs));
    }

    #[test]
    fn zero_length_record_dropped_and_counted() {
        let mut buf = sample_pcap(3);
        // Rewrite record 1 as caplen 0 and remove its payload.
        let off = 24 + 76;
        buf[off + 8..off + 12].copy_from_slice(&0u32.to_le_bytes());
        buf.drain(off + 16..off + 76);
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 2);
        assert_eq!(stats.zero_len_records, 1);
        assert_eq!(pkts[1].frame[0], 2);
    }

    #[test]
    fn clock_regression_clamped_and_counted() {
        let mut buf = sample_pcap(4);
        // Push record 2's timestamp before record 1's.
        let off = 24 + 2 * 76;
        buf[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
        buf[off + 4..off + 8].copy_from_slice(&1u32.to_le_bytes());
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 4);
        assert_eq!(stats.clock_regressions, 1);
        // Output is monotone: the regressed record clamps to its predecessor.
        assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert_eq!(pkts[2].ts, pkts[1].ts);
    }

    #[test]
    fn caplen_over_orig_len_repaired() {
        let mut buf = sample_pcap(2);
        let off = 24;
        buf[off + 12..off + 16].copy_from_slice(&5u32.to_le_bytes()); // orig < caplen 60
        let (pkts, stats) = RecoveringReader::new(&buf).unwrap().read_all();
        assert_eq!(pkts.len(), 2);
        assert_eq!(stats.repaired_records, 1);
        assert_eq!(pkts[0].orig_len, 60);
    }

    #[test]
    fn absurd_snaplen_clamped_before_allocation() {
        let mut buf = sample_pcap(2);
        buf[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let r = RecoveringReader::new(&buf).unwrap();
        assert_eq!(r.snaplen(), MAX_RECORD_BYTES);
        let (pkts, stats) = r.read_all();
        assert_eq!(pkts.len(), 2);
        assert!(stats.snaplen_clamped);
    }

    #[test]
    fn resume_at_saved_position_reproduces_the_tail() {
        let buf = sample_pcap(10);
        let mut r = RecoveringReader::new(&buf).unwrap();
        let mut head = Vec::new();
        for _ in 0..4 {
            head.push(r.next_packet().unwrap());
        }
        let (pos, clock) = (r.position(), r.last_clock_us());
        let tail_expected: Vec<_> = r.collect();
        let (tail, stats) = RecoveringReader::resume(&buf, pos, clock)
            .unwrap()
            .read_all();
        assert_eq!(tail, tail_expected);
        assert_eq!(tail.len(), 6);
        assert!(stats.is_clean(), "{stats}");
    }

    #[test]
    fn resume_at_bogus_offset_resyncs_instead_of_failing() {
        let buf = sample_pcap(6);
        // An offset into the middle of a record's payload: not a record
        // boundary. The resync scan must find the next real record.
        let bogus = 24 + 76 + 30;
        let (pkts, stats) = RecoveringReader::resume(&buf, bogus as u64, Some(1_000))
            .unwrap()
            .read_all();
        assert!(!pkts.is_empty());
        assert!(stats.malformed_records > 0 || stats.bytes_skipped > 0);
        // Everything delivered is a genuine tail record, in order.
        assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Offsets beyond the buffer clamp to EOF (stale checkpoint against
        // a shorter file): iteration ends cleanly.
        let (none, _) = RecoveringReader::resume(&buf, u64::MAX, None)
            .unwrap()
            .read_all();
        assert!(none.is_empty());
    }

    #[test]
    fn stats_display_and_absorb() {
        let mut a = IngestStats {
            records: 5,
            malformed_records: 1,
            ..Default::default()
        };
        let b = IngestStats {
            records: 3,
            truncated_tail: true,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.records, 8);
        assert!(a.truncated_tail);
        assert_eq!(a.damage_events(), 2);
        let s = a.to_string();
        assert!(s.contains("malformed"), "{s}");
        assert!(IngestStats::default().to_string().contains("clean"));
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_terminate() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let n = rng.random_range(0usize..400);
            let mut bytes: Vec<u8> = (0..n).map(|_| rng.random::<u8>()).collect();
            // Half the time, graft a valid global header so iteration runs.
            if rng.random_bool(0.5) && bytes.len() >= 24 {
                bytes[0..4].copy_from_slice(&crate::format::MAGIC_USEC.to_le_bytes());
                bytes[20..24].copy_from_slice(&crate::LINKTYPE_ETHERNET.to_le_bytes());
            }
            if let Ok(r) = RecoveringReader::new(&bytes) {
                let (_, stats) = r.read_all();
                let _ = stats.damage_events();
            }
        }
    }
}
