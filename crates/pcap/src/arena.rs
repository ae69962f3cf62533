//! Packet arena: the zero-copy staging buffer behind trace generation.
//!
//! The generator used to materialize every packet as its own
//! `TimedPacket { ts, frame: Vec<u8> }`, millions of small heap
//! allocations per trace that dominated generation wall time. A
//! [`PacketArena`] instead stores all frame bytes back-to-back in one
//! growing buffer and represents each packet as a `(ts, offset, len)`
//! record. Sessions append frames via [`PacketArena::frame_buf`] +
//! [`PacketArena::commit`]; the trace assembly then orders records with
//! [`PacketArena::sort_records`] and materializes the surviving
//! post-[`Tap`](crate::Tap) packets in one pass.
//!
//! The arena knows the capture's snaplen ([`PacketArena::set_snaplen`])
//! and stores only what the tap will keep: writers stop at
//! [`PacketArena::snaplen`] bytes and a record's captured length is
//! always `min(len, snaplen)`, so a header-only trace (snaplen 68)
//! occupies 68 bytes per packet however long its frames were on the wire.
//!
//! The arena also owns the monitoring-window cutoff that used to be a
//! post-hoc `retain`: [`PacketArena::admit`] rejects packets timestamped
//! at or past the window limit *before* their bytes are built, while
//! still tallying them (for [`Clip::Counted`] sites) so logical
//! emission counts match the old emit-then-retain pipeline.

use crate::{Tap, TimedPacket};
use ent_wire::Timestamp;

/// How an out-of-window packet at an emission site is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clip {
    /// Tally the packet as logically emitted (the legacy pipeline pushed
    /// it and a later `retain` removed it): it still appears in the
    /// `gen_synth` observability counts.
    Counted,
    /// Drop silently (the legacy site filtered these packets before they
    /// ever reached the trace buffer).
    Silent,
}

/// One staged packet: timestamp, where the frame's stored bytes start in
/// the byte buffer, and its wire length. The stored (= captured) length
/// is not a field: it is `min(len, snaplen)` for the arena's snaplen (see
/// [`PacketArena::frame`]), which keeps the record at 24 bytes through
/// the sort. `label` is the ground-truth tag active at commit time (see
/// [`PacketArena::set_label`]); it rides with the record through
/// [`PacketArena::sort_records`] and [`PacketArena::apply_tap`] but
/// never enters the frame bytes.
#[derive(Debug, Clone, Copy)]
struct Rec {
    ts: Timestamp,
    off: u64,
    len: u32,
    label: u32,
}

/// Arena of trace packets: one contiguous byte buffer plus per-packet
/// `(ts, offset, len)` records.
#[derive(Debug, Clone)]
pub struct PacketArena {
    buf: Vec<u8>,
    recs: Vec<Rec>,
    /// Monitoring-window limit: packets with `ts >= limit` are refused.
    limit: Timestamp,
    /// Capture snaplen: no record stores more than this many frame bytes.
    snaplen: usize,
    /// Start of the frame currently being built in `buf`.
    watermark: usize,
    /// Wire bytes of all committed records.
    wire_bytes: u64,
    /// Out-of-window packets tallied by [`Clip::Counted`] admissions.
    ghost_packets: u64,
    /// Wire bytes of those tallied out-of-window packets.
    ghost_bytes: u64,
    /// Ground-truth label stamped onto subsequently committed records.
    cur_label: u32,
}

impl PacketArena {
    /// An arena admitting packets strictly before `limit`, storing full
    /// frames (no snaplen).
    pub fn new(limit: Timestamp) -> PacketArena {
        PacketArena {
            buf: Vec::new(),
            recs: Vec::new(),
            limit,
            snaplen: usize::MAX,
            watermark: 0,
            wire_bytes: 0,
            ghost_packets: 0,
            ghost_bytes: 0,
            cur_label: 0,
        }
    }

    /// An arena with no window limit and no snaplen (admits and stores
    /// everything).
    pub fn unbounded() -> PacketArena {
        PacketArena::new(Timestamp::from_micros(u64::MAX))
    }

    /// Change the monitoring-window limit (for arena reuse across traces:
    /// [`PacketArena::clear`] keeps the old limit).
    pub fn set_limit(&mut self, limit: Timestamp) {
        self.limit = limit;
    }

    /// Set the capture snaplen: frames committed from now on store at most
    /// `snaplen` bytes ([`PacketArena::clear`] keeps it, like the window
    /// limit). Records already committed were stored under the old value,
    /// so with any present the snaplen can only go down.
    pub fn set_snaplen(&mut self, snaplen: usize) {
        self.snaplen = if self.recs.is_empty() {
            snaplen
        } else {
            self.snaplen.min(snaplen)
        };
    }

    /// The capture snaplen: how many bytes of a frame a writer needs to
    /// append before [`PacketArena::commit`].
    pub fn snaplen(&self) -> usize {
        self.snaplen
    }

    /// Set the ground-truth label stamped onto every record committed
    /// from now on. Label `0` (the default) means unlabeled/benign;
    /// scenario packs use nonzero tags for attack-class traffic. The
    /// label lives on the record, not in the frame bytes, so setting it
    /// never changes emitted bytes or RNG draw order.
    pub fn set_label(&mut self, label: u32) {
        self.cur_label = label;
    }

    /// The ground-truth label currently being stamped onto commits.
    pub fn current_label(&self) -> u32 {
        self.cur_label
    }

    /// Should a packet at `ts` be built at all? `false` means skip frame
    /// construction entirely; `wire_len` is what the frame *would* have
    /// occupied on the wire, tallied for [`Clip::Counted`] sites so
    /// logical emission counts match the legacy emit-then-retain flow.
    pub fn admit(&mut self, ts: Timestamp, clip: Clip, wire_len: u64) -> bool {
        if ts < self.limit {
            return true;
        }
        if clip == Clip::Counted {
            self.ghost_packets += 1;
            self.ghost_bytes += wire_len;
        }
        false
    }

    /// The byte buffer, positioned for appending one frame. Callers
    /// extend it (e.g. via `ent_wire::build::tcp_frame_split_into` with
    /// [`PacketArena::snaplen`] as the limit) then call
    /// [`PacketArena::commit`] with the timestamp and wire length.
    pub fn frame_buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Record the bytes appended since the last commit as one packet of
    /// `wire_len` bytes on the wire. The writer must have appended at
    /// least the first `min(wire_len, snaplen)` frame bytes; anything
    /// beyond that is cut off here, so a writer that ignores the snaplen
    /// costs time but never changes what is stored.
    pub fn commit(&mut self, ts: Timestamp, wire_len: usize) {
        let off = self.watermark;
        let end = off + wire_len.min(self.snaplen);
        debug_assert!(
            self.buf.len() >= end,
            "commit of {wire_len} wire bytes over {} appended",
            self.buf.len().saturating_sub(off)
        );
        self.buf.truncate(end);
        self.watermark = self.buf.len();
        self.wire_bytes += wire_len as u64;
        self.recs.push(Rec {
            ts,
            off: off as u64,
            len: wire_len as u32,
            label: self.cur_label,
        });
    }

    /// Convenience: admit + append a prebuilt frame (up to the snaplen) +
    /// commit.
    pub fn push_frame(&mut self, ts: Timestamp, clip: Clip, frame: &[u8]) {
        if !self.admit(ts, clip, frame.len() as u64) {
            return;
        }
        self.buf
            .extend_from_slice(frame.get(..self.snaplen).unwrap_or(frame));
        self.commit(ts, frame.len());
    }

    /// Committed (in-window) packets.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True if no packets were committed.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Logical packets emitted: committed plus counted out-of-window.
    pub fn logical_len(&self) -> u64 {
        self.recs.len() as u64 + self.ghost_packets
    }

    /// Logical wire bytes emitted (same tail included).
    pub fn logical_wire_bytes(&self) -> u64 {
        self.wire_bytes + self.ghost_bytes
    }

    /// Order records by timestamp, equal timestamps staying in emission
    /// order. The key is the timestamp alone: records are committed in
    /// ascending `off`, so the *stable* sort's tie-break already is the
    /// emission offset, and a `(ts, off)` key would only make every
    /// compare two words wide. Stability is deliberate twice over — the
    /// record list is a concatenation of per-session ascending runs, which
    /// merge sort detects and exploits; pattern-defeating quicksort
    /// measures ~2x slower on this shape.
    pub fn sort_records(&mut self) {
        self.recs.sort_by_key(|r| r.ts);
    }

    /// Frame bytes held in the byte buffer: at most `snaplen` per record.
    pub fn stored_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Wire bytes of the committed (in-window) records. After
    /// [`PacketArena::apply_tap`] this covers only the records the tap
    /// kept — exactly the wire volume of a materialized trace.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Run every record through a capture tap *in place*: injected drops
    /// remove the record, and a tap snaplen below the arena's lowers the
    /// arena's (the frames were written at the arena's snaplen, so a
    /// tap at that snaplen or above has nothing left to clamp). No frame
    /// bytes move. Returns the total captured (post-snaplen) bytes.
    /// Call after [`PacketArena::sort_records`] so the tap's periodic
    /// drop counter walks the trace in time order.
    pub fn apply_tap(&mut self, tap: &mut Tap) -> u64 {
        self.snaplen = self.snaplen.min(tap.snaplen());
        let snaplen = self.snaplen;
        let mut captured = 0u64;
        let mut dropped_wire = 0u64;
        self.recs.retain(|r| {
            let kept = tap.admit(r.len as usize).is_some();
            if kept {
                captured += (r.len as usize).min(snaplen) as u64;
            } else {
                dropped_wire += r.len as u64;
            }
            kept
        });
        self.wire_bytes -= dropped_wire;
        captured
    }

    /// The captured bytes of one record: `min(len, snaplen)` bytes from
    /// its offset. This is the only place a record becomes a slice, and
    /// it is clamped to the buffer: frames sit back to back, so a slice
    /// cut longer than what was stored would not fail, it would run on
    /// into the next frame's bytes.
    fn frame(&self, r: &Rec) -> &[u8] {
        let len = (r.len as usize).min(self.snaplen);
        let stored = self.buf.get(r.off as usize..).unwrap_or(&[]);
        debug_assert!(
            stored.len() >= len,
            "record at {} does not resolve inside the byte buffer",
            r.off
        );
        stored.get(..len).unwrap_or(stored)
    }

    /// Borrowed views of the captured packets in record order:
    /// `(timestamp, captured frame bytes, original wire length)`.
    pub fn captured_frames(&self) -> impl Iterator<Item = (Timestamp, &[u8], u32)> + '_ {
        self.recs.iter().map(|r| (r.ts, self.frame(r), r.len))
    }

    /// Like [`PacketArena::captured_frames`] but with each record's
    /// ground-truth label appended:
    /// `(timestamp, captured frame bytes, original wire length, label)`.
    pub fn labeled_frames(&self) -> impl Iterator<Item = (Timestamp, &[u8], u32, u32)> + '_ {
        self.recs
            .iter()
            .map(|r| (r.ts, self.frame(r), r.len, r.label))
    }

    /// Histogram of record labels in ascending label order. The counts
    /// sum to [`PacketArena::len`]; conservation through sort/tap is
    /// what the scenario-pack property tests pin.
    pub fn label_counts(&self) -> Vec<(u32, u64)> {
        let mut counts = std::collections::BTreeMap::new();
        for r in &self.recs {
            *counts.entry(r.label).or_insert(0u64) += 1;
        }
        counts.into_iter().collect()
    }

    /// Materialize the captured packets (post-[`PacketArena::apply_tap`])
    /// as owned [`TimedPacket`]s, one bounded copy per packet.
    pub fn captured_packets(&self) -> Vec<TimedPacket> {
        self.captured_frames()
            .map(|(ts, frame, orig_len)| TimedPacket {
                ts,
                frame: frame.to_vec(),
                orig_len,
            })
            .collect()
    }

    /// Materialize the packets in record order through a capture tap
    /// (snaplen clamp + injected drops), one bounded copy per packet. The
    /// arena is not changed; a tap snaplen above the arena's yields what
    /// the arena stored.
    pub fn capture(&self, tap: &mut Tap) -> Vec<TimedPacket> {
        let mut out = Vec::with_capacity(self.recs.len());
        for r in &self.recs {
            let Some(cap) = tap.admit(r.len as usize) else {
                continue;
            };
            let stored = self.frame(r);
            out.push(TimedPacket {
                ts: r.ts,
                frame: stored.get(..cap).unwrap_or(stored).to_vec(),
                orig_len: r.len,
            });
        }
        out
    }

    /// Materialize every packet in record order as stored (no tap).
    pub fn to_packets(&self) -> Vec<TimedPacket> {
        let mut tap = Tap::new(usize::MAX);
        self.capture(&mut tap)
    }

    /// Drop all packets and bytes, keeping allocated capacity (and the
    /// window limit and snaplen) for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.recs.clear();
        self.watermark = 0;
        self.wire_bytes = 0;
        self.ghost_packets = 0;
        self.ghost_bytes = 0;
        self.cur_label = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    #[test]
    fn commit_records_spans_and_counts() {
        let mut a = PacketArena::unbounded();
        a.frame_buf().extend_from_slice(&[1, 2, 3]);
        a.commit(ts(5), 3);
        a.frame_buf().extend_from_slice(&[4, 5]);
        a.commit(ts(2), 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.logical_len(), 2);
        assert_eq!(a.logical_wire_bytes(), 5);
        let pkts = a.to_packets();
        assert_eq!(pkts[0].frame, vec![1, 2, 3]);
        assert_eq!(pkts[0].ts, ts(5));
        assert_eq!(pkts[1].frame, vec![4, 5]);
    }

    #[test]
    fn sort_orders_by_ts_then_emission() {
        let mut a = PacketArena::unbounded();
        for (t, b) in [(9u64, 0u8), (3, 1), (9, 2), (1, 3)] {
            a.frame_buf().push(b);
            a.commit(ts(t), 1);
        }
        a.sort_records();
        let order: Vec<u8> = a.to_packets().iter().map(|p| p.frame[0]).collect();
        // Equal ts=9 packets keep emission order (0 before 2): the sort is
        // stable and its key is `ts` alone, so this is the whole tie-break.
        assert_eq!(order, vec![3, 1, 0, 2]);
    }

    #[test]
    fn window_limit_counts_or_silences_ghosts() {
        let mut a = PacketArena::new(ts(100));
        assert!(a.admit(ts(99), Clip::Counted, 60));
        a.frame_buf().extend_from_slice(&[0; 60]);
        a.commit(ts(99), 60);
        assert!(!a.admit(ts(100), Clip::Counted, 70));
        assert!(!a.admit(ts(500), Clip::Silent, 80));
        assert_eq!(a.len(), 1);
        assert_eq!(a.logical_len(), 2, "counted ghost included");
        assert_eq!(a.logical_wire_bytes(), 130, "ghost bytes included");
    }

    #[test]
    fn capture_applies_snaplen_and_drops() {
        let mut a = PacketArena::unbounded();
        for i in 0..10u8 {
            a.frame_buf().extend_from_slice(&[i; 100]);
            a.commit(ts(i as u64), 100);
        }
        let mut tap = Tap::new(68).with_drop_period(5);
        let pkts = a.capture(&mut tap);
        assert_eq!(pkts.len(), 8, "every 5th packet dropped");
        assert!(pkts.iter().all(|p| p.frame.len() == 68 && p.orig_len == 100));
        assert_eq!(tap.dropped(), 2);
    }

    #[test]
    fn apply_tap_clamps_in_place_and_drops() {
        let mut a = PacketArena::unbounded();
        for i in 0..10u8 {
            a.frame_buf().extend_from_slice(&[i; 100]);
            a.commit(ts(i as u64), 100);
        }
        let mut tap = Tap::new(68).with_drop_period(5);
        let captured = a.apply_tap(&mut tap);
        assert_eq!(a.len(), 8, "every 5th packet dropped");
        assert_eq!(captured, 8 * 68);
        assert_eq!(a.wire_bytes(), 8 * 100, "dropped wire bytes removed");
        let views: Vec<_> = a.captured_frames().collect();
        assert_eq!(views.len(), 8);
        assert!(views.iter().all(|(_, f, orig)| f.len() == 68 && *orig == 100));
        // Materialized form agrees with the borrowed views.
        let pkts = a.captured_packets();
        assert_eq!(pkts.len(), 8);
        assert!(pkts.iter().all(|p| p.frame.len() == 68 && p.orig_len == 100));
    }

    #[test]
    fn snaplen_bounds_what_is_stored_and_every_view_of_it() {
        let mut a = PacketArena::unbounded();
        a.set_snaplen(68);
        // Frame i is [i; len]: a view that ran into the next frame's bytes
        // would show a second value.
        let lens = [100usize, 40, 68, 1500, 69];
        for (i, &len) in lens.iter().enumerate() {
            a.push_frame(ts(i as u64), Clip::Counted, &vec![i as u8; len]);
        }
        // A writer that ignores the snaplen is cut off at commit.
        a.frame_buf().extend_from_slice(&[9; 300]);
        a.commit(ts(9), 300);
        let stored: usize = lens.iter().map(|&l| l.min(68)).sum::<usize>() + 68;
        assert_eq!(a.stored_bytes(), stored);
        assert_eq!(a.wire_bytes(), lens.iter().sum::<usize>() as u64 + 300, "wire stays logical");
        let same_byte = |f: &[u8]| f.iter().all(|&b| b == f[0]);
        for (_, frame, orig) in a.captured_frames() {
            assert_eq!(frame.len(), (orig as usize).min(68));
            assert!(same_byte(frame));
        }
        // A tap the arena never saw, wider than what was stored, and the
        // tap-less materialization both stop at the stored bytes.
        for pkts in [a.capture(&mut Tap::new(1500)), a.to_packets()] {
            assert_eq!(pkts.len(), 6);
            for p in &pkts {
                assert_eq!(p.frame.len(), (p.orig_len as usize).min(68));
                assert!(same_byte(&p.frame));
            }
        }
        // With records present the snaplen only goes down: raising it
        // would cut slices past the stored bytes.
        a.set_snaplen(1500);
        assert_eq!(a.snaplen(), 68);
        // A narrower tap lowers it, and the views follow.
        let captured = a.apply_tap(&mut Tap::new(50));
        assert_eq!(a.snaplen(), 50);
        assert_eq!(captured, 40 + 5 * 50);
        assert!(a.captured_frames().all(|(_, f, _)| f.len() <= 50 && same_byte(f)));
        // clear keeps the snaplen; an empty arena may raise it again.
        a.clear();
        assert_eq!(a.snaplen(), 50);
        a.set_snaplen(usize::MAX);
        a.push_frame(ts(0), Clip::Counted, &[7; 200]);
        assert_eq!(a.to_packets()[0].frame.len(), 200);
    }

    #[test]
    fn labels_stamp_at_commit_and_reset_on_clear() {
        let mut a = PacketArena::unbounded();
        a.push_frame(ts(1), Clip::Counted, &[1; 4]);
        a.set_label(7);
        assert_eq!(a.current_label(), 7);
        a.push_frame(ts(2), Clip::Counted, &[2; 4]);
        a.frame_buf().extend_from_slice(&[3; 4]);
        a.commit(ts(3), 4);
        a.set_label(0);
        a.push_frame(ts(4), Clip::Counted, &[4; 4]);
        let labels: Vec<u32> = a.labeled_frames().map(|(_, _, _, l)| l).collect();
        assert_eq!(labels, vec![0, 7, 7, 0]);
        assert_eq!(a.label_counts(), vec![(0, 2), (7, 2)]);
        a.set_label(9);
        a.clear();
        a.push_frame(ts(1), Clip::Counted, &[5; 4]);
        assert_eq!(a.label_counts(), vec![(0, 1)], "clear resets the label");
    }

    #[test]
    fn labels_ride_through_sort_and_tap() {
        let mut a = PacketArena::unbounded();
        // Frame byte i encodes the record's label so identity survives
        // reordering: record i carries label (i % 3).
        for i in 0..30u8 {
            a.set_label(u32::from(i % 3));
            // Descending timestamps force a full reorder.
            a.push_frame(ts(1_000 - u64::from(i)), Clip::Counted, &[i; 90]);
        }
        a.sort_records();
        for (_, frame, _, label) in a.labeled_frames() {
            assert_eq!(label, u32::from(frame[0] % 3), "label moved with its record");
        }
        assert_eq!(a.label_counts(), vec![(0, 10), (1, 10), (2, 10)]);
        let mut tap = Tap::new(68).with_drop_period(5);
        a.apply_tap(&mut tap);
        assert_eq!(a.len(), 24);
        let total: u64 = a.label_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 24, "no orphaned or duplicated labels after tap");
        for (_, frame, _, label) in a.labeled_frames() {
            assert_eq!(label, u32::from(frame[0] % 3), "snaplen clamp keeps labels");
        }
    }

    #[test]
    fn push_frame_roundtrip_and_clear() {
        let mut a = PacketArena::new(ts(10));
        a.push_frame(ts(1), Clip::Counted, &[7; 9]);
        a.push_frame(ts(50), Clip::Counted, &[8; 4]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.logical_len(), 2);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.logical_len(), 0);
        assert_eq!(a.logical_wire_bytes(), 0);
        // Reusable after clear, same limit.
        a.push_frame(ts(2), Clip::Counted, &[9; 3]);
        assert_eq!(a.to_packets()[0].frame, vec![9, 9, 9]);
    }
}
