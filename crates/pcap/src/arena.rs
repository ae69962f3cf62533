//! Packet arena: the zero-copy staging buffer behind trace generation.
//!
//! The generator used to materialize every packet as its own
//! `TimedPacket { ts, frame: Vec<u8> }`, millions of small heap
//! allocations per trace that dominated generation wall time. A
//! [`PacketArena`] instead stores frames back-to-back in one growing byte
//! store and represents each packet as a 24-byte record. Sessions append
//! frames through the arena's [`FrameSink`] (or
//! [`PacketArena::frame_buf`]) + [`PacketArena::commit`]; the trace
//! assembly then orders records with [`PacketArena::sort_records`] and
//! drops the [`Tap`](crate::Tap)'s losses in place.
//!
//! The arena stores only what cannot be recomputed. A generated frame is
//! a header image and a protocol head, then a run of one filler byte up
//! to its captured length. The byte store keeps the non-filler prefix
//! (header image ∥ protocol head, cut at the snaplen, plus a captured
//! filler run of at most 64 bytes); the record keeps the filler byte and
//! the prefix length. The captured length is always
//! `min(len, snaplen)` ([`PacketArena::set_snaplen`]), so the filler
//! length is derived, not stored. A full-payload trace thus occupies its
//! headers, not its 1500-byte frames.
//!
//! Frames become bytes in one place, [`write_frame`]: prefix copy plus
//! filler memset. Every product reader goes through [`PacketArena::stream`], which
//! writes each record that ends in filler into one reused scratch frame as
//! it is read (and lends the rest straight from the byte store), so no
//! buffer ever holds more than one frame's filler:
//! [`PacketArena::write_pcap`] writes a capture file off it.
//!
//! The arena also owns the monitoring-window cutoff that used to be a
//! post-hoc `retain`: [`PacketArena::admit`] rejects packets timestamped
//! at or past the window limit *before* their bytes are built, while
//! still tallying them (for [`Clip::Counted`] sites) so logical
//! emission counts match the old emit-then-retain pipeline.

use crate::{PcapWriter, Tap, TimedPacket};
use ent_wire::build::FrameSink;
use ent_wire::Timestamp;
use std::io::Write;
use std::sync::OnceLock;

/// The largest snaplen an arena captures at, the classic pcap maximum: a
/// stored prefix length always fits the record's `u16`.
const MAX_SNAPLEN: usize = u16::MAX as usize;

/// The longest captured filler run [`PacketArena::commit`] stores like the
/// prefix, one cache line: writing it then costs what noting it does, and
/// its frame (every header-only frame) is lent from the store on every
/// read instead of written out again.
const STORED_FILL: usize = 64;

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

/// One staged packet: timestamp, where its stored prefix starts in the
/// byte store, its wire length, the prefix length (`head`) and the filler
/// byte that runs from the prefix to the captured length `min(len,
/// snaplen)` (see [`write_frame`]). `label` is the ground-truth tag
/// active at commit time (see [`PacketArena::set_label`]); it rides with
/// the record through [`PacketArena::sort_records`] and
/// [`PacketArena::apply_tap`] but never enters the frame bytes.
#[derive(Debug, Clone, Copy)]
struct Rec {
    ts: Timestamp,
    off: u32,
    len: u32,
    label: u32,
    head: u16,
    fill: u8,
}

// The sort moves records, not frames: their size is its cost.
const _: () = assert!(std::mem::size_of::<Rec>() == 24);

impl Rec {
    /// Captured length under `snaplen`.
    fn captured(&self, snaplen: usize) -> usize {
        (self.len as usize).min(snaplen)
    }
}

/// The one frame writer: append record `r`'s captured frame to `out` —
/// its stored prefix (cut at the captured length), then its filler run.
/// The streamed frames (and the benchmark-only materialisation) go
/// through it.
fn write_frame(store: &[u8], snaplen: usize, r: &Rec, out: &mut Vec<u8>) {
    let captured = r.captured(snaplen);
    let start = r.off as usize;
    let head = usize::from(r.head).min(captured);
    let prefix = store.get(start..start.saturating_add(head)).unwrap_or(&[]);
    debug_assert_eq!(prefix.len(), head, "record at {start} runs past the byte store");
    out.extend_from_slice(prefix);
    out.resize(out.len() + (captured - prefix.len()), r.fill);
}

/// Record `r`'s captured frame when it ends inside its stored prefix —
/// every header-only frame, every bare ACK — so there is no filler to
/// write: a slice of the byte store. `None` means the frame ends in filler
/// and has to be written out ([`write_frame`]).
fn lent_frame<'s>(store: &'s [u8], snaplen: usize, r: &Rec) -> Option<&'s [u8]> {
    let captured = r.captured(snaplen);
    (usize::from(r.head) >= captured).then(|| {
        let start = r.off as usize;
        store.get(start..start.saturating_add(captured)).unwrap_or(&[])
    })
}

/// Arena of trace packets: one contiguous store of frame prefixes plus
/// per-packet records.
#[derive(Debug, Clone)]
pub struct PacketArena {
    buf: Vec<u8>,
    recs: Vec<Rec>,
    /// Monitoring-window limit: packets with `ts >= limit` are refused.
    limit: Timestamp,
    /// Capture snaplen: no record captures more than this many bytes.
    snaplen: usize,
    /// Start of the frame currently being built in `buf`.
    watermark: usize,
    /// Filler byte and run length the frame being built ends with, as its
    /// writer announced them ([`FrameSink::fill`]).
    pending_fill: (u8, usize),
    /// Wire bytes of all committed records.
    wire_bytes: u64,
    /// Out-of-window packets tallied by [`Clip::Counted`] admissions.
    ghost_packets: u64,
    /// Wire bytes of those tallied out-of-window packets.
    ghost_bytes: u64,
    /// Ground-truth label stamped onto subsequently committed records.
    cur_label: u32,
    /// The radix sort's second record buffer, kept for the next sort.
    sort_scratch: Vec<Rec>,
    /// The one frame [`PacketArena::stream`] writes each record into.
    frame_scratch: Vec<u8>,
    /// The benchmark-only materialisation behind
    /// [`PacketArena::captured_frames`]: every captured frame that ends in
    /// filler, back to back in record order, written on the first view
    /// that needs one and dropped by anything that changes a record.
    frames: OnceLock<Vec<u8>>,
}

impl PacketArena {
    /// An arena admitting packets strictly before `limit`, capturing up to
    /// 65 535 bytes a frame.
    pub fn new(limit: Timestamp) -> PacketArena {
        PacketArena {
            buf: Vec::new(),
            recs: Vec::new(),
            limit,
            snaplen: MAX_SNAPLEN,
            watermark: 0,
            pending_fill: (0, 0),
            wire_bytes: 0,
            ghost_packets: 0,
            ghost_bytes: 0,
            cur_label: 0,
            sort_scratch: Vec::new(),
            frame_scratch: Vec::new(),
            frames: OnceLock::new(),
        }
    }

    /// An arena with no window limit, capturing up to 65 535 bytes a frame
    /// (admits everything and stores whole frames).
    pub fn unbounded() -> PacketArena {
        PacketArena::new(Timestamp::from_micros(u64::MAX))
    }

    /// Change the monitoring-window limit (for arena reuse across traces:
    /// [`PacketArena::clear`] keeps the old limit).
    pub fn set_limit(&mut self, limit: Timestamp) {
        self.limit = limit;
    }

    /// Set the capture snaplen, at most 65 535: frames committed from now
    /// on capture at most `snaplen` bytes ([`PacketArena::clear`] keeps
    /// it, like the window limit). Records already committed were stored
    /// under the old value, so with any present the snaplen can only go
    /// down.
    pub fn set_snaplen(&mut self, snaplen: usize) {
        let snaplen = snaplen.min(MAX_SNAPLEN);
        self.snaplen = if self.recs.is_empty() {
            snaplen
        } else {
            self.snaplen.min(snaplen)
        };
        self.frames = OnceLock::new();
    }

    /// The capture snaplen: how many bytes of a frame a writer needs to
    /// produce before [`PacketArena::commit`].
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

    /// The byte store, positioned for appending one whole frame, for
    /// writers without a filler run (ICMP, raw IP, prebuilt frames).
    /// Callers extend it, then call [`PacketArena::commit`] with the
    /// timestamp and wire length. Split-payload frames go through the
    /// arena's [`FrameSink`] instead, which keeps the filler symbolic.
    pub fn frame_buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Record the bytes appended since the last commit, plus the filler
    /// run their writer announced, as one packet of `wire_len` bytes on
    /// the wire. Together they must cover the first `min(wire_len,
    /// snaplen)` frame bytes; appended bytes beyond that are cut off
    /// here, so a writer that ignores the snaplen costs time but never
    /// changes what is stored. A captured filler run of at most 64 bytes
    /// is stored with the prefix.
    pub fn commit(&mut self, ts: Timestamp, wire_len: usize) {
        let start = self.watermark;
        let captured = wire_len.min(self.snaplen);
        let appended = (self.buf.len() - start).min(captured);
        let (fill, fill_len) = std::mem::take(&mut self.pending_fill);
        debug_assert!(
            appended + fill_len >= captured,
            "commit of {wire_len} wire bytes over {appended} appended and {fill_len} filler"
        );
        let head = if captured - appended <= STORED_FILL {
            captured
        } else {
            appended
        };
        let (Ok(off), Ok(head16)) = (u32::try_from(start), u16::try_from(head)) else {
            // The store addresses 4 GiB of prefixes: a frame past that is
            // tallied like an out-of-window one, never stored at a
            // wrapped offset.
            self.buf.truncate(start);
            self.ghost_packets += 1;
            self.ghost_bytes += wire_len as u64;
            return;
        };
        self.buf.resize(start + head, fill);
        self.watermark = self.buf.len();
        self.wire_bytes += wire_len as u64;
        self.recs.push(Rec {
            ts,
            off,
            len: wire_len as u32,
            label: self.cur_label,
            head: head16,
            fill,
        });
        self.frames = OnceLock::new();
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
    /// order: a stable LSD radix sort over the digits of the microsecond
    /// key that actually vary, scattering between the record list and a
    /// scratch list the arena keeps, so a warm arena sorts without
    /// allocating.
    pub fn sort_records(&mut self) {
        radix_sort_by_ts(&mut self.recs, &mut self.sort_scratch);
        self.frames = OnceLock::new();
    }

    /// Prefix bytes held in the byte store: at most `snaplen` per record,
    /// and no filler.
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
    /// remove the record. No frame bytes move (the frames were written at
    /// the arena's snaplen). Returns the total captured (post-snaplen)
    /// bytes of the records kept. Call after [`PacketArena::sort_records`]
    /// so the tap's periodic drop counter walks the trace in time order.
    pub fn apply_tap(&mut self, tap: &mut Tap) -> u64 {
        self.frames = OnceLock::new();
        let snaplen = self.snaplen;
        let mut captured = 0u64;
        let mut dropped_wire = 0u64;
        self.recs.retain(|r| {
            let kept = tap.admit();
            if kept {
                captured += r.captured(snaplen) as u64;
            } else {
                dropped_wire += r.len as u64;
            }
            kept
        });
        self.wire_bytes -= dropped_wire;
        captured
    }

    /// The captured frames in record order, each one that ends in filler
    /// written into one reused scratch frame as it is read: the one way
    /// to read an arena, so no buffer ever holds more than one frame's
    /// filler.
    pub fn stream(&mut self) -> FrameStream<'_> {
        FrameStream {
            recs: self.recs.iter(),
            store: &self.buf,
            snaplen: self.snaplen,
            frame: &mut self.frame_scratch,
        }
    }

    /// Write the captured frames to `out` as a pcap file at the arena's
    /// snaplen, one streamed record at a time through
    /// [`PcapWriter::write_packet`]; returns `out`, flushed.
    pub fn write_pcap<W: Write>(&mut self, out: W) -> crate::Result<W> {
        // The snaplen is at most `MAX_SNAPLEN`, so it fits.
        let mut w = PcapWriter::new(out, u32::try_from(self.snaplen).unwrap_or(u32::MAX))?;
        let mut pkt = TimedPacket::new(Timestamp::ZERO, Vec::new());
        let mut frames = self.stream();
        while let Some((ts, frame, orig_len, _)) = frames.next_frame() {
            pkt.ts = ts;
            pkt.orig_len = orig_len;
            pkt.frame.clear();
            pkt.frame.extend_from_slice(frame);
            w.write_packet(&pkt)?;
        }
        w.finish()
    }

    /// Every captured frame that ends in filler, back to back in record
    /// order: materialised by the first call after a change, borrowed
    /// thereafter.
    fn materialised(&self) -> &[u8] {
        self.frames.get_or_init(|| {
            let filled = || {
                self.recs
                    .iter()
                    .filter(|r| lent_frame(&self.buf, self.snaplen, r).is_none())
            };
            let total = filled().map(|r| r.captured(self.snaplen)).sum();
            let mut out = Vec::with_capacity(total);
            for r in filled() {
                write_frame(&self.buf, self.snaplen, r, &mut out);
            }
            out
        })
    }

    /// Borrowed views of the captured packets in record order:
    /// `(timestamp, captured frame bytes, original wire length)`, through
    /// one lazy materialisation of every frame that ends in filler.
    /// `benchmark/` is the only caller, and ROADMAP item 1(h) deletes this
    /// shim; everything else reads [`PacketArena::stream`].
    #[doc(hidden)]
    pub fn captured_frames(&self) -> impl Iterator<Item = (Timestamp, &[u8], u32)> + '_ {
        let mut at = 0usize;
        self.recs.iter().map(move |r| {
            let frame = lent_frame(&self.buf, self.snaplen, r).unwrap_or_else(|| {
                let end = at + r.captured(self.snaplen);
                let frame = self.materialised().get(at..end).unwrap_or(&[]);
                at = end;
                frame
            });
            (r.ts, frame, r.len)
        })
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

    /// Drop all packets and bytes, keeping allocated capacity (and the
    /// window limit and snaplen) for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.recs.clear();
        self.watermark = 0;
        self.pending_fill = (0, 0);
        self.wire_bytes = 0;
        self.ghost_packets = 0;
        self.ghost_bytes = 0;
        self.cur_label = 0;
        self.frames = OnceLock::new();
    }
}

/// The arena as a frame writer's destination: literal bytes land in the
/// byte store, the filler run that ends the frame is only noted, and
/// [`PacketArena::commit`] stores its byte on the record (or, for a
/// captured run of at most 64 bytes, the run itself in the store).
impl FrameSink for PacketArena {
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn fill(&mut self, byte: u8, n: usize) {
        self.pending_fill = (byte, n);
    }
}

/// The captured frames of an arena in record order, each written into the
/// arena's one reused frame buffer as it is read ([`PacketArena::stream`]).
#[derive(Debug)]
pub struct FrameStream<'a> {
    recs: std::slice::Iter<'a, Rec>,
    store: &'a [u8],
    snaplen: usize,
    frame: &'a mut Vec<u8>,
}

impl FrameStream<'_> {
    /// The next record as `(timestamp, captured frame bytes, original wire
    /// length, ground-truth label)`; the bytes stay valid until the next
    /// call. A frame with no filler is lent from the byte store
    /// ([`lent_frame`]): on D1/D2, copying it into the frame buffer cost
    /// the study's ingest ≈18 %.
    #[inline]
    #[deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]
    pub fn next_frame(&mut self) -> Option<(Timestamp, &[u8], u32, u32)> {
        let r = self.recs.next()?;
        if let Some(frame) = lent_frame(self.store, self.snaplen, r) {
            return Some((r.ts, frame, r.len, r.label));
        }
        self.frame.clear();
        write_frame(self.store, self.snaplen, r, self.frame);
        Some((r.ts, self.frame.as_slice(), r.len, r.label))
    }
}

/// Bits per radix digit: 256 counters per digit stay in L1 beside the
/// records streaming through.
const DIGIT_BITS: u32 = 8;
/// Buckets per digit.
const BUCKETS: usize = 1 << DIGIT_BITS;
/// Digits in a 64-bit key.
const DIGITS: usize = (u64::BITS / DIGIT_BITS) as usize;

/// The digit of `key` at bit offset `shift`.
fn bucket(key: u64, shift: u32) -> usize {
    ((key >> shift) as usize) & (BUCKETS - 1)
}

/// Stable LSD radix sort of `recs` by timestamp. Only digits in which some
/// timestamp differs from the first get a pass (a trace an hour long
/// varies in four of eight); one counting pass histograms all of them,
/// then each scatters `recs` into `scratch` in order and the two swap.
/// Every pass is stable, so equal timestamps keep their emission order.
fn radix_sort_by_ts(recs: &mut Vec<Rec>, scratch: &mut Vec<Rec>) {
    let Some(&first) = recs.first() else {
        return;
    };
    let base = first.ts.micros();
    let varying = recs.iter().fold(0, |acc, r| acc | (r.ts.micros() ^ base));
    let mut shifts = [0u32; DIGITS];
    let mut active = 0;
    for shift in (0..u64::BITS).step_by(DIGIT_BITS as usize) {
        if bucket(varying, shift) != 0 {
            if let Some(slot) = shifts.get_mut(active) {
                *slot = shift;
                active += 1;
            }
        }
    }
    let shifts = shifts.get(..active).unwrap_or(&[]);
    if shifts.is_empty() {
        return;
    }
    let mut counts = [[0usize; BUCKETS]; DIGITS];
    for r in recs.iter() {
        let key = r.ts.micros();
        for (&shift, hist) in shifts.iter().zip(counts.iter_mut()) {
            if let Some(c) = hist.get_mut(bucket(key, shift)) {
                *c += 1;
            }
        }
    }
    scratch.clear();
    scratch.resize(recs.len(), first);
    for (&shift, hist) in shifts.iter().zip(counts.iter_mut()) {
        // Counts become each bucket's first output position.
        let mut next = 0;
        for c in hist.iter_mut() {
            let n = *c;
            *c = next;
            next += n;
        }
        for r in recs.iter() {
            if let Some(pos) = hist.get_mut(bucket(r.ts.micros(), shift)) {
                if let Some(slot) = scratch.get_mut(*pos) {
                    *slot = *r;
                }
                *pos += 1;
            }
        }
        std::mem::swap(recs, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    /// The streamed frames, owned: `(timestamp, frame, wire length, label)`.
    fn labeled(a: &mut PacketArena) -> Vec<(Timestamp, Vec<u8>, u32, u32)> {
        let mut out = Vec::new();
        let mut frames = a.stream();
        while let Some((ts, frame, orig_len, label)) = frames.next_frame() {
            out.push((ts, frame.to_vec(), orig_len, label));
        }
        out
    }

    /// The streamed frames as owned packets.
    fn packets(a: &mut PacketArena) -> Vec<TimedPacket> {
        let packet = |(ts, frame, orig_len, _)| TimedPacket { ts, frame, orig_len };
        labeled(a).into_iter().map(packet).collect()
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
        let pkts = packets(&mut a);
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
        let order: Vec<u8> = packets(&mut a).iter().map(|p| p.frame[0]).collect();
        // Equal ts=9 packets keep emission order (0 before 2): the sort is
        // stable and its key is `ts` alone, so this is the whole tie-break.
        assert_eq!(order, vec![3, 1, 0, 2]);
    }

    /// xorshift64*: a dependency-free stream for the sort property.
    struct X(u64);

    impl X {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn radix_sort_equals_the_stable_sort_by_timestamp() {
        let mut x = X(0x9E37_79B9_7F4A_7C15);
        let mut arena = PacketArena::unbounded();
        for case in 0..60u64 {
            let n = (x.next() % 3_000) as usize + 1;
            // Heavy ties (five values), interleaved ascending runs (how
            // sessions commit), keys past 2^32, and keys just under the
            // top of the range.
            let keys: Vec<u64> = match case % 4 {
                0 => (0..n).map(|_| x.next() % 5).collect(),
                1 => {
                    let mut runs = vec![0u64; (x.next() % 40 + 1) as usize];
                    (0..n)
                        .map(|_| {
                            let i = (x.next() % runs.len() as u64) as usize;
                            runs[i] += x.next() % 1_000;
                            runs[i]
                        })
                        .collect()
                }
                2 => (0..n).map(|_| (1 << 32) + x.next() % (1 << 36)).collect(),
                _ => (0..n).map(|_| u64::MAX - 1 - x.next() % 100_000).collect(),
            };
            arena.clear();
            for (i, &k) in keys.iter().enumerate() {
                // The label and the frame carry the emission index, so a
                // broken tie or a detached frame shows.
                arena.set_label(i as u32);
                arena.push_frame(ts(k), Clip::Counted, &(i as u32).to_be_bytes());
            }
            let mut want: Vec<(u64, u32)> = keys.iter().zip(0u32..).map(|(&k, i)| (k, i)).collect();
            want.sort_by_key(|&(k, _)| k);
            arena.sort_records();
            let got: Vec<(u64, u32)> = labeled(&mut arena)
                .into_iter()
                .map(|(t, f, _, label)| {
                    assert_eq!(f, label.to_be_bytes(), "frame moved with its record");
                    (t.micros(), label)
                })
                .collect();
            assert_eq!(got, want, "case {case}: {n} keys");
        }
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
    fn apply_tap_clamps_in_place_and_drops() {
        let mut a = PacketArena::unbounded();
        for i in 0..10u8 {
            a.frame_buf().extend_from_slice(&[i; 100]);
            a.commit(ts(i as u64), 100);
        }
        // Re-captured at 68 bytes: a filled arena's snaplen goes down.
        a.set_snaplen(68);
        let captured = a.apply_tap(&mut Tap::new(5));
        assert_eq!(a.len(), 8, "every 5th packet dropped");
        assert_eq!(captured, 8 * 68);
        assert_eq!(a.wire_bytes(), 8 * 100, "dropped wire bytes removed");
        let views: Vec<_> = a.captured_frames().collect();
        assert_eq!(views.len(), 8);
        assert!(views.iter().all(|(_, f, orig)| f.len() == 68 && *orig == 100));
        // Materialized form agrees with the borrowed views.
        let pkts = packets(&mut a);
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
        // The materialization stops at the stored bytes.
        let pkts = packets(&mut a);
        assert_eq!(pkts.len(), 6);
        for p in &pkts {
            assert_eq!(p.frame.len(), (p.orig_len as usize).min(68));
            assert!(same_byte(&p.frame));
        }
        // With records present the snaplen only goes down: raising it
        // would cut slices past the stored bytes.
        a.set_snaplen(1500);
        assert_eq!(a.snaplen(), 68);
        assert_eq!(a.apply_tap(&mut Tap::new(0)), stored as u64);
        assert_eq!(packets(&mut a), pkts);
        // Lowering it cuts every view.
        a.set_snaplen(50);
        let captured = a.apply_tap(&mut Tap::new(0));
        assert_eq!(a.snaplen(), 50);
        assert_eq!(captured, 40 + 5 * 50);
        assert!(a.captured_frames().all(|(_, f, _)| f.len() <= 50 && same_byte(f)));
        // clear keeps the snaplen; an empty arena may raise it again, up
        // to the largest snaplen an arena captures at.
        a.clear();
        assert_eq!(a.snaplen(), 50);
        a.set_snaplen(usize::MAX);
        assert_eq!(a.snaplen(), MAX_SNAPLEN);
        a.push_frame(ts(0), Clip::Counted, &[7; 200]);
        assert_eq!(packets(&mut a)[0].frame.len(), 200);
    }

    #[test]
    fn the_filler_is_one_stored_byte_written_out_where_the_frame_is_read() {
        let mut a = PacketArena::unbounded();
        a.set_snaplen(200);
        // Prefix [1; 30], then 150 filler bytes: 180 bytes on the wire.
        a.put(&[1; 30]);
        a.fill(0xAB, 150);
        a.commit(ts(3), 180);
        // 400 bytes on the wire, captured at the snaplen: 30 + 170.
        a.put(&[2; 30]);
        a.fill(0xCD, 370);
        a.commit(ts(1), 400);
        // A whole frame with no filler.
        a.push_frame(ts(2), Clip::Counted, &[3; 40]);
        // A filler run of at most a cache line is stored with the prefix.
        a.put(&[4; 30]);
        a.fill(0xEF, 20);
        a.commit(ts(4), 50);
        assert_eq!(a.stored_bytes(), 30 + 30 + 40 + 50, "no long filler run is stored");
        a.sort_records();
        let frame = |b: u8, head: usize, fill: u8, n: usize| {
            let mut f = vec![b; head];
            f.resize(head + n, fill);
            f
        };
        let want = vec![
            (ts(1), frame(2, 30, 0xCD, 170), 400),
            (ts(2), frame(3, 40, 0, 0), 40),
            (ts(3), frame(1, 30, 0xAB, 150), 180),
            (ts(4), frame(4, 30, 0xEF, 20), 50),
        ];
        let materialised: Vec<_> = a.captured_frames().map(|(t, f, l)| (t, f.to_vec(), l)).collect();
        assert_eq!(materialised, want);
        let mut streamed = Vec::new();
        let mut frames = a.stream();
        while let Some((t, f, l, _)) = frames.next_frame() {
            streamed.push((t, f.to_vec(), l));
        }
        assert_eq!(streamed, want, "streamed frames equal the materialised ones");
        // A narrower snaplen cuts into the filler, then into the prefix.
        a.set_snaplen(35);
        let cut: Vec<Vec<u8>> = a.captured_frames().map(|(_, f, _)| f.to_vec()).collect();
        assert_eq!(
            cut,
            vec![frame(2, 30, 0xCD, 5), frame(3, 35, 0, 0), frame(1, 30, 0xAB, 5), frame(4, 30, 0xEF, 5)]
        );
        a.set_snaplen(20);
        assert!(a.captured_frames().all(|(_, f, _)| f.len() == 20 && f[19] == f[0]));
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
        let labels: Vec<u32> = labeled(&mut a).into_iter().map(|(_, _, _, l)| l).collect();
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
        for (_, frame, _, label) in labeled(&mut a) {
            assert_eq!(label, u32::from(frame[0] % 3), "label moved with its record");
        }
        assert_eq!(a.label_counts(), vec![(0, 10), (1, 10), (2, 10)]);
        a.set_snaplen(68);
        a.apply_tap(&mut Tap::new(5));
        assert_eq!(a.len(), 24);
        let total: u64 = a.label_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 24, "no orphaned or duplicated labels after tap");
        for (_, frame, _, label) in labeled(&mut a) {
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
        assert_eq!(packets(&mut a)[0].frame, vec![9, 9, 9]);
    }
}
