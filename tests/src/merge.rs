//! Multi-stream timestamp merge: the capture rig as a tested property.
//!
//! The paper's capture rig recorded each direction of a monitored router
//! port on its own NIC (via Shomiti taps) and merged the unidirectional
//! streams by NIC-synchronized timestamps (§2); the traces it analyses were
//! already merged. The product captures a generated trace through the
//! arena's snaplen and `Tap`'s periodic drop only, so this module is test
//! support: it reproduces that merge as a k-way stable merge, with optional
//! per-stream clock offsets modeling residual skew between NICs, and
//! `tests/capture_rig.rs` holds the analysis of a merged trace to that of
//! the directly ordered one.
//!
//! Real capture streams are not perfectly sorted: NIC interrupt coalescing
//! and driver buffering reorder nearby packets, and clock steps move
//! timestamps backwards outright. The merge therefore tolerates
//! out-of-order input: each stream is repaired through a **bounded reorder
//! window** before merging — a late packet is re-inserted if its true
//! position lies within the window, and clamped to the window floor if it
//! is older than that — with every intervention counted in [`MergeStats`].

use ent_pcap::TimedPacket;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default bounded reorder window (records) used by [`merge_streams`].
pub const DEFAULT_REORDER_WINDOW: usize = 64;

/// Tally of out-of-order repairs performed during a merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Packets re-inserted at their true position within the window.
    pub reordered: u64,
    /// Packets older than the window floor, whose timestamps were clamped
    /// forward to it (a bounded window cannot seat them exactly).
    pub clamped: u64,
}

impl MergeStats {
    /// Total input-order violations encountered.
    pub fn regressions(&self) -> u64 {
        self.reordered + self.clamped
    }
}

/// Repair an almost-sorted packet sequence in place using a bounded
/// reorder window, counting interventions into `stats`.
pub fn restore_order(packets: &mut [TimedPacket], window: usize, stats: &mut MergeStats) {
    let window = window.max(1);
    for i in 1..packets.len() {
        let (Some(prev), Some(cur)) = (packets.get(i - 1), packets.get(i)) else {
            break;
        };
        if cur.ts >= prev.ts {
            continue;
        }
        let lo = i.saturating_sub(window);
        let Some(floor_ts) = packets.get(lo).map(|p| p.ts) else {
            continue;
        };
        if cur.ts < floor_ts && lo > 0 {
            // Older than everything the window retains: clamp forward to
            // the window floor instead of teleporting arbitrarily far back.
            if let Some(p) = packets.get_mut(i) {
                p.ts = floor_ts;
            }
            stats.clamped += 1;
        } else {
            stats.reordered += 1;
        }
        let Some(ts) = packets.get(i).map(|p| p.ts) else {
            continue;
        };
        let seated = packets.get(lo..i).map_or(0, |w| w.partition_point(|p| p.ts <= ts));
        let pos = lo + seated;
        if let Some(run) = packets.get_mut(pos..=i) {
            run.rotate_right(1);
        }
    }
}

/// One unidirectional capture stream plus the clock offset (microseconds,
/// may be negative) of its NIC relative to the reference clock.
#[derive(Debug)]
pub struct Stream {
    /// Packets in capture order (must be sorted by timestamp).
    pub packets: Vec<TimedPacket>,
    /// Clock offset applied during merge: positive shifts later.
    pub clock_offset_us: i64,
}

impl Stream {
    /// A stream with a perfectly synchronized clock.
    pub fn synchronized(packets: Vec<TimedPacket>) -> Stream {
        Stream {
            packets,
            clock_offset_us: 0,
        }
    }
}

struct HeapEntry {
    ts_us: u64,
    stream: usize,
    index: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest timestamp.
        // Ties break by stream index then packet index for determinism.
        other
            .ts_us
            .cmp(&self.ts_us)
            .then(other.stream.cmp(&self.stream))
            .then(other.index.cmp(&self.index))
    }
}

fn adjusted_ts(p: &TimedPacket, offset_us: i64) -> u64 {
    if offset_us >= 0 {
        p.ts.micros().saturating_add(offset_us as u64)
    } else {
        p.ts.micros().saturating_sub(offset_us.unsigned_abs())
    }
}

/// Merge capture streams into one timestamp-ordered trace, applying each
/// stream's clock offset. Out-of-order input is tolerated via a
/// [`DEFAULT_REORDER_WINDOW`]-record repair pass per stream; use
/// [`merge_streams_with_stats`] to observe how much repair was needed.
#[deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]
pub fn merge_streams(streams: Vec<Stream>) -> Vec<TimedPacket> {
    merge_streams_with_stats(streams, DEFAULT_REORDER_WINDOW).0
}

/// [`merge_streams`] with an explicit reorder window, returning the repair
/// tally alongside the merged trace.
#[deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]
pub fn merge_streams_with_stats(
    mut streams: Vec<Stream>,
    window: usize,
) -> (Vec<TimedPacket>, MergeStats) {
    let mut stats = MergeStats::default();
    for s in &mut streams {
        restore_order(&mut s.packets, window, &mut stats);
    }
    let total: usize = streams.iter().map(|s| s.packets.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap = BinaryHeap::with_capacity(streams.len());
    for (si, s) in streams.iter().enumerate() {
        if let Some(p) = s.packets.first() {
            heap.push(HeapEntry {
                ts_us: adjusted_ts(p, s.clock_offset_us),
                stream: si,
                index: 0,
            });
        }
    }
    while let Some(e) = heap.pop() {
        let Some(s) = streams.get(e.stream) else {
            continue;
        };
        let Some(cur) = s.packets.get(e.index) else {
            continue;
        };
        let mut pkt = cur.clone();
        pkt.ts = ent_wire::Timestamp::from_micros(e.ts_us);
        out.push(pkt);
        let next = e.index.saturating_add(1);
        if let Some(np) = s.packets.get(next) {
            heap.push(HeapEntry {
                ts_us: adjusted_ts(np, s.clock_offset_us),
                stream: e.stream,
                index: next,
            });
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_wire::Timestamp;

    fn pkt(us: u64, tag: u8) -> TimedPacket {
        TimedPacket::new(Timestamp::from_micros(us), vec![tag; 14])
    }

    #[test]
    fn two_way_merge_is_ordered() {
        let a = Stream::synchronized(vec![pkt(10, 1), pkt(30, 1), pkt(50, 1)]);
        let b = Stream::synchronized(vec![pkt(20, 2), pkt(40, 2)]);
        let merged = merge_streams(vec![a, b]);
        let ts: Vec<u64> = merged.iter().map(|p| p.ts.micros()).collect();
        assert_eq!(ts, vec![10, 20, 30, 40, 50]);
        let tags: Vec<u8> = merged.iter().map(|p| p.frame[0]).collect();
        assert_eq!(tags, vec![1, 2, 1, 2, 1]);
    }

    #[test]
    fn clock_offset_applied() {
        let a = Stream {
            packets: vec![pkt(100, 1)],
            clock_offset_us: -90,
        };
        let b = Stream::synchronized(vec![pkt(50, 2)]);
        let merged = merge_streams(vec![a, b]);
        assert_eq!(merged[0].frame[0], 1); // shifted to t=10
        assert_eq!(merged[0].ts.micros(), 10);
        assert_eq!(merged[1].ts.micros(), 50);
    }

    #[test]
    fn ties_are_deterministic_by_stream_order() {
        let a = Stream::synchronized(vec![pkt(5, 1)]);
        let b = Stream::synchronized(vec![pkt(5, 2)]);
        let merged = merge_streams(vec![a, b]);
        assert_eq!(merged[0].frame[0], 1);
        assert_eq!(merged[1].frame[0], 2);
    }

    #[test]
    fn empty_and_single_stream() {
        assert!(merge_streams(vec![]).is_empty());
        let a = Stream::synchronized(vec![pkt(1, 1), pkt(2, 1)]);
        assert_eq!(merge_streams(vec![a]).len(), 2);
        let e = Stream::synchronized(vec![]);
        let b = Stream::synchronized(vec![pkt(3, 2)]);
        assert_eq!(merge_streams(vec![e, b]).len(), 1);
    }

    #[test]
    fn out_of_order_input_repaired_within_window() {
        // 30 is 20 µs late; within a 4-record window it seats exactly.
        let a = Stream::synchronized(vec![pkt(10, 1), pkt(40, 1), pkt(30, 1), pkt(50, 1)]);
        let (merged, stats) = merge_streams_with_stats(vec![a], 4);
        let ts: Vec<u64> = merged.iter().map(|p| p.ts.micros()).collect();
        assert_eq!(ts, vec![10, 30, 40, 50]);
        assert_eq!(stats.reordered, 1);
        assert_eq!(stats.clamped, 0);
    }

    #[test]
    fn regression_beyond_window_clamps_to_floor() {
        // The late packet is older than everything a 2-record window
        // retains: it cannot be seated exactly, so its timestamp clamps to
        // the window floor and the output stays sorted.
        let a = Stream::synchronized(vec![
            pkt(100, 1),
            pkt(200, 1),
            pkt(300, 1),
            pkt(400, 1),
            pkt(5, 9),
        ]);
        let (merged, stats) = merge_streams_with_stats(vec![a], 2);
        assert!(merged.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert_eq!(merged.len(), 5);
        assert_eq!(stats.clamped, 1);
        assert_eq!(stats.regressions(), 1);
        // The late packet survives, clamped into the window.
        assert!(merged.iter().any(|p| p.frame[0] == 9));
    }

    #[test]
    fn default_merge_tolerates_unsorted_streams() {
        let a = Stream::synchronized(vec![pkt(30, 1), pkt(10, 1), pkt(20, 1)]);
        let b = Stream::synchronized(vec![pkt(15, 2)]);
        let merged = merge_streams(vec![a, b]);
        assert_eq!(merged.len(), 4);
        assert!(merged.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn restore_order_is_identity_on_sorted_input() {
        let mut pkts = vec![pkt(1, 1), pkt(2, 1), pkt(3, 1)];
        let orig = pkts.clone();
        let mut stats = MergeStats::default();
        restore_order(&mut pkts, 8, &mut stats);
        assert_eq!(pkts, orig);
        assert_eq!(stats, MergeStats::default());
    }

    #[test]
    fn four_nic_merge_preserves_all_packets() {
        // Model the paper's rig: 4 NICs = 2 subnets x 2 directions.
        let streams: Vec<Stream> = (0..4)
            .map(|nic| {
                Stream {
                    packets: (0..100).map(|i| pkt(i * 40 + nic * 7, nic as u8)).collect(),
                    clock_offset_us: nic as i64 - 2,
                }
            })
            .collect();
        let merged = merge_streams(streams);
        assert_eq!(merged.len(), 400);
        assert!(merged.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
