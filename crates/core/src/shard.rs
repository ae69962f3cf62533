//! Worker lanes for the ingest session: N per-core connection-table
//! shards behind the frame loop's steering, returned in lane order for
//! the seal.
//!
//! ## Architecture
//!
//! The frame loop ([`run_frames`], on the caller's thread) dissects each
//! frame **once**; [`ShardLanes`] steers it by canonical host pair
//! ([`ent_flow::shard_of_packet`] — the same FxHash that keys the tables)
//! and ships `(frame, parsed packet)` batches to per-shard workers over
//! bounded channels. Each worker owns a full [`Engine`]: its own
//! `ConnTable`, analyzer slab, dynamic-port map and output window — the
//! very engine the loop feeds inline when `shards == 0`. Nothing is
//! shared between shards — host-pair steering guarantees every flow, and
//! every piece of per-host-pair coupled state (DCE/RPC endpoint-mapper
//! learning, pending DNS/NBNS joins), lands wholly inside one shard;
//! non-IP and undissectable frames route to
//! [`ent_flow::DESIGNATED_SHARD`].
//!
//! ## Determinism
//!
//! Workers close their windows at the loop's global end timestamp and are
//! joined in shard order 0..N, so the sealed output is a pure function of
//! (trace, shard count). Per-shard event *counts* are additionally
//! shard-count-invariant: flow splitting (idle timeouts, fresh-SYN reuse)
//! is decided per flow key from that flow's own packet sequence, which
//! sharding never reorders. The equivalence suite pins `events_signature`
//! across 0/1/2/4/8 shards, and a 1-shard run is event-for-event identical
//! to the inline lane.
//!
//! Two knobs acquire documented per-shard semantics: `max_conns` caps each
//! shard's table separately, and the monotone-clock clamp (damaged traces
//! only) applies per shard. Both are exactly zero-effect at the gate
//! config. `peak_open_conns` becomes the *sum* of shard peaks — each shard
//! genuinely holds that much state — and is excluded from
//! `events_signature` for exactly that reason.

use crate::pipeline::{run_frames, Engine, FrameRef, Lane};
use crate::records::TraceAnalysis;
use ent_flow::{shard_of_packet, DESIGNATED_SHARD};
use ent_wire::{Packet, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Frames per batch: large enough to amortize channel synchronization to
/// noise, small enough that per-shard pipelining starts within a few
/// thousand packets of trace time.
const BATCH: usize = 256;

/// Bounded batches in flight per shard — backpressure on the dispatcher,
/// keeping peak buffered frames at `shards * BATCHES_IN_FLIGHT * BATCH`.
const BATCHES_IN_FLIGHT: usize = 4;

/// One dispatched unit: a frame view plus its pre-parsed packet (`None`
/// when the dissector rejected the frame).
type Item<'a> = (FrameRef<'a>, Option<Packet<'a>>);

struct Batch<'a> {
    /// The trace's window base (first frame's timestamp, microseconds),
    /// constant across batches; workers apply it before ingesting so
    /// every shard bins load samples against the same origin.
    base_us: u64,
    items: Vec<Item<'a>>,
}

/// The dispatcher's side of the worker lanes: one steering buffer, one
/// bounded batch channel and one buffer-recycling channel per shard.
struct ShardLanes<'a> {
    base_us: u64,
    bufs: Vec<Vec<Item<'a>>>,
    batch_txs: Vec<mpsc::SyncSender<Batch<'a>>>,
    recycle_rxs: Vec<mpsc::Receiver<Vec<Item<'a>>>>,
}

impl<'a> Lane<'a> for ShardLanes<'a> {
    fn open(&mut self, base_us: u64) {
        self.base_us = base_us;
    }

    fn push(&mut self, p: FrameRef<'a>, pkt: Option<&Packet<'a>>) {
        let shard = match pkt {
            Some(pkt) => shard_of_packet(pkt, self.bufs.len()),
            None => DESIGNATED_SHARD,
        };
        if let (Some(buf), Some(tx), Some(rrx)) = (
            self.bufs.get_mut(shard),
            self.batch_txs.get(shard),
            self.recycle_rxs.get(shard),
        ) {
            buf.push((p, pkt.cloned()));
            if buf.len() >= BATCH {
                let items = std::mem::replace(
                    buf,
                    rrx.try_recv().unwrap_or_else(|_| Vec::with_capacity(BATCH)),
                );
                // A send can only fail if the worker died; joining it
                // surfaces its panic.
                let _ = tx.send(Batch { base_us: self.base_us, items });
            }
        }
    }
}

/// Run the frame loop over `n` worker lanes and return their closed
/// windows in shard order. Called by the ingest session when
/// `config.shards > 0`; `new_engine` builds one lane's engine (on the
/// worker's own thread).
pub(crate) fn run_lanes<'a>(
    n: usize,
    frames: impl Iterator<Item = FrameRef<'a>>,
    nominal: Timestamp,
    new_engine: &(impl Fn() -> Engine + Sync),
) -> Vec<TraceAnalysis> {
    // Global trace end (absolute microseconds), stored by the dispatcher
    // before the batch channels close; workers read it only after their
    // receive loop ends, which the channel hang-up sequences after the
    // store.
    let end_abs = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let mut lanes = ShardLanes {
            base_us: 0,
            bufs: (0..n).map(|_| Vec::with_capacity(BATCH)).collect(),
            batch_txs: Vec::with_capacity(n),
            recycle_rxs: Vec::with_capacity(n),
        };
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let (btx, brx) = mpsc::sync_channel::<Batch<'a>>(BATCHES_IN_FLIGHT);
            let (rtx, rrx) = mpsc::channel::<Vec<Item<'a>>>();
            lanes.batch_txs.push(btx);
            lanes.recycle_rxs.push(rrx);
            let end_abs = &end_abs;
            workers.push(scope.spawn(move || shard_worker(new_engine(), brx, rtx, end_abs)));
        }
        let end = run_frames(frames, nominal, &mut lanes);
        end_abs.store(end.micros(), Ordering::SeqCst);
        for (items, tx) in lanes.bufs.into_iter().zip(&lanes.batch_txs) {
            if !items.is_empty() {
                let _ = tx.send(Batch { base_us: lanes.base_us, items });
            }
        }
        // Hanging up the batch channels releases the workers into their
        // window close; join them in shard order.
        drop(lanes.batch_txs);
        drop(lanes.recycle_rxs);
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// One shard's ingest loop: a private engine fed pre-parsed frames,
/// closed at the dispatcher's global end timestamp.
fn shard_worker<'a>(
    mut engine: Engine,
    rx: mpsc::Receiver<Batch<'a>>,
    recycle: mpsc::Sender<Vec<Item<'a>>>,
    end_abs: &AtomicU64,
) -> TraceAnalysis {
    while let Ok(mut batch) = rx.recv() {
        engine.set_window_base(batch.base_us);
        for (frame, pkt) in batch.items.drain(..) {
            engine.ingest_dissected(frame, pkt.as_ref());
        }
        // Hand the emptied buffer back; if the dispatcher is gone, the
        // buffer just drops.
        let _ = recycle.send(batch.items);
    }
    let end = Timestamp::from_micros(end_abs.load(Ordering::SeqCst));
    engine.close_window(end, TraceAnalysis::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_trace, PipelineConfig};
    use ent_gen::{build, dataset, GenConfig};

    fn generated(dataset_idx: usize, subnet: u16) -> ent_pcap::Trace {
        let specs = dataset::all_datasets();
        let config = GenConfig {
            scale: 0.03,
            seed: 11,
            hosts_per_subnet: Some(10),
        };
        let (site, wan) = build::build_site(&specs[dataset_idx], &config);
        build::generate_trace(&site, &wan, &specs[dataset_idx], subnet, 1, &config)
    }

    fn with_shards(n: usize) -> PipelineConfig {
        PipelineConfig {
            shards: n,
            ..Default::default()
        }
    }

    /// Order-insensitive digest of the connection records (shard merge
    /// legitimately reorders across shards for N > 1).
    fn conn_digest(a: &TraceAnalysis) -> (usize, u64, u64, u64) {
        let mut pkts = 0u64;
        let mut bytes = 0u64;
        let mut dur = 0u64;
        for c in &a.conns {
            pkts += c.summary.orig.packets + c.summary.resp.packets;
            bytes += c.summary.orig.payload_bytes + c.summary.resp.payload_bytes;
            dur += c.summary.duration_us();
        }
        (a.conns.len(), pkts, bytes, dur)
    }

    #[test]
    fn sharded_matches_serial_including_damaged_frames() {
        let mut trace = generated(0, 3);
        // Graft an undissectable frame so designated-shard routing and the
        // authoritative byte counter are both exercised.
        let graft_ts = trace.packets[15].ts;
        trace
            .packets
            .insert(15, ent_pcap::TimedPacket::new(graft_ts, vec![0xFF; 9]));
        let serial = analyze_trace(&trace, &PipelineConfig::default());
        for n in [1usize, 2, 3, 4, 8] {
            let sharded = analyze_trace(&trace, &with_shards(n));
            assert_eq!(sharded.packets, serial.packets, "shards={n}");
            assert_eq!(sharded.wire_bytes, serial.wire_bytes, "shards={n}");
            assert_eq!(
                sharded.health.malformed_frames, serial.health.malformed_frames,
                "shards={n}"
            );
            assert_eq!(
                sharded.bytes_per_second, serial.bytes_per_second,
                "shards={n}"
            );
            assert_eq!(conn_digest(&sharded), conn_digest(&serial), "shards={n}");
            assert_eq!(
                sharded.metrics.events_signature(),
                serial.metrics.events_signature(),
                "shards={n}"
            );
            assert_eq!(sharded.dns.len(), serial.dns.len(), "shards={n}");
            assert_eq!(sharded.http.len(), serial.http.len(), "shards={n}");
        }
    }

    #[test]
    fn one_shard_is_event_for_event_identical_to_serial() {
        let trace = generated(0, 3);
        let serial = analyze_trace(&trace, &PipelineConfig::default());
        let one = analyze_trace(&trace, &with_shards(1));
        // Same records in the same order — a single shard sees the exact
        // serial frame sequence.
        assert_eq!(one.conns.len(), serial.conns.len());
        for (a, b) in one.conns.iter().zip(&serial.conns) {
            assert_eq!(a.summary.key, b.summary.key);
            assert_eq!(a.summary.start, b.summary.start);
            assert_eq!(a.summary.end, b.summary.end);
            assert_eq!(a.app, b.app);
            assert_eq!(a.category, b.category);
        }
        assert_eq!(one.metrics.peak_open_conns, serial.metrics.peak_open_conns);
        assert_eq!(
            one.metrics.events_signature(),
            serial.metrics.events_signature()
        );
        assert_eq!(one.retx_ent, serial.retx_ent);
        assert_eq!(one.retx_wan, serial.retx_wan);
        assert_eq!(one.scanner_conns_removed, serial.scanner_conns_removed);
    }

    #[test]
    fn analyzer_panic_in_a_shard_worker_demotes_instead_of_aborting() {
        // The analyzer `catch_unwind` sits inside the engine, so it holds
        // on a worker thread exactly as inline: the run returns, the
        // failures are counted, and the flow-level results are those of a
        // fault-free serial run.
        let trace = generated(0, 3);
        let serial = analyze_trace(&trace, &PipelineConfig::default());
        let faulty = analyze_trace(
            &trace,
            &PipelineConfig {
                analyzer_panic_every: 50,
                shards: 2,
                ..Default::default()
            },
        );
        assert!(faulty.health.analyzer_failures > 0, "no injected faults fired");
        assert!(faulty.health.demoted_conns > 0);
        assert_eq!(faulty.conns.len(), serial.conns.len());
        assert_eq!(faulty.scanner_conns_removed, serial.scanner_conns_removed);
    }

    #[test]
    fn sum_of_shard_peaks_bounds_the_serial_peak() {
        let trace = generated(0, 3);
        let serial = analyze_trace(&trace, &PipelineConfig::default());
        let sharded = analyze_trace(&trace, &with_shards(4));
        // Splitting state across tables can only raise the summed peak:
        // each shard's high-water mark is hit at its own moment.
        assert!(sharded.metrics.peak_open_conns >= serial.metrics.peak_open_conns);
    }
}
