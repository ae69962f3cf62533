//! The sharded intra-trace pipeline: N per-core connection-table shards
//! behind one steering dispatcher, merged deterministically at finalize.
//!
//! ## Architecture
//!
//! The dispatcher (the caller's thread) parses each frame **once**, steers
//! it by canonical host pair ([`ent_flow::shard_of_packet`] — the same
//! FxHash that keys the tables), and ships `(frame, parsed packet)`
//! batches to per-shard workers over bounded channels. Each worker owns a
//! full serial [`Engine`]: its own `ConnTable`, analyzer slab, dynamic-
//! port map and output window. Nothing is shared between shards — host-
//! pair steering guarantees every flow, and every piece of per-host-pair
//! coupled state (DCE/RPC endpoint-mapper learning, pending DNS/NBNS
//! joins), lands wholly inside one shard; non-IP and undissectable frames
//! route to [`ent_flow::DESIGNATED_SHARD`].
//!
//! ## Determinism
//!
//! Workers finish at a dispatcher-computed global end timestamp and return
//! their windows over a results channel; the merge consumes them in shard
//! order 0..N, so the output is a pure function of (trace, shard count).
//! Per-shard event *counts* are additionally shard-count-invariant: flow
//! splitting (idle timeouts, fresh-SYN reuse) is decided per flow key from
//! that flow's own packet sequence, which sharding never reorders. The
//! equivalence suite pins `events_signature` across 1/2/4/8 shards, and a
//! 1-shard run is event-for-event identical to the serial path.
//!
//! Two knobs acquire documented per-shard semantics: `max_conns` caps each
//! shard's table separately, and the monotone-clock clamp (damaged traces
//! only) applies per shard. Both are exactly zero-effect at the gate
//! config. `peak_open_conns` becomes the *sum* of shard peaks — each shard
//! genuinely holds that much state — and is excluded from
//! `events_signature` for exactly that reason.

use crate::metrics::{Stage, StageTimer};
use crate::pipeline::{
    expected_conns_hint, post_process, window_analysis, Engine, FrameRef,
    PipelineConfig,
};
use crate::records::TraceAnalysis;
use ent_flow::{shard_of_packet, DESIGNATED_SHARD};
use ent_pcap::TraceMeta;
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
    /// constant across batches; workers apply it before their first ingest
    /// so every shard bins load samples against the same origin.
    base_us: u64,
    items: Vec<Item<'a>>,
}

/// Everything a shard worker needs, shared immutably across the scope.
struct Shared<'m> {
    meta: &'m TraceMeta,
    config: &'m PipelineConfig,
    payload_ok: bool,
    expected: usize,
    duration_secs: u64,
    /// Global trace end (absolute microseconds), stored by the dispatcher
    /// before the batch channels close; workers read it only after their
    /// receive loop ends, which the channel hang-up sequences after the
    /// store.
    end_abs: &'m AtomicU64,
}

/// The sharded counterpart of `analyze_frames`: dispatch, ingest on N
/// workers, merge in shard order. Called from `analyze_packets` when
/// `config.shards > 0`.
pub(crate) fn analyze_packets_sharded<'a, I>(
    meta: &TraceMeta,
    packets: I,
    config: &PipelineConfig,
    packets_hint: usize,
) -> TraceAnalysis
where
    I: Iterator<Item = (Timestamp, &'a [u8], u32)>,
{
    let n = config.shards.max(1);
    let total = StageTimer::start();
    let end_abs = AtomicU64::new(0);
    let shared = Shared {
        meta,
        config,
        payload_ok: meta.has_payload(),
        // Flows spread across shards, so each table expects its slice.
        expected: expected_conns_hint(packets_hint / n),
        duration_secs: meta.duration.micros() / 1_000_000,
        end_abs: &end_abs,
    };

    let mut parts: Vec<(usize, TraceAnalysis)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let (part_tx, part_rx) = mpsc::channel::<(usize, TraceAnalysis)>();
        let mut batch_txs = Vec::with_capacity(n);
        let mut recycle_rxs = Vec::with_capacity(n);
        for shard in 0..n {
            let (btx, brx) = mpsc::sync_channel::<Batch<'a>>(BATCHES_IN_FLIGHT);
            let (rtx, rrx) = mpsc::channel::<Vec<Item<'a>>>();
            batch_txs.push(btx);
            recycle_rxs.push(rrx);
            let ptx = part_tx.clone();
            let sh = &shared;
            scope.spawn(move || {
                let _ = ptx.send((shard, shard_worker(sh, brx, rtx)));
            });
        }
        drop(part_tx);

        // Dispatch: parse once, steer, batch. Mirrors the serial loop's
        // bookkeeping — base from the very first frame, max timestamp over
        // dissectable frames only — so the global end matches the serial
        // path bit for bit.
        let mut bufs: Vec<Vec<Item<'a>>> = (0..n).map(|_| Vec::with_capacity(BATCH)).collect();
        let mut first = true;
        let mut base_us = 0u64;
        let mut max_ts = Timestamp::ZERO;
        for (ts, frame, orig_len) in packets {
            if first {
                first = false;
                base_us = ts.micros();
                max_ts = ts;
            }
            let (shard, pkt) = match Packet::parse(frame) {
                Ok(pkt) => {
                    if ts > max_ts {
                        max_ts = ts;
                    }
                    (shard_of_packet(&pkt, n), Some(pkt))
                }
                Err(_) => (DESIGNATED_SHARD, None),
            };
            let fr = FrameRef { ts, frame, orig_len };
            if let (Some(buf), Some(tx), Some(rrx)) =
                (bufs.get_mut(shard), batch_txs.get(shard), recycle_rxs.get(shard))
            {
                buf.push((fr, pkt));
                if buf.len() >= BATCH {
                    let items = std::mem::replace(
                        buf,
                        rrx.try_recv().unwrap_or_else(|_| Vec::with_capacity(BATCH)),
                    );
                    // A send can only fail if the worker died; the scope
                    // will surface its panic.
                    let _ = tx.send(Batch { base_us, items });
                }
            }
        }
        let end_us = base_us
            .saturating_add(meta.duration.micros())
            .max(max_ts.micros());
        end_abs.store(end_us, Ordering::SeqCst);
        for (buf, tx) in bufs.into_iter().zip(&batch_txs) {
            if !buf.is_empty() {
                let _ = tx.send(Batch {
                    base_us,
                    items: buf,
                });
            }
        }
        // Hanging up the batch channels releases the workers into their
        // finish step; collect their windows as they land.
        drop(batch_txs);
        drop(recycle_rxs);
        for received in part_rx {
            parts.push(received);
        }
    });

    parts.sort_by_key(|&(shard, _)| shard);
    merge_parts(&shared, parts.into_iter().map(|(_, p)| p), total)
}

/// One shard's ingest loop: a private serial engine fed pre-parsed frames,
/// finished at the dispatcher's global end timestamp.
fn shard_worker<'a>(
    shared: &Shared<'_>,
    rx: mpsc::Receiver<Batch<'a>>,
    recycle: mpsc::Sender<Vec<Item<'a>>>,
) -> TraceAnalysis {
    let out = window_analysis(shared.meta, shared.duration_secs);
    let mut engine = Engine::new(out, shared.config, shared.payload_ok, shared.expected);
    let mut first = true;
    while let Ok(mut batch) = rx.recv() {
        if first {
            first = false;
            engine.set_window_base(batch.base_us);
        }
        for (frame, pkt) in batch.items.drain(..) {
            engine.ingest_dissected(frame, pkt.as_ref());
        }
        // Hand the emptied buffer back; if the dispatcher is gone, the
        // buffer just drops.
        let _ = recycle.send(batch.items);
    }
    engine.finish_at(Timestamp::from_micros(shared.end_abs.load(Ordering::SeqCst)));
    let fstats = *engine.flow_stats();
    let mut out = engine.into_analysis();
    out.health.clock_regressions = fstats.clock_regressions;
    out.health.evicted_conns = fstats.evicted_conns;
    out.metrics.peak_open_conns = fstats.peak_open_conns;
    out
}

/// Fold the per-shard windows, **in shard order**, into one trace
/// analysis, then run the global post-ingest passes exactly once. Scalars
/// and stage stats sum; record vectors concatenate (shard order, each
/// shard's internal finalize order preserved); the per-second load series
/// adds elementwise; `peak_open_conns` becomes the sum of shard peaks.
fn merge_parts(
    shared: &Shared<'_>,
    parts: impl Iterator<Item = TraceAnalysis>,
    total: StageTimer,
) -> TraceAnalysis {
    let mut out = window_analysis(shared.meta, shared.duration_secs);
    let mut peak_sum = 0u64;
    for part in parts {
        out.packets += part.packets;
        out.ip_packets += part.ip_packets;
        out.arp_packets += part.arp_packets;
        out.ipx_packets += part.ipx_packets;
        out.other_l3_packets += part.other_l3_packets;
        out.wire_bytes += part.wire_bytes;
        peak_sum += part.metrics.peak_open_conns;
        out.conns.extend(part.conns);
        out.http.extend(part.http);
        out.dns.extend(part.dns);
        out.nbns.extend(part.nbns);
        out.cifs.extend(part.cifs);
        out.rpc.extend(part.rpc);
        out.nfs.extend(part.nfs);
        out.ncp.extend(part.ncp);
        out.tls.extend(part.tls);
        out.smtp_message_bytes.extend(part.smtp_message_bytes);
        out.imap_polls.extend(part.imap_polls);
        for (bin, add) in out.bytes_per_second.iter_mut().zip(&part.bytes_per_second) {
            *bin += add;
        }
        out.health.absorb(&part.health);
        out.metrics.absorb(&part.metrics);
    }
    // Sum-of-shard-peaks (absorb's max is the cross-trace aggregate rule;
    // within one trace the shards hold their state simultaneously).
    out.metrics.peak_open_conns = peak_sum;
    // Workers never add the backpressure stage themselves — it is derived
    // here once from the merged health, mirroring the serial path.
    let degraded = out.health.evicted_conns + out.health.pending_dropped;
    if degraded > 0 {
        out.metrics.stages[Stage::Backpressure].add(0, degraded, 0);
    }
    let ingest_wall = total.elapsed_ns();
    post_process(&mut out, shared.config);
    out.metrics.stages[Stage::ShardIngest].add(ingest_wall, 0, 0);
    out.metrics.trace_wall_ns = total.elapsed_ns();
    out.metrics.traces = 1;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze_trace;
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
    fn sum_of_shard_peaks_bounds_the_serial_peak() {
        let trace = generated(0, 3);
        let serial = analyze_trace(&trace, &PipelineConfig::default());
        let sharded = analyze_trace(&trace, &with_shards(4));
        // Splitting state across tables can only raise the summed peak:
        // each shard's high-water mark is hit at its own moment.
        assert!(sharded.metrics.peak_open_conns >= serial.metrics.peak_open_conns);
    }
}
