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
//! ## Hand-off
//!
//! A batch is ≈25 µs of work for either end and a capture of the
//! benchmark's size is ≈40 of them, so what the channel costs is what it
//! costs to *wait* on it. Parking in `send` / `recv` on every batch had
//! both ends asleep at once: over an 8-second `analyze_sharded` run the
//! dispatcher spent 20–26% of the session inside `send` while the worker
//! spent 20–27% of it inside `recv` (three runs, timers around the two
//! calls), each paying a futex wake of the other's idle vCPU. Both ends
//! now poll first ([`send_batch`], [`next_batch`]: `try_send` / `try_recv`
//! up to [`HANDOFF_POLLS`] times, yielding the core on the first miss and
//! every [`YIELD_EVERY`]th, spinning between) and park only then: 9–15%
//! and 13–15% on the same runs. Polling is on only when every lane plus
//! the dispatcher can have a core of its own ([`polls`]); with fewer the
//! hand-off is the blocking call alone, as it always was. A worker's wait
//! is charged to no stage ([`Engine::unclocked`]); the dispatcher's is
//! the wall of the `backpressure` stage.
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

use crate::metrics::{Stage, StageTimer};
use crate::pipeline::{run_frames, Engine, FrameRef, Lane};
use crate::records::TraceAnalysis;
use ent_flow::{shard_of_packet, DESIGNATED_SHARD};
use ent_wire::{Packet, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::OnceLock;

/// Frames per batch: ≈25 µs of work for either end on the reference box,
/// small enough that per-shard pipelining starts within a few thousand
/// packets of trace time. With the poll-then-park hand-off, 64 × 16,
/// 128 × 8 and 256 × 4 (batch × in flight) measure inside one another's
/// run-to-run spread on `analyze_sharded` (DESIGN §10), so it stays.
const BATCH: usize = 256;

/// Bounded batches in flight per shard — backpressure on the dispatcher,
/// keeping peak buffered frames at `shards * BATCHES_IN_FLIGHT * BATCH`.
const BATCHES_IN_FLIGHT: usize = 4;

/// Polls of a full (dispatcher) or empty (worker) batch channel before
/// the caller parks in the blocking call: 60–100 µs here, a few batches
/// of the other end's work, so an end with a core of its own never sleeps
/// through a hand-off that is about to happen — on this VM a futex wake
/// of an idle vCPU costs more than the batch it announces.
const HANDOFF_POLLS: u32 = 2_000;

/// Every so many polls — the first included — the poller offers its core
/// to the scheduler instead of spinning. The core count cannot see a peer
/// that sits runnable on the poller's *own* core (a fresh worker before
/// the balancer has moved it, a container with load balancing off); the
/// first yield hands that peer the core at once, where spin-then-yield
/// burned the whole budget first (study path, both threads on one core:
/// 560 ms ingest against the parking hand-off's 290 ms; 280 ms with the
/// yield first). With the peer on another core a yield is ≈0.3 µs.
const YIELD_EVERY: u32 = 256;

/// The hand-off policy: how many polls each end of a batch channel makes
/// before parking. Polling pays only while the other end is running, so
/// it is on only when every lane plus the dispatcher has a core of its
/// own; with fewer cores a poller would spin on the very core its peer
/// needs, and both ends park at once as they always did.
fn polls(lanes: usize, cores: usize) -> u32 {
    if lanes < cores {
        HANDOFF_POLLS
    } else {
        0
    }
}

/// Cores available to this process, read once: std re-reads the cgroup
/// files on every `available_parallelism` call (13 µs here), and a study
/// asks once per trace.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The pause after one unsuccessful poll.
#[inline]
fn pause(poll: u32) {
    if poll.is_multiple_of(YIELD_EVERY) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Hand `batch` to a worker: poll the bounded channel for room up to
/// `polls` times, then park in the blocking send. A send can only fail if
/// the worker died; joining it surfaces its panic.
fn send_batch<'a>(tx: &mpsc::SyncSender<Batch<'a>>, mut batch: Batch<'a>, polls: u32) {
    for poll in 0..polls {
        match tx.try_send(batch) {
            Ok(()) | Err(mpsc::TrySendError::Disconnected(_)) => return,
            Err(mpsc::TrySendError::Full(back)) => batch = back,
        }
        pause(poll);
    }
    let _ = tx.send(batch);
}

/// The worker's side of the hand-off: poll for the next batch up to
/// `polls` times, then park in the blocking receive. `None` once the
/// dispatcher has hung up and the channel is drained.
fn next_batch<'a>(rx: &mpsc::Receiver<Batch<'a>>, polls: u32) -> Option<Batch<'a>> {
    for poll in 0..polls {
        match rx.try_recv() {
            Ok(batch) => return Some(batch),
            Err(mpsc::TryRecvError::Disconnected) => return None,
            Err(mpsc::TryRecvError::Empty) => pause(poll),
        }
    }
    rx.recv().ok()
}

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
    /// Polls per hand-off ([`polls`]); the workers use the same figure.
    polls: u32,
    /// Wall spent inside [`send_batch`] so far: the dispatcher waiting for
    /// room.
    send_blocked_ns: u64,
}

impl<'a> ShardLanes<'a> {
    /// Ship one steering buffer to its lane, timing the wait for room.
    fn ship(&mut self, shard: usize, items: Vec<Item<'a>>) {
        if let Some(tx) = self.batch_txs.get(shard) {
            let watch = StageTimer::start();
            send_batch(tx, Batch { base_us: self.base_us, items }, self.polls);
            self.send_blocked_ns += watch.elapsed_ns();
        }
    }
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
        if let (Some(buf), Some(rrx)) = (self.bufs.get_mut(shard), self.recycle_rxs.get(shard)) {
            buf.push((p, pkt.cloned()));
            if buf.len() >= BATCH {
                let spare = rrx.try_recv().unwrap_or_else(|_| Vec::with_capacity(BATCH));
                let items = std::mem::replace(buf, spare);
                self.ship(shard, items);
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
    let polls = polls(n, cores());
    std::thread::scope(|scope| {
        let mut lanes = ShardLanes {
            base_us: 0,
            bufs: (0..n).map(|_| Vec::with_capacity(BATCH)).collect(),
            batch_txs: Vec::with_capacity(n),
            recycle_rxs: Vec::with_capacity(n),
            polls,
            send_blocked_ns: 0,
        };
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let (btx, brx) = mpsc::sync_channel::<Batch<'a>>(BATCHES_IN_FLIGHT);
            let (rtx, rrx) = mpsc::channel::<Vec<Item<'a>>>();
            lanes.batch_txs.push(btx);
            lanes.recycle_rxs.push(rrx);
            let end_abs = &end_abs;
            let worker = move || shard_worker(new_engine(), brx, rtx, end_abs, polls);
            workers.push(scope.spawn(worker));
        }
        let end = run_frames(frames, nominal, &mut lanes);
        end_abs.store(end.micros(), Ordering::SeqCst);
        for (shard, items) in std::mem::take(&mut lanes.bufs).into_iter().enumerate() {
            if !items.is_empty() {
                lanes.ship(shard, items);
            }
        }
        let send_blocked_ns = lanes.send_blocked_ns;
        // Hanging up the batch channels releases the workers into their
        // window close; join them in shard order.
        drop(lanes.batch_txs);
        drop(lanes.recycle_rxs);
        let mut windows: Vec<TraceAnalysis> = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect();
        // The dispatcher's wait for room is the wall of the backpressure
        // stage, once per trace (events and bytes stay the lanes'
        // degradation counts; per-lane stages sum at the seal).
        if let Some(first) = windows.first_mut() {
            first.metrics.stages[Stage::Backpressure].add(send_blocked_ns, 0, 0);
        }
        windows
    })
}

/// One shard's ingest loop: a private engine fed pre-parsed frames,
/// closed at the dispatcher's global end timestamp.
fn shard_worker<'a>(
    mut engine: Engine,
    rx: mpsc::Receiver<Batch<'a>>,
    recycle: mpsc::Sender<Vec<Item<'a>>>,
    end_abs: &AtomicU64,
    polls: u32,
) -> TraceAnalysis {
    // Waiting for the dispatcher is charged to no stage.
    while let Some(mut batch) = engine.unclocked(|| next_batch(&rx, polls)) {
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

    fn frames(trace: &ent_pcap::Trace) -> impl Iterator<Item = FrameRef<'_>> {
        trace.packets.iter().map(|p| FrameRef {
            ts: p.ts,
            frame: &p.frame,
            orig_len: p.orig_len,
        })
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
    fn polling_needs_a_core_per_thread() {
        // Every lane plus the dispatcher on a core of its own: poll.
        assert_eq!(polls(1, 2), HANDOFF_POLLS);
        assert_eq!(polls(7, 8), HANDOFF_POLLS);
        // One thread too many, or a single core: park, as before.
        assert_eq!(polls(2, 2), 0);
        assert_eq!(polls(8, 2), 0);
        assert_eq!(polls(1, 1), 0);
    }

    /// Run `work` on its own thread and fail, instead of hanging tier-1,
    /// if it has not finished within five seconds; a panic in `work`
    /// resurfaces here.
    fn within_five_seconds<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done_rx) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let out = work();
            let _ = done_tx.send(());
            out
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(5)) {
            // Finished, or died (the sender dropped): join tells which.
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("hand-off blocked for five seconds"),
        }
    }

    #[test]
    fn batch_boundaries_match_serial_on_one_and_three_lanes() {
        // A full batch, one frame either side of it, a lone frame, and a
        // few batches plus a final partial one: what a rewritten send
        // loop gets wrong first.
        let full = generated(0, 3);
        assert!(full.packets.len() >= 1_025, "fixture too small");
        for frames in [1usize, BATCH - 1, BATCH, BATCH + 1, 4 * BATCH + 1] {
            let mut trace = full.clone();
            trace.packets.truncate(frames);
            let serial = analyze_trace(&trace, &PipelineConfig::default());
            assert_eq!(serial.packets + serial.health.malformed_frames, frames as u64);
            for n in [1usize, 3] {
                let sharded = analyze_trace(&trace, &with_shards(n));
                let case = format!("frames={frames} shards={n}");
                assert_eq!(sharded.packets, serial.packets, "{case}");
                assert_eq!(sharded.wire_bytes, serial.wire_bytes, "{case}");
                assert_eq!(conn_digest(&sharded), conn_digest(&serial), "{case}");
                assert_eq!(
                    sharded.metrics.events_signature(),
                    serial.metrics.events_signature(),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn a_dead_lane_takes_pushes_without_blocking() {
        // The receiver is gone before the first push — a worker that died
        // — so every hand-off must return at once, on the poll path and on
        // the park path alike, however many batches that is.
        for polls in [HANDOFF_POLLS, 0] {
            within_five_seconds(move || {
                let trace = generated(0, 3);
                let (batch_tx, batch_rx) = mpsc::sync_channel(BATCHES_IN_FLIGHT);
                let (_recycle_tx, recycle_rx) = mpsc::channel();
                drop(batch_rx);
                let mut lanes = ShardLanes {
                    base_us: 0,
                    bufs: vec![Vec::with_capacity(BATCH)],
                    batch_txs: vec![batch_tx],
                    recycle_rxs: vec![recycle_rx],
                    polls,
                    send_blocked_ns: 0,
                };
                assert!(trace.packets.len() > (BATCHES_IN_FLIGHT + 2) * BATCH);
                run_frames(frames(&trace), trace.meta.duration, &mut lanes);
                // Every full batch left its steering buffer.
                assert!(lanes.bufs.iter().all(|b| b.len() < BATCH));
            });
        }
    }

    #[test]
    fn a_worker_that_dies_surfaces_through_join() {
        // A panic outside the analyzer `catch_unwind` — here, building the
        // lane's engine on the worker thread — hangs up the lane: the
        // dispatcher runs the trace out against the dead channel and the
        // join re-raises the worker's panic on the caller.
        let died = within_five_seconds(|| {
            let trace = generated(0, 3);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_lanes(1, frames(&trace), trace.meta.duration, &|| -> Engine {
                    panic!("lane engine failed to build")
                })
            }))
        });
        let panic = died.err().and_then(|p| p.downcast::<&str>().ok());
        assert_eq!(panic.as_deref(), Some(&"lane engine failed to build"));
    }

    #[test]
    fn sharded_matches_serial_including_damaged_frames() {
        // n = 1 runs the poll path wherever there are two cores (the
        // reference box); n = 8 runs the park path there.
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
