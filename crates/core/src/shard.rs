//! The worker lane of the ingest session: the frame loop on the caller's
//! thread, one connection-table engine on a thread of its own.
//!
//! ## Architecture
//!
//! The frame loop ([`run_frames`], on the caller's thread) dissects each
//! frame **once**; [`WorkerLane`] ships `(frame, parsed packet)` batches
//! over one bounded channel to one worker, which owns a full [`Engine`]:
//! its own `ConnTable`, analyzer slab, dynamic-port map and output window
//! — the very engine the loop feeds inline when `shards == 0`. The worker
//! sees the exact serial frame sequence, so its closed window is the
//! inline lane's, record for record and peak for peak; what the lane buys
//! is the dispatcher absorbing the reader and the dissector while the
//! worker ingests (DESIGN §10).
//!
//! There is one lane: on the 2-core reference box every count above one
//! lost to the inline engine wherever it was measured (DESIGN §10).
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
//! and 13–15% on the same runs. Polling is on only when the dispatcher and
//! the worker can each have a core ([`polls`]); on one core the hand-off
//! is the blocking call alone. A worker's wait is charged to no stage
//! ([`Engine::unclocked`]); the dispatcher's is the wall of the
//! `backpressure` stage.
//!
//! ## Clocks
//!
//! The frame loop clocks the same frames it would inline. On such a frame
//! the dispatcher times the parse, and the worker times the frame's tallies
//! (`frame_parse`) and its table ingest (`flow_ingest`) on its own clock.
//! The dispatcher's parse laps are estimated up to the trace's frames and
//! added to the window's `frame_parse` wall at the seal.

use crate::metrics::{Stage, StageTimer};
use crate::pipeline::{estimate_wall_ns, run_frames, Clocked, Engine, FrameRef, Lane};
use crate::records::TraceAnalysis;
use ent_wire::{Packet, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::OnceLock;

/// Frames per batch: ≈25 µs of work for either end on the reference box,
/// small enough that the worker starts within a few thousand packets of
/// trace time. With the poll-then-park hand-off, 64 × 16, 128 × 8 and
/// 256 × 4 (batch × in flight) measure inside one another's run-to-run
/// spread on `analyze_sharded` (DESIGN §10), so it stays.
const BATCH: usize = 256;

/// Bounded batches in flight — backpressure on the dispatcher, keeping
/// peak buffered frames at `BATCHES_IN_FLIGHT * BATCH`.
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

/// The hand-off policy: how many polls each end of the batch channel
/// makes before parking. Polling pays only while the other end is
/// running, so it is on only when the dispatcher and the worker can each
/// have a core; on one core a poller would spin on the very core its peer
/// needs, and both ends park.
fn polls(cores: usize) -> u32 {
    if cores >= 2 {
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

/// Hand `batch` to the worker: poll the bounded channel for room up to
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

/// One dispatched unit: a frame view, its pre-parsed packet (`None` when
/// the dissector rejected the frame), and whether the loop clocked it.
type Item<'a> = (FrameRef<'a>, Option<Packet<'a>>, bool);

struct Batch<'a> {
    /// The trace's window base (first frame's timestamp, microseconds),
    /// constant across batches; the worker applies it before ingesting.
    base_us: u64,
    items: Vec<Item<'a>>,
}

/// The dispatcher's side of the worker lane: the batch being filled, the
/// bounded batch channel and the channel the worker returns emptied
/// buffers on.
struct WorkerLane<'a> {
    base_us: u64,
    buf: Vec<Item<'a>>,
    batch_tx: mpsc::SyncSender<Batch<'a>>,
    recycle_rx: mpsc::Receiver<Vec<Item<'a>>>,
    /// Polls per hand-off ([`polls`]); the worker uses the same figure.
    polls: u32,
    /// Wall spent inside [`send_batch`] so far: the dispatcher waiting for
    /// room.
    send_blocked_ns: u64,
    /// Frames pushed so far.
    frames: u64,
    /// The parse lap of the clocked frame in flight, and the weighted laps
    /// of those before it.
    parse_lap: Option<Clocked>,
    parse_ns: u64,
}

impl<'a> WorkerLane<'a> {
    fn new(
        batch_tx: mpsc::SyncSender<Batch<'a>>,
        recycle_rx: mpsc::Receiver<Vec<Item<'a>>>,
        polls: u32,
    ) -> WorkerLane<'a> {
        WorkerLane {
            base_us: 0,
            buf: Vec::with_capacity(BATCH),
            batch_tx,
            recycle_rx,
            polls,
            send_blocked_ns: 0,
            frames: 0,
            parse_lap: None,
            parse_ns: 0,
        }
    }

    /// Ship one batch to the worker, timing the wait for room.
    fn ship(&mut self, items: Vec<Item<'a>>) {
        let watch = StageTimer::start();
        send_batch(&self.batch_tx, Batch { base_us: self.base_us, items }, self.polls);
        self.send_blocked_ns += watch.elapsed_ns();
    }
}

impl<'a> Lane<'a> for WorkerLane<'a> {
    fn open(&mut self, base_us: u64) {
        self.base_us = base_us;
    }

    #[cold]
    #[inline(never)]
    fn start_lap(&mut self) {
        self.parse_lap = Some(Clocked::start(self.frames));
    }

    fn push(&mut self, p: FrameRef<'a>, pkt: Option<&Packet<'a>>, clocked: bool) {
        if let Some(lap) = self.parse_lap.take() {
            self.parse_ns += lap.weighted_ns();
        }
        self.frames += 1;
        self.buf.push((p, pkt.cloned(), clocked));
        if self.buf.len() >= BATCH {
            let spare = self.recycle_rx.try_recv().unwrap_or_else(|_| Vec::with_capacity(BATCH));
            let items = std::mem::replace(&mut self.buf, spare);
            self.ship(items);
        }
    }
}

/// Run the frame loop over the worker lane and return its closed window.
/// Called by the ingest session when `config.shards > 0`; `new_engine`
/// builds the lane's engine (on the worker's own thread).
pub(crate) fn run_lanes<'a>(
    frames: impl Iterator<Item = FrameRef<'a>>,
    nominal: Timestamp,
    new_engine: &(impl Fn() -> Engine + Sync),
) -> TraceAnalysis {
    // Global trace end (absolute microseconds), stored by the dispatcher
    // before the batch channel closes; the worker reads it only after its
    // receive loop ends, which the channel hang-up sequences after the
    // store.
    let end_abs = AtomicU64::new(0);
    let polls = polls(cores());
    let (batch_tx, batch_rx) = mpsc::sync_channel::<Batch<'a>>(BATCHES_IN_FLIGHT);
    let (recycle_tx, recycle_rx) = mpsc::channel::<Vec<Item<'a>>>();
    std::thread::scope(|scope| {
        let end_abs = &end_abs;
        let worker = scope.spawn(move || lane_worker(new_engine(), batch_rx, recycle_tx, end_abs, polls));
        let mut lane = WorkerLane::new(batch_tx, recycle_rx, polls);
        let end = run_frames(frames, nominal, &mut lane);
        end_abs.store(end.micros(), Ordering::SeqCst);
        let rest = std::mem::take(&mut lane.buf);
        if !rest.is_empty() {
            lane.ship(rest);
        }
        let send_blocked_ns = lane.send_blocked_ns;
        let parse_ns = estimate_wall_ns(lane.parse_ns, lane.frames);
        // Hanging up the batch channel releases the worker into its window
        // close.
        drop(lane);
        let mut window = worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        // The dispatcher's wait for room is the wall of the backpressure
        // stage, inside the session's ingest wall; its parses are
        // frame_parse wall next to the worker's tallies.
        window.metrics.stages[Stage::Backpressure].add(send_blocked_ns, 0, 0);
        window.metrics.stages[Stage::FrameParse].add(parse_ns, 0, 0);
        window
    })
}

/// The lane's ingest loop: a private engine fed pre-parsed frames, closed
/// at the dispatcher's global end timestamp.
fn lane_worker<'a>(
    mut engine: Engine,
    rx: mpsc::Receiver<Batch<'a>>,
    recycle: mpsc::Sender<Vec<Item<'a>>>,
    end_abs: &AtomicU64,
    polls: u32,
) -> TraceAnalysis {
    // Waiting for the dispatcher is charged to no stage.
    while let Some(mut batch) = engine.unclocked(|| next_batch(&rx, polls)) {
        engine.set_window_base(batch.base_us);
        for (frame, pkt, clocked) in batch.items.drain(..) {
            if clocked {
                engine.start_lap();
            }
            engine.ingest_dissected(frame, pkt.as_ref(), clocked);
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
    use crate::pipeline::tests::{analyze_owned, generated};
    use crate::pipeline::PipelineConfig;
    use ent_flow::FlowKey;
    use ent_pcap::TimedPacket;

    fn frames(packets: &[TimedPacket]) -> impl Iterator<Item = FrameRef<'_>> {
        packets.iter().map(|p| FrameRef {
            ts: p.ts,
            frame: &p.frame,
            orig_len: p.orig_len,
        })
    }

    fn one_lane() -> PipelineConfig {
        PipelineConfig {
            shards: 1,
            ..Default::default()
        }
    }

    /// The connection records in close order: the lane sees the serial
    /// frame sequence, so it closes the same connections in the same order.
    fn records(a: &TraceAnalysis) -> Vec<(FlowKey, Timestamp, Timestamp, u64, u64)> {
        let record = |c: &crate::records::ConnRecord| {
            let s = &c.summary;
            (s.key, s.start, s.end, s.orig.packets + s.resp.packets, s.total_payload())
        };
        a.conns.iter().map(record).collect()
    }

    #[test]
    fn polling_needs_a_core_per_thread() {
        // The dispatcher and the worker on a core each: poll.
        assert_eq!(polls(2), HANDOFF_POLLS);
        assert_eq!(polls(8), HANDOFF_POLLS);
        // A single core: park.
        assert_eq!(polls(1), 0);
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
    fn batch_boundaries_match_serial_on_one_lane() {
        // A full batch, one frame either side of it, a lone frame, and a
        // few batches plus a final partial one: what a rewritten send
        // loop gets wrong first.
        let (meta, full) = generated(0, 3);
        assert!(full.len() >= 1_025, "fixture too small");
        for frames in [1usize, BATCH - 1, BATCH, BATCH + 1, 4 * BATCH + 1] {
            let packets = &full[..frames];
            let serial = analyze_owned(&meta, packets, &PipelineConfig::default());
            assert_eq!(serial.packets + serial.health.malformed_frames, frames as u64);
            let lane = analyze_owned(&meta, packets, &one_lane());
            let case = format!("frames={frames}");
            assert_eq!(lane.packets, serial.packets, "{case}");
            assert_eq!(lane.wire_bytes, serial.wire_bytes, "{case}");
            assert_eq!(records(&lane), records(&serial), "{case}");
            assert_eq!(lane.metrics.peak_open_conns, serial.metrics.peak_open_conns, "{case}");
            assert_eq!(
                lane.metrics.events_signature(),
                serial.metrics.events_signature(),
                "{case}"
            );
        }
    }

    #[test]
    fn a_dead_lane_takes_pushes_without_blocking() {
        // The receiver is gone before the first push — a worker that died
        // — so every hand-off must return at once, on the poll path and on
        // the park path alike, however many batches that is.
        for polls in [HANDOFF_POLLS, 0] {
            within_five_seconds(move || {
                let (meta, packets) = generated(0, 3);
                let (batch_tx, batch_rx) = mpsc::sync_channel(BATCHES_IN_FLIGHT);
                let (_recycle_tx, recycle_rx) = mpsc::channel();
                drop(batch_rx);
                let mut lane = WorkerLane::new(batch_tx, recycle_rx, polls);
                assert!(packets.len() > (BATCHES_IN_FLIGHT + 2) * BATCH);
                run_frames(frames(&packets), meta.duration, &mut lane);
                // Every full batch left the buffer.
                assert!(lane.buf.len() < BATCH);
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
            let (meta, packets) = generated(0, 3);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_lanes(frames(&packets), meta.duration, &|| -> Engine {
                    panic!("lane engine failed to build")
                })
            }))
        });
        let panic = died.err().and_then(|p| p.downcast::<&str>().ok());
        assert_eq!(panic.as_deref(), Some(&"lane engine failed to build"));
    }

    #[test]
    fn sharded_matches_serial_including_damaged_frames() {
        // The lane runs the poll path wherever there are two cores (the
        // reference box); the park path is `a_dead_lane_…`'s.
        let (meta, mut packets) = generated(0, 3);
        // Graft an undissectable frame so the rejected-frame hand-off and
        // the authoritative byte counter are both exercised.
        let graft_ts = packets[15].ts;
        packets.insert(15, TimedPacket::new(graft_ts, vec![0xFF; 9]));
        let serial = analyze_owned(&meta, &packets, &PipelineConfig::default());
        let lane = analyze_owned(&meta, &packets, &one_lane());
        assert_eq!(lane.packets, serial.packets);
        assert_eq!(lane.wire_bytes, serial.wire_bytes);
        assert_eq!(lane.health.malformed_frames, serial.health.malformed_frames);
        assert_eq!(lane.bytes_per_second, serial.bytes_per_second);
        assert_eq!(records(&lane), records(&serial));
        assert_eq!(lane.metrics.events_signature(), serial.metrics.events_signature());
        assert_eq!(lane.dns.len(), serial.dns.len());
        assert_eq!(lane.http.len(), serial.http.len());
    }

    #[test]
    fn one_shard_is_event_for_event_identical_to_serial() {
        let (meta, packets) = generated(0, 3);
        let serial = analyze_owned(&meta, &packets, &PipelineConfig::default());
        let one = analyze_owned(&meta, &packets, &one_lane());
        // Same records in the same order — the lane sees the exact serial
        // frame sequence.
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
        // on the worker thread exactly as inline: the run returns, the
        // failures are counted, and the flow-level results are those of a
        // fault-free serial run.
        let (meta, packets) = generated(0, 3);
        let serial = analyze_owned(&meta, &packets, &PipelineConfig::default());
        let config = PipelineConfig { analyzer_panic_every: 50, ..one_lane() };
        let faulty = analyze_owned(&meta, &packets, &config);
        assert!(faulty.health.analyzer_failures > 0, "no injected faults fired");
        assert!(faulty.health.demoted_conns > 0);
        assert_eq!(faulty.conns.len(), serial.conns.len());
        assert_eq!(faulty.scanner_conns_removed, serial.scanner_conns_removed);
    }
}
