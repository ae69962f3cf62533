//! Resident monitor mode: epoch-windowed reporting over an unbounded
//! stream, with crash-safe checkpoints and bounded state.
//!
//! The batch pipeline answers "what did this trace contain" after reading
//! all of it. The monitor answers the operational version of the same
//! question — "what is the network doing *now*" — by cutting the stream
//! into fixed epochs of trace time and emitting a full per-epoch report
//! (the paper's traffic-breakdown tables recomputed over the window) plus
//! running cumulative totals at every boundary.
//!
//! ## Epoch semantics
//!
//! Epoch `k` covers `[base + k·len, base + (k+1)·len)` where `base` is the
//! first packet's timestamp. A boundary is a hard cut: every connection
//! still open is force-closed clamped to the boundary, exactly like the
//! connection-budget eviction path — continuing flows simply reopen in the
//! next epoch. Nothing is dropped, and no per-connection or per-analyzer
//! state survives a boundary, which yields the two properties the mode is
//! built on: memory is bounded by one epoch's working set, and a
//! checkpoint needs to hold only cumulative scalars plus a capture resume
//! offset. A packet landing exactly on a boundary opens the next epoch.
//!
//! ## Crash safety
//!
//! At each boundary the monitor produces a [`Checkpoint`] whose resume
//! offset points at the packet that *triggered* the rotation (snapshotted
//! before it was read). Resuming replays that packet first, so the
//! remaining epoch reports — and the final cumulative
//! [`PipelineMetrics::events_signature`] — are byte-identical to an
//! uninterrupted run. A checkpoint that fails to load for any reason
//! degrades to a counted cold start ([`IngestHealth::checkpoint_recoveries`]),
//! never an error exit.

use crate::checkpoint::{Checkpoint, CheckpointConfig, CheckpointError};
use crate::error::AnalysisError;
use crate::metrics::{PipelineMetrics, Stage, StageTimer};
use crate::pipeline::{
    expected_conns_hint, post_process, window_analysis, Engine, FrameRef, PipelineConfig,
    StreamClock,
};
use crate::records::{IngestHealth, TraceAnalysis};
use crate::report::fmt_bytes;
use ent_pcap::{IngestStats, RecoveringReader, TraceMeta};
use ent_wire::{Packet, Timestamp};
use std::fmt::Write as _;

/// How a resident monitor is parameterized.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Epoch length in seconds of trace time (must be nonzero).
    pub epoch_secs: u64,
    /// Whether to build a [`Checkpoint`] at each epoch boundary. Off, the
    /// monitor does no checkpoint bookkeeping at all (the `checkpoint`
    /// stage stays zero), so signatures are only comparable between runs
    /// with the same setting.
    pub checkpoints: bool,
    /// The underlying pipeline configuration (budgets, ablations).
    /// `shards` is ignored in monitor mode: the monitor's epoch/checkpoint
    /// machinery is built around one streaming engine, so it always runs
    /// the inline lane.
    pub pipeline: PipelineConfig,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            epoch_secs: 300,
            checkpoints: false,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// Cumulative per-record-kind totals across every flushed epoch — the
/// scalar summary that replaces the batch pipeline's unbounded record
/// vectors in monitor mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorTotals {
    /// Epochs flushed (including the final partial one).
    pub epochs: u64,
    /// Frames analyzed.
    pub packets: u64,
    /// IP (v4 or v6) frames.
    pub ip_packets: u64,
    /// ARP frames.
    pub arp_packets: u64,
    /// IPX frames.
    pub ipx_packets: u64,
    /// Frames of any other network layer.
    pub other_l3_packets: u64,
    /// Wire bytes observed (original lengths, pre-snaplen).
    pub bytes: u64,
    /// Connection records closed (epoch cuts close and re-open).
    pub conns: u64,
    /// HTTP transactions.
    pub http: u64,
    /// DNS queries.
    pub dns: u64,
    /// NBNS transactions.
    pub nbns: u64,
    /// CIFS connections.
    pub cifs: u64,
    /// DCE/RPC calls.
    pub rpc: u64,
    /// NFS operations.
    pub nfs: u64,
    /// NCP operations.
    pub ncp: u64,
    /// TLS connections.
    pub tls: u64,
    /// SMTP messages.
    pub smtp_messages: u64,
    /// IMAP sessions.
    pub imap_sessions: u64,
    /// Scanner connections removed by the paper's §3 filter.
    pub scanner_conns_removed: u64,
    /// Internal↔internal TCP data packets (retransmission denominator).
    pub retx_ent_data: u64,
    /// Internal↔internal TCP retransmitted data packets.
    pub retx_ent_retx: u64,
    /// WAN-crossing TCP data packets.
    pub retx_wan_data: u64,
    /// WAN-crossing TCP retransmitted data packets.
    pub retx_wan_retx: u64,
}

impl MonitorTotals {
    /// Fold one flushed epoch window into the running totals.
    pub fn absorb(&mut self, epoch: &TraceAnalysis) {
        self.epochs += 1;
        self.packets += epoch.packets;
        self.ip_packets += epoch.ip_packets;
        self.arp_packets += epoch.arp_packets;
        self.ipx_packets += epoch.ipx_packets;
        self.other_l3_packets += epoch.other_l3_packets;
        // The authoritative capture byte counter, NOT the per-second bins:
        // binning drops samples whose timestamps land outside the window
        // (wild clocks) and never sees undissectable frames, so summing
        // the bins undercounts cumulative bytes.
        self.bytes += epoch.wire_bytes;
        self.conns += epoch.conns.len() as u64;
        self.http += epoch.http.len() as u64;
        self.dns += epoch.dns.len() as u64;
        self.nbns += epoch.nbns.len() as u64;
        self.cifs += epoch.cifs.len() as u64;
        self.rpc += epoch.rpc.len() as u64;
        self.nfs += epoch.nfs.len() as u64;
        self.ncp += epoch.ncp.len() as u64;
        self.tls += epoch.tls.len() as u64;
        self.smtp_messages += epoch.smtp_message_bytes.len() as u64;
        self.imap_sessions += epoch.imap_polls.len() as u64;
        self.scanner_conns_removed += epoch.scanner_conns_removed;
        self.retx_ent_data += epoch.retx_ent.0;
        self.retx_ent_retx += epoch.retx_ent.1;
        self.retx_wan_data += epoch.retx_wan.0;
        self.retx_wan_retx += epoch.retx_wan.1;
    }
}

/// One flushed epoch: the window's own analysis plus cumulative context.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0-based from the stream base).
    pub index: u64,
    /// Stream base, microseconds (the first packet's timestamp).
    pub base_us: u64,
    /// Epoch start, absolute microseconds.
    pub start_us: u64,
    /// Epoch end, absolute microseconds (boundary, or the last packet for
    /// the final partial epoch).
    pub end_us: u64,
    /// The window's full analysis (post-processed like a batch trace).
    pub analysis: TraceAnalysis,
    /// Cumulative totals including this epoch.
    pub totals: MonitorTotals,
    /// Cumulative ingest health including this epoch. The capture half is
    /// filled by the capture driver (the monitor itself never sees reader
    /// stats).
    pub health: IngestHealth,
    /// Cumulative peak of simultaneously open connections.
    pub peak_open_conns: u64,
}

fn fmt_rel(us: u64, base_us: u64) -> String {
    let s = us.saturating_sub(base_us) / 1_000_000;
    format!("{}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

impl EpochReport {
    /// Render the epoch report. Deterministic by construction: no wall
    /// times, no absolute dates — two runs over the same stream render
    /// byte-identical reports, which is what the kill/resume smoke test
    /// diffs. The `== Epoch N` header is the anchor that test cuts on.
    pub fn render(&self) -> String {
        let a = &self.analysis;
        let epoch_bytes: u64 = a.wire_bytes;
        let mut out = String::with_capacity(512);
        let _ = writeln!(
            out,
            "== Epoch {} [{} .. {}) ==",
            self.index,
            fmt_rel(self.start_us, self.base_us),
            fmt_rel(self.end_us, self.base_us),
        );
        let _ = writeln!(
            out,
            "  packets {}  (ip {}, arp {}, ipx {}, other {})  bytes {}",
            a.packets, a.ip_packets, a.arp_packets, a.ipx_packets, a.other_l3_packets,
            fmt_bytes(epoch_bytes),
        );
        let _ = writeln!(
            out,
            "  conns {}  http {}  dns {}  nbns {}  cifs {}  rpc {}  nfs {}  ncp {}  tls {}  smtp {}  imap {}",
            a.conns.len(), a.http.len(), a.dns.len(), a.nbns.len(), a.cifs.len(),
            a.rpc.len(), a.nfs.len(), a.ncp.len(), a.tls.len(),
            a.smtp_message_bytes.len(), a.imap_polls.len(),
        );
        let _ = writeln!(
            out,
            "  window: scanner-conns-removed {}  evicted {}  pending-dropped {}  retx ent {}/{} wan {}/{}",
            a.scanner_conns_removed,
            a.health.evicted_conns,
            a.health.pending_dropped,
            a.retx_ent.1, a.retx_ent.0, a.retx_wan.1, a.retx_wan.0,
        );
        let t = &self.totals;
        let _ = writeln!(
            out,
            "  cum: epochs {}  packets {}  bytes {}  conns {}  peak-open {}  evicted {}  pending-dropped {}  recoveries {}",
            t.epochs,
            t.packets,
            fmt_bytes(t.bytes),
            t.conns,
            self.peak_open_conns,
            self.health.evicted_conns,
            self.health.pending_dropped,
            self.health.checkpoint_recoveries,
        );
        out
    }
}

/// The terminal cumulative summary of a monitor run.
#[derive(Debug, Clone)]
pub struct MonitorSummary {
    /// Cumulative per-record-kind totals.
    pub totals: MonitorTotals,
    /// Cumulative ingest health, capture stats merged in.
    pub health: IngestHealth,
    /// Cumulative pipeline metrics.
    pub metrics: PipelineMetrics,
}

impl MonitorSummary {
    /// Render the run summary. Deterministic: wall times excluded; the
    /// trailing signature line condenses every event counter, so a diff of
    /// two summaries is a full determinism check.
    pub fn render(&self) -> String {
        let t = &self.totals;
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "== Monitor summary ==");
        let _ = writeln!(
            out,
            "  epochs {}  packets {}  bytes {}  conns {}",
            t.epochs,
            t.packets,
            fmt_bytes(t.bytes),
            t.conns,
        );
        let _ = writeln!(
            out,
            "  apps: http {}  dns {}  nbns {}  cifs {}  rpc {}  nfs {}  ncp {}  tls {}  smtp {}  imap {}",
            t.http, t.dns, t.nbns, t.cifs, t.rpc, t.nfs, t.ncp, t.tls,
            t.smtp_messages, t.imap_sessions,
        );
        let _ = writeln!(
            out,
            "  state: peak-open {}  evicted {}  pending-dropped {}  scanner-conns-removed {}  recoveries {}",
            self.metrics.peak_open_conns,
            self.health.evicted_conns,
            self.health.pending_dropped,
            t.scanner_conns_removed,
            self.health.checkpoint_recoveries,
        );
        let _ = writeln!(out, "  ingest: {}", self.health);
        let _ = writeln!(
            out,
            "  events-signature {:016x}",
            self.metrics.events_signature_hash(),
        );
        out
    }
}

/// The resident monitor: the batch session's own pieces — the stream
/// clock's per-frame step, one inline [`Engine`], the engine's
/// window-close step — with the window closed at every epoch boundary
/// instead of once, plus cumulative accounting and checkpoint production.
///
/// Feed it timed frames via [`Monitor::observe`]; it returns the epoch
/// reports each frame flushes (usually none). Close the stream with
/// [`Monitor::finish`]. The capture-file front end around this is
/// [`drive_capture`].
pub struct Monitor {
    cfg: MonitorConfig,
    meta: TraceMeta,
    engine: Engine,
    /// The stream clock; its base is the first packet's timestamp, from
    /// which every epoch boundary is measured.
    clock: StreamClock,
    epoch_index: u64,
    totals: MonitorTotals,
    health: IngestHealth,
    metrics: PipelineMetrics,
    prior_capture: IngestStats,
    boundaries: Vec<Checkpoint>,
}

impl Monitor {
    /// Start a cold monitor. `meta` carries the stream's identity
    /// (dataset label, snaplen — which decides whether payload analyzers
    /// run, link capacity); `packets_hint` pre-sizes the connection table.
    pub fn new(meta: TraceMeta, cfg: MonitorConfig, packets_hint: usize) -> Monitor {
        let epoch_secs = cfg.epoch_secs.max(1);
        let expected = expected_conns_hint(packets_hint);
        let out = window_analysis(&meta, epoch_secs);
        let engine = Engine::new(out, &cfg.pipeline, meta.has_payload(), expected);
        // One stream, one "trace" — counted once, not per epoch, so the
        // cumulative signature matches however often the stream rotates.
        let metrics = PipelineMetrics {
            traces: 1,
            ..PipelineMetrics::default()
        };
        Monitor {
            cfg: MonitorConfig {
                epoch_secs,
                ..cfg
            },
            meta,
            engine,
            clock: StreamClock::default(),
            epoch_index: 0,
            totals: MonitorTotals::default(),
            health: IngestHealth::default(),
            metrics,
            prior_capture: IngestStats::default(),
            boundaries: Vec::new(),
        }
    }

    /// Resume a monitor from a loaded checkpoint. Fails with
    /// [`CheckpointError::ConfigMismatch`] if the checkpoint was written
    /// under different budgets, epoch length, or ablations — resuming
    /// would silently change results, so the caller must fall back to a
    /// counted cold start instead.
    pub fn from_checkpoint(
        meta: TraceMeta,
        cfg: MonitorConfig,
        ck: &Checkpoint,
        packets_hint: usize,
    ) -> Result<Monitor, CheckpointError> {
        let want = CheckpointConfig {
            max_conns: cfg.pipeline.max_conns as u64,
            max_pending: cfg.pipeline.max_pending as u64,
            keep_scanners: cfg.pipeline.keep_scanners,
            payload_ok: meta.has_payload(),
        };
        if ck.config != want {
            return Err(CheckpointError::ConfigMismatch("budgets or ablations"));
        }
        if ck.epoch_len_us != cfg.epoch_secs.max(1) * 1_000_000 {
            return Err(CheckpointError::ConfigMismatch("epoch length"));
        }
        let mut m = Monitor::new(meta, cfg, packets_hint);
        m.clock.base_us = ck.stream_base_us;
        m.epoch_index = ck.epoch_index;
        m.totals = ck.totals;
        m.health = ck.health;
        m.metrics = ck.metrics;
        m.prior_capture = ck.capture;
        m.engine.restore_table_carry(ck.carry);
        for &(addr, port, proto) in &ck.dynamic_ports {
            m.engine.learn_dynamic(addr, port, proto);
        }
        if m.clock.base_us.is_some() {
            m.engine.set_window_base(m.epoch_start_us());
        }
        Ok(m)
    }

    fn epoch_len_us(&self) -> u64 {
        self.cfg.epoch_secs * 1_000_000
    }

    fn epoch_start_us(&self) -> u64 {
        self.clock
            .base_us
            .unwrap_or(0)
            .saturating_add(self.epoch_index.saturating_mul(self.epoch_len_us()))
    }

    /// Index of the epoch currently being filled.
    pub fn epoch_index(&self) -> u64 {
        self.epoch_index
    }

    /// Capture-layer stats inherited from checkpointed prior runs.
    pub fn prior_capture(&self) -> &IngestStats {
        &self.prior_capture
    }

    /// Record that a checkpoint failed to load and this monitor is the
    /// resulting cold start. Shows up in every subsequent report's
    /// cumulative health and in the bench document.
    pub fn note_checkpoint_recovery(&mut self) {
        self.health.checkpoint_recoveries += 1;
    }

    /// Take the boundary checkpoints produced since the last call, in
    /// rotation order, 1:1 with the reports the producing
    /// [`Monitor::observe`] calls returned. Empty unless
    /// [`MonitorConfig::checkpoints`] is on. The monitor cannot know
    /// capture positions, so [`Checkpoint::resume_offset`],
    /// [`Checkpoint::reader_clock_us`] and [`Checkpoint::capture`] are
    /// zeroed here — the capture driver patches them before writing.
    pub fn take_boundaries(&mut self) -> Vec<Checkpoint> {
        std::mem::take(&mut self.boundaries)
    }

    /// Feed one timed frame. Returns the epoch reports this frame flushed:
    /// usually none, one at a boundary crossing, several when the stream
    /// gaps across empty epochs.
    pub fn observe(&mut self, ts: Timestamp, frame: &[u8], orig_len: u32) -> Vec<EpochReport> {
        let parsed = Packet::parse(frame);
        let pkt = parsed.as_ref().ok();
        if self.clock.tick(ts, pkt.is_some()) {
            // The load bins are epoch-relative: based at the epoch start,
            // which for epoch 0 is this first packet.
            self.engine.set_window_base(self.epoch_start_us());
        }
        let mut reports = Vec::new();
        while ts.micros() >= self.epoch_start_us().saturating_add(self.epoch_len_us()) {
            reports.push(self.rotate(None));
        }
        self.engine.ingest_dissected(FrameRef { ts, frame, orig_len }, pkt);
        reports
    }

    /// Flush the window ending at `end_us` (the boundary for interior
    /// epochs, the last packet's timestamp for the final one — `final_end`
    /// set). Folds the window into the cumulative state, advances the
    /// epoch, and (interior epochs, checkpoints on) queues a boundary
    /// checkpoint.
    fn rotate(&mut self, final_end: Option<u64>) -> EpochReport {
        let start_us = self.epoch_start_us();
        let end_us = final_end.unwrap_or_else(|| start_us.saturating_add(self.epoch_len_us()));
        let mut rt = StageTimer::start();
        let next = window_analysis(&self.meta, self.cfg.epoch_secs);
        // Connections closed by the cut itself = records the close
        // appends beyond those already closed within the window.
        let closed_in_window = self.engine.window_conns();
        let mut epoch = self
            .engine
            .close_window(Timestamp::from_micros(end_us), next);
        let forced = (epoch.conns.len() - closed_in_window) as u64;
        epoch.duration_secs = end_us.saturating_sub(start_us).div_ceil(1_000_000);
        epoch.metrics.stages[Stage::EpochRotate].add(rt.lap(), 1, forced);
        post_process(&mut epoch, &self.cfg.pipeline);

        self.totals.absorb(&epoch);
        self.health.absorb(&epoch.health);
        self.metrics.absorb(&epoch.metrics);
        self.epoch_index += 1;
        self.engine.set_window_base(self.epoch_start_us());

        if self.cfg.checkpoints && final_end.is_none() {
            // The checkpoint's own event is counted *before* the state is
            // cloned into it, so checkpoint k's file already contains
            // checkpoint k — kill-and-resume then counts each boundary
            // exactly once, keeping the cumulative signature identical to
            // an uninterrupted run.
            let mut ct = StageTimer::start();
            let mut ck = Checkpoint {
                epoch_len_us: self.epoch_len_us(),
                epoch_index: self.epoch_index,
                stream_base_us: self.clock.base_us,
                resume_offset: 0,
                reader_clock_us: None,
                capture: IngestStats::default(),
                carry: self.engine.table_carry(),
                health: self.health,
                metrics: PipelineMetrics::default(),
                totals: self.totals,
                dynamic_ports: self.engine.dynamic_ports().export(),
                config: CheckpointConfig {
                    max_conns: self.cfg.pipeline.max_conns as u64,
                    max_pending: self.cfg.pipeline.max_pending as u64,
                    keep_scanners: self.cfg.pipeline.keep_scanners,
                    payload_ok: self.meta.has_payload(),
                },
            };
            self.metrics.stages[Stage::Checkpoint].add(ct.lap().max(1), 1, 0);
            ck.metrics = self.metrics;
            self.boundaries.push(ck);
        }

        EpochReport {
            index: self.epoch_index - 1,
            base_us: self.clock.base_us.unwrap_or(0),
            start_us,
            end_us,
            analysis: epoch,
            totals: self.totals,
            health: self.health,
            peak_open_conns: self.metrics.peak_open_conns,
        }
    }

    /// End the stream: flush the final partial epoch (if any packet ever
    /// arrived), merge the capture reader's damage tally into the
    /// cumulative health, and return the terminal summary alongside the
    /// final epoch's report.
    pub fn finish(&mut self, capture: &IngestStats) -> (Option<EpochReport>, MonitorSummary) {
        // The batch end-of-trace rule with the flushed epochs standing in
        // for the nominal duration: the last packet seen, never before the
        // open epoch's start.
        let flushed_us = self.epoch_index.saturating_mul(self.epoch_len_us());
        let last = self
            .clock
            .base_us
            .is_some()
            .then(|| self.rotate(Some(self.clock.end_after(flushed_us).micros())));
        let mut merged = self.prior_capture;
        merged.absorb(capture);
        self.health.capture = merged;
        let last = last.map(|mut rep| {
            rep.health.capture = self.health.capture;
            rep
        });
        (
            last,
            MonitorSummary {
                totals: self.totals,
                health: self.health,
                metrics: self.metrics,
            },
        )
    }
}

/// Build a [`TraceMeta`] for a capture the monitor is about to consume:
/// the label you give it, the snaplen from the capture's global header
/// (deciding whether payload analyzers run), and the paper's nominal
/// 100 Mb/s link. Fails only if the global header is unusable.
pub fn capture_meta(name: &str, data: &[u8]) -> Result<TraceMeta, AnalysisError> {
    let reader = RecoveringReader::new(data)?;
    Ok(TraceMeta {
        dataset: name.into(),
        subnet: 0,
        pass: 0,
        duration: Timestamp::ZERO,
        snaplen: reader.snaplen(),
        link_capacity_bps: 100_000_000,
    })
}

/// Drive a monitor over a serialized capture: the shared front end of the
/// CLI `monitor` subcommand and the kill/resume tests.
///
/// Each record's byte offset, clock watermark and damage tally are
/// snapshotted *before* it is read, so the checkpoint queued by an epoch
/// rotation points at the packet that triggered it — resume replays that
/// packet and the stream continues bit-for-bit.
///
/// `resume` reopens the capture at a checkpoint's
/// (`resume_offset`, `reader_clock_us`). `stop_after_epochs` ends the run
/// after that many epoch flushes *without* the final flush — a simulated
/// kill, returning `None`. A completed run returns the terminal summary.
///
/// `on_epoch` sees every flushed epoch in order; `on_checkpoint` sees each
/// boundary checkpoint (patched with resume position and capture stats)
/// when [`MonitorConfig::checkpoints`] is on.
pub fn drive_capture(
    data: &[u8],
    monitor: &mut Monitor,
    resume: Option<(u64, Option<u64>)>,
    stop_after_epochs: Option<u64>,
    mut on_epoch: impl FnMut(&EpochReport),
    mut on_checkpoint: impl FnMut(&Checkpoint),
) -> Result<Option<MonitorSummary>, AnalysisError> {
    let mut reader = match resume {
        Some((offset, clock)) => RecoveringReader::resume(data, offset, clock)?,
        None => RecoveringReader::new(data)?,
    };
    let mut flushed = 0u64;
    loop {
        let pos = reader.position();
        let clock = reader.last_clock_us();
        let stats_before = *reader.stats();
        let Some(r) = reader.next_record() else { break };
        let reports = monitor.observe(r.ts, r.frame, r.orig_len);
        if reports.is_empty() {
            continue;
        }
        let mut capture = *monitor.prior_capture();
        capture.absorb(&stats_before);
        let mut boundaries = monitor.take_boundaries().into_iter();
        for mut rep in reports {
            rep.health.capture = capture;
            on_epoch(&rep);
            if let Some(mut ck) = boundaries.next() {
                ck.resume_offset = pos;
                ck.reader_clock_us = clock;
                ck.capture = capture;
                on_checkpoint(&ck);
            }
            flushed += 1;
            if stop_after_epochs.is_some_and(|n| flushed >= n) {
                return Ok(None);
            }
        }
    }
    let (last, summary) = monitor.finish(reader.stats());
    if let Some(rep) = last {
        on_epoch(&rep);
    }
    Ok(Some(summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            dataset: "mon-test".into(),
            subnet: 0,
            pass: 0,
            duration: Timestamp::ZERO,
            snaplen: 65_535,
            link_capacity_bps: 100_000_000,
        }
    }

    fn udp_frame(sport: u16, dport: u16) -> Vec<u8> {
        // Minimal Ethernet+IPv4+UDP frame with an empty payload.
        let src = ent_wire::ipv4::Addr::new(10, 100, 0, 1);
        let dst = ent_wire::ipv4::Addr::new(10, 100, 0, 2);
        let udp = ent_wire::udp::emit(src, dst, sport, dport, &[]);
        let ip = ent_wire::ipv4::emit(src, dst, ent_wire::ipv4::Protocol::Udp, 64, 1, &udp);
        let mut f = Vec::new();
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]);
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]);
        f.extend_from_slice(&0x0800u16.to_be_bytes());
        f.extend_from_slice(&ip);
        f
    }

    #[test]
    fn boundary_packet_opens_the_next_epoch() {
        let mut m = Monitor::new(meta(), MonitorConfig::default(), 64);
        let f = udp_frame(40_000, 9);
        assert!(m
            .observe(Timestamp::from_secs(10), &f, f.len() as u32)
            .is_empty());
        // Exactly at the boundary: epoch 0 flushes, the packet lands in 1.
        let reports = m.observe(Timestamp::from_secs(310), &f, f.len() as u32);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].index, 0);
        assert_eq!(reports[0].analysis.packets, 1);
        assert_eq!(reports[0].totals.epochs, 1);
        let (last, summary) = m.finish(&IngestStats::default());
        let last = last.expect("final epoch");
        assert_eq!(last.index, 1);
        assert_eq!(summary.totals.packets, 2);
        assert_eq!(summary.totals.epochs, 2);
    }

    #[test]
    fn a_stream_gap_flushes_empty_epochs() {
        let mut m = Monitor::new(meta(), MonitorConfig::default(), 64);
        let f = udp_frame(40_001, 9);
        m.observe(Timestamp::from_secs(0), &f, f.len() as u32);
        // Jump across three whole epochs: 0 (with the packet), 1 and 2
        // (empty) flush; the new packet lands in epoch 3.
        let reports = m.observe(Timestamp::from_secs(1000), &f, f.len() as u32);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[1].analysis.packets, 0);
        assert_eq!(reports[2].analysis.packets, 0);
        let (last, _) = m.finish(&IngestStats::default());
        assert_eq!(last.expect("final").index, 3);
    }

    #[test]
    fn epoch_reports_render_without_wall_times() {
        let mut m = Monitor::new(meta(), MonitorConfig::default(), 64);
        let f = udp_frame(40_002, 9);
        m.observe(Timestamp::from_secs(1), &f, f.len() as u32);
        let reports = m.observe(Timestamp::from_secs(301), &f, f.len() as u32);
        let text = reports[0].render();
        assert!(text.starts_with("== Epoch 0 [0:00:00 .. 0:05:00) =="), "{text}");
        assert!(text.contains("packets 1"), "{text}");
        let (_, summary) = m.finish(&IngestStats::default());
        assert!(summary.render().contains("events-signature"), "no signature");
    }

    #[test]
    fn checkpoints_queue_one_per_interior_boundary() {
        let cfg = MonitorConfig {
            checkpoints: true,
            ..MonitorConfig::default()
        };
        let mut m = Monitor::new(meta(), cfg, 64);
        let f = udp_frame(40_003, 9);
        m.observe(Timestamp::from_secs(0), &f, f.len() as u32);
        let reports = m.observe(Timestamp::from_secs(700), &f, f.len() as u32);
        assert_eq!(reports.len(), 2);
        let cks = m.take_boundaries();
        assert_eq!(cks.len(), 2);
        assert_eq!(cks[0].epoch_index, 1);
        assert_eq!(cks[1].epoch_index, 2);
        assert_eq!(cks[1].metrics.stages[Stage::Checkpoint].events, 2);
        assert!(m.take_boundaries().is_empty());
        // The final flush never queues a checkpoint.
        let _ = m.finish(&IngestStats::default());
        assert!(m.take_boundaries().is_empty());
    }

    #[test]
    fn cumulative_bytes_use_the_wire_counter_not_the_bins() {
        // Regression: totals.bytes used to be derived by summing the
        // per-second load bins, which never see frames the dissector
        // rejects (and drop wild-timestamp samples in batch mode). The
        // cumulative counter must come from the authoritative wire-byte
        // tally instead.
        let mut m = Monitor::new(meta(), MonitorConfig::default(), 64);
        let f = udp_frame(40_005, 9);
        m.observe(Timestamp::from_secs(0), &f, f.len() as u32);
        // Undissectable frame with a large original (pre-snaplen) length:
        // real capture bytes, invisible to the bins.
        let damaged = vec![0xFF; 9];
        m.observe(Timestamp::from_secs(1), &damaged, 1_000);
        m.observe(Timestamp::from_secs(2), &f, f.len() as u32);
        let (last, summary) = m.finish(&IngestStats::default());
        assert_eq!(summary.health.malformed_frames, 1);
        assert_eq!(summary.totals.bytes, 2 * f.len() as u64 + 1_000);
        // The bins really did miss the damaged frame — the undercount the
        // old derivation would have produced.
        let binned: u64 = last
            .expect("final epoch")
            .analysis
            .bytes_per_second
            .iter()
            .sum();
        assert!(binned < summary.totals.bytes, "bins {binned} should undercount");
    }

    #[test]
    fn config_mismatch_refuses_resume() {
        let cfg = MonitorConfig {
            checkpoints: true,
            ..MonitorConfig::default()
        };
        let mut m = Monitor::new(meta(), cfg.clone(), 64);
        let f = udp_frame(40_004, 9);
        m.observe(Timestamp::from_secs(0), &f, f.len() as u32);
        m.observe(Timestamp::from_secs(400), &f, f.len() as u32);
        let ck = m.take_boundaries().pop().expect("boundary");
        let mut narrow = cfg.clone();
        narrow.pipeline.max_conns = 7;
        assert!(matches!(
            Monitor::from_checkpoint(meta(), narrow, &ck, 64),
            Err(CheckpointError::ConfigMismatch(_))
        ));
        let mut other_epoch = cfg;
        other_epoch.epoch_secs = 60;
        assert!(matches!(
            Monitor::from_checkpoint(meta(), other_epoch, &ck, 64),
            Err(CheckpointError::ConfigMismatch(_))
        ));
    }
}
