//! One operation = one trace analysed. The calls into `ent-core` for each
//! capture mode live here, shared by the untraced and the traced runs,
//! together with the counts every operation is checked by.

use crate::input::Capture;
use crate::BenchError;
use ent_core::pipeline::analyze_packets;
use ent_core::{
    analyze_capture, capture_meta, drive_capture, IngestHealth, Monitor, MonitorConfig,
    MonitorSummary, MonitorTotals, PipelineConfig, TraceAnalysis,
};
use ent_pcap::RecoveringReader;
use std::hint::black_box;

/// Trace-time length of a monitor epoch.
const EPOCH_SECS: u64 = 60;

/// What one analysed trace must reproduce exactly, every iteration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    /// Packets the analysis saw.
    pub packets: u64,
    /// Their summed wire lengths.
    pub wire_bytes: u64,
    /// Connection records.
    pub conns: u64,
    /// Connections removed as scanner traffic.
    pub scanner_conns_removed: u64,
    /// Records per kind: http, dns, nbns, cifs, rpc, nfs, ncp, tls, smtp
    /// messages, imap sessions.
    pub records: [u64; 10],
}

impl Counts {
    /// The counts of a batch analysis.
    pub fn of(a: &TraceAnalysis) -> Counts {
        Counts {
            packets: a.packets,
            wire_bytes: a.wire_bytes,
            conns: a.conns.len() as u64,
            scanner_conns_removed: a.scanner_conns_removed,
            records: [
                a.http.len(),
                a.dns.len(),
                a.nbns.len(),
                a.cifs.len(),
                a.rpc.len(),
                a.nfs.len(),
                a.ncp.len(),
                a.tls.len(),
                a.smtp_message_bytes.len(),
                a.imap_polls.len(),
            ]
            .map(|n| n as u64),
        }
    }

    /// The counts of a finished monitor run.
    pub fn of_totals(t: &MonitorTotals) -> Counts {
        Counts {
            packets: t.packets,
            wire_bytes: t.bytes,
            conns: t.conns,
            scanner_conns_removed: t.scanner_conns_removed,
            records: [
                t.http,
                t.dns,
                t.nbns,
                t.cifs,
                t.rpc,
                t.nfs,
                t.ncp,
                t.tls,
                t.smtp_messages,
                t.imap_sessions,
            ],
        }
    }
}

/// The outcome of one operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpResult {
    /// What it counted.
    pub counts: Counts,
    /// Saw exactly the frames it was fed, with a clean `IngestHealth`.
    pub ok: bool,
}

impl OpResult {
    /// Judge a batch analysis against the frames it was fed.
    pub fn of(a: &TraceAnalysis, fed: &Capture) -> OpResult {
        OpResult {
            counts: Counts::of(a),
            ok: (a.packets, a.wire_bytes) == (fed.packets, fed.wire_bytes) && undamaged(&a.health),
        }
    }

    /// Judge a finished monitor run against the frames it was fed.
    pub fn of_monitor(summary: &MonitorSummary, fed: &Capture) -> OpResult {
        let t = &summary.totals;
        OpResult {
            counts: Counts::of_totals(t),
            ok: (t.packets, t.bytes) == (fed.packets, fed.wire_bytes) && undamaged(&summary.health),
        }
    }
}

/// Nothing lost, repaired, evicted or demoted on the way in:
/// `IngestHealth::is_clean` but for the two clock-regression counters.
/// The recovering reader pins a forward jump of more than 60 s that the
/// next record does not corroborate and tallies it as a regression, which
/// a quiet minute in a sparse but intact trace (every smoke-scale D3
/// trace) sets off.
pub fn undamaged(h: &IngestHealth) -> bool {
    let mut h = h.clone();
    h.clock_regressions = 0;
    h.capture.clock_regressions = 0;
    h.is_clean()
}

/// `entreport analyze FILE.pcap`'s work: the buffer through
/// `analyze_capture`.
pub fn serial(cap: &Capture, config: &PipelineConfig) -> Result<TraceAnalysis, BenchError> {
    Ok(analyze_capture(&cap.data, cap.meta.clone(), config)?)
}

/// The same records through the shard dispatcher with one worker.
pub fn sharded(cap: &Capture) -> Result<TraceAnalysis, BenchError> {
    let config = PipelineConfig {
        shards: 1,
        ..PipelineConfig::default()
    };
    let mut reader = RecoveringReader::new(&cap.data)?;
    let mut meta = cap.meta.clone();
    meta.snaplen = reader.snaplen();
    let records = std::iter::from_fn(|| reader.next_record().map(|r| (r.ts, r.frame, r.orig_len)));
    let mut analysis = analyze_packets(&meta, records, &config, cap.packets as usize);
    analysis.health.capture = reader.stats().clone();
    Ok(analysis)
}

/// A cold monitor for `cap`, configured as `entreport monitor FILE.pcap
/// --epoch-secs 60 --checkpoint PATH` configures it.
pub fn cold_monitor(cap: &Capture) -> Result<Monitor, BenchError> {
    let meta = capture_meta(&cap.meta.dataset, &cap.data)?;
    let config = MonitorConfig {
        epoch_secs: EPOCH_SECS,
        checkpoints: true,
        pipeline: PipelineConfig::default(),
    };
    Ok(Monitor::new(meta, config, cap.data.len() / 600))
}

/// The monitor's processor work: a cold monitor driven over the buffer,
/// every boundary checkpoint built and encoded. The bytes are not written
/// out here: on the reference box the `write_atomic` of 1 300 checkpoints
/// per pass made throughput swing 3x from run to run with the
/// filesystem's mood, which no change to this program causes or cures.
/// The traced run does write them, and reports the write as
/// `core.checkpoint.write_us_p50`.
pub fn monitor(cap: &Capture) -> Result<OpResult, BenchError> {
    let mut mon = cold_monitor(cap)?;
    let summary = drive_capture(
        &cap.data,
        &mut mon,
        None,
        None,
        |_| {},
        |ck| {
            black_box(ck.encode());
        },
    )?;
    let summary = summary.ok_or_else(|| BenchError("monitor stopped early".to_string()))?;
    Ok(OpResult::of_monitor(&summary, cap))
}
