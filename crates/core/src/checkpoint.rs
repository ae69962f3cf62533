//! Crash-safe monitor checkpoints — the versioned, checksummed snapshot a
//! resident monitor writes at each epoch boundary.
//!
//! Because the monitor rotates its connection table at every epoch
//! boundary (closing all open connections, exactly like a forced
//! eviction), the state that must survive a crash is *scalars only*: the
//! cumulative aggregates, the capture resume offset, and the flow table's
//! carry (clock watermark + lifetime counters). No per-connection or
//! per-analyzer parse state ever crosses an epoch boundary, which is what
//! makes kill-and-resume byte-identical to an uninterrupted run.
//!
//! The file format is deliberately dumb: a magic/version/length header, an
//! FNV-1a checksum over the payload, then fixed-order little-endian
//! fields. A checkpoint damaged in any way — truncated write, flipped
//! bits, version from the future, config mismatch — parses to a typed
//! [`CheckpointError`]; the monitor degrades to a counted cold start, it
//! never crashes on its own state file.

use crate::metrics::{PipelineMetrics, StageStat};
use crate::monitor::MonitorTotals;
use crate::records::IngestHealth;
use ent_flow::TableCarry;
use ent_pcap::IngestStats;
use ent_proto::AppProtocol;
use ent_wire::{ipv4, Timestamp};
use std::path::Path;

/// File magic: 8 bytes at offset 0.
pub const MAGIC: [u8; 8] = *b"ENTCKPT\0";

/// Current format version. Bumped to 2 when the `shard_ingest` stage was
/// added to [`PipelineMetrics`] (one more stage record in the metrics
/// block); version-1 files degrade to a counted cold start like any other
/// unreadable checkpoint.
pub const VERSION: u32 = 2;

/// Why a checkpoint could not be loaded. Every variant is recoverable —
/// the monitor answers all of them with a counted cold start.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error reading or writing the checkpoint.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The version field names a format this build does not understand.
    UnsupportedVersion(u32),
    /// The file is shorter than its header claims (torn write).
    Truncated,
    /// The payload checksum does not match (bit rot / corruption).
    ChecksumMismatch,
    /// A payload field failed to decode.
    Malformed(&'static str),
    /// The checkpoint was written under a different monitor configuration
    /// and cannot seed an equivalent resume.
    ConfigMismatch(&'static str),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint truncated mid-payload"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint field: {what}"),
            CheckpointError::ConfigMismatch(what) => {
                write!(f, "checkpoint config mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The monitor configuration a checkpoint was written under. Resuming
/// under different budgets or ablations would silently change results, so
/// a mismatch is a typed error (answered with a cold start), not a guess.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Connection-table budget (0 = unbounded).
    pub max_conns: u64,
    /// Pending-transaction budget (0 = unbounded).
    pub max_pending: u64,
    /// Scanner traffic kept (ablation) rather than removed.
    pub keep_scanners: bool,
    /// Payload analyzers enabled (snaplen allowed full payloads).
    pub payload_ok: bool,
}

/// Everything a monitor needs to resume mid-stream as if it never died.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Epoch length, microseconds of trace time.
    pub epoch_len_us: u64,
    /// Index of the *next* epoch (epochs `0..epoch_index` are fully
    /// reported and folded into the cumulative state below).
    pub epoch_index: u64,
    /// Stream base: the first packet's timestamp (`None` only for a
    /// checkpoint written before any packet arrived).
    pub stream_base_us: Option<u64>,
    /// Byte offset into the capture to resume reading at. Never trusted
    /// blindly — a stale offset lands in the recovering reader's resync
    /// path, not in undefined behavior.
    pub resume_offset: u64,
    /// The capture reader's monotone clock watermark at the boundary.
    pub reader_clock_us: Option<u64>,
    /// Cumulative capture-layer salvage stats up to the boundary.
    pub capture: IngestStats,
    /// The connection table's cross-epoch scalar state.
    pub carry: TableCarry,
    /// Cumulative ingest-health counters across all reported epochs.
    pub health: IngestHealth,
    /// Cumulative pipeline metrics across all reported epochs.
    pub metrics: PipelineMetrics,
    /// Cumulative per-record-kind totals across all reported epochs.
    pub totals: MonitorTotals,
    /// Dynamically learned port→protocol mappings (sorted).
    pub dynamic_ports: Vec<(ipv4::Addr, u16, AppProtocol)>,
    /// The configuration the checkpoint was written under.
    pub config: CheckpointConfig,
}

// --------------------------------------------------------------------------
// Little-endian field writers/readers. The reader is a bounds-checked
// cursor: parsing never indexes, so a hostile file cannot panic the
// monitor (E001 holds for this crate).
// --------------------------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    buf.push(u8::from(v.is_some()));
    put_u64(buf, v.unwrap_or(0));
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or(CheckpointError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let s = self.take(2)?;
        let mut b = [0u8; 2];
        b.copy_from_slice(s);
        Ok(u16::from_le_bytes(b))
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(*self.take(1)?.first().unwrap_or(&0))
    }

    fn boolean(&mut self, what: &'static str) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed(what)),
        }
    }

    fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, CheckpointError> {
        let present = self.boolean(what)?;
        let v = self.u64()?;
        Ok(present.then_some(v))
    }
}

/// FNV-1a over the payload: not cryptographic, but a torn write or a run
/// of flipped bits has no realistic chance of colliding, which is the
/// threat model for a local state file.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_stage(buf: &mut Vec<u8>, s: &StageStat) {
    put_u64(buf, s.wall_ns);
    put_u64(buf, s.events);
    put_u64(buf, s.bytes);
}

fn take_stage(c: &mut Cursor<'_>) -> Result<StageStat, CheckpointError> {
    Ok(StageStat {
        wall_ns: c.u64()?,
        events: c.u64()?,
        bytes: c.u64()?,
    })
}

impl Checkpoint {
    /// Serialize to the on-disk byte format (header + checksum + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(1024);
        put_u64(&mut p, self.epoch_len_us);
        put_u64(&mut p, self.epoch_index);
        put_opt_u64(&mut p, self.stream_base_us);
        put_u64(&mut p, self.resume_offset);
        put_opt_u64(&mut p, self.reader_clock_us);
        // Capture reader stats.
        put_u64(&mut p, self.capture.records);
        put_u64(&mut p, self.capture.malformed_records);
        put_u64(&mut p, self.capture.repaired_records);
        put_u64(&mut p, self.capture.zero_len_records);
        put_u64(&mut p, self.capture.clock_regressions);
        put_u64(&mut p, self.capture.bytes_skipped);
        put_bool(&mut p, self.capture.truncated_tail);
        put_bool(&mut p, self.capture.snaplen_clamped);
        // Connection-table carry.
        put_opt_u64(&mut p, self.carry.last_ts.map(|t| t.micros()));
        put_u64(&mut p, self.carry.stats.clock_regressions);
        put_u64(&mut p, self.carry.stats.evicted_conns);
        put_u64(&mut p, self.carry.stats.peak_open_conns);
        // Cumulative ingest health (capture half zeroed: the authoritative
        // capture stats live above; health.capture is reassembled on
        // resume from prior + live reader stats).
        put_u64(&mut p, self.health.malformed_frames);
        put_u64(&mut p, self.health.clock_regressions);
        put_u64(&mut p, self.health.evicted_conns);
        put_u64(&mut p, self.health.analyzer_failures);
        put_u64(&mut p, self.health.demoted_conns);
        put_u64(&mut p, self.health.load_samples_out_of_range);
        put_u64(&mut p, self.health.pending_dropped);
        put_u64(&mut p, self.health.checkpoint_recoveries);
        // Cumulative pipeline metrics: every stage in `Stage::ALL` order,
        // every analyzer in `AnalyzerKind::ALL` order, then the scalars.
        for (_, s) in self.metrics.stages.named().chain(self.metrics.analyzers.named()) {
            put_stage(&mut p, s);
        }
        put_u64(&mut p, self.metrics.peak_open_conns);
        put_u64(&mut p, self.metrics.trace_wall_ns);
        put_u64(&mut p, self.metrics.traces);
        // Monitor totals.
        self.totals.encode_into(&mut p);
        // Dynamic ports (sorted by the exporter; tag 1 = DCE/RPC, the only
        // protocol the pipeline ever learns dynamically).
        put_u64(&mut p, self.dynamic_ports.len() as u64);
        for &(addr, port, proto) in &self.dynamic_ports {
            p.extend_from_slice(&addr.0.to_le_bytes());
            p.extend_from_slice(&port.to_le_bytes());
            p.push(match proto {
                AppProtocol::DceRpc => 1,
                _ => 0,
            });
        }
        // Config echo.
        put_u64(&mut p, self.config.max_conns);
        put_u64(&mut p, self.config.max_pending);
        put_bool(&mut p, self.config.keep_scanners);
        put_bool(&mut p, self.config.payload_ok);

        let mut out = Vec::with_capacity(28 + p.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&p).to_le_bytes());
        out.extend_from_slice(&p);
        out
    }

    /// Parse the on-disk byte format, verifying magic, version, length and
    /// checksum before touching any payload field.
    pub fn parse(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut c = Cursor { bytes, pos: 0 };
        if c.take(8).map_err(|_| CheckpointError::Truncated)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = c.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let payload_len = c.u64()? as usize;
        let checksum = c.u64()?;
        let payload = c.take(payload_len).map_err(|_| CheckpointError::Truncated)?;
        if bytes.len() > 28 + payload_len {
            // Trailing garbage is as suspicious as a short file.
            return Err(CheckpointError::Malformed("trailing bytes"));
        }
        if fnv1a(payload) != checksum {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut c = Cursor {
            bytes: payload,
            pos: 0,
        };
        let mut ck = Checkpoint {
            epoch_len_us: c.u64()?,
            epoch_index: c.u64()?,
            stream_base_us: c.opt_u64("stream_base flag")?,
            resume_offset: c.u64()?,
            reader_clock_us: c.opt_u64("reader_clock flag")?,
            ..Checkpoint::default()
        };
        if ck.epoch_len_us == 0 {
            return Err(CheckpointError::Malformed("zero epoch length"));
        }
        ck.capture = IngestStats {
            records: c.u64()?,
            malformed_records: c.u64()?,
            repaired_records: c.u64()?,
            zero_len_records: c.u64()?,
            clock_regressions: c.u64()?,
            bytes_skipped: c.u64()?,
            truncated_tail: c.boolean("truncated_tail flag")?,
            snaplen_clamped: c.boolean("snaplen_clamped flag")?,
        };
        ck.carry = TableCarry {
            last_ts: c.opt_u64("carry clock flag")?.map(Timestamp::from_micros),
            stats: ent_flow::FlowStats {
                clock_regressions: c.u64()?,
                evicted_conns: c.u64()?,
                peak_open_conns: c.u64()?,
            },
        };
        ck.health.malformed_frames = c.u64()?;
        ck.health.clock_regressions = c.u64()?;
        ck.health.evicted_conns = c.u64()?;
        ck.health.analyzer_failures = c.u64()?;
        ck.health.demoted_conns = c.u64()?;
        ck.health.load_samples_out_of_range = c.u64()?;
        ck.health.pending_dropped = c.u64()?;
        ck.health.checkpoint_recoveries = c.u64()?;
        let m = &mut ck.metrics;
        for stat in m.stages.iter_mut().chain(m.analyzers.iter_mut()) {
            *stat = take_stage(&mut c)?;
        }
        m.peak_open_conns = c.u64()?;
        m.trace_wall_ns = c.u64()?;
        m.traces = c.u64()?;
        ck.totals = MonitorTotals::decode_from(&mut c)?;
        let n_ports = c.u64()?;
        // A corrupt count would otherwise drive a huge allocation; the
        // payload bound caps it naturally (7 bytes per entry).
        if n_ports > (payload.len() as u64) / 7 {
            return Err(CheckpointError::Malformed("dynamic port count"));
        }
        let mut ports = Vec::with_capacity(n_ports as usize);
        for _ in 0..n_ports {
            let addr = ipv4::Addr(c.u32()?);
            let port = c.u16()?;
            let proto = match c.u8()? {
                1 => AppProtocol::DceRpc,
                _ => return Err(CheckpointError::Malformed("dynamic port tag")),
            };
            ports.push((addr, port, proto));
        }
        ck.dynamic_ports = ports;
        ck.config = CheckpointConfig {
            max_conns: c.u64()?,
            max_pending: c.u64()?,
            keep_scanners: c.boolean("keep_scanners flag")?,
            payload_ok: c.boolean("payload_ok flag")?,
        };
        if c.pos != payload.len() {
            return Err(CheckpointError::Malformed("payload length"));
        }
        Ok(ck)
    }

    /// Write atomically: serialize to `<path>.tmp` in the same directory,
    /// then rename over `path`. A crash mid-write leaves either the old
    /// checkpoint or a `.tmp` nobody reads — never a half-written file
    /// under the live name.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.encode();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Load and parse a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Checkpoint::parse(&bytes)
    }
}

/// Monitor-totals field codec hooks, kept next to the rest of the format.
impl MonitorTotals {
    pub(crate) fn encode_into(&self, p: &mut Vec<u8>) {
        for v in self.scalars() {
            put_u64(p, v);
        }
    }

    pub(crate) fn decode_from(c: &mut Cursor<'_>) -> Result<MonitorTotals, CheckpointError> {
        let mut t = MonitorTotals::default();
        for slot in t.scalars_mut() {
            *slot = c.u64()?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{AnalyzerKind, Stage};

    fn sample() -> Checkpoint {
        let mut ck = Checkpoint {
            epoch_len_us: 300_000_000,
            epoch_index: 4,
            stream_base_us: Some(1_100_000_000_000_000),
            resume_offset: 123_456,
            reader_clock_us: Some(1_100_000_299_000_000),
            ..Checkpoint::default()
        };
        ck.capture.records = 42_000;
        ck.capture.truncated_tail = true;
        ck.carry.last_ts = Some(Timestamp::from_micros(1_100_000_299_999_999));
        ck.carry.stats.peak_open_conns = 512;
        ck.health.pending_dropped = 3;
        ck.health.checkpoint_recoveries = 1;
        ck.metrics.stages[Stage::FlowIngest].add(5_000, 42_000, 9_000_000);
        ck.metrics.stages[Stage::EpochRotate].add(100, 4, 77);
        ck.metrics.stages[Stage::Checkpoint].add(900, 4, 0);
        ck.totals.packets = 42_000;
        ck.totals.epochs = 4;
        ck.dynamic_ports = vec![
            (ipv4::Addr::new(10, 100, 2, 9), 49_152, AppProtocol::DceRpc),
            (ipv4::Addr::new(10, 100, 3, 1), 50_001, AppProtocol::DceRpc),
        ];
        ck.config = CheckpointConfig {
            max_conns: 4_096,
            max_pending: 8,
            keep_scanners: false,
            payload_ok: true,
        };
        ck
    }

    #[test]
    fn encode_parse_roundtrip_is_identity() {
        let ck = sample();
        let bytes = ck.encode();
        let back = Checkpoint::parse(&bytes).expect("roundtrip");
        assert_eq!(ck, back);
    }

    /// The version-2 byte layout, assembled by hand: the metrics block is
    /// one (wall, events, bytes) triple per `Stage::ALL` entry, then one
    /// per `AnalyzerKind::ALL` entry, in that order.
    #[test]
    fn v2_payload_lays_out_stages_then_analyzers_in_declaration_order() {
        assert_eq!(VERSION, 2);
        let mut p: Vec<u8> = Vec::new();
        let u64s = |p: &mut Vec<u8>, vals: &[u64]| vals.iter().for_each(|v| p.extend_from_slice(&v.to_le_bytes()));
        u64s(&mut p, &[1, 0]); // epoch_len_us, epoch_index
        p.push(0); // stream_base absent...
        u64s(&mut p, &[0, 0]); // ...its value slot; resume_offset
        p.push(0); // reader_clock absent...
        u64s(&mut p, &[0; 7]); // ...its value slot; 6 capture counters
        p.extend_from_slice(&[0, 0, 0]); // truncated_tail, snaplen_clamped; carry clock absent...
        u64s(&mut p, &[0; 12]); // ...its value slot; 3 flow stats; 8 health counters
        let slots = (Stage::COUNT + AnalyzerKind::COUNT) as u64;
        let stat = |slot: u64| StageStat { wall_ns: 1_000 + slot, events: 2_000 + slot, bytes: 3_000 + slot };
        for s in (0..slots).map(stat) {
            u64s(&mut p, &[s.wall_ns, s.events, s.bytes]);
        }
        u64s(&mut p, &[7, 8, 9]); // peak_open_conns, trace_wall_ns, traces
        u64s(&mut p, &vec![0; MonitorTotals::default().scalars().len()]);
        u64s(&mut p, &[0, 0, 0]); // no dynamic ports; max_conns, max_pending
        p.extend_from_slice(&[0, 0]); // keep_scanners, payload_ok
        let mut file = MAGIC.to_vec();
        file.extend_from_slice(&VERSION.to_le_bytes());
        u64s(&mut file, &[p.len() as u64, fnv1a(&p)]);
        file.extend_from_slice(&p);

        let ck = Checkpoint::parse(&file).expect("hand-assembled v2 payload parses");
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(ck.metrics.stages[stage], stat(i as u64), "{}", stage.name());
        }
        for (i, kind) in AnalyzerKind::ALL.into_iter().enumerate() {
            assert_eq!(ck.metrics.analyzers[kind], stat((Stage::COUNT + i) as u64), "{}", kind.name());
        }
        assert_eq!((ck.metrics.peak_open_conns, ck.metrics.traces), (7, 9));
        // And the encoder writes the very same bytes back.
        assert_eq!(ck.encode(), file);
    }

    #[test]
    fn every_truncation_point_is_a_typed_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Checkpoint::parse(&bytes[..cut]).expect_err("short file must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::Malformed(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn any_payload_bitflip_is_caught_by_the_checksum() {
        let clean = sample().encode();
        for byte in (28..clean.len()).step_by(13) {
            for bit in 0..8 {
                let mut damaged = clean.clone();
                damaged[byte] ^= 1 << bit;
                let err = Checkpoint::parse(&damaged).expect_err("bitflip must fail");
                assert!(
                    matches!(err, CheckpointError::ChecksumMismatch),
                    "byte {byte} bit {bit}: unexpected {err:?}"
                );
            }
        }
    }

    #[test]
    fn header_damage_is_classified() {
        let clean = sample().encode();
        let mut bad_magic = clean.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::parse(&bad_magic),
            Err(CheckpointError::BadMagic)
        ));
        let mut future = clean.clone();
        future[8] = 99;
        assert!(matches!(
            Checkpoint::parse(&future),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
        let mut trailing = clean.clone();
        trailing.push(0);
        assert!(matches!(
            Checkpoint::parse(&trailing),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("ent-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("monitor.ckpt");
        let ck = sample();
        ck.write_atomic(&path).expect("write");
        // Overwrite with new state: rename replaces atomically.
        let mut ck2 = ck.clone();
        ck2.epoch_index = 5;
        ck2.write_atomic(&path).expect("rewrite");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back.epoch_index, 5);
        assert!(!dir.join("monitor.ckpt.tmp").exists(), "tmp must be renamed away");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/dir/x.ckpt")).expect_err("io");
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
