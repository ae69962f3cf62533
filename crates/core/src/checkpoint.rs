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

use crate::metrics::{AnalyzerMetrics, PipelineMetrics, StageStat, StageStats};
use crate::monitor::MonitorTotals;
use crate::records::IngestHealth;
use ent_flow::{FlowStats, TableCarry};
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
// The payload codec. `walk_payload!` is the format: it names every payload
// field once, in file order, and hands each to a codec by reference. The
// two codecs answer the same calls — `Writer` takes shared borrows and
// appends, `Cursor` takes exclusive borrows and fills them from a
// bounds-checked read position. Parsing never indexes, so a hostile file
// cannot panic the monitor (E001 holds for this crate).
// --------------------------------------------------------------------------

/// Wire tag of each protocol the pipeline can learn a dynamic port for
/// (DCE/RPC is the only one).
const PORT_TAGS: [(u8, AppProtocol); 1] = [(1, AppProtocol::DceRpc)];

/// Encoded size of one dynamic-port entry: address, port, tag.
const PORT_ENTRY_BYTES: usize = 7;

/// Appending to a `Vec` cannot fail.
type Encoded = Result<(), core::convert::Infallible>;
type Decoded = Result<(), CheckpointError>;

/// The encoding side of the codec.
struct Writer(Vec<u8>);

impl Writer {
    fn put(&mut self, bytes: &[u8]) -> Encoded {
        self.0.extend_from_slice(bytes);
        Ok(())
    }

    fn u64(&mut self, v: &u64) -> Encoded {
        self.put(&v.to_le_bytes())
    }

    fn u32(&mut self, v: &u32) -> Encoded {
        self.put(&v.to_le_bytes())
    }

    fn u16(&mut self, v: &u16) -> Encoded {
        self.put(&v.to_le_bytes())
    }

    fn flag(&mut self, v: &bool, _what: &'static str) -> Encoded {
        self.put(&[u8::from(*v)])
    }

    fn opt_u64(&mut self, v: &Option<u64>, what: &'static str) -> Encoded {
        self.flag(&v.is_some(), what)?;
        self.u64(&v.unwrap_or(0))
    }

    fn opt_ts(&mut self, v: &Option<Timestamp>, what: &'static str) -> Encoded {
        self.opt_u64(&v.map(Timestamp::micros), what)
    }

    /// The element count of a variable-length run; the walk visits the
    /// elements next.
    fn seq<T>(&mut self, v: &[T], _entry_bytes: usize, _blank: T, _what: &'static str) -> Encoded {
        self.u64(&(v.len() as u64))
    }

    fn port_tag(&mut self, v: &AppProtocol) -> Encoded {
        let tag = PORT_TAGS.iter().find(|(_, p)| p == v).map_or(0, |(t, _)| *t);
        self.put(&[tag])
    }
}

/// The decoding side of the codec: a bounds-checked read position.
struct Cursor<'a> {
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    fn u64(&mut self, v: &mut u64) -> Decoded {
        *v = u64::from_le_bytes(self.array()?);
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Decoded {
        *v = u32::from_le_bytes(self.array()?);
        Ok(())
    }

    fn u16(&mut self, v: &mut u16) -> Decoded {
        *v = u16::from_le_bytes(self.array()?);
        Ok(())
    }

    fn flag(&mut self, v: &mut bool, what: &'static str) -> Decoded {
        *v = match self.array()? {
            [0] => false,
            [1] => true,
            _ => return Err(CheckpointError::Malformed(what)),
        };
        Ok(())
    }

    fn opt_u64(&mut self, v: &mut Option<u64>, what: &'static str) -> Decoded {
        let (mut present, mut value) = (false, 0);
        self.flag(&mut present, what)?;
        self.u64(&mut value)?;
        *v = present.then_some(value);
        Ok(())
    }

    fn opt_ts(&mut self, v: &mut Option<Timestamp>, what: &'static str) -> Decoded {
        let mut us = None;
        self.opt_u64(&mut us, what)?;
        *v = us.map(Timestamp::from_micros);
        Ok(())
    }

    /// Size `v` to the stored element count, every element `blank` until
    /// the walk fills it. A corrupt count would otherwise drive a huge
    /// allocation; the payload bound caps it naturally.
    fn seq<T: Clone>(&mut self, v: &mut Vec<T>, entry_bytes: usize, blank: T, what: &'static str) -> Decoded {
        let mut n = 0;
        self.u64(&mut n)?;
        if n > (self.bytes.len() / entry_bytes) as u64 {
            return Err(CheckpointError::Malformed(what));
        }
        v.clear();
        v.resize(n as usize, blank);
        Ok(())
    }

    fn port_tag(&mut self, v: &mut AppProtocol) -> Decoded {
        let [tag] = self.array()?;
        let known = PORT_TAGS.iter().find(|(t, _)| *t == tag);
        *v = known.ok_or(CheckpointError::Malformed("dynamic port tag"))?.1;
        Ok(())
    }
}

/// Destructure `$v` as a `$T` and hand the fields before the `;` to the
/// codec as `u64`s, in the order written; fields after it are only bound,
/// for the caller to visit. The pattern names every field of `$T`, so one
/// added to the struct and not to the payload is a compile error rather
/// than a silently unsaved counter.
macro_rules! u64_fields {
    ($c:ident, $T:path { $($f:ident),+ $(,)? $(; $($rest:tt)*)? } = $v:expr) => {
        let $T { $($f,)+ $($($rest)*)? } = $v;
        $( $c.u64($f)?; )+
    };
}

/// The version-2 payload layout: every field, in file order, handed to the
/// codec `$c`. `$ck` is `&Checkpoint` for a [`Writer`] and `&mut
/// Checkpoint` for a [`Cursor`]; the destructuring patterns turn it into
/// the matching borrow of each field.
macro_rules! walk_payload {
    ($c:ident, $ck:expr) => {
        u64_fields!($c, Checkpoint {
            epoch_len_us, epoch_index;
            stream_base_us, resume_offset, reader_clock_us,
            capture, carry, health, metrics, totals, dynamic_ports, config
        } = $ck);
        $c.opt_u64(stream_base_us, "stream_base flag")?;
        $c.u64(resume_offset)?;
        $c.opt_u64(reader_clock_us, "reader_clock flag")?;
        {
            u64_fields!($c, IngestStats {
                records, malformed_records, repaired_records, zero_len_records,
                clock_regressions, bytes_skipped;
                truncated_tail, snaplen_clamped
            } = capture);
            $c.flag(truncated_tail, "truncated_tail flag")?;
            $c.flag(snaplen_clamped, "snaplen_clamped flag")?;
        }
        {
            let TableCarry { last_ts, stats } = carry;
            $c.opt_ts(last_ts, "carry clock flag")?;
            u64_fields!($c, FlowStats { clock_regressions, evicted_conns, peak_open_conns } = stats);
        }
        {
            // The capture half is not stored: the authoritative capture
            // stats are the ones above, and `health.capture` is
            // reassembled on resume from prior + live reader stats.
            u64_fields!($c, IngestHealth {
                malformed_frames, clock_regressions, evicted_conns, analyzer_failures,
                demoted_conns, load_samples_out_of_range, pending_dropped, checkpoint_recoveries;
                capture: _
            } = health);
        }
        {
            // Every stage in `Stage::ALL` order, every analyzer in
            // `AnalyzerKind::ALL` order, then the scalars.
            let PipelineMetrics { stages, analyzers, peak_open_conns, trace_wall_ns, traces } = metrics;
            let (StageStats { stats: stages }, AnalyzerMetrics { stats: analyzers }) = (stages, analyzers);
            for stat in stages.into_iter().chain(analyzers) {
                u64_fields!($c, StageStat { wall_ns, events, bytes } = stat);
            }
            $c.u64(peak_open_conns)?;
            $c.u64(trace_wall_ns)?;
            $c.u64(traces)?;
        }
        {
            u64_fields!($c, MonitorTotals {
                epochs, packets, ip_packets, arp_packets, ipx_packets, other_l3_packets,
                bytes, conns, http, dns, nbns, cifs, rpc, nfs, ncp, tls, smtp_messages,
                imap_sessions, scanner_conns_removed,
                retx_ent_data, retx_ent_retx, retx_wan_data, retx_wan_retx,
            } = totals);
        }
        // Sorted by the exporter.
        let blank = (ipv4::Addr(0), 0, AppProtocol::DceRpc);
        $c.seq(dynamic_ports, PORT_ENTRY_BYTES, blank, "dynamic port count")?;
        for (ipv4::Addr(addr), port, proto) in dynamic_ports {
            $c.u32(addr)?;
            $c.u16(port)?;
            $c.port_tag(proto)?;
        }
        u64_fields!($c, CheckpointConfig { max_conns, max_pending; keep_scanners, payload_ok } = config);
        $c.flag(keep_scanners, "keep_scanners flag")?;
        $c.flag(payload_ok, "payload_ok flag")?;
    };
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

/// Bytes before the payload: magic, version, payload length, checksum.
const HEADER_LEN: usize = 28;

impl Checkpoint {
    fn write_payload(&self, w: &mut Writer) -> Encoded {
        walk_payload!(w, self);
        Ok(())
    }

    fn read_payload(&mut self, c: &mut Cursor<'_>) -> Decoded {
        walk_payload!(c, self);
        Ok(())
    }

    /// Serialize to the on-disk byte format (header + checksum + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Writer(Vec::with_capacity(1024));
        let Ok(()) = self.write_payload(&mut payload);
        let p = payload.0;
        let mut out = Vec::with_capacity(HEADER_LEN + p.len());
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
        if c.array()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(c.array()?);
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(c.array()?) as usize;
        let checksum = u64::from_le_bytes(c.array()?);
        let payload = c.take(payload_len)?;
        if bytes.len() > c.pos {
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
        let mut ck = Checkpoint::default();
        ck.read_payload(&mut c)?;
        if ck.epoch_len_us == 0 {
            return Err(CheckpointError::Malformed("zero epoch length"));
        }
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

    /// The bytes the hand-listed version-2 encoder (the one this walk
    /// replaced) produced for `sample()`: a checkpoint written before the
    /// change loads after it and the other way round.
    #[test]
    fn sample_encodes_to_the_committed_v2_bytes() {
        let golden: &[u8] = include_bytes!("../testdata/checkpoint_v2_sample.bin");
        assert_eq!(sample().encode(), golden);
        assert_eq!(Checkpoint::parse(golden).expect("golden parses"), sample());
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
        u64s(&mut p, &vec![0; std::mem::size_of::<MonitorTotals>() / 8]);
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
