//! # ent-pcap — capture files and the capture path
//!
//! Implements the classic libpcap file format (a writer, and one
//! damage-tolerant reader for both byte orders, microsecond resolution,
//! that lends each salvaged record straight out of the capture buffer)
//! and the capture path of a generated trace: the [`PacketArena`] stores
//! every frame cut at the trace's snaplen, and [`Tap`] drops one packet in
//! every period. The paper's traces were merged on the capture host — each
//! Shomiti tap produced one *unidirectional* stream per router-port
//! direction, merged by NIC-synchronized timestamps (§2) — so the product
//! has no merge: that the multi-tap merge preserves the analysis is a
//! tested property under `tests/`.
//!
//! ```
//! use ent_pcap::{PcapWriter, RecoveringReader, TimedPacket};
//! use ent_wire::Timestamp;
//!
//! let pkt = TimedPacket::new(Timestamp::from_millis(5), vec![0u8; 60]);
//! let mut buf = Vec::new();
//! {
//!     let mut w = PcapWriter::new(&mut buf, 1500).unwrap();
//!     w.write_packet(&pkt).unwrap();
//! }
//! let mut r = RecoveringReader::new(&buf).unwrap();
//! let got = r.next_record().unwrap();
//! assert_eq!(got.ts, pkt.ts);
//! assert_eq!(got.frame, &pkt.frame[..]);
//! assert!(r.next_record().is_none() && r.stats().is_clean());
//! ```

// E001 (DESIGN §6a): ingest code reads bytes through `get`, fixed-size
// chunks or slice patterns, never a panicking index.
#![deny(clippy::indexing_slicing)]

pub mod arena;
pub mod format;
pub mod recover;
pub mod tap;
pub mod trace;

pub use arena::{Clip, PacketArena};
pub use format::{PcapWriter, LINKTYPE_ETHERNET, MAX_RECORD_BYTES};
pub use recover::{IngestStats, RecordView, RecoveringReader};
pub use tap::Tap;
pub use trace::{keeps_payload, TraceMeta};

use ent_wire::Timestamp;

/// A captured packet: timestamp, captured bytes, and the original
/// on-the-wire length (which exceeds `frame.len()` when snaplen truncated
/// the capture).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedPacket {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// Captured frame bytes (at most snaplen).
    pub frame: Vec<u8>,
    /// Original frame length on the wire.
    pub orig_len: u32,
}

impl TimedPacket {
    /// A packet captured in full.
    pub fn new(ts: Timestamp, frame: Vec<u8>) -> TimedPacket {
        let orig_len = frame.len() as u32;
        TimedPacket { ts, frame, orig_len }
    }
}

/// Errors arising from capture-file I/O.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a pcap file (bad magic) or uses an unsupported
    /// link type / version.
    BadFormat(&'static str),
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadFormat(m) => write!(f, "bad pcap format: {m}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<std::io::Error> for PcapError {
    fn from(e: std::io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Result alias for capture-file operations.
pub type Result<T> = std::result::Result<T, PcapError>;
