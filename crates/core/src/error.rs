//! The analysis error taxonomy.
//!
//! The pipeline distinguishes *fatal* conditions — no analysis is possible
//! at all — from *degradation*, where damaged input narrows what the
//! analysis can say. Degradation is never an error: it is tallied in
//! [`IngestHealth`](crate::records::IngestHealth) and the affected
//! connections fall back to header-only treatment, the same posture the
//! paper takes for its snaplen-68 datasets D1/D2. Only conditions with
//! nothing to salvage surface as [`AnalysisError`].

use ent_pcap::PcapError;

/// A condition under which no (even degraded) analysis could be produced.
#[derive(Debug)]
pub enum AnalysisError {
    /// The capture's global header is unusable (bad magic, unsupported
    /// link type, file shorter than a header): there is no record
    /// boundary to recover from, so nothing can be salvaged.
    Ingest(PcapError),
    /// I/O failure obtaining the capture bytes.
    Io(std::io::Error),
}

impl core::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AnalysisError::Ingest(e) => write!(f, "capture unusable: {e}"),
            AnalysisError::Io(e) => write!(f, "capture I/O failed: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Ingest(e) => Some(e),
            AnalysisError::Io(e) => Some(e),
        }
    }
}

impl From<PcapError> for AnalysisError {
    fn from(e: PcapError) -> Self {
        // An I/O failure inside the pcap layer is an I/O problem, not a
        // format problem; keep the taxonomy honest.
        match e {
            PcapError::Io(io) => AnalysisError::Io(io),
            other => AnalysisError::Ingest(other),
        }
    }
}

impl From<std::io::Error> for AnalysisError {
    fn from(e: std::io::Error) -> Self {
        AnalysisError::Io(e)
    }
}

/// A malformed or non-conforming bench-JSON document
/// (`ent-bench-pipeline/1` / `ent-bench-monitor/1`): parse failures,
/// schema violations, and baseline comparisons that found real drift.
///
/// The diagnosis is carried as rendered text: the documents are small,
/// the consumers are CLI gates and tests, and the failure modes are
/// open-ended (any missing key, any drifted stat), so an enum would only
/// re-encode the message. What the taxonomy buys here is the *boundary* —
/// public APIs signal bench-JSON trouble with a dedicated type instead of
/// a bare `String`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchJsonError(String);

impl BenchJsonError {
    /// Wrap a rendered diagnosis.
    pub fn new(msg: impl Into<String>) -> BenchJsonError {
        BenchJsonError(msg.into())
    }

    /// The rendered diagnosis, for assertions on failure causes.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl core::fmt::Display for BenchJsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchJsonError {}

impl From<String> for BenchJsonError {
    fn from(msg: String) -> Self {
        BenchJsonError(msg)
    }
}

impl From<&str> for BenchJsonError {
    fn from(msg: &str) -> Self {
        BenchJsonError(msg.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AnalysisError::Ingest(PcapError::BadFormat("bad magic"));
        assert!(e.to_string().contains("bad magic"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn pcap_io_errors_map_to_io() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: AnalysisError = PcapError::Io(io).into();
        assert!(matches!(e, AnalysisError::Io(_)));
        let e: AnalysisError = PcapError::BadFormat("x").into();
        assert!(matches!(e, AnalysisError::Ingest(_)));
    }
}
