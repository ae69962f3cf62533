//! Traces: the unit of capture and analysis.
//!
//! In the paper each *trace* is one monitoring period of one subnet's router
//! port (10 minutes in D0, 1 hour in D1–D4), and each *dataset* is the
//! collection of traces across 18–22 subnets. Per-trace analyses (the
//! utilization and retransmission figures, §6) run over one trace's frames
//! under its [`TraceMeta`]; dataset analyses aggregate across them.

use ent_wire::Timestamp;
use std::sync::Arc;

/// Metadata describing one monitored-subnet trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Dataset label ("D0".."D4"), interned: cloning the metadata (or
    /// stamping the label into per-trace analyses) bumps a refcount
    /// instead of copying the string.
    pub dataset: Arc<str>,
    /// Index of the monitored subnet within the site.
    pub subnet: u16,
    /// Which monitoring pass over this subnet this is (the paper's
    /// "per tap" column: D1 and parts of D4 monitored each subnet twice).
    pub pass: u8,
    /// Nominal duration of the monitoring period.
    pub duration: Timestamp,
    /// Snaplen in force during capture.
    pub snaplen: u32,
    /// Nominal link capacity of the monitored port, bits per second
    /// (100 Mb/s for the LBNL subnets).
    pub link_capacity_bps: u64,
}

/// True if a capture cut at `snaplen` keeps application payloads (full
/// snaplen), i.e. its traces are usable for payload analyses. The paper
/// omits D1/D2 (snaplen 68) from all application-layer message parsing.
pub fn keeps_payload(snaplen: u32) -> bool {
    snaplen >= 1500
}

impl TraceMeta {
    /// [`keeps_payload`] for this trace's snaplen.
    pub fn has_payload(&self) -> bool {
        keeps_payload(self.snaplen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            dataset: "D0".into(),
            subnet: 3,
            pass: 1,
            duration: Timestamp::from_secs(600),
            snaplen: 1500,
            link_capacity_bps: 100_000_000,
        }
    }

    #[test]
    fn payload_capability() {
        let mut m = meta();
        assert!(m.has_payload());
        m.snaplen = 68;
        assert!(!m.has_payload());
    }
}
