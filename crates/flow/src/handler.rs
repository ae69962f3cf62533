//! The flow-event handler trait connecting the connection table to
//! application analyzers.

use crate::key::{ConnIndex, Dir, FlowKey};
use crate::summary::ConnSummary;
use ent_wire::Timestamp;

/// Receives flow events from a [`crate::ConnTable`].
///
/// All methods have no-op defaults so implementations subscribe only to
/// what they need. Stream data arrives strictly in order per direction;
/// capture gaps are announced rather than silently skipped.
pub trait FlowHandler {
    /// A new connection was created. `idx` is dense and unique within one
    /// table run; use it to key per-connection analyzer state.
    fn on_new_conn(&mut self, idx: ConnIndex, key: &FlowKey, ts: Timestamp) {
        let _ = (idx, key, ts);
    }

    /// In-order TCP payload bytes for one direction.
    fn on_tcp_data(&mut self, idx: ConnIndex, dir: Dir, ts: Timestamp, data: &[u8]) {
        let _ = (idx, dir, ts, data);
    }

    /// A hole in the TCP stream (capture loss or snaplen truncation):
    /// `wire_bytes` sequence bytes will never be delivered.
    fn on_tcp_gap(&mut self, idx: ConnIndex, dir: Dir, wire_bytes: u64) {
        let _ = (idx, dir, wire_bytes);
    }

    /// One UDP datagram's captured payload. `wire_len` is the true payload
    /// size on the wire (≥ `data.len()` under snaplen truncation).
    fn on_udp_datagram(
        &mut self,
        idx: ConnIndex,
        dir: Dir,
        ts: Timestamp,
        data: &[u8],
        wire_len: u32,
    ) {
        let _ = (idx, dir, ts, data, wire_len);
    }

    /// A connection finished (terminated in-trace, timed out, or was
    /// flushed at end of trace).
    fn on_conn_closed(&mut self, idx: ConnIndex, summary: &ConnSummary) {
        let _ = (idx, summary);
    }
}

/// A handler that simply collects all summaries — sufficient for the
/// transport-level analyses and handy in tests.
#[derive(Debug, Default)]
pub struct CollectSummaries {
    /// Finished connection summaries in close order.
    pub summaries: Vec<ConnSummary>,
}

impl FlowHandler for CollectSummaries {
    fn on_conn_closed(&mut self, _idx: ConnIndex, summary: &ConnSummary) {
        self.summaries.push(*summary);
    }
}
