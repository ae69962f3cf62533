//! Connection summaries.

use crate::key::FlowKey;
use ent_wire::Timestamp;

/// Per-direction traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Packets seen in this direction.
    pub packets: u64,
    /// Packets carrying transport payload (data packets). The paper's §6
    /// retransmission rates are computed over these, *not* over all
    /// packets — pure ACKs must not inflate the denominator.
    pub data_packets: u64,
    /// Transport payload bytes on the wire (*including* retransmitted
    /// bytes; subtract `retx_bytes` for goodput).
    pub payload_bytes: u64,
    /// Unique in-order payload bytes delivered to stream handlers.
    pub unique_bytes: u64,
    /// Retransmitted packets (TCP only; wholly-old data segments).
    pub retx_packets: u64,
    /// Retransmitted payload bytes.
    pub retx_bytes: u64,
    /// Retransmitted packets that are 1-byte TCP keep-alive probes. The
    /// paper excludes these from retransmission-rate analysis (§6) and uses
    /// them to identify idle NCP connections (§5.2.2).
    pub keepalive_packets: u64,
    /// Bytes lost to capture drops (sequence gaps skipped over).
    pub gap_bytes: u64,
}

impl DirStats {
    /// Retransmitted packets excluding keep-alive probes, the quantity
    /// plotted in the paper's Figure 10.
    pub fn real_retx_packets(&self) -> u64 {
        self.retx_packets - self.keepalive_packets
    }

    /// Data packets excluding keep-alive probes: the denominator matching
    /// [`real_retx_packets`](Self::real_retx_packets) for the paper's §6
    /// retransmission rates (keep-alives carry one garbage byte and are
    /// excluded from both sides of the ratio).
    pub fn real_data_packets(&self) -> u64 {
        self.data_packets.saturating_sub(self.keepalive_packets)
    }
}

/// TCP connection establishment outcome, the unit of the paper's
/// success-rate tables (Table 9 et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpOutcome {
    /// Handshake completed (SYN answered with SYN-ACK, or data flowed both
    /// ways on a partially-captured connection).
    Successful,
    /// SYN answered by RST from the responder.
    Rejected,
    /// SYN (possibly retransmitted) never answered.
    Unanswered,
    /// No SYN observed and no bidirectional data: classification unknown
    /// (connection predates the trace).
    Partial,
    /// Not a TCP connection, or non-echo ICMP.
    NotApplicable,
}

/// Coarse TCP connection state at summary time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// SYN sent, nothing back yet.
    SynSent,
    /// Handshake complete, open at trace end.
    Established,
    /// Closed by FIN exchange.
    Closed,
    /// Torn down by RST after establishment.
    Reset,
    /// Rejected before establishment.
    RejectedState,
    /// Mid-stream capture: no handshake seen.
    Midstream,
    /// Not TCP.
    NotTcp,
}

/// Everything the analyses need to know about one finished flow.
///
/// Deliberately `Copy`: every field is plain-old-data, so finalization can
/// store summaries by value with no per-connection heap traffic (pinned by
/// the allocation-counting test in `tests/tests/alloc_pin.rs`).
#[derive(Debug, Clone, Copy)]
pub struct ConnSummary {
    /// Oriented key (originator first).
    pub key: FlowKey,
    /// Timestamp of the first packet.
    pub start: Timestamp,
    /// Timestamp of the last packet.
    pub end: Timestamp,
    /// Originator-side counters.
    pub orig: DirStats,
    /// Responder-side counters.
    pub resp: DirStats,
    /// TCP outcome classification.
    pub outcome: TcpOutcome,
    /// TCP state at close.
    pub tcp_state: TcpState,
    /// Destination was an IP multicast or broadcast group.
    pub multicast: bool,
    /// Evidence of capture loss: a receiver acknowledged sequence space
    /// never seen in the trace (the anomaly the paper reports in §2).
    pub acked_unseen_data: bool,
    /// ICMP echo exchanges: true when a reply matched the request.
    pub icmp_answered: bool,
}

impl ConnSummary {
    /// Duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end.saturating_micros_since(self.start)
    }

    /// Duration in fractional seconds.
    pub fn duration_secs(&self) -> f64 {
        self.duration_us() as f64 / 1e6
    }

    /// Total payload bytes both directions.
    pub fn total_payload(&self) -> u64 {
        self.orig.payload_bytes + self.resp.payload_bytes
    }

    /// Total packets both directions.
    pub fn total_packets(&self) -> u64 {
        self.orig.packets + self.resp.packets
    }

    /// True when the connection carried nothing but TCP keep-alive probes —
    /// the paper finds 40–80% of NCP connections are such (§5.2.2).
    pub fn keepalive_only(&self) -> bool {
        let data = self.orig.unique_bytes + self.resp.unique_bytes;
        let ka = self.orig.keepalive_packets + self.resp.keepalive_packets;
        ka > 0 && data <= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Endpoint, Proto};
    use ent_wire::ipv4::Addr;

    fn summary() -> ConnSummary {
        ConnSummary {
            key: FlowKey {
                proto: Proto::Tcp,
                orig: Endpoint::new(Addr::new(10, 0, 0, 1), 40000),
                resp: Endpoint::new(Addr::new(10, 0, 0, 2), 524),
            },
            start: Timestamp::from_micros(1_000),
            end: Timestamp::from_micros(4_000),
            orig: DirStats::default(),
            resp: DirStats::default(),
            outcome: TcpOutcome::Successful,
            tcp_state: TcpState::Established,
            multicast: false,
            acked_unseen_data: false,
            icmp_answered: false,
        }
    }

    #[test]
    fn durations() {
        let s = summary();
        assert_eq!(s.duration_us(), 3_000);
        assert!((s.duration_secs() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn keepalive_only_detection() {
        let mut s = summary();
        assert!(!s.keepalive_only());
        s.orig.unique_bytes = 1;
        s.orig.keepalive_packets = 5;
        s.orig.retx_packets = 5;
        assert!(s.keepalive_only());
        s.resp.unique_bytes = 500;
        assert!(!s.keepalive_only());
    }

    #[test]
    fn real_retx_excludes_keepalives() {
        let d = DirStats {
            retx_packets: 10,
            keepalive_packets: 7,
            ..Default::default()
        };
        assert_eq!(d.real_retx_packets(), 3);
    }
}
