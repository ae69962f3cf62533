//! Per-trace analysis records — the intermediate representation between
//! the packet pipeline and the dataset-level analyses.

use ent_flow::{ConnSummary, Proto, TcpOutcome};
use ent_proto::cifs::CifsClass;
use ent_proto::dcerpc::RpcFunction;
use ent_proto::dns::{QType, RCode};
use ent_proto::http::HttpTransaction;
use ent_proto::netbios::{NameType, NsOpcode};
use ent_proto::nfs::NfsOp;
use ent_proto::ncp::NcpOp;
use ent_proto::{AppProtocol, Category};
use ent_wire::ipv4;

/// Locality of an address relative to the enterprise.
pub fn is_internal(addr: ipv4::Addr) -> bool {
    // The monitored site's internal prefix; matches ent-gen's model and is
    // what an operator would configure for a real trace.
    addr.in_prefix(ipv4::Addr::new(10, 100, 0, 0), 16)
}

/// One analyzed connection.
#[derive(Debug, Clone)]
pub struct ConnRecord {
    /// The flow summary from the connection engine.
    pub summary: ConnSummary,
    /// Identified application protocol, if any.
    pub app: Option<AppProtocol>,
    /// Application category (Table 4 taxonomy; other-tcp/udp fallback).
    pub category: Category,
}

impl ConnRecord {
    /// Originator address.
    pub fn orig_addr(&self) -> ipv4::Addr {
        self.summary.key.orig.addr
    }

    /// Responder address.
    pub fn resp_addr(&self) -> ipv4::Addr {
        self.summary.key.resp.addr
    }

    /// Both endpoints inside the enterprise (and not multicast)?
    pub fn is_enterprise_only(&self) -> bool {
        is_internal(self.orig_addr())
            && is_internal(self.resp_addr())
            && !self.summary.multicast
    }

    /// One endpoint across the WAN?
    pub fn crosses_wan(&self) -> bool {
        !self.summary.multicast
            && (!is_internal(self.orig_addr()) || !is_internal(self.resp_addr()))
    }

    /// Total payload bytes (both directions).
    pub fn payload_bytes(&self) -> u64 {
        self.summary.total_payload()
    }

    /// Established/answered successfully?
    pub fn successful(&self) -> bool {
        self.summary.outcome == TcpOutcome::Successful
    }

    /// Transport protocol.
    pub fn proto(&self) -> Proto {
        self.summary.key.proto
    }
}

/// One HTTP transaction with its connection's locality.
#[derive(Debug, Clone)]
pub struct HttpRecord {
    /// The parsed transaction.
    pub tx: HttpTransaction,
    /// Client address.
    pub client: ipv4::Addr,
    /// Server address.
    pub server: ipv4::Addr,
    /// Server is inside the enterprise.
    pub server_internal: bool,
}

/// One DNS query/response exchange.
#[derive(Debug, Clone, Copy)]
pub struct DnsRecord {
    /// Query type.
    pub qtype: QType,
    /// Response code (None if unanswered).
    pub rcode: Option<RCode>,
    /// Query→response latency, microseconds (None if unanswered).
    pub latency_us: Option<u64>,
    /// Client address.
    pub client: ipv4::Addr,
    /// Server address.
    pub server: ipv4::Addr,
    /// The server is internal.
    pub server_internal: bool,
}

/// One NetBIOS-NS transaction.
#[derive(Debug, Clone)]
pub struct NbnsRecord {
    /// Operation.
    pub opcode: NsOpcode,
    /// Queried/registered name.
    pub name: String,
    /// Name-type suffix.
    pub name_type: NameType,
    /// Response rcode (None if unanswered; 3 = name error).
    pub rcode: Option<u8>,
    /// Client address.
    pub client: ipv4::Addr,
}

/// Per-connection CIFS/NBSSN activity summary.
#[derive(Debug, Clone, Default)]
pub struct CifsConnRecord {
    /// NetBIOS-SSN handshake: requested / answered-positively.
    pub ssn_requested: bool,
    /// NetBIOS-SSN positive response seen.
    pub ssn_positive: bool,
    /// NetBIOS-SSN negative response seen.
    pub ssn_negative: bool,
    /// (class, request messages, response messages, bytes) counters.
    pub per_class: Vec<(CifsClass, u64, u64, u64)>,
}

impl CifsConnRecord {
    /// Add one message to the per-class counters.
    pub fn count(&mut self, class: CifsClass, is_response: bool, bytes: u64) {
        for e in &mut self.per_class {
            if e.0 == class {
                if is_response {
                    e.2 += 1;
                } else {
                    e.1 += 1;
                }
                e.3 += bytes;
                return;
            }
        }
        self.per_class.push((
            class,
            u64::from(!is_response),
            u64::from(is_response),
            bytes,
        ));
    }
}

/// One DCE/RPC call (over a pipe or a mapped port).
#[derive(Debug, Clone, Copy)]
pub struct RpcRecord {
    /// Function bucket (Table 11).
    pub function: RpcFunction,
    /// Request stub bytes.
    pub request_bytes: u64,
    /// Response stub bytes.
    pub response_bytes: u64,
}

/// One NFS call, compact (millions can occur per dataset).
#[derive(Debug, Clone, Copy)]
pub struct NfsRecord {
    /// Operation bucket.
    pub op: NfsOp,
    /// Request message bytes.
    pub request_bytes: u32,
    /// Reply message bytes.
    pub reply_bytes: u32,
    /// Success.
    pub ok: bool,
    /// Host pair (canonical order).
    pub pair: (ipv4::Addr, ipv4::Addr),
    /// Carried over UDP.
    pub udp: bool,
}

/// One NCP call, compact.
#[derive(Debug, Clone, Copy)]
pub struct NcpRecord {
    /// Operation bucket.
    pub op: NcpOp,
    /// Request packet bytes.
    pub request_bytes: u32,
    /// Reply packet bytes.
    pub reply_bytes: u32,
    /// Success (completion code 0).
    pub ok: bool,
    /// Host pair (canonical order).
    pub pair: (ipv4::Addr, ipv4::Addr),
}

/// Per-connection TLS summary (HTTPS / IMAP-S / POP-S).
#[derive(Debug, Clone, Copy)]
pub struct TlsRecord {
    /// Client (originator) address.
    pub client: ipv4::Addr,
    /// Handshake completed both ways.
    pub handshake_complete: bool,
    /// Application-data records observed.
    pub app_records: u32,
    /// Service port.
    pub port: u16,
    /// Host pair.
    pub pair: (ipv4::Addr, ipv4::Addr),
}

/// Per-stage damage tallies for one trace's ingest: how much of the input
/// was salvaged, repaired, or demoted on the way into the analyses.
///
/// Every counter is a *degradation*, not an error — the analysis completed,
/// but these events narrow what it can claim. A trace with a non-zero
/// [`analyzer_failures`](Self::analyzer_failures) count still reports its
/// connection-level results; the failed connections are simply held at the
/// header-only posture the paper itself uses for its snaplen-68 datasets
/// D1/D2.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IngestHealth {
    /// Capture-layer salvage statistics (zeroed when the trace was built
    /// in memory rather than read from a serialized capture).
    pub capture: ent_pcap::IngestStats,
    /// Frames the link/network/transport dissector rejected outright.
    pub malformed_frames: u64,
    /// Packets whose timestamps ran backwards at the flow layer and were
    /// clamped forward to keep connection timelines monotone.
    pub clock_regressions: u64,
    /// Connections evicted early because the connection table hit its
    /// configured cap.
    pub evicted_conns: u64,
    /// Application-analyzer failures caught mid-connection.
    pub analyzer_failures: u64,
    /// Connections demoted to header-only treatment (D1/D2 posture) after
    /// an analyzer failure.
    pub demoted_conns: u64,
    /// Per-second load samples whose timestamp fell outside the trace's
    /// nominal duration (relative to its first timestamp) and were
    /// excluded from the utilization series instead of silently dropped.
    pub load_samples_out_of_range: u64,
    /// Pending application-transaction map entries (DNS/NBNS request state
    /// awaiting a response) dropped because the per-connection pending
    /// budget was exhausted — the backpressure path for request floods.
    pub pending_dropped: u64,
    /// Checkpoint files that failed to load (truncated, corrupted, or
    /// config-mismatched) and degraded the monitor to a counted cold
    /// start instead of an error exit.
    pub checkpoint_recoveries: u64,
}

impl IngestHealth {
    /// No damage anywhere in the ingest path?
    pub fn is_clean(&self) -> bool {
        self.capture.is_clean()
            && self.malformed_frames == 0
            && self.clock_regressions == 0
            && self.evicted_conns == 0
            && self.analyzer_failures == 0
            && self.demoted_conns == 0
            && self.load_samples_out_of_range == 0
            && self.pending_dropped == 0
            && self.checkpoint_recoveries == 0
    }

    /// Total damage events past the capture layer.
    pub fn pipeline_events(&self) -> u64 {
        self.malformed_frames
            + self.clock_regressions
            + self.evicted_conns
            + self.analyzer_failures
            + self.load_samples_out_of_range
            + self.pending_dropped
            + self.checkpoint_recoveries
    }

    /// Fold another trace's health into this one (dataset aggregation).
    pub fn absorb(&mut self, other: &IngestHealth) {
        self.capture.absorb(&other.capture);
        self.malformed_frames += other.malformed_frames;
        self.clock_regressions += other.clock_regressions;
        self.evicted_conns += other.evicted_conns;
        self.analyzer_failures += other.analyzer_failures;
        self.demoted_conns += other.demoted_conns;
        self.load_samples_out_of_range += other.load_samples_out_of_range;
        self.pending_dropped += other.pending_dropped;
        self.checkpoint_recoveries += other.checkpoint_recoveries;
    }
}

impl core::fmt::Display for IngestHealth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_clean() {
            return write!(f, "clean");
        }
        write!(
            f,
            "capture[{}], {} malformed frames, {} clock regressions, \
             {} evicted conns, {} analyzer failures ({} conns demoted), \
             {} load samples out of range, {} pending dropped, \
             {} checkpoint recoveries",
            self.capture,
            self.malformed_frames,
            self.clock_regressions,
            self.evicted_conns,
            self.analyzer_failures,
            self.demoted_conns,
            self.load_samples_out_of_range,
            self.pending_dropped,
            self.checkpoint_recoveries,
        )
    }
}

/// Everything extracted from one trace.
#[derive(Debug, Default, Clone)]
pub struct TraceAnalysis {
    /// Dataset label (interned; shared with the trace metadata).
    pub dataset: std::sync::Arc<str>,
    /// Monitored subnet.
    pub subnet: u16,
    /// Monitoring pass.
    pub pass: u8,
    /// Trace duration (seconds).
    pub duration_secs: u64,
    /// Link capacity (bits/second).
    pub link_capacity_bps: u64,
    /// Total packets in the trace.
    pub packets: u64,
    /// Network-layer packet counts: IPv4, IPv6.
    pub ip_packets: u64,
    /// ARP packets.
    pub arp_packets: u64,
    /// IPX packets.
    pub ipx_packets: u64,
    /// Other non-IP packets.
    pub other_l3_packets: u64,
    /// Authoritative wire-byte total: every frame's original (pre-snaplen)
    /// length summed, *including* frames the dissector rejected. The
    /// per-second series [`Self::bytes_per_second`] only bins samples that
    /// land inside the window and so can undercount; cumulative byte
    /// accounting (the monitor's totals) must read this counter instead.
    pub wire_bytes: u64,
    /// Finished connections.
    pub conns: Vec<ConnRecord>,
    /// HTTP transactions.
    pub http: Vec<HttpRecord>,
    /// DNS transactions.
    pub dns: Vec<DnsRecord>,
    /// NetBIOS-NS transactions.
    pub nbns: Vec<NbnsRecord>,
    /// CIFS per-connection activity summaries (standalone records, one per
    /// CIFS connection; not indexed against [`Self::conns`]).
    pub cifs: Vec<CifsConnRecord>,
    /// DCE/RPC calls.
    pub rpc: Vec<RpcRecord>,
    /// NFS calls.
    pub nfs: Vec<NfsRecord>,
    /// NCP calls.
    pub ncp: Vec<NcpRecord>,
    /// TLS connection summaries.
    pub tls: Vec<TlsRecord>,
    /// SMTP message bytes per session (flow-size substrate for Figure 6).
    pub smtp_message_bytes: Vec<u64>,
    /// Polling commands per cleartext IMAP4 session (D0 era) — the
    /// periodic-poll behavior behind Figure 5(b)'s long durations.
    pub imap_polls: Vec<u32>,
    /// Per-second captured-byte bins (utilization, Figure 9).
    pub bytes_per_second: Vec<u64>,
    /// Data packets / retransmitted data packets, enterprise-internal.
    pub retx_ent: (u64, u64),
    /// Data packets / retransmitted data packets, WAN-crossing.
    pub retx_wan: (u64, u64),
    /// Sources flagged by the scanner heuristic and removed.
    pub scanners_removed: Vec<ipv4::Addr>,
    /// Connections removed as scanner traffic.
    pub scanner_conns_removed: u64,
    /// The removed scanner connections themselves (retained separately so
    /// the scanning traffic can be characterized — the paper flags this
    /// as "a fruitful area for future work").
    pub scanner_conns: Vec<ConnRecord>,
    /// Per-stage ingest damage tallies (all zero for a clean trace).
    pub health: IngestHealth,
    /// Pipeline observability: stage timers and throughput counters for
    /// this trace (the `generate` stage is filled in by [`crate::run`]).
    pub metrics: crate::metrics::PipelineMetrics,
}

impl TraceAnalysis {
    /// Non-IP packet count.
    pub fn non_ip_packets(&self) -> u64 {
        self.arp_packets + self.ipx_packets + self.other_l3_packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_flow::{DirStats, Endpoint, FlowKey, TcpState};
    use ent_wire::Timestamp;

    fn rec(orig: ipv4::Addr, resp: ipv4::Addr, multicast: bool) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(orig, 40_000),
                    resp: Endpoint::new(resp, 80),
                },
                start: Timestamp::ZERO,
                end: Timestamp::from_secs(1),
                orig: DirStats::default(),
                resp: DirStats::default(),
                outcome: TcpOutcome::Successful,
                tcp_state: TcpState::Closed,
                multicast,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: Some(AppProtocol::Http),
            category: Category::Web,
        }
    }

    #[test]
    fn locality_classification() {
        let int1 = ipv4::Addr::new(10, 100, 3, 7);
        let int2 = ipv4::Addr::new(10, 100, 9, 1);
        let ext = ipv4::Addr::new(64, 1, 2, 3);
        assert!(is_internal(int1));
        assert!(!is_internal(ext));
        assert!(rec(int1, int2, false).is_enterprise_only());
        assert!(!rec(int1, ext, false).is_enterprise_only());
        assert!(rec(int1, ext, false).crosses_wan());
        assert!(!rec(int1, int2, false).crosses_wan());
        // Multicast counts as neither.
        let m = rec(int1, ipv4::Addr::new(239, 1, 1, 1), true);
        assert!(!m.is_enterprise_only() && !m.crosses_wan());
    }

    #[test]
    fn cifs_class_counters() {
        let mut c = CifsConnRecord::default();
        c.count(CifsClass::SmbBasic, false, 100);
        c.count(CifsClass::SmbBasic, true, 80);
        c.count(CifsClass::RpcPipes, false, 4_000);
        assert_eq!(c.per_class.len(), 2);
        let basic = c.per_class.iter().find(|e| e.0 == CifsClass::SmbBasic).unwrap();
        assert_eq!((basic.1, basic.2, basic.3), (1, 1, 180));
    }
}
