//! The connection table.

use crate::fasthash::FxBuildHasher;
use crate::handler::FlowHandler;
use crate::key::{ConnIndex, Dir, Endpoint, FlowKey, Proto};
use crate::summary::{ConnSummary, DirStats, TcpOutcome, TcpState};
use crate::tcp::TcpConn;
use ent_wire::icmp::MessageType;
use ent_wire::{Packet, Timestamp, Transport};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Inactivity gap after which a UDP flow or an ICMP exchange is
/// considered a new "connection" (the paper counts UDP request/response
/// flows as connections, Bro-style), and after which an *unestablished*
/// TCP attempt is flushed (so periodic reconnection attempts count as
/// distinct attempts).
pub const IDLE_TIMEOUT_US: u64 = 60_000_000;

/// Configuration for flow demultiplexing.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableConfig {
    /// Upper bound on simultaneously open connections (0 = unlimited).
    /// When a new connection would exceed it, the least-recently-active
    /// open connections are closed early in a batch, each counted in
    /// [`FlowStats::evicted_conns`]. This bounds table memory against
    /// SYN floods and scan storms in damaged or adversarial traces.
    pub max_conns: usize,
    /// Expected simultaneously-open connections (a dataset-derived hint,
    /// 0 = no hint). The key map and slot vector are pre-sized from it so
    /// hot-path inserts never rehash or reallocate mid-trace.
    pub expected_conns: usize,
}

/// Robustness counters for one table's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets whose timestamp ran behind the table clock; their
    /// timestamps were clamped forward so flow durations stay sane.
    pub clock_regressions: u64,
    /// Connections closed early to enforce [`TableConfig::max_conns`].
    pub evicted_conns: u64,
    /// High-water mark of simultaneously open connections over the
    /// table's lifetime (occupancy, for capacity planning and the
    /// observability layer's conn-table metric).
    pub peak_open_conns: u64,
}

/// The scalar state a [`ConnTable`] must carry across an epoch boundary
/// (or a checkpoint/restore cycle) to behave identically to a table that
/// never stopped: the monotone clock watermark and the lifetime
/// robustness counters. Everything else — open connections — is closed at
/// the boundary by [`ConnTable::rotate`], so there is nothing else to
/// carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCarry {
    /// Monotone clock watermark (`None` before the first packet).
    pub last_ts: Option<Timestamp>,
    /// Lifetime robustness counters.
    pub stats: FlowStats,
}

struct Conn {
    idx: ConnIndex,
    key: FlowKey,
    /// `key.canonical()`, computed once at open so the per-packet lookup
    /// and the close path never re-canonicalize.
    canon: (Proto, Endpoint, Endpoint),
    start: Timestamp,
    end: Timestamp,
    orig: DirStats,
    resp: DirStats,
    tcp: Option<TcpConn>,
    multicast: bool,
    icmp_answered: bool,
}

impl Conn {
    fn dir_of(&self, src: Endpoint) -> Dir {
        if src == self.key.orig {
            Dir::Orig
        } else {
            Dir::Resp
        }
    }

    fn stats(&mut self, dir: Dir) -> &mut DirStats {
        match dir {
            Dir::Orig => &mut self.orig,
            Dir::Resp => &mut self.resp,
        }
    }

    fn summarize(&self) -> ConnSummary {
        let bidi = self.orig.payload_bytes > 0 && self.resp.payload_bytes > 0;
        let (outcome, tcp_state, acked_unseen) = match &self.tcp {
            Some(t) => (t.outcome(bidi), t.state(), t.acked_unseen),
            None => {
                let outcome = match self.key.proto {
                    Proto::Udp => {
                        if self.multicast {
                            TcpOutcome::NotApplicable
                        } else if self.resp.packets > 0 {
                            TcpOutcome::Successful
                        } else {
                            TcpOutcome::Unanswered
                        }
                    }
                    _ => {
                        if self.icmp_answered {
                            TcpOutcome::Successful
                        } else {
                            TcpOutcome::NotApplicable
                        }
                    }
                };
                (outcome, TcpState::NotTcp, false)
            }
        };
        ConnSummary {
            key: self.key,
            start: self.start,
            end: self.end,
            orig: self.orig,
            resp: self.resp,
            outcome,
            tcp_state,
            multicast: self.multicast,
            acked_unseen_data: acked_unseen,
            icmp_answered: self.icmp_answered,
        }
    }
}

/// Demultiplexes dissected packets into connections and emits flow events.
///
/// Feed packets in timestamp order via [`ConnTable::ingest`], then call
/// [`ConnTable::finish`] to flush still-open flows.
///
/// Generic over the key map's [`BuildHasher`]: the default is the
/// dependency-free [`FxBuildHasher`] (see [`crate::fasthash`] for the
/// safety argument); [`ConnTable::with_std_hasher`] builds the SipHash
/// reference table `tests/tests/hash_table_props.rs` pins it against. All
/// externally-visible behaviour (summaries, eviction decisions, stats) is
/// hash-order independent, so the two instantiations are interchangeable.
pub struct ConnTable<S: BuildHasher = FxBuildHasher> {
    config: TableConfig,
    map: HashMap<(Proto, Endpoint, Endpoint), usize, S>,
    conns: Vec<Option<Conn>>, // slot per ConnIndex; None once closed
    next_idx: ConnIndex,
    packets_seen: u64,
    last_ts: Option<Timestamp>,
    stats: FlowStats,
    /// Reused by [`ConnTable::enforce_cap`] so cap enforcement allocates
    /// once per table, not once per eviction batch.
    evict_scratch: Vec<(Timestamp, usize)>,
}

impl ConnTable<FxBuildHasher> {
    /// Create an empty table with the default fast hasher.
    pub fn new(config: TableConfig) -> ConnTable {
        ConnTable::with_hasher(config, FxBuildHasher::default())
    }
}

impl ConnTable<RandomState> {
    /// Create an empty table keyed by the std SipHash hasher — the
    /// reference instantiation for differential testing.
    pub fn with_std_hasher(config: TableConfig) -> ConnTable<RandomState> {
        ConnTable::with_hasher(config, RandomState::new())
    }
}

impl<S: BuildHasher> ConnTable<S> {
    /// Create an empty table with an explicit hasher state, pre-sized from
    /// [`TableConfig::expected_conns`].
    pub fn with_hasher(config: TableConfig, hasher: S) -> ConnTable<S> {
        ConnTable {
            config,
            map: HashMap::with_capacity_and_hasher(config.expected_conns, hasher),
            conns: Vec::with_capacity(config.expected_conns),
            next_idx: 0,
            packets_seen: 0,
            last_ts: None,
            stats: FlowStats::default(),
            evict_scratch: Vec::new(),
        }
    }

    /// Total packets ingested (all transports, tracked or not).
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Currently-open connections.
    pub fn open_conns(&self) -> usize {
        self.map.len()
    }

    /// Robustness counters accumulated so far.
    pub fn stats(&self) -> &FlowStats {
        &self.stats
    }

    /// Snapshot the carryable scalar state (clock watermark + lifetime
    /// stats). Only meaningful between packets; a checkpoint taken at an
    /// epoch boundary serializes exactly this.
    pub fn carry(&self) -> TableCarry {
        TableCarry {
            last_ts: self.last_ts,
            stats: self.stats,
        }
    }

    /// Restore carried state into a freshly-constructed table, making it
    /// behave exactly like the table [`ConnTable::carry`] was taken from
    /// (post-[`ConnTable::rotate`]: no open connections, same clock, same
    /// counters). Intended for checkpoint resume; calling it on a table
    /// that has already ingested packets would rewrite history.
    pub fn restore(&mut self, carry: TableCarry) {
        self.last_ts = carry.last_ts;
        self.stats = carry.stats;
    }

    /// Close every open connection at `end_ts` (exactly like
    /// [`ConnTable::finish`]) and reset the per-epoch index space while
    /// retaining the clock watermark, the lifetime stats, and every
    /// allocation (map/slot/scratch capacity). After rotation the table is
    /// indistinguishable from a fresh table carrying
    /// [`ConnTable::carry`]'s state: connection indices restart at zero
    /// and steady-state epochs allocate nothing new.
    pub fn rotate<H: FlowHandler>(&mut self, end_ts: Timestamp, handler: &mut H) {
        self.finish(end_ts, handler);
        // finish() removed every map entry via close_slot; clear() keeps
        // the bucket allocation either way.
        self.map.clear();
        self.conns.clear();
        self.next_idx = 0;
    }

    /// Clamp a regressed timestamp forward to the table clock, counting
    /// the intervention; capture damage must not produce negative
    /// durations or spurious inactivity splits.
    fn monotone_ts(&mut self, ts: Timestamp) -> Timestamp {
        match self.last_ts {
            Some(last) if ts < last => {
                self.stats.clock_regressions += 1;
                last
            }
            _ => {
                self.last_ts = Some(ts);
                ts
            }
        }
    }

    /// Enforce [`TableConfig::max_conns`] by closing the least-recently-
    /// active open connections in a batch (amortizing the scan), walking
    /// slots in creation order so eviction is deterministic.
    fn enforce_cap<H: FlowHandler>(&mut self, handler: &mut H) {
        let cap = self.config.max_conns;
        if cap == 0 || self.map.len() < cap {
            return;
        }
        let batch = (cap / 32).max(1);
        let mut live = std::mem::take(&mut self.evict_scratch);
        live.clear();
        live.extend(
            self.conns
                .iter()
                .enumerate()
                .filter_map(|(slot, c)| c.as_ref().map(|c| (c.end, slot))),
        );
        live.sort_unstable_by_key(|&(end, slot)| (end, slot));
        for &(_, slot) in live.iter().take(batch) {
            self.close_slot(slot, handler);
            self.stats.evicted_conns += 1;
        }
        self.evict_scratch = live;
    }

    fn close_slot<H: FlowHandler>(&mut self, slot: usize, handler: &mut H) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.take()) {
            self.map.remove(&conn.canon);
            handler.on_conn_closed(conn.idx, &conn.summarize());
        }
    }

    fn open_conn<H: FlowHandler>(
        &mut self,
        key: FlowKey,
        ts: Timestamp,
        multicast: bool,
        handler: &mut H,
    ) -> usize {
        self.enforce_cap(handler);
        let idx = self.next_idx;
        self.next_idx += 1;
        let canon = key.canonical();
        let conn = Conn {
            idx,
            key,
            canon,
            start: ts,
            end: ts,
            orig: DirStats::default(),
            resp: DirStats::default(),
            tcp: if key.proto == Proto::Tcp {
                Some(TcpConn::new())
            } else {
                None
            },
            multicast,
            icmp_answered: false,
        };
        let slot = self.conns.len();
        self.conns.push(Some(conn));
        self.map.insert(canon, slot);
        self.stats.peak_open_conns = self.stats.peak_open_conns.max(self.map.len() as u64);
        handler.on_new_conn(idx, &key, ts);
        slot
    }

    /// Look up (or create) the flow for `key`; handles inactivity-based
    /// splitting of UDP/ICMP flows and stale TCP attempts.
    fn lookup_or_open<H: FlowHandler>(
        &mut self,
        key: FlowKey,
        ts: Timestamp,
        multicast: bool,
        fresh_syn: bool,
        handler: &mut H,
    ) -> usize {
        let canon = key.canonical();
        if let Some(&slot) = self.map.get(&canon) {
            let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
                // A mapped slot is always live; if the invariant is ever
                // broken, repair the map instead of aborting the analysis.
                self.map.remove(&canon);
                return self.open_conn(key, ts, multicast, handler);
            };
            let (idle_limit, conn_done) = {
                let idle = ts.saturating_micros_since(conn.end);
                // An established TCP connection never idles out; its
                // attempts and the connectionless protocols do.
                let (done, can_idle_out) = match &conn.tcp {
                    Some(t) => (t.done(), matches!(t.state(), TcpState::SynSent)),
                    None => (false, true),
                };
                (can_idle_out && idle > IDLE_TIMEOUT_US, done)
            };
            // Split the flow when it went idle past the timeout, or a
            // fresh SYN arrives on a *terminated* connection (port reuse /
            // a new attempt after rejection). A SYN on a live
            // unestablished attempt is a retransmission of the same
            // attempt, not a new connection.
            let split = idle_limit || (fresh_syn && conn_done);
            if split {
                self.close_slot(slot, handler);
                return self.open_conn(key, ts, multicast, handler);
            }
            return slot;
        }
        self.open_conn(key, ts, multicast, handler)
    }

    /// Ingest one dissected packet. Timestamps that run behind the table
    /// clock are clamped forward (see [`FlowStats::clock_regressions`]).
    pub fn ingest<H: FlowHandler>(&mut self, pkt: &Packet<'_>, ts: Timestamp, handler: &mut H) {
        self.packets_seen += 1;
        let ts = self.monotone_ts(ts);
        let Some((src_ip, dst_ip)) = pkt.ipv4_addrs() else {
            return; // non-IPv4: counted by the caller's layer breakdown
        };
        let multicast = pkt.is_multicast();
        match &pkt.transport {
            Transport::Tcp {
                src_port, dst_port, ..
            } => {
                let Some(tcp) = pkt.tcp() else {
                    return; // transport said TCP but the header view is gone
                };
                let fresh_syn = tcp.flags.syn() && !tcp.flags.ack();
                // Orient: SYN-only → sender is originator; SYN-ACK → sender
                // is responder; otherwise first-seen sender is originator.
                let (orig, resp) = if tcp.flags.syn() && tcp.flags.ack() {
                    (
                        Endpoint::new(dst_ip, *dst_port),
                        Endpoint::new(src_ip, *src_port),
                    )
                } else {
                    (
                        Endpoint::new(src_ip, *src_port),
                        Endpoint::new(dst_ip, *dst_port),
                    )
                };
                let key = FlowKey {
                    proto: Proto::Tcp,
                    orig,
                    resp,
                };
                let slot = self.lookup_or_open(key, ts, multicast, fresh_syn, handler);
                let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    return;
                };
                let dir = conn.dir_of(Endpoint::new(src_ip, *src_port));
                conn.end = ts;
                let disp = match conn.tcp.as_mut() {
                    Some(t) => t.process(dir, &tcp, pkt.payload().len()),
                    // A TCP key always carries a TCP tracker; degrade to
                    // raw packet counting if that invariant ever breaks.
                    None => Default::default(),
                };
                let idx = conn.idx;
                {
                    let s = conn.stats(dir);
                    s.packets += 1;
                    if tcp.wire_payload_len > 0 {
                        s.data_packets += 1;
                    }
                    s.payload_bytes += tcp.wire_payload_len as u64;
                    s.unique_bytes += disp.new_wire_bytes as u64;
                    if disp.retransmission {
                        s.retx_packets += 1;
                        s.retx_bytes += tcp.wire_payload_len as u64;
                        if disp.keepalive {
                            s.keepalive_packets += 1;
                        }
                    }
                    if disp.gap_bytes > 0 {
                        s.gap_bytes += disp.gap_bytes as u64;
                    }
                }
                if disp.gap_bytes > 0 {
                    handler.on_tcp_gap(idx, dir, disp.gap_bytes as u64);
                }
                if disp.deliver_captured > 0 {
                    let payload = pkt.payload();
                    let start = payload.len().saturating_sub(disp.deliver_captured);
                    handler.on_tcp_data(idx, dir, ts, payload.get(start..).unwrap_or(&[]));
                }
            }
            Transport::Udp {
                src_port,
                dst_port,
                wire_payload_len,
            } => {
                let key = FlowKey {
                    proto: Proto::Udp,
                    orig: Endpoint::new(src_ip, *src_port),
                    resp: Endpoint::new(dst_ip, *dst_port),
                };
                let slot = self.lookup_or_open(key, ts, multicast, false, handler);
                let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    return;
                };
                let dir = conn.dir_of(Endpoint::new(src_ip, *src_port));
                conn.end = ts;
                let idx = conn.idx;
                let s = conn.stats(dir);
                s.packets += 1;
                if *wire_payload_len > 0 {
                    s.data_packets += 1;
                }
                s.payload_bytes += *wire_payload_len as u64;
                s.unique_bytes += *wire_payload_len as u64;
                handler.on_udp_datagram(idx, dir, ts, pkt.payload(), *wire_payload_len);
            }
            Transport::Icmp {
                mtype, ident, ..
            } => {
                // Echo exchanges pair by ident; other ICMP keys by type so
                // scanners' probe streams aggregate per (src,dst).
                let port = match mtype {
                    MessageType::EchoRequest | MessageType::EchoReply => *ident,
                    other => other.to_u8() as u16,
                };
                // Echo replies map onto the request's flow orientation.
                let (a, b) = if *mtype == MessageType::EchoReply {
                    (
                        Endpoint::new(dst_ip, port),
                        Endpoint::new(src_ip, port),
                    )
                } else {
                    (
                        Endpoint::new(src_ip, port),
                        Endpoint::new(dst_ip, port),
                    )
                };
                let key = FlowKey {
                    proto: Proto::Icmp,
                    orig: a,
                    resp: b,
                };
                let slot = self.lookup_or_open(key, ts, multicast, false, handler);
                let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    return;
                };
                let dir = conn.dir_of(Endpoint::new(src_ip, port));
                conn.end = ts;
                if *mtype == MessageType::EchoReply && dir == Dir::Resp {
                    conn.icmp_answered = true;
                }
                let s = conn.stats(dir);
                s.packets += 1;
                if !pkt.payload().is_empty() {
                    s.data_packets += 1;
                }
                s.payload_bytes += pkt.payload().len() as u64;
                s.unique_bytes += pkt.payload().len() as u64;
            }
            Transport::Other(_) | Transport::None => {}
        }
    }

    /// Flush all open connections (in creation order) and emit summaries.
    ///
    /// `end_ts` is the *absolute* end of the trace (same clock as the
    /// ingested timestamps). Still-open connections have their `start`/`end`
    /// clamped back to it, so a wild future timestamp that slipped through
    /// capture salvage cannot make an open flow's duration exceed the
    /// trace itself.
    pub fn finish<H: FlowHandler>(&mut self, end_ts: Timestamp, handler: &mut H) {
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                if conn.end > end_ts {
                    conn.end = end_ts;
                }
                if conn.start > end_ts {
                    conn.start = end_ts;
                }
            }
            self.close_slot(slot, handler);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::CollectSummaries;
    use ent_wire::{build, ethernet::MacAddr, icmp, ipv4::Addr, tcp::Flags};

    fn udp_frame(src: Addr, dst: Addr, sp: u16, dp: u16, len: usize) -> Vec<u8> {
        build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr::from_host_id(2),
                src_ip: src,
                dst_ip: dst,
                src_port: sp,
                dst_port: dp,
                ttl: 64,
            },
            &vec![0u8; len],
        )
    }

    #[test]
    fn udp_request_reply_is_one_successful_conn() {
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 53);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let f1 = udp_frame(a, b, 5000, 53, 30);
        let f2 = udp_frame(b, a, 53, 5000, 80);
        t.ingest(&Packet::parse(&f1).unwrap(), Timestamp::from_micros(0), &mut h);
        t.ingest(&Packet::parse(&f2).unwrap(), Timestamp::from_micros(400), &mut h);
        t.finish(Timestamp::from_secs(1), &mut h);
        assert_eq!(h.summaries.len(), 1);
        let s = &h.summaries[0];
        assert_eq!(s.outcome, TcpOutcome::Successful);
        assert_eq!(s.key.orig.addr, a);
        assert_eq!(s.orig.payload_bytes, 30);
        assert_eq!(s.resp.payload_bytes, 80);
        assert_eq!(s.duration_us(), 400);
    }

    #[test]
    fn udp_timeout_splits_flows() {
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 2);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let f = udp_frame(a, b, 123, 123, 48);
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_secs(0), &mut h);
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_secs(100), &mut h);
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_secs(100), &mut h);
        t.finish(Timestamp::from_secs(200), &mut h);
        assert_eq!(h.summaries.len(), 2);
        assert_eq!(h.summaries[0].orig.packets, 1);
        assert_eq!(h.summaries[1].orig.packets, 2);
    }

    #[test]
    fn unanswered_udp_to_multicast_not_counted_as_failure() {
        let a = Addr::new(10, 0, 0, 1);
        let m = Addr::new(239, 255, 255, 253);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let f = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr([0x01, 0, 0x5E, 0x7F, 0xFF, 0xFD]),
                src_ip: a,
                dst_ip: m,
                src_port: 427,
                dst_port: 427,
                ttl: 8,
            },
            &[0u8; 60],
        );
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::ZERO, &mut h);
        t.finish(Timestamp::from_secs(1), &mut h);
        assert_eq!(h.summaries.len(), 1);
        assert!(h.summaries[0].multicast);
        assert_eq!(h.summaries[0].outcome, TcpOutcome::NotApplicable);
    }

    #[test]
    fn icmp_echo_pairing() {
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 2);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let req = build::icmp_frame(
            MacAddr::from_host_id(1),
            MacAddr::from_host_id(2),
            a,
            b,
            icmp::MessageType::EchoRequest,
            99,
            1,
            b"ping",
        );
        let rep = build::icmp_frame(
            MacAddr::from_host_id(2),
            MacAddr::from_host_id(1),
            b,
            a,
            icmp::MessageType::EchoReply,
            99,
            1,
            b"ping",
        );
        t.ingest(&Packet::parse(&req).unwrap(), Timestamp::from_micros(0), &mut h);
        t.ingest(&Packet::parse(&rep).unwrap(), Timestamp::from_micros(300), &mut h);
        t.finish(Timestamp::from_secs(1), &mut h);
        assert_eq!(h.summaries.len(), 1);
        let s = &h.summaries[0];
        assert_eq!(s.key.proto, Proto::Icmp);
        assert!(s.icmp_answered);
        assert_eq!(s.key.orig.addr, a);
        assert_eq!(s.outcome, TcpOutcome::Successful);
    }

    #[test]
    fn syn_ack_first_orients_to_receiver() {
        let client = Addr::new(10, 0, 0, 1);
        let server = Addr::new(10, 0, 0, 2);
        // Trace starts right after the client's SYN was missed.
        let f = build::tcp_frame(
            &build::TcpFrameSpec {
                src_mac: MacAddr::from_host_id(2),
                dst_mac: MacAddr::from_host_id(1),
                src_ip: server,
                dst_ip: client,
                src_port: 80,
                dst_port: 40000,
                seq: 1,
                ack: 1,
                flags: Flags::SYN | Flags::ACK,
                window: 65535,
                ttl: 64,
            },
            &[],
        );
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::ZERO, &mut h);
        t.finish(Timestamp::from_secs(1), &mut h);
        assert_eq!(h.summaries[0].key.orig.addr, client);
        assert_eq!(h.summaries[0].key.resp.port, 80);
    }

    #[test]
    fn port_reuse_after_close_creates_new_conn() {
        let client = Addr::new(10, 0, 0, 1);
        let server = Addr::new(10, 0, 0, 2);
        let mk = |src: Addr, dst: Addr, sp, dp, seq, ack, flags| {
            build::tcp_frame(
                &build::TcpFrameSpec {
                    src_mac: MacAddr::from_host_id(1),
                    dst_mac: MacAddr::from_host_id(2),
                    src_ip: src,
                    dst_ip: dst,
                    src_port: sp,
                    dst_port: dp,
                    seq,
                    ack,
                    flags,
                    window: 1000,
                    ttl: 64,
                },
                &[],
            )
        };
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let mut ts = 0u64;
        let mut feed = |t: &mut ConnTable, h: &mut CollectSummaries, f: Vec<u8>| {
            ts += 1000;
            t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_micros(ts), h);
        };
        // First connection: SYN, SYN-ACK, RST teardown.
        feed(&mut t, &mut h, mk(client, server, 40000, 139, 10, 0, Flags::SYN));
        feed(&mut t, &mut h, mk(server, client, 139, 40000, 50, 11, Flags::SYN | Flags::ACK));
        feed(&mut t, &mut h, mk(client, server, 40000, 139, 11, 51, Flags::RST));
        // Same 4-tuple, fresh SYN.
        feed(&mut t, &mut h, mk(client, server, 40000, 139, 900, 0, Flags::SYN));
        t.finish(Timestamp::from_secs(10), &mut h);
        assert_eq!(h.summaries.len(), 2);
        assert_eq!(h.summaries[0].tcp_state, TcpState::Reset);
        assert_eq!(h.summaries[1].outcome, TcpOutcome::Unanswered);
    }

    #[test]
    fn repeated_rejected_attempts_count_separately() {
        // The paper's automated-retry observation: each SYN→RST cycle is a
        // distinct attempt (then §5 de-duplicates by host-pair).
        let client = Addr::new(10, 0, 0, 1);
        let server = Addr::new(10, 0, 0, 2);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        for i in 0..3u64 {
            let syn = build::tcp_frame(
                &build::TcpFrameSpec {
                    src_mac: MacAddr::from_host_id(1),
                    dst_mac: MacAddr::from_host_id(2),
                    src_ip: client,
                    dst_ip: server,
                    src_port: 40000 + i as u16,
                    dst_port: 445,
                    seq: 1,
                    ack: 0,
                    flags: Flags::SYN,
                    window: 1000,
                    ttl: 64,
                },
                &[],
            );
            let rst = build::tcp_frame(
                &build::TcpFrameSpec {
                    src_mac: MacAddr::from_host_id(2),
                    dst_mac: MacAddr::from_host_id(1),
                    src_ip: server,
                    dst_ip: client,
                    src_port: 445,
                    dst_port: 40000 + i as u16,
                    seq: 0,
                    ack: 2,
                    flags: Flags::RST | Flags::ACK,
                    window: 0,
                    ttl: 64,
                },
                &[],
            );
            t.ingest(&Packet::parse(&syn).unwrap(), Timestamp::from_millis(i * 10), &mut h);
            t.ingest(&Packet::parse(&rst).unwrap(), Timestamp::from_millis(i * 10 + 1), &mut h);
        }
        t.finish(Timestamp::from_secs(1), &mut h);
        assert_eq!(h.summaries.len(), 3);
        assert!(h.summaries.iter().all(|s| s.outcome == TcpOutcome::Rejected));
    }

    #[test]
    fn timestamp_regression_clamped_and_counted() {
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 53);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let f1 = udp_frame(a, b, 5000, 53, 30);
        let f2 = udp_frame(b, a, 53, 5000, 80);
        t.ingest(&Packet::parse(&f1).unwrap(), Timestamp::from_micros(700), &mut h);
        // The reply's timestamp runs *behind* the request's.
        t.ingest(&Packet::parse(&f2).unwrap(), Timestamp::from_micros(100), &mut h);
        t.finish(Timestamp::from_secs(1), &mut h);
        assert_eq!(t.stats().clock_regressions, 1);
        assert_eq!(h.summaries.len(), 1);
        // Clamping keeps the duration non-negative instead of absurd.
        assert_eq!(h.summaries[0].duration_us(), 0);
    }

    #[test]
    fn conn_cap_evicts_least_recently_active() {
        let mut t = ConnTable::new(TableConfig {
            max_conns: 10,
            ..Default::default()
        });
        let mut h = CollectSummaries::default();
        // A scan storm: 50 distinct UDP flows, one packet each.
        for i in 0..50u16 {
            let src = Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8 + 1);
            let f = udp_frame(src, Addr::new(10, 0, 9, 9), 4000 + i, 53, 20);
            t.ingest(
                &Packet::parse(&f).unwrap(),
                Timestamp::from_millis(u64::from(i)),
                &mut h,
            );
        }
        assert!(t.open_conns() <= 10, "cap not enforced: {}", t.open_conns());
        assert!(t.stats().evicted_conns >= 40);
        t.finish(Timestamp::from_secs(1), &mut h);
        // Every flow still produces a summary — eviction closes early, it
        // does not lose connections.
        assert_eq!(h.summaries.len(), 50);
    }

    #[test]
    fn eviction_prefers_oldest_activity() {
        let mut t = ConnTable::new(TableConfig {
            max_conns: 4,
            ..Default::default()
        });
        let mut h = CollectSummaries::default();
        let server = Addr::new(10, 0, 9, 9);
        let mk = |i: u16| udp_frame(Addr::new(10, 0, 0, i as u8 + 1), server, 4000 + i, 53, 20);
        for i in 0..4u16 {
            t.ingest(
                &Packet::parse(&mk(i)).unwrap(),
                Timestamp::from_millis(u64::from(i)),
                &mut h,
            );
        }
        // Refresh flow 0 so flow 1 is now the least recently active.
        t.ingest(&Packet::parse(&mk(0)).unwrap(), Timestamp::from_millis(100), &mut h);
        // A fifth flow forces an eviction.
        t.ingest(&Packet::parse(&mk(9)).unwrap(), Timestamp::from_millis(101), &mut h);
        assert_eq!(t.stats().evicted_conns, 1);
        assert_eq!(h.summaries.len(), 1);
        // The evicted flow is the stale one (flow 1), not the refreshed one.
        assert_eq!(h.summaries[0].key.orig.port, 4001);
    }

    #[test]
    fn finish_clamps_open_conn_ends_to_trace_end() {
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 2);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let f = udp_frame(a, b, 123, 123, 48);
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_secs(1), &mut h);
        // A wild future timestamp (e.g. a pinned-but-still-late stamp from a
        // damaged capture) pushes the flow's last activity past the trace.
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_secs(50), &mut h);
        t.finish(Timestamp::from_secs(10), &mut h);
        assert_eq!(h.summaries.len(), 1);
        // The open flow's end is clamped back to the trace end, so its
        // duration cannot exceed the trace.
        assert_eq!(h.summaries[0].end, Timestamp::from_secs(10));
        assert_eq!(h.summaries[0].duration_us(), 9_000_000);
    }

    #[test]
    fn data_packets_exclude_pure_acks() {
        let client = Addr::new(10, 0, 0, 1);
        let server = Addr::new(10, 0, 0, 2);
        let mk = |src: Addr, dst: Addr, sp, dp, seq, ack, flags, payload: &[u8]| {
            build::tcp_frame(
                &build::TcpFrameSpec {
                    src_mac: MacAddr::from_host_id(1),
                    dst_mac: MacAddr::from_host_id(2),
                    src_ip: src,
                    dst_ip: dst,
                    src_port: sp,
                    dst_port: dp,
                    seq,
                    ack,
                    flags,
                    window: 65535,
                    ttl: 64,
                },
                payload,
            )
        };
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let mut ts = 0u64;
        let mut feed = |t: &mut ConnTable, h: &mut CollectSummaries, f: Vec<u8>| {
            ts += 1000;
            t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_micros(ts), h);
        };
        feed(&mut t, &mut h, mk(client, server, 40000, 80, 10, 0, Flags::SYN, &[]));
        feed(&mut t, &mut h, mk(server, client, 80, 40000, 50, 11, Flags::SYN | Flags::ACK, &[]));
        feed(&mut t, &mut h, mk(client, server, 40000, 80, 11, 51, Flags::ACK, &[]));
        feed(&mut t, &mut h, mk(client, server, 40000, 80, 11, 51, Flags::ACK, b"GET /"));
        feed(&mut t, &mut h, mk(server, client, 80, 40000, 51, 16, Flags::ACK, b"200 OK"));
        feed(&mut t, &mut h, mk(client, server, 40000, 80, 16, 57, Flags::ACK, &[]));
        t.finish(Timestamp::from_secs(1), &mut h);
        assert_eq!(h.summaries.len(), 1);
        let s = &h.summaries[0];
        // 4 originator packets, but only 1 carried data; SYN-ACK is not data.
        assert_eq!(s.orig.packets, 4);
        assert_eq!(s.orig.data_packets, 1);
        assert_eq!(s.resp.packets, 2);
        assert_eq!(s.resp.data_packets, 1);
    }

    #[test]
    fn peak_open_conns_tracks_high_water_mark() {
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let server = Addr::new(10, 0, 9, 9);
        for i in 0..6u16 {
            let f = udp_frame(Addr::new(10, 0, 0, i as u8 + 1), server, 4000 + i, 53, 20);
            t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_millis(u64::from(i)), &mut h);
        }
        assert_eq!(t.stats().peak_open_conns, 6);
        // A long-idle packet splits flows (closing them first), so the peak
        // stays at the high-water mark even as occupancy drops.
        let f = udp_frame(Addr::new(10, 0, 0, 1), server, 4000, 53, 20);
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_secs(100), &mut h);
        assert_eq!(t.stats().peak_open_conns, 6);
        t.finish(Timestamp::from_secs(200), &mut h);
        assert_eq!(t.stats().peak_open_conns, 6);
    }

    #[test]
    fn rotate_closes_all_and_resets_index_space() {
        let a = Addr::new(10, 0, 0, 1);
        let server = Addr::new(10, 0, 9, 9);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        for i in 0..3u16 {
            let f = udp_frame(a, server, 4000 + i, 53, 20);
            t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_millis(u64::from(i)), &mut h);
        }
        t.rotate(Timestamp::from_secs(1), &mut h);
        assert_eq!(h.summaries.len(), 3);
        assert_eq!(t.open_conns(), 0);
        // Post-rotation connections get indices from zero again, exactly
        // like a fresh table — resume-equivalence depends on this.
        let f = udp_frame(a, server, 5000, 53, 20);
        t.ingest(&Packet::parse(&f).unwrap(), Timestamp::from_secs(2), &mut h);
        t.finish(Timestamp::from_secs(3), &mut h);
        assert_eq!(h.summaries.len(), 4);
        assert_eq!(t.stats().peak_open_conns, 3, "peak survives rotation");
    }

    #[test]
    fn carry_restore_preserves_clock_and_stats() {
        let a = Addr::new(10, 0, 0, 1);
        let b = Addr::new(10, 0, 0, 53);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let f1 = udp_frame(a, b, 5000, 53, 30);
        let f2 = udp_frame(b, a, 53, 5000, 80);
        t.ingest(&Packet::parse(&f1).unwrap(), Timestamp::from_micros(700), &mut h);
        t.ingest(&Packet::parse(&f2).unwrap(), Timestamp::from_micros(100), &mut h);
        t.rotate(Timestamp::from_secs(1), &mut h);
        let carry = t.carry();
        assert_eq!(carry.stats.clock_regressions, 1);
        assert_eq!(carry.last_ts, Some(Timestamp::from_micros(700)));
        // A fresh table restored from the carry clamps a regressed clock
        // exactly like the original table would have.
        let mut fresh = ConnTable::new(TableConfig::default());
        fresh.restore(carry);
        let mut h2 = CollectSummaries::default();
        fresh.ingest(&Packet::parse(&f1).unwrap(), Timestamp::from_micros(200), &mut h2);
        assert_eq!(fresh.stats().clock_regressions, 2);
        fresh.finish(Timestamp::from_secs(2), &mut h2);
        assert_eq!(h2.summaries[0].start, Timestamp::from_micros(700));
    }

    #[test]
    fn non_ip_and_other_transports_ignored_by_table() {
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        let arp = ent_wire::ethernet::emit(
            MacAddr::BROADCAST,
            MacAddr::from_host_id(1),
            ent_wire::ethernet::EtherType::Arp,
            &ent_wire::arp::Packet {
                operation: ent_wire::arp::Operation::Request,
                sender_mac: MacAddr::from_host_id(1),
                sender_ip: Addr::new(10, 0, 0, 1),
                target_mac: MacAddr([0; 6]),
                target_ip: Addr::new(10, 0, 0, 2),
            }
            .emit(),
        );
        t.ingest(&Packet::parse(&arp).unwrap(), Timestamp::ZERO, &mut h);
        let gre = build::raw_ip_frame(
            MacAddr::from_host_id(1),
            MacAddr::from_host_id(2),
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 0, 2),
            47,
            &[0u8; 20],
        );
        t.ingest(&Packet::parse(&gre).unwrap(), Timestamp::ZERO, &mut h);
        t.finish(Timestamp::from_secs(1), &mut h);
        assert!(h.summaries.is_empty());
        assert_eq!(t.packets_seen(), 2);
    }
}
