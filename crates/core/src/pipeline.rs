//! The per-trace analysis pipeline: packets → connections → application
//! records.
//!
//! Mirrors the paper's methodology: Bro-style connection summaries
//! (`ent-flow`) drive per-connection application analyzers (`ent-proto`);
//! DCE/RPC endpoints on ephemeral ports are discovered live from Endpoint-
//! Mapper responses; payload analyzers are disabled for header-only
//! (snaplen 68) traces exactly as the paper omits D1/D2 from payload
//! analyses.

use crate::error::AnalysisError;
use crate::metrics::{AnalyzerKind, Stage, StageStat, StageTimer};
use crate::records::*;
use crate::scanners::{remove_scanners, ScannerConfig};
use crate::small::SmallMap;
use ent_flow::{
    ConnIndex, ConnSummary, ConnTable, Dir, FlowHandler, FlowKey, FlowStats, Proto, TableConfig,
};
use ent_pcap::{RecoveringReader, Trace, TraceMeta};
use ent_proto::dns::QType;
use ent_proto::http::HttpAnalyzer;
use ent_proto::imap::ImapAnalyzer;
use ent_proto::ncp::NcpAnalyzer;
use ent_proto::nfs::NfsAnalyzer;
use ent_proto::smtp::SmtpAnalyzer;
use ent_proto::ssl::TlsTracker;
use ent_proto::{cifs, dcerpc, dns, netbios, AppProtocol, Category, DynamicPorts, Transport};
use ent_wire::{Packet, Timestamp};

/// Pipeline options.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Scanner-removal configuration.
    pub scanners: ScannerConfig,
    /// Keep scanner traffic (ablation; the paper removes it).
    pub keep_scanners: bool,
    /// Connection-table cap forwarded to the flow engine (0 = unbounded).
    /// When hit, the least-recently-active connections are evicted and
    /// tallied in [`IngestHealth::evicted_conns`].
    pub max_conns: usize,
    /// Per-connection pending-transaction budget for the DNS/NBNS
    /// outstanding-request maps (0 = unbounded, the batch default). A full
    /// map drops further requests from tracking — they are counted in
    /// [`IngestHealth::pending_dropped`] instead of growing the map, the
    /// monitor's defense against request floods that never see answers.
    pub max_pending: usize,
    /// Fault-injection hook of this crate's unit tests: panic inside the
    /// application analyzer on every Nth TCP data delivery (0 = never), to
    /// exercise the analyzer-failure demotion path deterministically.
    #[cfg(test)]
    pub analyzer_panic_every: u64,
    /// Intra-trace sharding: split the flow pipeline across this many
    /// per-core `ConnTable` lanes, steering frames by canonical host pair
    /// (see `ent_flow::shard`) and folding the per-lane windows in lane
    /// order at the seal. `0` (the default) is the dispatcher with zero
    /// workers: the same frame loop feeds one inline engine on the
    /// caller's thread, with no channel. `1` runs one worker lane (event-
    /// for-event identical to `0`). Every batch entry point honors this —
    /// [`analyze_packets`], [`analyze_trace`] and [`analyze_capture`] are
    /// one session; the resident monitor ignores it (its epoch rotation
    /// drives a single engine — see `MonitorConfig`).
    pub shards: usize,
}

/// Outstanding-query maps hold a handful of entries at most; 4 inline
/// slots cover the common case with zero heap traffic.
const PENDING_INLINE: usize = 4;

#[derive(Default)]
struct DnsState {
    pending: SmallMap<u16, (Timestamp, QType), PENDING_INLINE>,
}

#[derive(Default)]
struct NbnsState {
    pending: SmallMap<u16, usize, PENDING_INLINE>, // id -> index into out.nbns
}

enum AppState {
    None,
    Http(HttpAnalyzer),
    Smtp(SmtpAnalyzer),
    Imap(ImapAnalyzer),
    Tls(TlsTracker),
    Cifs(cifs::CifsAnalyzer),
    Dcerpc(dcerpc::DcerpcAnalyzer),
    NfsTcp(NfsAnalyzer),
    NfsUdp(NfsAnalyzer),
    Ncp(NcpAnalyzer),
    Dns(DnsState),
    Nbns(NbnsState),
}

struct PerConn {
    key: FlowKey,
    app: Option<AppProtocol>,
    state: AppState,
}

/// Which analyzer a connection's state feeds, for per-analyzer metrics.
fn kind_of(state: &AppState) -> Option<AnalyzerKind> {
    match state {
        AppState::None => None,
        AppState::Http(_) => Some(AnalyzerKind::Http),
        AppState::Smtp(_) => Some(AnalyzerKind::Smtp),
        AppState::Imap(_) => Some(AnalyzerKind::Imap),
        AppState::Tls(_) => Some(AnalyzerKind::Tls),
        AppState::Cifs(_) => Some(AnalyzerKind::Cifs),
        AppState::Dcerpc(_) => Some(AnalyzerKind::Dcerpc),
        AppState::NfsTcp(_) => Some(AnalyzerKind::NfsTcp),
        AppState::NfsUdp(_) => Some(AnalyzerKind::NfsUdp),
        AppState::Ncp(_) => Some(AnalyzerKind::Ncp),
        AppState::Dns(_) => Some(AnalyzerKind::Dns),
        AppState::Nbns(_) => Some(AnalyzerKind::Nbns),
    }
}

/// The stage that hands this analyzer its payload. A delivery is made only
/// to an analyzer of the delivering stage, so each stage's events, bytes
/// and wall are the sums of its analyzers'.
fn deliver_stage(kind: AnalyzerKind) -> Stage {
    match kind {
        AnalyzerKind::Http
        | AnalyzerKind::Smtp
        | AnalyzerKind::Imap
        | AnalyzerKind::Tls
        | AnalyzerKind::Cifs
        | AnalyzerKind::Dcerpc
        | AnalyzerKind::NfsTcp
        | AnalyzerKind::Ncp => Stage::TcpDeliver,
        AnalyzerKind::NfsUdp | AnalyzerKind::Dns | AnalyzerKind::Nbns => Stage::UdpDeliver,
    }
}

/// Sampling stride of every clock on the packet path — the fused
/// parse+ingest pass, analyzer deliveries, connection closes: one event in
/// `LAP_STRIDE` reads the clock, the rest run clock-free. The two
/// `Instant::now` reads around an event (~80 ns) rival the work they
/// bracket at multi-M pkts/s; sampling keeps the per-stage walls honest at
/// 1/71 of that cost. The phase is always the stage's own exact event
/// counter — no RNG — so which events are clocked is a pure function of
/// the input, and the first event of every window is one of them (no stat
/// has events and a zero wall). A prime, so the clocked events never fall
/// in step with a `Vec` doubling at powers of two (at 64 every clocked
/// close from the 64th on paid for the growth of `out.conns`, and
/// `finalize` read 5.7× high); 71 is the smallest prime that keeps a
/// full-payload trace — 0.64 deliveries and closes per packet on top of
/// the pass's three laps — under one clock read per 16 packets.
const LAP_STRIDE: u64 = 71;

/// One clocked event: its stopwatch, and how many events its lap stands
/// for. The first event of a window stands for itself alone — a window's
/// first delivery is always the opening payload of a connection (a request
/// head, the dearest kind) on cold state, and given a stride's weight it
/// read `http` 1.75× high at the gate config; every later one stands for
/// the stride of events up to it.
struct Clocked {
    timer: StageTimer,
    stands_for: u64,
}

impl Clocked {
    /// Stop the watch: the lap times the events it stands for.
    fn weighted_ns(mut self) -> u64 {
        self.timer.lap().saturating_mul(self.stands_for)
    }
}

/// Count one event into `stat` — events and bytes are exact on every
/// event — and start the stopwatch if the clock rule samples this one.
#[inline]
fn sampled_timer(stat: &mut StageStat, bytes: u64) -> Option<Clocked> {
    let before = stat.events;
    stat.add(0, 1, bytes);
    before.is_multiple_of(LAP_STRIDE).then(|| Clocked {
        stands_for: if before == 0 { 1 } else { LAP_STRIDE },
        timer: StageTimer::start(),
    })
}

/// A window's wall-time estimate for a stat from the weighted laps of its
/// clocked events ([`Clocked::weighted_ns`]). The window's counters start
/// at zero, so of `events` events the first and every [`LAP_STRIDE`]-th
/// after it were clocked and stand for `1 + LAP_STRIDE × ⌊(events − 1) /
/// LAP_STRIDE⌋` of them; the estimate scales that up to the exact count. A
/// window with one event reports that event's lap, not a stride of them.
fn estimate_wall_ns(weighted_ns: u64, events: u64) -> u64 {
    let Some(after_first) = events.checked_sub(1) else {
        return 0;
    };
    let stood_for = 1 + u128::from(after_first / LAP_STRIDE) * u128::from(LAP_STRIDE);
    let wall = u128::from(weighted_ns) * u128::from(events) / stood_for;
    u64::try_from(wall).unwrap_or(u64::MAX)
}

/// Weighted nanoseconds of one window's clocked events, window-scoped like
/// the engine's `fused_ns`: [`Engine::close_window`] turns them into the
/// stats' `wall_ns` and starts the next window from zero.
#[derive(Default)]
struct SampledLaps {
    /// Deliveries, per analyzer in [`AnalyzerKind::ALL`] order.
    deliver_ns: [u64; AnalyzerKind::COUNT],
    /// Connection closes ([`Stage::Finalize`]).
    finalize_ns: u64,
}

struct Handler {
    /// The window's output record, owned so the engine can swap in a fresh
    /// one at an epoch boundary (the monitor's rotation) without touching
    /// any other analyzer state.
    out: TraceAnalysis,
    /// Per-connection analyzer state, indexed directly by [`ConnIndex`].
    /// The flow table hands out dense sequential indices, so a slab vector
    /// replaces the former `HashMap<ConnIndex, PerConn>`: lookup is a
    /// bounds check, not a hash.
    conns: Vec<Option<PerConn>>,
    dynamic: DynamicPorts,
    payload_ok: bool,
    max_pending: usize,
    laps: SampledLaps,
    #[cfg(test)]
    panic_every: u64,
    #[cfg(test)]
    tcp_data_events: u64,
}

/// Note an analyzer failure: the connection keeps only its flow-level
/// summary from here on — the paper's own posture for the header-only
/// datasets D1/D2.
fn demote(out: &mut TraceAnalysis) {
    out.health.analyzer_failures += 1;
    out.health.demoted_conns += 1;
}

impl Handler {
    /// Clear per-epoch state, retaining allocations: the slab truncates
    /// (every entry is `None` after a rotation drains the table) and, in
    /// tests, the injected-fault counter restarts so fault cadence stays
    /// epoch-deterministic. Learned dynamic ports deliberately survive — an
    /// Endpoint-Mapper lease outlives any one epoch.
    fn reset_epoch(&mut self) {
        self.conns.clear();
        #[cfg(test)]
        {
            self.tcp_data_events = 0;
        }
    }

    fn classify(&self, key: &FlowKey) -> Option<AppProtocol> {
        let transport = match key.proto {
            Proto::Tcp => Transport::Tcp,
            Proto::Udp => Transport::Udp,
            Proto::Icmp => return None,
        };
        ent_proto::identify(key.resp.addr, key.resp.port, transport, &self.dynamic).or_else(
            || {
                // Server-push flows (e.g. RTP media) can be oriented with
                // the well-known port on the originator side.
                ent_proto::identify(key.orig.addr, key.orig.port, transport, &self.dynamic)
            },
        )
    }

    fn attach(&self, key: &FlowKey, app: Option<AppProtocol>) -> AppState {
        if !self.payload_ok {
            return AppState::None;
        }
        match (app, key.proto) {
            (Some(AppProtocol::Http), Proto::Tcp) => AppState::Http(HttpAnalyzer::new()),
            (Some(AppProtocol::Smtp), Proto::Tcp) => AppState::Smtp(SmtpAnalyzer::new()),
            (Some(AppProtocol::Imap4), Proto::Tcp) => AppState::Imap(ImapAnalyzer::new()),
            (Some(AppProtocol::Https | AppProtocol::ImapS | AppProtocol::PopS), Proto::Tcp) => {
                AppState::Tls(TlsTracker::new())
            }
            (Some(AppProtocol::Cifs | AppProtocol::NetbiosSsn), Proto::Tcp) => {
                AppState::Cifs(cifs::CifsAnalyzer::new())
            }
            (Some(AppProtocol::DceRpc), Proto::Tcp) => {
                AppState::Dcerpc(dcerpc::DcerpcAnalyzer::new())
            }
            (Some(AppProtocol::Nfs), Proto::Tcp) => AppState::NfsTcp(NfsAnalyzer::new()),
            (Some(AppProtocol::Nfs), Proto::Udp) => AppState::NfsUdp(NfsAnalyzer::new()),
            (Some(AppProtocol::Ncp), Proto::Tcp) => AppState::Ncp(NcpAnalyzer::new()),
            (Some(AppProtocol::Dns), Proto::Udp) => AppState::Dns(DnsState::default()),
            (Some(AppProtocol::NetbiosNs), Proto::Udp) => AppState::Nbns(NbnsState::default()),
            _ => AppState::None,
        }
    }

    fn finalize(&mut self, idx: ConnIndex, summary: &ConnSummary) {
        let Some(mut pc) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let clocked = sampled_timer(
            &mut self.out.metrics.stages[Stage::Finalize],
            summary.total_payload(),
        );
        let category = match pc.app {
            Some(a) => a.category(),
            None => match summary.key.proto {
                Proto::Tcp => Category::OtherTcp,
                _ => Category::OtherUdp,
            },
        };
        // An analyzer that fails while draining costs its application
        // records, never the connection summary itself.
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.drain_app(&mut pc, summary);
        }));
        if drained.is_err() {
            demote(&mut self.out);
        }
        // `ConnSummary` is `Copy`; storing it by value is a plain memcpy
        // with no per-connection heap traffic (pinned by the allocation
        // counter in `tests/tests/alloc_pin.rs`).
        self.out.conns.push(ConnRecord {
            summary: *summary,
            app: pc.app,
            category,
        });
        if let Some(clocked) = clocked {
            self.laps.finalize_ns += clocked.weighted_ns();
        }
    }

    /// Flush a closing connection's analyzer into the output records.
    fn drain_app(&mut self, pc: &mut PerConn, summary: &ConnSummary) {
        match &mut pc.state {
            AppState::Http(h) => {
                h.finish();
                for tx in h.take_transactions() {
                    self.out.http.push(HttpRecord {
                        tx,
                        client: summary.key.orig.addr,
                        server: summary.key.resp.addr,
                        server_internal: is_internal(summary.key.resp.addr),
                    });
                }
            }
            AppState::Smtp(s) => {
                let sess = s.session();
                if sess.messages > 0 {
                    self.out.smtp_message_bytes.push(sess.message_bytes);
                }
            }
            AppState::Imap(i) => {
                let sess = i.session();
                if !sess.commands.is_empty() {
                    self.out.imap_polls.push(sess.polls);
                }
            }
            AppState::Tls(t) => {
                self.out.tls.push(TlsRecord {
                    client: summary.key.orig.addr,
                    handshake_complete: t.handshake_complete(),
                    app_records: t.app_records,
                    port: summary.key.resp.port,
                    pair: summary.key.host_pair(),
                });
            }
            AppState::Cifs(c) => {
                let mut rec = CifsConnRecord::default();
                let mut rpc = dcerpc::DcerpcAnalyzer::new();
                for ev in c.take_events() {
                    match ev {
                        cifs::CifsEvent::SsnRequest => rec.ssn_requested = true,
                        cifs::CifsEvent::SsnPositive => rec.ssn_positive = true,
                        cifs::CifsEvent::SsnNegative => rec.ssn_negative = true,
                        cifs::CifsEvent::Smb(msg) => {
                            rec.count(msg.class(), msg.is_response, msg.size);
                            if !msg.trans_data.is_empty()
                                && msg.class() == cifs::CifsClass::RpcPipes
                            {
                                rpc.feed(!msg.is_response, &msg.trans_data);
                            }
                        }
                    }
                }
                rpc.finish();
                for call in rpc.take_calls() {
                    self.out.rpc.push(RpcRecord {
                        function: call.function,
                        request_bytes: call.request_bytes,
                        response_bytes: call.response_bytes,
                    });
                }
                self.out.cifs.push(rec);
            }
            AppState::Dcerpc(d) => {
                d.finish();
                for call in d.take_calls() {
                    self.out.rpc.push(RpcRecord {
                        function: call.function,
                        request_bytes: call.request_bytes,
                        response_bytes: call.response_bytes,
                    });
                }
            }
            AppState::NfsTcp(n) | AppState::NfsUdp(n) => {
                let udp = matches!(summary.key.proto, Proto::Udp);
                n.finish();
                for call in n.take_calls() {
                    self.out.nfs.push(NfsRecord {
                        op: call.op,
                        request_bytes: call.request_bytes as u32,
                        reply_bytes: call.reply_bytes as u32,
                        ok: call.ok,
                        pair: summary.key.host_pair(),
                        udp,
                    });
                }
            }
            AppState::Ncp(n) => {
                n.finish();
                for call in n.take_calls() {
                    self.out.ncp.push(NcpRecord {
                        op: call.op,
                        request_bytes: call.request_bytes as u32,
                        reply_bytes: call.reply_bytes as u32,
                        ok: call.ok,
                        pair: summary.key.host_pair(),
                    });
                }
            }
            AppState::Dns(_) | AppState::Nbns(_) | AppState::None => {}
        }
    }
}

impl FlowHandler for Handler {
    fn on_new_conn(&mut self, idx: ConnIndex, key: &FlowKey, _ts: Timestamp) {
        let app = self.classify(key);
        let state = self.attach(key, app);
        // Indices arrive densely in creation order, so this is a push in
        // the normal case; resize_with covers the defensive gap.
        if idx >= self.conns.len() {
            self.conns.resize_with(idx + 1, || None);
        }
        if let Some(slot) = self.conns.get_mut(idx) {
            *slot = Some(PerConn {
                key: *key,
                app,
                state,
            });
        }
    }

    fn on_tcp_data(&mut self, idx: ConnIndex, dir: Dir, _ts: Timestamp, data: &[u8]) {
        let Some(pc) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let kind = kind_of(&pc.state).filter(|kind| deliver_stage(*kind) == Stage::TcpDeliver);
        let Some(kind) = kind else {
            return;
        };
        #[cfg(test)]
        let inject = {
            self.tcp_data_events += 1;
            self.panic_every != 0 && self.tcp_data_events.is_multiple_of(self.panic_every)
        };
        let from_client = dir == Dir::Orig;
        let bytes = data.len() as u64;
        self.out.metrics.stages[Stage::TcpDeliver].add(0, 1, bytes);
        // ent-lint: allow(E001) — `kind` is an AnalyzerKind, not an offset
        let clocked = sampled_timer(&mut self.out.metrics.analyzers[kind], bytes);
        // Fed in place: an analyzer that panics is dropped below, so the
        // state it left half-updated is never read again.
        let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(test)]
            assert!(!inject, "injected analyzer fault");
            match &mut pc.state {
                AppState::Http(h) => {
                    if from_client {
                        h.feed_request_data(data);
                    } else {
                        h.feed_response_data(data);
                    }
                }
                AppState::Smtp(s) => {
                    if from_client {
                        s.feed_client(data);
                    } else {
                        s.feed_server(data);
                    }
                }
                AppState::Imap(i) if from_client => i.feed_client(data),
                AppState::Tls(t) => t.feed(from_client, data),
                AppState::Cifs(c) => c.feed(from_client, data),
                AppState::Dcerpc(d) => d.feed(from_client, data),
                AppState::NfsTcp(n) => n.feed_tcp(from_client, _ts, data),
                AppState::Ncp(n) => n.feed(from_client, _ts, data),
                _ => {}
            }
        }));
        if let (Some(clocked), Some(ns)) = (clocked, self.laps.deliver_ns.get_mut(kind as usize)) {
            *ns += clocked.weighted_ns();
        }
        match fed {
            Ok(()) => {
                if let AppState::Dcerpc(d) = &mut pc.state {
                    // Learn Endpoint-Mapper results immediately so follow-up
                    // connections to the mapped port classify as DCE/RPC.
                    if !d.mappings.is_empty() {
                        for (_, addr, port) in d.mappings.drain(..) {
                            self.dynamic.learn(addr, port, AppProtocol::DceRpc);
                        }
                    }
                }
            }
            // From here on the connection gets header-only treatment.
            Err(_) => {
                pc.state = AppState::None;
                demote(&mut self.out);
            }
        }
    }

    fn on_tcp_gap(&mut self, idx: ConnIndex, dir: Dir, _wire_bytes: u64) {
        let Some(pc) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let from_client = dir == Dir::Orig;
        // No wildcard: a new stream analyzer cannot be left parsing across
        // the hole.
        match &mut pc.state {
            AppState::Http(h) => h.gap(from_client),
            AppState::Smtp(s) => s.gap(from_client),
            AppState::Imap(i) => i.gap(from_client),
            AppState::Tls(t) => t.gap(from_client),
            AppState::Cifs(c) => c.gap(from_client),
            AppState::Dcerpc(d) => d.gap(from_client),
            AppState::NfsTcp(n) | AppState::NfsUdp(n) => n.gap(from_client),
            AppState::Ncp(n) => n.gap(from_client),
            AppState::Dns(_) | AppState::Nbns(_) | AppState::None => {}
        }
    }

    fn on_udp_datagram(
        &mut self,
        idx: ConnIndex,
        dir: Dir,
        ts: Timestamp,
        data: &[u8],
        _wire_len: u32,
    ) {
        let Some(pc) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let kind = kind_of(&pc.state).filter(|kind| deliver_stage(*kind) == Stage::UdpDeliver);
        let Some(kind) = kind else {
            return;
        };
        let from_client = dir == Dir::Orig;
        let (server, client) = (pc.key.resp.addr, pc.key.orig.addr);
        let max_pending = self.max_pending;
        let bytes = data.len() as u64;
        let out = &mut self.out;
        out.metrics.stages[Stage::UdpDeliver].add(0, 1, bytes);
        // ent-lint: allow(E001) — `kind` is an AnalyzerKind, not an offset
        let clocked = sampled_timer(&mut out.metrics.analyzers[kind], bytes);
        let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match &mut pc.state {
                AppState::Dns(st) => {
                    let Some(msg) = dns::parse(data) else {
                        return;
                    };
                    if !msg.is_response {
                        if let Some(qt) = msg.qtype {
                            if max_pending != 0 && st.pending.len() >= max_pending {
                                // Budget exhausted: stop tracking the query
                                // (its answer will not match) and account
                                // the drop instead of growing the map.
                                out.health.pending_dropped += 1;
                            } else {
                                st.pending.insert(msg.id, (ts, qt));
                            }
                        }
                    } else if let Some((t0, qt)) = st.pending.remove(&msg.id) {
                        out.dns.push(DnsRecord {
                            qtype: qt,
                            rcode: Some(msg.rcode),
                            latency_us: Some(ts.saturating_micros_since(t0)),
                            client,
                            server,
                            server_internal: is_internal(server),
                        });
                    }
                }
                AppState::Nbns(st) => {
                    let Some(msg) = netbios::parse_ns(data) else {
                        return;
                    };
                    if !msg.is_response {
                        let rec = NbnsRecord {
                            opcode: msg.opcode,
                            name: msg.name,
                            name_type: msg.name_type,
                            rcode: None,
                            client,
                        };
                        if max_pending != 0 && st.pending.len() >= max_pending {
                            // Keep the (unanswerable) request record but
                            // stop tracking it; account the drop.
                            out.health.pending_dropped += 1;
                        } else {
                            st.pending.insert(msg.id, out.nbns.len());
                        }
                        out.nbns.push(rec);
                    } else if let Some(i) = st.pending.remove(&msg.id) {
                        if let Some(rec) = out.nbns.get_mut(i) {
                            rec.rcode = Some(msg.rcode);
                        }
                    }
                }
                AppState::NfsUdp(n) => n.feed_udp(from_client, ts, data),
                _ => {}
            }
        }));
        if let (Some(clocked), Some(ns)) = (clocked, self.laps.deliver_ns.get_mut(kind as usize)) {
            *ns += clocked.weighted_ns();
        }
        if fed.is_err() {
            pc.state = AppState::None;
            demote(&mut self.out);
        }
    }

    fn on_conn_closed(&mut self, idx: ConnIndex, summary: &ConnSummary) {
        // Flush pending DNS queries as unanswered records (in the
        // SmallMap's deterministic slot order, not hash order).
        if let Some(pc) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if let AppState::Dns(st) = &mut pc.state {
                let (client, server) = (pc.key.orig.addr, pc.key.resp.addr);
                for (_, (_t0, qt)) in st.pending.drain() {
                    self.out.dns.push(DnsRecord {
                        qtype: qt,
                        rcode: None,
                        latency_us: None,
                        client,
                        server,
                        server_internal: is_internal(server),
                    });
                }
            }
        }
        self.finalize(idx, summary);
    }
}

/// A borrowed view of one timed frame: the single currency of the frame
/// loop, produced either from an in-memory [`Trace`] or streamed straight
/// off a pcap byte buffer by the recovering reader.
#[derive(Clone, Copy)]
pub(crate) struct FrameRef<'a> {
    pub(crate) ts: Timestamp,
    pub(crate) frame: &'a [u8],
    pub(crate) orig_len: u32,
}

/// The stream clock of one ingest session — the only place the window
/// base and the end of the stream are worked out, for batch runs (any
/// lane count) and the resident monitor alike.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamClock {
    /// The very first frame's timestamp, microseconds: the base every
    /// lane bins its load samples against (`None` before the first frame).
    pub(crate) base_us: Option<u64>,
    /// Latest timestamp seen: the first frame's, then dissectable frames
    /// only — a frame the dissector rejects cannot vouch for its clock.
    max_ts: Timestamp,
}

impl StreamClock {
    /// Advance the clock past one frame stamped `ts`; `dissected` says
    /// whether the dissector accepted it. Returns whether this frame
    /// opened the stream.
    #[inline]
    pub(crate) fn tick(&mut self, ts: Timestamp, dissected: bool) -> bool {
        let opened = self.base_us.is_none();
        if opened {
            self.base_us = Some(ts.micros());
            self.max_ts = ts;
        } else if dissected && ts > self.max_ts {
            self.max_ts = ts;
        }
        opened
    }

    /// The stream's absolute end: `elapsed_us` past the base — a trace's
    /// nominal duration, or the whole epochs a monitor has flushed — or
    /// the last frame seen, whichever is later.
    pub(crate) fn end_after(&self, elapsed_us: u64) -> Timestamp {
        Timestamp::from_micros(self.base_us.unwrap_or(0).saturating_add(elapsed_us))
            .max(self.max_ts)
    }
}

/// Where the frame loop hands its dissected frames: the inline [`Engine`]
/// (`shards == 0`), or the shard dispatcher's steering buffers.
pub(crate) trait Lane<'a> {
    /// The stream opened: `base_us` is the window base of every lane.
    fn open(&mut self, base_us: u64);
    /// Take one frame, dissected by the loop (`None`: rejected).
    fn push(&mut self, p: FrameRef<'a>, pkt: Option<&Packet<'a>>);
}

impl<'a> Lane<'a> for Engine {
    fn open(&mut self, base_us: u64) {
        self.set_window_base(base_us);
    }

    #[inline]
    fn push(&mut self, p: FrameRef<'a>, pkt: Option<&Packet<'a>>) {
        self.ingest_dissected(p, pkt);
    }
}

/// The one frame loop: dissect each frame once, keep the stream clock,
/// hand the frame to its lane. Returns the trace's absolute end — the
/// nominal duration past the first frame, or the last frame seen,
/// whichever is later — at which every lane then closes its window.
pub(crate) fn run_frames<'a>(
    frames: impl Iterator<Item = FrameRef<'a>>,
    nominal: Timestamp,
    lane: &mut impl Lane<'a>,
) -> Timestamp {
    let mut clock = StreamClock::default();
    for p in frames {
        let parsed = Packet::parse(p.frame);
        let pkt = parsed.as_ref().ok();
        if clock.tick(p.ts, pkt.is_some()) {
            lane.open(p.ts.micros());
        }
        lane.push(p, pkt);
    }
    clock.end_after(nominal.micros())
}

/// Pre-size hot structures from a packet-count hint. Connection
/// populations in both the generated datasets and the paper's traces run
/// a few dozen packets per connection, so `packets / 32` with sane bounds
/// keeps the key map from rehashing mid-trace without over-reserving for
/// tiny fixtures.
pub(crate) fn expected_conns_hint(packets_hint: usize) -> usize {
    (packets_hint / 32).clamp(64, 16_384)
}

fn table_config(config: &PipelineConfig, expected_conns: usize) -> TableConfig {
    TableConfig {
        max_conns: config.max_conns,
        expected_conns,
    }
}

/// Analyze one trace end-to-end.
pub fn analyze_trace(trace: &Trace, config: &PipelineConfig) -> TraceAnalysis {
    let frames = trace
        .packets
        .iter()
        .map(|p| (p.ts, &*p.frame, p.orig_len));
    analyze_packets(&trace.meta, frames, config, trace.packets.len())
}

/// Analyze a stream of `(timestamp, captured frame, original wire length)`
/// views without materializing owned packets — the zero-copy entry point
/// the study path feeds straight from the generator's
/// [`PacketArena`](ent_pcap::PacketArena). `packets_hint` pre-sizes the
/// connection table (pass the packet count when known).
pub fn analyze_packets<'a, I>(
    meta: &TraceMeta,
    packets: I,
    config: &PipelineConfig,
    packets_hint: usize,
) -> TraceAnalysis
where
    I: Iterator<Item = (Timestamp, &'a [u8], u32)>,
{
    let frames = packets.map(|(ts, frame, orig_len)| FrameRef { ts, frame, orig_len });
    ingest(meta, frames, config, packets_hint)
}

/// One batch ingest session: the frame loop over `frames`, feeding either
/// the inline engine or `config.shards` worker lanes; every lane closes
/// its window at the loop's end-of-trace; the seal folds the windows into
/// the trace's analysis.
fn ingest<'a>(
    meta: &TraceMeta,
    frames: impl Iterator<Item = FrameRef<'a>>,
    config: &PipelineConfig,
    packets_hint: usize,
) -> TraceAnalysis {
    let total = StageTimer::start();
    // Flows spread across the lanes, so each table expects its slice.
    let expected = expected_conns_hint(packets_hint / config.shards.max(1));
    let new_engine = || {
        let out = window_analysis(meta, meta.duration.micros() / 1_000_000);
        Engine::new(out, config, meta.has_payload(), expected)
    };
    let windows = if config.shards == 0 {
        let mut engine = new_engine();
        let end = run_frames(frames, meta.duration, &mut engine);
        vec![engine.close_window(end, TraceAnalysis::default())]
    } else {
        crate::shard::run_lanes(config.shards, frames, meta.duration, &new_engine)
    };
    seal(windows, config, total)
}

/// The streaming analysis core of every lane: a connection table plus
/// per-connection analyzer state, fed one dissected frame at a time, and
/// closed one window at a time. A batch lane closes once, at end of
/// trace; the monitor closes at every epoch boundary, swapping a fresh
/// [`TraceAnalysis`] in while the table, analyzer slab and learned
/// dynamic ports keep their allocations.
pub(crate) struct Engine {
    table: ConnTable,
    handler: Handler,
    // Load bins are indexed relative to the window base — the trace's
    // first timestamp in batch mode, the epoch start in monitor mode.
    // Traces with epoch-based clocks (real captures) would otherwise land
    // every sample past the end of the vec and the series would read zero.
    base_sec: u64,
    /// The table's lifetime counters as of the last window close: each
    /// window's flow health is the delta against this snapshot.
    closed: FlowStats,
    pt: StageTimer,
    // Fused parse+ingest timing state: packet phase index, un-attributed
    // clock-free wall, and the clocked parse/ingest laps from sampled
    // packets (the attribution ratio). All window-scoped.
    pkt_idx: u64,
    fused_ns: u64,
    parse_sample_ns: u64,
    ingest_sample_ns: u64,
}

impl Engine {
    /// Build an engine around an output record, with a connection table
    /// pre-sized for `expected_conns`.
    pub(crate) fn new(
        out: TraceAnalysis,
        config: &PipelineConfig,
        payload_ok: bool,
        expected_conns: usize,
    ) -> Engine {
        Engine {
            table: ConnTable::new(table_config(config, expected_conns)),
            handler: Handler {
                out,
                conns: Vec::with_capacity(expected_conns),
                dynamic: DynamicPorts::new(),
                payload_ok,
                max_pending: config.max_pending,
                laps: SampledLaps::default(),
                #[cfg(test)]
                panic_every: config.analyzer_panic_every,
                #[cfg(test)]
                tcp_data_events: 0,
            },
            base_sec: 0,
            closed: FlowStats::default(),
            pt: StageTimer::start(),
            pkt_idx: 0,
            fused_ns: 0,
            parse_sample_ns: 0,
            ingest_sample_ns: 0,
        }
    }

    /// Tally and flow-ingest one frame dissected by the caller (`None`
    /// means the dissector rejected it): the frame loop parses each frame
    /// once, on the steering thread when lanes are workers.
    pub(crate) fn ingest_dissected(&mut self, p: FrameRef<'_>, pkt: Option<&Packet<'_>>) {
        // Fused fast path: event/byte stats are exact on every packet, but
        // only one packet in LAP_STRIDE reads the clock (the first packet
        // of every window is a sample, so no epoch reports a zero wall).
        // Clock-free spans accumulate in fused_ns and get split between
        // frame_parse and flow_ingest at flush time in the sampled ratio.
        let sampled = self.pkt_idx.is_multiple_of(LAP_STRIDE);
        self.pkt_idx += 1;
        if sampled {
            self.fused_ns += self.pt.lap();
        }
        let handler = &mut self.handler;
        // Every frame counts toward the authoritative wire-byte total —
        // including undissectable ones and samples the per-second bins
        // reject — so cumulative byte accounting never undercounts.
        handler.out.wire_bytes += p.orig_len as u64;
        let Some(pkt) = pkt else {
            // Undissectable frame: count it rather than silently narrowing
            // the trace — the analyses' denominators stay honest.
            handler.out.health.malformed_frames += 1;
            handler.out.metrics.stages[Stage::FrameParse].add(0, 1, p.frame.len() as u64);
            if sampled {
                self.parse_sample_ns += self.pt.lap();
            }
            return;
        };
        handler.out.packets += 1;
        match &pkt.net {
            ent_wire::NetLayer::Ipv4 { .. } | ent_wire::NetLayer::Ipv6 { .. } => {
                handler.out.ip_packets += 1;
            }
            ent_wire::NetLayer::Arp(_) => handler.out.arp_packets += 1,
            ent_wire::NetLayer::Ipx { .. } => handler.out.ipx_packets += 1,
            ent_wire::NetLayer::OtherL3(_) => handler.out.other_l3_packets += 1,
        }
        let sec = (p.ts.micros() / 1_000_000).saturating_sub(self.base_sec) as usize;
        if let Some(bin) = handler.out.bytes_per_second.get_mut(sec) {
            *bin += p.orig_len as u64;
        } else {
            handler.out.health.load_samples_out_of_range += 1;
        }
        handler.out.metrics.stages[Stage::FrameParse].add(0, 1, p.frame.len() as u64);
        if sampled {
            self.parse_sample_ns += self.pt.lap();
        }
        self.table.ingest(pkt, p.ts, &mut self.handler);
        self.handler.out.metrics.stages[Stage::FlowIngest].add(0, 1, p.orig_len as u64);
        if sampled {
            self.ingest_sample_ns += self.pt.lap();
        }
    }

    /// Run `wait` with the fused stopwatch stopped: the lap so far is
    /// banked, and the clock restarts when `wait` returns, so a worker
    /// lane's time waiting for its next batch is no stage's wall.
    pub(crate) fn unclocked<R>(&mut self, wait: impl FnOnce() -> R) -> R {
        self.fused_ns += self.pt.lap();
        let waited_for = wait();
        self.pt = StageTimer::start();
        waited_for
    }

    /// Attribute the fused pass's wall time to the current window's
    /// frame_parse/flow_ingest stages: sampled laps are charged directly,
    /// and the clock-free remainder is split in the sampled parse:ingest
    /// ratio (an even split when no sample landed in the window, which
    /// only happens for packet-free windows). Must run before a window is
    /// swapped out so every epoch report carries its own wall time.
    fn flush_fused_laps(&mut self) {
        self.fused_ns += self.pt.lap();
        let ps = self.parse_sample_ns;
        let is = self.ingest_sample_ns;
        let parse_share = if ps + is > 0 {
            ((self.fused_ns as u128 * ps as u128) / (ps + is) as u128) as u64
        } else {
            self.fused_ns / 2
        };
        let m = &mut self.handler.out.metrics;
        m.stages[Stage::FrameParse].add(ps + parse_share, 0, 0);
        m.stages[Stage::FlowIngest].add(is + (self.fused_ns - parse_share), 0, 0);
        self.fused_ns = 0;
        self.parse_sample_ns = 0;
        self.ingest_sample_ns = 0;
        self.pkt_idx = 0;
    }

    /// Turn the window's clocked delivery and close laps into its wall
    /// estimates ([`estimate_wall_ns`]): one per analyzer, one for
    /// `finalize`, and `tcp_deliver` / `udp_deliver` as the sums of their
    /// analyzers' — a deliver stage times nothing but its analyzers, so its
    /// wall is written once. Must run after `rotate`, whose forced closes
    /// are events of this window.
    fn flush_sampled_laps(&mut self) {
        let laps = std::mem::take(&mut self.handler.laps);
        let m = &mut self.handler.out.metrics;
        for (stat, weighted_ns) in m.analyzers.stats.iter_mut().zip(laps.deliver_ns) {
            stat.wall_ns = estimate_wall_ns(weighted_ns, stat.events);
        }
        let delivered_by = |stage: Stage| -> u64 {
            let analyzers = AnalyzerKind::ALL.iter().zip(&m.analyzers.stats);
            let fed = analyzers.filter(|(kind, _)| deliver_stage(**kind) == stage);
            fed.map(|(_, stat)| stat.wall_ns).sum()
        };
        m.stages[Stage::TcpDeliver].wall_ns = delivered_by(Stage::TcpDeliver);
        m.stages[Stage::UdpDeliver].wall_ns = delivered_by(Stage::UdpDeliver);
        let finalize = &mut m.stages[Stage::Finalize];
        finalize.wall_ns = estimate_wall_ns(laps.finalize_ns, finalize.events);
    }

    /// The one window-close step, for the inline lane and every shard
    /// worker at end of trace and for the monitor at each epoch boundary:
    /// force-close every open connection (clamped to `end_ts`), reset the
    /// per-window analyzer state retaining capacity, swap `next` in as the
    /// new output window, and return the finished one with the table's
    /// health for the window filled in. Lifetime state (table stats,
    /// dynamic ports, the monotone clock watermark) survives the close.
    pub(crate) fn close_window(&mut self, end_ts: Timestamp, next: TraceAnalysis) -> TraceAnalysis {
        self.flush_fused_laps();
        self.table.rotate(end_ts, &mut self.handler);
        self.handler.out.metrics.stages[Stage::FlowIngest].add(self.pt.lap(), 0, 0);
        self.flush_sampled_laps();
        self.handler.reset_epoch();
        let mut out = std::mem::replace(&mut self.handler.out, next);
        let fstats = *self.table.stats();
        out.health.clock_regressions = fstats.clock_regressions - self.closed.clock_regressions;
        out.health.evicted_conns = fstats.evicted_conns - self.closed.evicted_conns;
        self.closed = fstats;
        out.metrics.peak_open_conns = fstats.peak_open_conns;
        // Degradation events surface as the backpressure stage in every
        // mode, so a capped batch analysis and a monitor read the same
        // way; per-lane stages sum at the seal.
        let degraded = out.health.evicted_conns + out.health.pending_dropped;
        if degraded > 0 {
            out.metrics.stages[Stage::Backpressure].add(0, degraded, 0);
        }
        out
    }

    /// Re-base the load-bin window: the stream's first frame for a batch
    /// lane, the epoch boundary (not the epoch's first packet) for the
    /// monitor.
    pub(crate) fn set_window_base(&mut self, base_us: u64) {
        self.base_sec = base_us / 1_000_000;
    }

    /// Connection records closed so far in the current window.
    pub(crate) fn window_conns(&self) -> usize {
        self.handler.out.conns.len()
    }

    /// The connection table's cross-epoch scalar state.
    pub(crate) fn table_carry(&self) -> ent_flow::TableCarry {
        self.table.carry()
    }

    /// Restore cross-epoch table state (checkpoint resume); the next
    /// window's health is the delta against the restored counters.
    pub(crate) fn restore_table_carry(&mut self, carry: ent_flow::TableCarry) {
        self.table.restore(carry);
        self.closed = carry.stats;
    }

    /// Dynamically learned port→protocol mappings (checkpoint export).
    pub(crate) fn dynamic_ports(&self) -> &DynamicPorts {
        &self.handler.dynamic
    }

    /// Re-learn a dynamic port mapping (checkpoint restore).
    pub(crate) fn learn_dynamic(&mut self, addr: ent_wire::ipv4::Addr, port: u16, app: AppProtocol) {
        self.handler.dynamic.learn(addr, port, app);
    }
}

/// A window's initial output record, with the load-bin series sized for
/// `duration_secs` of trace time.
pub(crate) fn window_analysis(meta: &TraceMeta, duration_secs: u64) -> TraceAnalysis {
    TraceAnalysis {
        dataset: meta.dataset.clone(),
        subnet: meta.subnet,
        pass: meta.pass,
        duration_secs,
        link_capacity_bps: meta.link_capacity_bps,
        bytes_per_second: vec![0; (duration_secs + 1) as usize],
        ..Default::default()
    }
}

/// The post-ingest passes over a finished window's connection records:
/// scanner removal (paper §3), unless the ablation keeps them, then
/// retransmission accounting (keep-alive probes excluded, §6) — after
/// scanner removal so failed-probe SYN retries do not pollute the rates.
/// Rates are over *data* packets (the paper's denominator): pure ACKs
/// carry nothing and cannot be retransmissions, so counting them would
/// systematically understate every rate.
pub(crate) fn post_process(out: &mut TraceAnalysis, config: &PipelineConfig) {
    let mut st = StageTimer::start();
    let conns_examined = out.conns.len() as u64;
    if !config.keep_scanners {
        let (flagged, removed) = remove_scanners(&mut out.conns, &config.scanners);
        let set: std::collections::HashSet<u32> = flagged.iter().map(|a| a.0).collect();
        out.http.retain(|h| !set.contains(&h.client.0));
        out.dns.retain(|d| !set.contains(&d.client.0));
        out.nbns.retain(|n| !set.contains(&n.client.0));
        out.tls.retain(|t| !set.contains(&t.client.0));
        out.scanners_removed = flagged;
        out.scanner_conns_removed = removed.len() as u64;
        out.scanner_conns = removed;
    }
    out.metrics.stages[Stage::ScannerRemoval].add(st.lap(), conns_examined, 0);
    for c in &out.conns {
        if c.summary.key.proto != Proto::Tcp {
            continue;
        }
        let s = &c.summary;
        let data_pkts = s.orig.real_data_packets() + s.resp.real_data_packets();
        let retx = s.orig.real_retx_packets() + s.resp.real_retx_packets();
        let internal = is_internal(s.key.orig.addr) && is_internal(s.key.resp.addr);
        let slot = if internal {
            &mut out.retx_ent
        } else {
            &mut out.retx_wan
        };
        slot.0 += data_pkts;
        slot.1 += retx;
    }
}

/// The one seal of a batch session: fold the lanes' closed windows, **in
/// lane order** and starting from the first, into one trace analysis,
/// then run the global post-ingest passes exactly once (a scanner's
/// probes spread across lanes; per-lane removal would miss it). Scalars
/// and stage stats sum; record vectors concatenate (lane order, each
/// lane's internal finalize order preserved); the per-second load series
/// adds elementwise; `peak_open_conns` becomes the sum of lane peaks —
/// within one trace the lanes hold their state simultaneously (`absorb`'s
/// max is the cross-trace rule). One lane folds nothing.
fn seal(windows: Vec<TraceAnalysis>, config: &PipelineConfig, total: StageTimer) -> TraceAnalysis {
    let mut windows = windows.into_iter();
    let mut out = windows.next().unwrap_or_default();
    for part in windows {
        out.packets += part.packets;
        out.ip_packets += part.ip_packets;
        out.arp_packets += part.arp_packets;
        out.ipx_packets += part.ipx_packets;
        out.other_l3_packets += part.other_l3_packets;
        out.wire_bytes += part.wire_bytes;
        out.conns.extend(part.conns);
        out.http.extend(part.http);
        out.dns.extend(part.dns);
        out.nbns.extend(part.nbns);
        out.cifs.extend(part.cifs);
        out.rpc.extend(part.rpc);
        out.nfs.extend(part.nfs);
        out.ncp.extend(part.ncp);
        out.tls.extend(part.tls);
        out.smtp_message_bytes.extend(part.smtp_message_bytes);
        out.imap_polls.extend(part.imap_polls);
        for (bin, add) in out.bytes_per_second.iter_mut().zip(&part.bytes_per_second) {
            *bin += add;
        }
        out.health.absorb(&part.health);
        let peak_sum = out.metrics.peak_open_conns + part.metrics.peak_open_conns;
        out.metrics.absorb(&part.metrics);
        out.metrics.peak_open_conns = peak_sum;
    }
    // The ingest phase's elapsed wall (frame loop through the last window
    // close and the fold): the scaling curve's per-shard-count metric.
    // Events/bytes stay zero so the entry is constant under
    // `events_signature`.
    out.metrics.stages[Stage::ShardIngest].add(total.elapsed_ns(), 0, 0);
    post_process(&mut out, config);
    out.metrics.trace_wall_ns = total.elapsed_ns();
    out.metrics.traces = 1;
    out
}

/// Analyze a serialized (possibly damaged) capture end-to-end.
///
/// The buffer is streamed through the recovering pcap reader with a
/// reusable cursor — each salvaged record enters the frame loop as a
/// borrowed [`RecordView`](ent_pcap::RecordView) straight out of the
/// capture buffer, never materialized as an intermediate owned packet
/// copy — and through the same session as every other batch entry point,
/// so [`PipelineConfig::shards`] applies here too. Per-record damage is
/// salvaged and tallied, not fatal; the capture-layer tally lands in
/// [`TraceAnalysis::health`] next to the pipeline's own counters. The only
/// error is [`AnalysisError::Ingest`]: an unusable global header leaves
/// nothing to salvage.
pub fn analyze_capture(
    data: &[u8],
    mut meta: TraceMeta,
    config: &PipelineConfig,
) -> Result<TraceAnalysis, AnalysisError> {
    let mut reader = RecoveringReader::new(data)?;
    meta.snaplen = reader.snaplen();
    let frames = std::iter::from_fn(|| {
        reader.next_record().map(|r| FrameRef {
            ts: r.ts,
            frame: r.frame,
            orig_len: r.orig_len,
        })
    });
    // Sizing hint from the raw buffer: enterprise frames average a few
    // hundred bytes on the wire, so bytes/600 approximates the packet
    // count well enough for pre-sizing.
    let mut analysis = ingest(&meta, frames, config, data.len() / 600);
    analysis.health.capture = *reader.stats();
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_gen::{build, dataset, GenConfig};

    fn analyzed(dataset_idx: usize, subnet: u16) -> TraceAnalysis {
        let specs = dataset::all_datasets();
        let config = GenConfig {
            scale: 0.03,
            seed: 11,
            hosts_per_subnet: Some(10),
        };
        let (site, wan) = build::build_site(&specs[dataset_idx], &config);
        let trace = build::generate_trace(&site, &wan, &specs[dataset_idx], subnet, 1, &config);
        analyze_trace(&trace, &PipelineConfig::default())
    }

    /// Merge several subnets' analyses into one (for statistically stable
    /// assertions: individual traces legitimately vary, as real ones do).
    fn analyzed_many(dataset_idx: usize, subnets: std::ops::Range<u16>) -> Vec<TraceAnalysis> {
        subnets.map(|s| analyzed(dataset_idx, s)).collect()
    }

    #[test]
    fn full_payload_trace_produces_all_record_kinds() {
        // Several D0 subnets (3 and 4 host the NFS/NCP servers) for
        // statistical stability at test scale.
        let all = analyzed_many(0, 2..7);
        let a = &all[1]; // subnet 3
        assert!(a.packets > 1_000, "packets {}", a.packets);
        assert!(a.ip_packets > a.non_ip_packets());
        assert!(!a.conns.is_empty());
        assert!(!a.dns.is_empty(), "no DNS records");
        assert!(!a.nbns.is_empty(), "no NBNS records");
        assert!(!a.nfs.is_empty(), "no NFS records");
        let ncp: usize = all.iter().map(|t| t.ncp.len()).sum();
        assert!(ncp > 0, "no NCP records across five D0 subnets");
        let http: usize = all.iter().map(|t| t.http.len()).sum();
        assert!(http > 0, "no HTTP records");
        assert!(a.bytes_per_second.iter().sum::<u64>() > 0);
    }

    #[test]
    fn header_only_trace_still_yields_conn_summaries() {
        let a = analyzed(1, 3); // D1: snaplen 68
        assert!(!a.conns.is_empty());
        // Payload analyzers are disabled: no HTTP/NFS message records.
        assert!(a.http.is_empty());
        assert!(a.nfs.is_empty());
        // But transport-level categories still classify.
        assert!(a.conns.iter().any(|c| c.category == Category::Name));
    }

    #[test]
    fn scanners_removed_by_default() {
        // Sweeps are probabilistic per trace (frequency scales with run
        // scale), so aggregate across subnets.
        let all = analyzed_many(3, 22..30);
        let removed: u64 = all.iter().map(|t| t.scanner_conns_removed).sum();
        assert!(removed > 0, "generated scanners must be flagged somewhere");
        let a = all
            .into_iter()
            .max_by_key(|t| t.scanner_conns_removed)
            .expect("non-empty");
        // Ablation keeps them (re-analyze the subnet with the most
        // scanner traffic).
        let specs = dataset::all_datasets();
        let config = GenConfig {
            scale: 0.03,
            seed: 11,
            hosts_per_subnet: Some(10),
        };
        let (site, wan) = build::build_site(&specs[3], &config);
        let trace = build::generate_trace(&site, &wan, &specs[3], a.subnet, 1, &config);
        let kept = analyze_trace(
            &trace,
            &PipelineConfig {
                keep_scanners: true,
                ..Default::default()
            },
        );
        assert!(kept.conns.len() > a.conns.len());
    }

    #[test]
    fn windows_records_present_at_print_vantage() {
        let a = analyzed(4, 30); // D4, print server subnet
        assert!(!a.cifs.is_empty(), "no CIFS records");
        assert!(!a.rpc.is_empty(), "no RPC records");
        let writes = a
            .rpc
            .iter()
            .filter(|r| r.function == dcerpc::RpcFunction::SpoolssWritePrinter)
            .count();
        assert!(writes > 0, "no WritePrinter calls seen");
    }

    fn generated(dataset_idx: usize, subnet: u16) -> ent_pcap::Trace {
        let specs = dataset::all_datasets();
        let config = GenConfig {
            scale: 0.03,
            seed: 11,
            hosts_per_subnet: Some(10),
        };
        let (site, wan) = build::build_site(&specs[dataset_idx], &config);
        build::generate_trace(&site, &wan, &specs[dataset_idx], subnet, 1, &config)
    }

    #[test]
    fn clean_trace_reports_clean_health() {
        let a = analyzed(0, 3);
        assert!(a.health.is_clean(), "unexpected damage: {}", a.health);
    }

    #[test]
    fn malformed_frames_are_counted_not_silently_dropped() {
        let mut trace = generated(0, 3);
        let clean = analyze_trace(&trace, &PipelineConfig::default());
        // Graft three undissectable frames into the middle of the trace:
        // empty, shorter than an Ethernet header, and an IPv4 ethertype
        // followed by a truncated IP header.
        let mut bad_ipv4 = vec![0u8; 14];
        bad_ipv4[12..14].copy_from_slice(&[0x08, 0x00]);
        bad_ipv4.extend_from_slice(&[0xFF; 2]);
        for (i, frame) in [vec![], vec![0xFF; 7], bad_ipv4].into_iter().enumerate() {
            let ts = trace.packets[10 * (i + 1)].ts;
            trace
                .packets
                .insert(10 * (i + 1), ent_pcap::TimedPacket::new(ts, frame));
        }
        let a = analyze_trace(&trace, &PipelineConfig::default());
        assert_eq!(a.health.malformed_frames, 3);
        assert!(!a.health.is_clean());
        // The rest of the analysis is unaffected.
        assert_eq!(a.packets, clean.packets);
        assert_eq!(a.conns.len(), clean.conns.len());
    }

    #[test]
    fn analyzer_panic_demotes_connection_but_keeps_summary() {
        let trace = generated(0, 3);
        let clean = analyze_trace(&trace, &PipelineConfig::default());
        // Silence the default panic hook around the injected faults so the
        // test log stays readable; the injection itself is deterministic.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let a = analyze_trace(
            &trace,
            &PipelineConfig {
                analyzer_panic_every: 7,
                ..Default::default()
            },
        );
        std::panic::set_hook(hook);
        assert!(a.health.analyzer_failures > 0, "no injected faults fired");
        assert_eq!(a.health.analyzer_failures, a.health.demoted_conns);
        // Flow-level results survive every analyzer loss...
        assert_eq!(a.conns.len() + a.scanner_conns.len(),
            clean.conns.len() + clean.scanner_conns.len());
        // ...while application records shrink (demoted conns stop parsing).
        let app_records = |t: &TraceAnalysis| {
            t.http.len() + t.nfs.len() + t.ncp.len() + t.rpc.len() + t.cifs.len()
        };
        assert!(app_records(&a) < app_records(&clean));
    }

    #[test]
    fn conn_cap_flows_into_health() {
        let trace = generated(0, 3);
        let a = analyze_trace(
            &trace,
            &PipelineConfig {
                max_conns: 8,
                ..Default::default()
            },
        );
        assert!(a.health.evicted_conns > 0);
        // Eviction summarizes connections early (a flow continuing past its
        // eviction reopens as a new conn); nothing is dropped.
        let unbounded = analyze_trace(&trace, &PipelineConfig::default());
        assert!(
            a.conns.len() + a.scanner_conns.len()
                >= unbounded.conns.len() + unbounded.scanner_conns.len()
        );
    }

    #[test]
    fn analyze_capture_carries_capture_damage_into_health() {
        let trace = generated(0, 3);
        let mut bytes = Vec::new();
        trace.write_pcap(&mut bytes).expect("serialize");
        let clean = analyze_capture(&bytes, trace.meta.clone(), &PipelineConfig::default())
            .expect("clean capture");
        assert!(clean.health.capture.is_clean());
        assert_eq!(clean.packets, trace.packets.len() as u64);
        // Corrupt one record header mid-file: the reader resynchronizes and
        // the damage shows up in the analysis health.
        let mut offsets = Vec::new();
        let mut off = 24;
        while off + 16 <= bytes.len() {
            let caplen =
                u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes"));
            offsets.push(off);
            off += 16 + caplen as usize;
        }
        let rec = offsets[offsets.len() / 2];
        bytes[rec + 4..rec + 8].copy_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        let a = analyze_capture(&bytes, trace.meta.clone(), &PipelineConfig::default())
            .expect("damaged but salvageable");
        assert!(a.health.capture.malformed_records > 0);
        assert!(a.packets > clean.packets / 2, "most packets salvaged");
        // An unusable global header is the one fatal case.
        bytes[0] = 0;
        let err = analyze_capture(&bytes, trace.meta.clone(), &PipelineConfig::default());
        assert!(matches!(err, Err(AnalysisError::Ingest(_))));
    }

    #[test]
    fn tls_handshakes_complete() {
        let a = analyzed(4, 28); // D4, web server subnet (HTTPS + the buggy pair)
        assert!(!a.tls.is_empty());
        let complete = a.tls.iter().filter(|t| t.handshake_complete).count();
        assert!(
            complete * 10 >= a.tls.len() * 8,
            "most TLS handshakes should complete: {complete}/{}",
            a.tls.len()
        );
    }

    #[test]
    fn epoch_timestamped_capture_populates_load_series() {
        // Real captures stamp packets with epoch time (~1.1e9 s), not
        // trace-relative time. Binning must be relative to the first
        // packet, or every sample lands past the end of the per-second
        // vec and the load series silently reads all zeros.
        let rel = analyzed(0, 3);
        let mut trace = generated(0, 3);
        const EPOCH_US: u64 = 1_100_000_000 * 1_000_000;
        for p in &mut trace.packets {
            p.ts = Timestamp::from_micros(EPOCH_US + p.ts.micros());
        }
        let mut bytes = Vec::new();
        trace.write_pcap(&mut bytes).expect("serialize");
        let a = analyze_capture(&bytes, trace.meta.clone(), &PipelineConfig::default())
            .expect("clean capture");
        assert!(
            a.bytes_per_second.iter().sum::<u64>() > 0,
            "load series is all zeros for an epoch-stamped capture"
        );
        assert_eq!(a.health.load_samples_out_of_range, 0);
        // The absolute clock base changes nothing else: same series, same
        // connections, same durations.
        assert_eq!(a.bytes_per_second, rel.bytes_per_second);
        assert_eq!(a.conns.len(), rel.conns.len());
        for (ca, cr) in a.conns.iter().zip(&rel.conns) {
            assert_eq!(
                ca.summary.duration_us(),
                cr.summary.duration_us(),
                "epoch base distorted a connection duration"
            );
        }
    }

    #[test]
    fn retx_denominator_counts_only_data_packets() {
        // Paper §6 retransmission rates are over *data* packets; pure
        // ACKs (the handshake's third segment, every ACK of received
        // data) carry nothing and must not inflate the denominator.
        let trace = generated(0, 3);
        let a = analyze_trace(
            &trace,
            &PipelineConfig {
                keep_scanners: true,
                ..Default::default()
            },
        );
        let (mut data, mut total) = (0u64, 0u64);
        for c in &a.conns {
            if c.summary.key.proto != Proto::Tcp {
                continue;
            }
            data += c.summary.orig.real_data_packets() + c.summary.resp.real_data_packets();
            total += c.summary.orig.packets + c.summary.resp.packets;
        }
        assert_eq!(a.retx_ent.0 + a.retx_wan.0, data);
        assert!(
            data < total,
            "TCP traffic with handshakes must contain pure ACKs ({data} vs {total})"
        );
        assert!(data > 0);
    }

    #[test]
    fn wire_bytes_authoritative_under_wild_timestamps_and_damage() {
        // The per-second load bins reject out-of-window samples (tallied in
        // health.load_samples_out_of_range) and malformed frames never
        // reach the binning at all — so summing the bins undercounts.
        // `wire_bytes` must still equal the full on-the-wire total.
        let mut trace = generated(0, 3);
        if let Some(p) = trace.packets.last_mut() {
            // Wild timestamp: 50k seconds past the window end.
            p.ts = Timestamp::from_micros(p.ts.micros() + 50_000_000_000);
        }
        let graft_ts = trace.packets[20].ts;
        trace
            .packets
            .insert(20, ent_pcap::TimedPacket::new(graft_ts, vec![0xFF; 9]));
        let a = analyze_trace(&trace, &PipelineConfig::default());
        let total: u64 = trace.packets.iter().map(|p| p.orig_len as u64).sum();
        assert_eq!(a.wire_bytes, total);
        assert!(a.health.load_samples_out_of_range >= 1);
        assert_eq!(a.health.malformed_frames, 1);
        assert!(
            a.bytes_per_second.iter().sum::<u64>() < total,
            "binned bytes must undercount here; wire_bytes is the truth"
        );
    }

    fn clock_reads() -> u64 {
        crate::metrics::CLOCK_READS.with(std::cell::Cell::get)
    }

    #[test]
    fn the_clock_stays_off_the_packet_path() {
        // Full-payload D0, more deliveries and closes than every second
        // packet: the parent read the clock twice for each of them, 1.3
        // reads per packet in all.
        let trace = generated(0, 3);
        let before = clock_reads();
        let a = analyze_trace(&trace, &PipelineConfig::default());
        let reads = clock_reads() - before;
        let m = &a.metrics;
        let closes = m.stages[Stage::Finalize].events;
        let deliveries: u64 = m.analyzers.named().map(|(_, s)| s.events).sum();
        assert!((deliveries + closes) * 2 > a.packets, "{deliveries} + {closes} of {}", a.packets);
        assert!(reads * 16 <= a.packets, "{reads} clock reads for {} packets", a.packets);
        // And every one of them is the stride rule's: three laps per
        // sampled frame, a start and a lap per sampled delivery or close,
        // and a handful once per trace (session, window close, seal,
        // scanner removal).
        let sampled = |events: u64| events.div_ceil(LAP_STRIDE);
        let per_frame = 3 * sampled(m.stages[Stage::FrameParse].events);
        let per_event: u64 = m.analyzers.named().map(|(_, s)| 2 * sampled(s.events)).sum();
        let ruled = per_frame + per_event + 2 * sampled(closes);
        assert!((ruled..=ruled + 16).contains(&reads), "{reads} reads, the rule gives {ruled}");
    }

    #[test]
    fn wall_estimate_scales_the_weighted_laps_to_the_exact_count() {
        assert_eq!(estimate_wall_ns(0, 0), 0);
        assert_eq!(estimate_wall_ns(999, 0), 0);
        // One event: its own lap. Up to a stride of them, that lap is all
        // the window has.
        assert_eq!(estimate_wall_ns(500, 1), 500);
        assert_eq!(estimate_wall_ns(500, LAP_STRIDE - 1), 500 * (LAP_STRIDE - 1));
        assert_eq!(estimate_wall_ns(500, LAP_STRIDE), 500 * LAP_STRIDE);
        // The second clocked event stands for the stride up to it, the
        // first for itself: together, for every event so far...
        let weighted = 500 + 300 * LAP_STRIDE;
        assert_eq!(estimate_wall_ns(weighted, LAP_STRIDE + 1), weighted);
        // ...and for 72 of 100.
        assert_eq!(estimate_wall_ns(21_800, 100), 21_800 * 100 / 72);
        // The product is taken in u128 and the result saturates.
        assert_eq!(estimate_wall_ns(1 << 40, u64::MAX), 1 << 40);
        assert_eq!(estimate_wall_ns(u64::MAX, 2), u64::MAX);
        assert_eq!(estimate_wall_ns(u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn a_window_with_one_delivery_reports_that_delivery_s_lap() {
        use ent_wire::tcp::Flags;
        let meta = TraceMeta {
            dataset: "one-delivery".into(),
            subnet: 0,
            pass: 0,
            duration: Timestamp::from_secs(1),
            snaplen: 1_500,
            link_capacity_bps: 100_000_000,
        };
        let (client, server) = (ent_wire::ipv4::Addr::new(10, 0, 0, 1), ent_wire::ipv4::Addr::new(10, 0, 0, 2));
        let frame = |from_client: bool, seq: u32, ack: u32, flags: Flags, payload: &[u8]| {
            let (src, dst, sport, dport) = if from_client { (client, server, 40_000, 80) } else { (server, client, 80, 40_000) };
            let spec = ent_wire::build::TcpFrameSpec {
                src_mac: ent_wire::ethernet::MacAddr::from_host_id(if from_client { 1 } else { 2 }),
                dst_mac: ent_wire::ethernet::MacAddr::from_host_id(if from_client { 2 } else { 1 }),
                src_ip: src,
                dst_ip: dst,
                src_port: sport,
                dst_port: dport,
                seq,
                ack,
                flags,
                window: 8_192,
                ttl: 64,
            };
            ent_wire::build::tcp_frame(&spec, payload)
        };
        let frames = [
            frame(true, 100, 0, Flags::SYN, b""),
            frame(false, 500, 101, Flags(Flags::SYN.0 | Flags::ACK.0), b""),
            frame(true, 101, 501, Flags::ACK, b""),
            frame(true, 101, 501, Flags(Flags::PSH.0 | Flags::ACK.0), b"GET / HTTP/1.1\r\nHost: a\r\n\r\n"),
        ];
        let mut engine = Engine::new(window_analysis(&meta, 1), &PipelineConfig::default(), true, 64);
        for (i, f) in frames.iter().enumerate() {
            let p = FrameRef { ts: Timestamp::from_micros(i as u64 * 1_000), frame: f, orig_len: f.len() as u32 };
            engine.ingest_dissected(p, Packet::parse(f).as_ref().ok());
        }
        let lap = engine.handler.laps.deliver_ns[AnalyzerKind::Http as usize];
        let out = engine.close_window(Timestamp::from_secs(1), TraceAnalysis::default());
        let m = &out.metrics;
        assert_eq!((m.stages[Stage::TcpDeliver].events, m.analyzers[AnalyzerKind::Http].events), (1, 1));
        assert!(lap > 0);
        // The one lap taken, not a stride of it.
        assert_eq!(m.analyzers[AnalyzerKind::Http].wall_ns, lap);
        assert_eq!(m.stages[Stage::TcpDeliver].wall_ns, lap);
        assert_eq!(m.stages[Stage::Finalize].events, 1);
        assert!(m.stages[Stage::Finalize].wall_ns > 0);
        // The window's clock state went with it.
        assert_eq!(engine.handler.laps.deliver_ns, [0; AnalyzerKind::COUNT]);
        assert_eq!(engine.handler.laps.finalize_ns, 0);
    }

    #[test]
    fn every_monitor_epoch_with_deliveries_reports_their_walls() {
        use crate::monitor::{Monitor, MonitorConfig};
        let trace = generated(3, 22); // D3: full payload, one hour
        let cfg = MonitorConfig { epoch_secs: 60, ..Default::default() };
        let mut monitor = Monitor::new(trace.meta.clone(), cfg, trace.packets.len());
        let mut epochs = Vec::new();
        for p in &trace.packets {
            epochs.extend(monitor.observe(p.ts, &p.frame, p.orig_len));
        }
        epochs.extend(monitor.finish(&Default::default()).0);
        let (mut tcp, mut udp) = (0, 0);
        for e in &epochs {
            let m = &e.analysis.metrics;
            for stage in [Stage::TcpDeliver, Stage::UdpDeliver, Stage::Finalize] {
                let s = m.stages[stage];
                assert_eq!(s.events > 0, s.wall_ns > 0, "epoch {}: {} {s:?}", e.index, stage.name());
            }
            for (name, s) in m.analyzers.named() {
                assert_eq!(s.events > 0, s.wall_ns > 0, "epoch {}: {name} {s:?}", e.index);
            }
            let analyzers: u64 = m.analyzers.named().map(|(_, s)| s.wall_ns).sum();
            let stages = m.stages[Stage::TcpDeliver].wall_ns + m.stages[Stage::UdpDeliver].wall_ns;
            assert_eq!(analyzers, stages, "epoch {}", e.index);
            tcp += u64::from(m.stages[Stage::TcpDeliver].events > 0);
            udp += u64::from(m.stages[Stage::UdpDeliver].events > 0);
        }
        assert!(epochs.len() >= 60 && tcp > 10 && udp > 10, "{} epochs, {tcp} tcp, {udp} udp", epochs.len());
    }

    #[test]
    fn metrics_cover_every_pipeline_stage() {
        let a = analyzed(0, 3);
        let m = &a.metrics;
        // `generate` is filled in by run.rs — every stage analyze_trace
        // itself owns must be live on a normal trace.
        assert_eq!(m.stages[Stage::FrameParse].events, a.packets);
        assert_eq!(m.stages[Stage::FlowIngest].events, a.packets);
        assert!(m.stages[Stage::FlowIngest].wall_ns > 0);
        assert!(m.stages[Stage::TcpDeliver].events > 0);
        assert!(m.stages[Stage::UdpDeliver].events > 0);
        assert!(m.stages[Stage::Finalize].events > 0);
        assert!(m.stages[Stage::ScannerRemoval].events > 0);
        assert!(m.peak_open_conns > 0);
        assert!(m.trace_wall_ns > 0);
        assert_eq!(m.traces, 1);
        // Analyzer delivery events sum to at most the per-direction
        // delivery totals (connections without an analyzer deliver too).
        let analyzer_events: u64 = m.analyzers.named().map(|(_, s)| s.events).sum();
        assert!(analyzer_events > 0);
        assert!(
            analyzer_events
                <= m.stages[Stage::TcpDeliver].events + m.stages[Stage::UdpDeliver].events
        );
    }
}
