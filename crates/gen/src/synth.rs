//! Packet synthesis: turn abstract session scripts into timestamped
//! Ethernet frames with real TCP/UDP/ICMP dynamics — handshakes, MSS
//! segmentation, delayed ACKs, FIN/RST teardown, RTT-proportional timing
//! (the mechanism behind the paper's internal-vs-WAN duration splits),
//! loss-driven retransmissions, and TCP keep-alive probes.

use crate::distr::coin;
use ent_pcap::{Clip, PacketArena};
use ent_wire::ethernet::MacAddr;
use ent_wire::{build, icmp, ipv4, tcp, Timestamp};
use rand::{Rng, RngExt};

/// Maximum TCP segment payload. 1446 (rather than 1460) keeps the full
/// Ethernet frame at 14+20+20+1446 = 1500 bytes — exactly the full-packet
/// snaplen, so full-capture datasets do not truncate data segments (the
/// hosts behave as if negotiating a reduced MSS, e.g. for tunnel headroom).
pub const MSS: usize = 1446;
/// Per-byte serialization time at 100 Mb/s, in nanoseconds.
const NS_PER_BYTE: u64 = 80;

/// One traffic endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Peer {
    /// IPv4 address.
    pub addr: ipv4::Addr,
    /// MAC as seen on the monitored segment (the router's MAC for WAN and
    /// off-subnet peers).
    pub mac: MacAddr,
    /// Transport port.
    pub port: u16,
    /// IP TTL this peer's packets arrive with.
    pub ttl: u8,
}

impl Peer {
    /// An internal peer from a site host.
    pub fn internal(host: &crate::network::Host, port: u16) -> Peer {
        Peer {
            addr: host.addr,
            mac: host.mac,
            port,
            ttl: 64,
        }
    }

    /// A WAN peer (reached through the router).
    pub fn wan(addr: ipv4::Addr, router_mac: MacAddr, port: u16) -> Peer {
        Peer {
            addr,
            mac: router_mac,
            port,
            ttl: 52,
        }
    }
}

/// TCP connection establishment outcome to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Full handshake then data.
    Success,
    /// SYN answered by RST.
    Rejected,
    /// SYN (retried twice) never answered.
    Unanswered,
}

/// How an established connection ends within the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Close {
    /// FIN handshake.
    Fin,
    /// Abortive RST (the paper notes failed internal HTTP conns mostly end
    /// in server RSTs).
    Rst,
    /// Still open at trace end.
    None,
}

/// One application payload: literal head bytes followed by a run of a
/// single fill byte (`head ∥ [fill; fill_len]`).
///
/// Most of the corpus's payload volume is a short protocol head (status
/// line, RPC header, record header) followed by a constant filler. Keeping
/// the filler symbolic lets [`emit_tcp`]/[`emit_udp`] hand the frame
/// builders a [`build::SplitPayload`], which checksums the run in O(1) and
/// writes it with one memset — the template-slot fast path of DESIGN §8c.
/// Fully-literal payloads use the head alone (`fill_len == 0`).
#[derive(Debug, Clone)]
pub struct Payload {
    /// Literal leading bytes (static protocol constants borrow; per-session
    /// heads with variable slots own their buffer).
    pub head: std::borrow::Cow<'static, [u8]>,
    /// Byte value repeated after the head.
    pub fill: u8,
    /// Number of fill bytes.
    pub fill_len: usize,
}

impl Payload {
    /// An empty payload.
    pub const EMPTY: Payload = Payload {
        head: std::borrow::Cow::Borrowed(&[]),
        fill: 0,
        fill_len: 0,
    };

    /// A payload borrowing a static literal (no allocation).
    pub fn from_static(head: &'static [u8]) -> Payload {
        Payload {
            head: std::borrow::Cow::Borrowed(head),
            fill: 0,
            fill_len: 0,
        }
    }

    /// A pure fill run (no literal head).
    pub fn fill(fill: u8, fill_len: usize) -> Payload {
        Payload {
            head: std::borrow::Cow::Borrowed(&[]),
            fill,
            fill_len,
        }
    }

    /// A literal head followed by a fill run.
    pub fn head_fill(head: impl Into<std::borrow::Cow<'static, [u8]>>, fill: u8, fill_len: usize) -> Payload {
        Payload {
            head: head.into(),
            fill,
            fill_len,
        }
    }

    /// Logical payload length.
    pub fn len(&self) -> usize {
        self.head.len() + self.fill_len
    }

    /// True when the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical byte range `[start, end)` as a borrowed split payload
    /// (used for MSS segmentation; `end` must not exceed `len()`).
    pub fn part(&self, start: usize, end: usize) -> build::SplitPayload<'_> {
        let hl = self.head.len();
        let fill_start = start.max(hl);
        build::SplitPayload {
            head: &self.head[start.min(hl)..end.min(hl)],
            fill: self.fill,
            fill_len: end.saturating_sub(fill_start),
        }
    }

    /// The whole payload as a borrowed split payload.
    pub fn split(&self) -> build::SplitPayload<'_> {
        self.part(0, self.len())
    }

    /// Materialize the logical bytes (tests and cold paths only).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(&self.head);
        v.resize(self.len(), self.fill);
        v
    }
}

impl From<Vec<u8>> for Payload {
    fn from(head: Vec<u8>) -> Payload {
        Payload {
            head: std::borrow::Cow::Owned(head),
            fill: 0,
            fill_len: 0,
        }
    }
}

impl From<&'static [u8]> for Payload {
    fn from(head: &'static [u8]) -> Payload {
        Payload::from_static(head)
    }
}

/// One application-level send.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Sent by the client (originator)?
    pub from_client: bool,
    /// Payload bytes.
    pub payload: Payload,
    /// Think/processing time before this send, microseconds.
    pub gap_us: u64,
}

impl Exchange {
    /// Client-side send after `gap_us`.
    pub fn client(payload: impl Into<Payload>, gap_us: u64) -> Exchange {
        Exchange {
            from_client: true,
            payload: payload.into(),
            gap_us,
        }
    }

    /// Server-side send after `gap_us`.
    pub fn server(payload: impl Into<Payload>, gap_us: u64) -> Exchange {
        Exchange {
            from_client: false,
            payload: payload.into(),
            gap_us,
        }
    }
}

/// Periodic 1-byte keep-alive probes appended after the dialogue (NCP's
/// signature behavior, §5.2.2).
#[derive(Debug, Clone, Copy)]
pub struct Keepalives {
    /// Probe interval, microseconds.
    pub interval_us: u64,
    /// Number of probes.
    pub count: u32,
}

/// Complete specification of one TCP session to synthesize.
#[derive(Debug, Clone)]
pub struct TcpSessionSpec {
    /// First-packet time.
    pub start: Timestamp,
    /// Originator.
    pub client: Peer,
    /// Responder.
    pub server: Peer,
    /// Round-trip time, microseconds.
    pub rtt_us: u64,
    /// Establishment outcome.
    pub outcome: Outcome,
    /// Application dialogue (ignored unless `Success`).
    pub exchanges: Vec<Exchange>,
    /// Keep-alive probes after the dialogue.
    pub keepalives: Option<Keepalives>,
    /// Teardown.
    pub close: Close,
    /// Per-data-segment retransmission probability.
    pub retx_rate: f64,
}

impl TcpSessionSpec {
    /// A plain successful session with the given dialogue.
    pub fn success(
        start: Timestamp,
        client: Peer,
        server: Peer,
        rtt_us: u64,
        exchanges: Vec<Exchange>,
    ) -> TcpSessionSpec {
        TcpSessionSpec {
            start,
            client,
            server,
            rtt_us,
            outcome: Outcome::Success,
            exchanges,
            keepalives: None,
            close: Close::Fin,
            retx_rate: 0.0,
        }
    }

    /// A successful session with no application dialogue (connection-only
    /// attempts: failures, probes, handshake-then-close).
    pub fn bare(start: Timestamp, client: Peer, server: Peer, rtt_us: u64) -> TcpSessionSpec {
        TcpSessionSpec::success(start, client, server, rtt_us, Vec::default())
    }
}

/// Precompute the frame template for one direction of a TCP session.
fn tcp_template(src: &Peer, dst: &Peer) -> build::TcpTemplate {
    build::TcpTemplate::new(&build::TcpFrameSpec {
        src_mac: src.mac,
        dst_mac: dst.mac,
        src_ip: src.addr,
        dst_ip: dst.addr,
        src_port: src.port,
        dst_port: dst.port,
        seq: 0,
        ack: 0,
        flags: tcp::Flags::NONE,
        window: 65_535,
        ttl: src.ttl,
    })
}

struct TcpSim<'a, R: Rng + ?Sized> {
    spec: &'a TcpSessionSpec,
    rng: &'a mut R,
    out: &'a mut PacketArena,
    clip: Clip,
    /// Client→server frame template (headers + static checksum halves).
    c_tmpl: build::TcpTemplate,
    /// Server→client frame template.
    s_tmpl: build::TcpTemplate,
    c_seq: u32,
    s_seq: u32,
    c_acked: u32,
    s_acked: u32,
}

impl<R: Rng + ?Sized> TcpSim<'_, R> {
    fn frame(&mut self, ts: Timestamp, from_client: bool, flags: tcp::Flags, seq: u32, ack: u32, payload: &[u8]) {
        self.frame_split(ts, from_client, flags, seq, ack, build::SplitPayload::contiguous(payload));
    }

    fn frame_split(
        &mut self,
        ts: Timestamp,
        from_client: bool,
        flags: tcp::Flags,
        seq: u32,
        ack: u32,
        payload: build::SplitPayload<'_>,
    ) {
        let wire = build::TCP_HDR_LEN + payload.len();
        if !self.out.admit(ts, self.clip, wire as u64) {
            return;
        }
        let tmpl = if from_client { &self.c_tmpl } else { &self.s_tmpl };
        let snaplen = self.out.snaplen();
        build::tcp_frame_split_into(tmpl, seq, ack, flags, payload, snaplen, self.out.frame_buf());
        self.out.commit(ts, wire);
    }

    fn run(mut self) {
        let spec = self.spec;
        let rtt = spec.rtt_us.max(20);
        let half = (rtt / 2).max(10);
        let mut t = spec.start;
        match spec.outcome {
            Outcome::Unanswered => {
                // Initial SYN plus two exponential-backoff retries.
                let seq = self.c_seq;
                for delay in [0u64, 3_000_000, 9_000_000] {
                    self.frame(t + delay, true, tcp::Flags::SYN, seq, 0, &[]);
                }
                return;
            }
            Outcome::Rejected => {
                let seq = self.c_seq;
                self.frame(t, true, tcp::Flags::SYN, seq, 0, &[]);
                self.frame(
                    t + half,
                    false,
                    tcp::Flags::RST | tcp::Flags::ACK,
                    0,
                    seq.wrapping_add(1),
                    &[],
                );
                return;
            }
            Outcome::Success => {}
        }
        // Handshake.
        let c_isn = self.c_seq;
        let s_isn = self.s_seq;
        self.frame(t, true, tcp::Flags::SYN, c_isn, 0, &[]);
        self.frame(
            t + half,
            false,
            tcp::Flags::SYN | tcp::Flags::ACK,
            s_isn,
            c_isn.wrapping_add(1),
            &[],
        );
        self.c_seq = c_isn.wrapping_add(1);
        self.s_seq = s_isn.wrapping_add(1);
        self.c_acked = self.s_seq;
        self.s_acked = self.c_seq;
        t += rtt;
        self.frame(t, true, tcp::Flags::ACK, self.c_seq, self.c_acked, &[]);

        // Dialogue. `spec` is a copy of the `&'a TcpSessionSpec` reference,
        // so iterating it does not hold a borrow of `self` (the legacy code
        // cloned the whole exchange list here).
        let mut last_dir_client = true;
        for ex in &spec.exchanges {
            t += ex.gap_us;
            if ex.from_client != last_dir_client {
                // Propagation before the other side can respond.
                t += half;
                last_dir_client = ex.from_client;
            }
            t = self.send_data(t, ex.from_client, &ex.payload, half);
        }

        // Keep-alive probes.
        if let Some(ka) = spec.keepalives {
            let probe_seq = self.c_seq.wrapping_sub(1);
            for _ in 0..ka.count {
                t += ka.interval_us;
                self.frame(t, true, tcp::Flags::ACK, probe_seq, self.c_acked, &[1]);
                self.frame(t + half, false, tcp::Flags::ACK, self.s_seq, self.c_seq, &[]);
            }
        }

        // Teardown.
        match spec.close {
            Close::Fin => {
                t += 1_000;
                self.frame(
                    t,
                    true,
                    tcp::Flags::FIN | tcp::Flags::ACK,
                    self.c_seq,
                    self.c_acked,
                    &[],
                );
                self.c_seq = self.c_seq.wrapping_add(1);
                self.frame(
                    t + half,
                    false,
                    tcp::Flags::FIN | tcp::Flags::ACK,
                    self.s_seq,
                    self.c_seq,
                    &[],
                );
                self.s_seq = self.s_seq.wrapping_add(1);
                self.frame(t + rtt, true, tcp::Flags::ACK, self.c_seq, self.s_seq, &[]);
            }
            Close::Rst => {
                t += 500;
                self.frame(t, false, tcp::Flags::RST | tcp::Flags::ACK, self.s_seq, self.c_seq, &[]);
            }
            Close::None => {}
        }
        // No per-session sort: the arena's global stable sort on `ts`
        // reproduces the legacy stable per-session + global ordering.
    }

    /// Send `payload` in MSS segments from one side; returns the time the
    /// last segment was sent.
    fn send_data(&mut self, mut t: Timestamp, from_client: bool, payload: &Payload, half: u64) -> Timestamp {
        let rto = (4 * half).max(200_000);
        let total = payload.len();
        let mut off = 0usize;
        let mut since_ack = 0;
        // Slow-start pacing: the sender stalls for a round trip after each
        // congestion window's worth of segments; the window doubles from 4
        // up to a cap. This is what makes bulk-transfer time scale with
        // RTT (the paper's Figure 5 mechanism).
        let mut cwnd: u32 = 4;
        let mut in_window: u32 = 0;
        while off < total {
            let end = (off + MSS).min(total);
            let chunk = payload.part(off, end);
            let chunk_len = (end - off) as u32;
            if in_window >= cwnd {
                t += 2 * half;
                cwnd = (cwnd * 2).min(64);
                in_window = 0;
            }
            in_window += 1;
            let last = end == total;
            let (seq, ack) = if from_client {
                (self.c_seq, self.c_acked)
            } else {
                (self.s_seq, self.s_acked)
            };
            let mut flags = tcp::Flags::ACK;
            if last {
                flags = flags | tcp::Flags::PSH;
            }
            self.frame_split(t, from_client, flags, seq, ack, chunk);
            if coin(self.rng, self.spec.retx_rate) {
                // Timeout retransmission of the same segment.
                self.frame_split(t + rto, from_client, flags, seq, ack, chunk);
            }
            if from_client {
                self.c_seq = self.c_seq.wrapping_add(chunk_len);
            } else {
                self.s_seq = self.s_seq.wrapping_add(chunk_len);
            }
            since_ack += 1;
            if since_ack == 2 || last {
                // Delayed ACK from the receiver.
                let (rseq, rack) = if from_client {
                    (self.s_seq, self.c_seq)
                } else {
                    (self.c_seq, self.s_seq)
                };
                self.frame(t + half, !from_client, tcp::Flags::ACK, rseq, rack, &[]);
                if from_client {
                    self.s_acked = self.c_seq;
                } else {
                    self.c_acked = self.s_seq;
                }
                since_ack = 0;
            }
            t += (chunk_len as u64 * NS_PER_BYTE) / 1_000 + 5;
            off = end;
        }
        t
    }
}

/// Emit one TCP session's frames into the arena. Out-of-window packets are
/// skipped per `clip`; the RNG advances identically either way, so a given
/// seed produces the same in-window bytes regardless of the window.
pub fn emit_tcp<R: Rng + ?Sized>(
    spec: &TcpSessionSpec,
    rng: &mut R,
    out: &mut PacketArena,
    clip: Clip,
) {
    let c_seq = rng.random::<u32>();
    let s_seq = rng.random::<u32>();
    TcpSim {
        spec,
        rng,
        out,
        clip,
        c_tmpl: tcp_template(&spec.client, &spec.server),
        s_tmpl: tcp_template(&spec.server, &spec.client),
        c_seq,
        s_seq,
        c_acked: 0,
        s_acked: 0,
    }
    .run();
}

/// One UDP message in a flow script.
#[derive(Debug, Clone)]
pub struct UdpMessage {
    /// Sent by the originator?
    pub from_client: bool,
    /// Datagram payload.
    pub payload: Payload,
    /// Gap before this message, microseconds.
    pub gap_us: u64,
}

impl UdpMessage {
    /// Client-side message after `gap_us`.
    pub fn client(payload: impl Into<Payload>, gap_us: u64) -> UdpMessage {
        UdpMessage {
            from_client: true,
            payload: payload.into(),
            gap_us,
        }
    }

    /// Server-side message after `gap_us`.
    pub fn server(payload: impl Into<Payload>, gap_us: u64) -> UdpMessage {
        UdpMessage {
            from_client: false,
            payload: payload.into(),
            gap_us,
        }
    }
}

/// Specification of a UDP exchange.
#[derive(Debug, Clone)]
pub struct UdpFlowSpec {
    /// First-packet time.
    pub start: Timestamp,
    /// Originator.
    pub client: Peer,
    /// Responder (or group for multicast).
    pub server: Peer,
    /// One-way latency applied to server→client messages, microseconds.
    pub half_rtt_us: u64,
    /// Messages in order.
    pub messages: Vec<UdpMessage>,
    /// Destination MAC override for multicast groups.
    pub multicast_mac: Option<MacAddr>,
}

/// Emit a UDP flow's frames into the arena (see [`emit_tcp`] for the
/// window-clipping contract).
pub fn emit_udp(spec: &UdpFlowSpec, out: &mut PacketArena, clip: Clip) {
    let c_tmpl = build::UdpTemplate::new(&build::UdpFrameSpec {
        src_mac: spec.client.mac,
        dst_mac: spec.multicast_mac.unwrap_or(spec.server.mac),
        src_ip: spec.client.addr,
        dst_ip: spec.server.addr,
        src_port: spec.client.port,
        dst_port: spec.server.port,
        ttl: spec.client.ttl,
    });
    let s_tmpl = build::UdpTemplate::new(&build::UdpFrameSpec {
        src_mac: spec.server.mac,
        dst_mac: spec.client.mac,
        src_ip: spec.server.addr,
        dst_ip: spec.client.addr,
        src_port: spec.server.port,
        dst_port: spec.client.port,
        ttl: spec.server.ttl,
    });
    let mut t = spec.start;
    for m in &spec.messages {
        t += m.gap_us;
        let (tmpl, ts) = if m.from_client {
            (&c_tmpl, t)
        } else {
            (&s_tmpl, t + spec.half_rtt_us)
        };
        let wire = build::UDP_HDR_LEN + m.payload.len();
        if out.admit(ts, clip, wire as u64) {
            let snaplen = out.snaplen();
            build::udp_frame_split_into(tmpl, m.payload.split(), snaplen, out.frame_buf());
            out.commit(ts, wire);
        }
    }
}

/// The fixed 56-byte echo payload (classic `ping` pattern byte).
const ICMP_PAYLOAD: [u8; 56] = [0x55; 56];

/// Emit an ICMP echo exchange into the arena (`answered` controls the
/// replies; see [`emit_tcp`] for the window-clipping contract).
#[allow(clippy::too_many_arguments)]
pub fn emit_icmp_echo(
    start: Timestamp,
    client: Peer,
    server: Peer,
    rtt_us: u64,
    ident: u16,
    count: u16,
    answered: bool,
    out: &mut PacketArena,
    clip: Clip,
) {
    // Too few per trace to give the ICMP writer a limit of its own: the
    // whole 98-byte frame is appended and `commit` cuts it at the snaplen.
    let wire = build::ICMP_HDR_LEN + ICMP_PAYLOAD.len();
    for i in 0..count {
        let t = start + i as u64 * 1_000_000;
        if out.admit(t, clip, wire as u64) {
            build::icmp_frame_into(
                client.mac,
                server.mac,
                client.addr,
                server.addr,
                icmp::MessageType::EchoRequest,
                ident,
                i,
                &ICMP_PAYLOAD,
                out.frame_buf(),
            );
            out.commit(t, wire);
        }
        if answered {
            let tr = t + rtt_us;
            if out.admit(tr, clip, wire as u64) {
                build::icmp_frame_into(
                    server.mac,
                    client.mac,
                    server.addr,
                    client.addr,
                    icmp::MessageType::EchoReply,
                    ident,
                    i,
                    &ICMP_PAYLOAD,
                    out.frame_buf(),
                );
                out.commit(tr, wire);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_flow::{CollectSummaries, ConnTable, TableConfig, TcpOutcome};
    use ent_pcap::TimedPacket;
    use ent_wire::Packet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One session's frames as owned packets, in time order.
    fn emitted(emit: impl FnOnce(&mut PacketArena)) -> Vec<TimedPacket> {
        let mut arena = PacketArena::unbounded();
        emit(&mut arena);
        arena.sort_records();
        arena.captured_packets()
    }

    fn synth_tcp<R: Rng + ?Sized>(spec: &TcpSessionSpec, rng: &mut R) -> Vec<TimedPacket> {
        emitted(|arena| emit_tcp(spec, rng, arena, Clip::Counted))
    }

    fn synth_udp(spec: &UdpFlowSpec) -> Vec<TimedPacket> {
        emitted(|arena| emit_udp(spec, arena, Clip::Counted))
    }

    fn peers() -> (Peer, Peer) {
        (
            Peer {
                addr: ipv4::Addr::new(10, 100, 1, 30),
                mac: MacAddr::from_host_id(1),
                port: 40_000,
                ttl: 64,
            },
            Peer {
                addr: ipv4::Addr::new(10, 100, 2, 10),
                mac: MacAddr::from_host_id(2),
                port: 80,
                ttl: 64,
            },
        )
    }

    /// Run synthesized packets through the real flow engine.
    fn track(pkts: &[TimedPacket]) -> Vec<ent_flow::ConnSummary> {
        let mut table = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        for p in pkts {
            let pkt = Packet::parse(&p.frame).expect("synthesized frame parses");
            table.ingest(&pkt, p.ts, &mut h);
        }
        table.finish(Timestamp::from_secs(4000), &mut h);
        h.summaries
    }

    #[test]
    fn successful_session_tracks_cleanly() {
        let (c, s) = peers();
        let spec = TcpSessionSpec::success(
            Timestamp::from_secs(1),
            c,
            s,
            400,
            vec![
                Exchange::client(vec![1u8; 300], 100),
                Exchange::server(vec![2u8; 5000], 2_000),
            ],
        );
        let mut rng = StdRng::seed_from_u64(1);
        let pkts = synth_tcp(&spec, &mut rng);
        assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts), "timestamps sorted");
        let sums = track(&pkts);
        assert_eq!(sums.len(), 1);
        let sum = &sums[0];
        assert_eq!(sum.outcome, TcpOutcome::Successful);
        assert_eq!(sum.orig.payload_bytes, 300);
        assert_eq!(sum.resp.payload_bytes, 5000);
        assert_eq!(sum.tcp_state, ent_flow::TcpState::Closed);
        assert_eq!(sum.orig.retx_packets + sum.resp.retx_packets, 0);
        assert!(!sum.acked_unseen_data);
    }

    #[test]
    fn rejected_and_unanswered() {
        let (c, s) = peers();
        let mut rng = StdRng::seed_from_u64(2);
        let mut spec = TcpSessionSpec::success(Timestamp::ZERO, c, s, 400, vec![]);
        spec.outcome = Outcome::Rejected;
        let sums = track(&synth_tcp(&spec, &mut rng));
        assert_eq!(sums[0].outcome, TcpOutcome::Rejected);
        spec.outcome = Outcome::Unanswered;
        let sums = track(&synth_tcp(&spec, &mut rng));
        assert_eq!(sums[0].outcome, TcpOutcome::Unanswered);
        // SYN retries must count as retransmissions of one attempt, not
        // three connections.
        assert_eq!(sums.len(), 1);
    }

    #[test]
    fn retransmissions_injected_and_detected() {
        let (c, s) = peers();
        let mut spec = TcpSessionSpec::success(
            Timestamp::ZERO,
            c,
            s,
            400,
            vec![Exchange::client(vec![0u8; 100 * MSS], 0)],
        );
        spec.retx_rate = 0.2;
        let mut rng = StdRng::seed_from_u64(3);
        let sums = track(&synth_tcp(&spec, &mut rng));
        let retx = sums[0].orig.retx_packets;
        assert!(retx > 5 && retx < 50, "retx {retx} out of expected band");
        assert_eq!(sums[0].orig.payload_bytes - sums[0].orig.retx_bytes, (100 * MSS) as u64);
    }

    #[test]
    fn keepalive_probes_detected() {
        let (c, s) = peers();
        let mut spec = TcpSessionSpec::success(Timestamp::ZERO, c, s, 400, vec![]);
        spec.keepalives = Some(Keepalives {
            interval_us: 60_000_000,
            count: 10,
        });
        spec.close = Close::None;
        let mut rng = StdRng::seed_from_u64(4);
        let sums = track(&synth_tcp(&spec, &mut rng));
        let sum = &sums[0];
        // The probe byte sits below the SYN-consumed sequence space, so
        // every probe is a keepalive retransmission.
        assert_eq!(sum.orig.keepalive_packets, 10);
        assert!(sum.keepalive_only());
    }

    #[test]
    fn duration_scales_with_rtt() {
        let (c, s) = peers();
        let dialogue = vec![
            Exchange::client(vec![1u8; 200], 1_000),
            Exchange::server(vec![2u8; 200], 1_000),
            Exchange::client(vec![1u8; 200], 1_000),
            Exchange::server(vec![2u8; 200], 1_000),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let fast = TcpSessionSpec::success(Timestamp::ZERO, c, s, 400, dialogue.clone());
        let slow = TcpSessionSpec::success(Timestamp::ZERO, c, s, 40_000, dialogue);
        let d_fast = track(&synth_tcp(&fast, &mut rng))[0].duration_us();
        let d_slow = track(&synth_tcp(&slow, &mut rng))[0].duration_us();
        assert!(
            d_slow > d_fast * 5,
            "WAN RTT must dominate duration: {d_fast} vs {d_slow}"
        );
    }

    #[test]
    fn udp_flow_roundtrip() {
        let (c, mut s) = peers();
        s.port = 53;
        let spec = UdpFlowSpec {
            start: Timestamp::from_millis(10),
            client: c,
            server: s,
            half_rtt_us: 200,
            messages: vec![
                UdpMessage::client(vec![0u8; 30], 0),
                UdpMessage::server(vec![0u8; 90], 0),
            ],
            multicast_mac: None,
        };
        let sums = track(&synth_udp(&spec));
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].orig.payload_bytes, 30);
        assert_eq!(sums[0].resp.payload_bytes, 90);
        assert_eq!(sums[0].outcome, TcpOutcome::Successful);
        assert_eq!(sums[0].duration_us(), 200);
    }

    #[test]
    fn icmp_echo_pairs() {
        let (c, s) = peers();
        let echo = |ident, count, answered| {
            emitted(|arena| {
                emit_icmp_echo(Timestamp::ZERO, c, s, 500, ident, count, answered, arena, Clip::Counted)
            })
        };
        let pkts = echo(77, 3, true);
        assert_eq!(pkts.len(), 6);
        let sums = track(&pkts);
        assert_eq!(sums.len(), 1);
        assert!(sums[0].icmp_answered);
        let pkts = echo(78, 2, false);
        let sums = track(&pkts);
        assert!(!sums[0].icmp_answered);
    }

    #[test]
    fn split_payload_session_matches_materialized() {
        // A head+fill payload must synthesize the exact frames of the same
        // logical bytes materialized into one Vec — timestamps, RNG draws
        // (retransmission coins) and wire bytes all identical.
        let (c, s) = peers();
        let odd_head = Payload::head_fill(b"HTTP/1.1 200 OK\r\n\r\nxyz".to_vec(), b'x', 40_001);
        let pure_fill = Payload::fill(0x4E, 3 * MSS + 7);
        for p in [odd_head, pure_fill] {
            let mut split_spec = TcpSessionSpec::success(
                Timestamp::ZERO,
                c,
                s,
                400,
                vec![Exchange::client(vec![1u8; 301], 0), Exchange::server(p.clone(), 500)],
            );
            split_spec.retx_rate = 0.2;
            let mut mat_spec = split_spec.clone();
            mat_spec.exchanges[1].payload = p.to_bytes().into();
            let a = synth_tcp(&split_spec, &mut StdRng::seed_from_u64(9));
            let b = synth_tcp(&mat_spec, &mut StdRng::seed_from_u64(9));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.ts, y.ts);
                assert_eq!(x.frame, y.frame);
            }
        }

        let mut su = UdpFlowSpec {
            start: Timestamp::from_millis(10),
            client: c,
            server: s,
            half_rtt_us: 200,
            messages: vec![
                UdpMessage::client(Payload::head_fill(b"req".to_vec(), 0x6E, 57), 0),
                UdpMessage::server(Payload::fill(0x52, 900), 0),
            ],
            multicast_mac: None,
        };
        let a = synth_udp(&su);
        for m in &mut su.messages {
            m.payload = m.payload.to_bytes().into();
        }
        let b = synth_udp(&su);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ts, y.ts);
            assert_eq!(x.frame, y.frame);
        }
    }

    #[test]
    fn payload_bytes_delivered_in_order() {
        // The flow engine's reassembled stream must equal the scripted
        // payload — the property every ent-proto analyzer depends on.
        use ent_flow::{ConnIndex, Dir, FlowHandler};
        #[derive(Default)]
        struct Collect {
            orig: Vec<u8>,
            resp: Vec<u8>,
        }
        impl FlowHandler for Collect {
            fn on_tcp_data(&mut self, _i: ConnIndex, dir: Dir, _ts: Timestamp, data: &[u8]) {
                match dir {
                    Dir::Orig => self.orig.extend_from_slice(data),
                    Dir::Resp => self.resp.extend_from_slice(data),
                }
            }
        }
        let (c, s) = peers();
        let req: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let resp: Vec<u8> = (0..30_000u32).map(|i| (i * 7) as u8).collect();
        let spec = TcpSessionSpec::success(
            Timestamp::ZERO,
            c,
            s,
            400,
            vec![
                Exchange::client(req.clone(), 0),
                Exchange::server(resp.clone(), 500),
            ],
        );
        let mut rng = StdRng::seed_from_u64(6);
        let pkts = synth_tcp(&spec, &mut rng);
        let mut table = ConnTable::new(TableConfig::default());
        let mut h = Collect::default();
        for p in &pkts {
            table.ingest(&Packet::parse(&p.frame).unwrap(), p.ts, &mut h);
        }
        table.finish(Timestamp::from_secs(100), &mut h);
        assert_eq!(h.orig, req);
        assert_eq!(h.resp, resp);
    }

    #[test]
    fn retransmitted_stream_still_delivers_exact_bytes() {
        use ent_flow::{ConnIndex, Dir, FlowHandler};
        #[derive(Default)]
        struct Collect(Vec<u8>);
        impl FlowHandler for Collect {
            fn on_tcp_data(&mut self, _i: ConnIndex, dir: Dir, _ts: Timestamp, data: &[u8]) {
                if dir == Dir::Orig {
                    self.0.extend_from_slice(data);
                }
            }
        }
        let (c, s) = peers();
        let req: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let mut spec =
            TcpSessionSpec::success(Timestamp::ZERO, c, s, 400, vec![Exchange::client(req.clone(), 0)]);
        spec.retx_rate = 0.3;
        let mut rng = StdRng::seed_from_u64(7);
        let pkts = synth_tcp(&spec, &mut rng);
        let mut table = ConnTable::new(TableConfig::default());
        let mut h = Collect::default();
        for p in &pkts {
            table.ingest(&Packet::parse(&p.frame).unwrap(), p.ts, &mut h);
        }
        table.finish(Timestamp::from_secs(100), &mut h);
        assert_eq!(h.0, req, "duplicates must not corrupt the stream");
    }
}
