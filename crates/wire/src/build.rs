//! Convenience builders assembling complete Ethernet frames.
//!
//! Used by the trace generator (`ent-gen`) and by tests; the analysis side
//! never constructs frames.

use crate::{ethernet, icmp, ipv4, tcp};

/// Parameters for a TCP frame.
#[derive(Debug, Clone, Copy)]
pub struct TcpFrameSpec {
    /// Source MAC.
    pub src_mac: ethernet::MacAddr,
    /// Destination MAC.
    pub dst_mac: ethernet::MacAddr,
    /// Source IP.
    pub src_ip: ipv4::Addr,
    /// Destination IP.
    pub dst_ip: ipv4::Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: tcp::Flags,
    /// Receive window.
    pub window: u16,
    /// IP TTL.
    pub ttl: u8,
}

/// Build a complete TCP/IPv4/Ethernet frame in a `Vec` of its own
/// ([`tcp_frame_into`] over a one-shot [`TcpTemplate`]).
pub fn tcp_frame(spec: &TcpFrameSpec, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TCP_HDR_LEN + payload.len());
    tcp_frame_into(&TcpTemplate::new(spec), spec.seq, spec.ack, spec.flags, payload, &mut out);
    out
}

/// Parameters for a UDP frame.
#[derive(Debug, Clone, Copy)]
pub struct UdpFrameSpec {
    /// Source MAC.
    pub src_mac: ethernet::MacAddr,
    /// Destination MAC.
    pub dst_mac: ethernet::MacAddr,
    /// Source IP.
    pub src_ip: ipv4::Addr,
    /// Destination IP.
    pub dst_ip: ipv4::Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP TTL.
    pub ttl: u8,
}

/// Build a complete UDP/IPv4/Ethernet frame in a `Vec` of its own
/// ([`udp_frame_into`] over a one-shot [`UdpTemplate`]).
pub fn udp_frame(spec: &UdpFrameSpec, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(UDP_HDR_LEN + payload.len());
    udp_frame_into(&UdpTemplate::new(spec), payload, &mut out);
    out
}

/// Build a complete ICMP/IPv4/Ethernet frame in a `Vec` of its own
/// ([`icmp_frame_into`]).
#[allow(clippy::too_many_arguments)]
pub fn icmp_frame(
    src_mac: ethernet::MacAddr,
    dst_mac: ethernet::MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    mtype: icmp::MessageType,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(ICMP_HDR_LEN + payload.len());
    icmp_frame_into(src_mac, dst_mac, src_ip, dst_ip, mtype, ident, seq, payload, &mut out);
    out
}

/// Build an IPv4 frame carrying an arbitrary transport protocol (IGMP, ESP,
/// PIM, GRE, protocol 224, ...) in a `Vec` of its own
/// ([`raw_ip_frame_into`]).
pub fn raw_ip_frame(
    src_mac: ethernet::MacAddr,
    dst_mac: ethernet::MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    protocol: u8,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(NET_HDR_LEN + payload.len());
    raw_ip_frame_into(src_mac, dst_mac, src_ip, dst_ip, protocol, payload, &mut out);
    out
}

/// Deterministic-but-varying IP ident derived from flow state, so duplicate
/// frames (retransmissions) can carry identical idents while distinct
/// datagrams differ.
fn ip_ident(a: u32, b: u16) -> u16 {
    (a.wrapping_mul(0x9E37).wrapping_add(b as u32) & 0xFFFF) as u16
}

// ---------------------------------------------------------------------------
// Template writers.
//
// Everything that is constant for one session — the full 54-/42-byte header
// image and the static portion of the ones-complement sums — is computed
// once, so per-packet work reduces to: copy the header image, patch the few
// dynamic fields, finish the checksums incrementally, and append header +
// payload to a caller-provided buffer. The per-layer `emit` functions
// (`tcp::emit` inside `ipv4::emit` inside `ethernet::emit`, each
// checksumming its own bytes from scratch) are the reference these writers
// are pinned to by the equivalence tests below.
// ---------------------------------------------------------------------------

/// Ethernet + IPv4 header bytes preceding the transport header.
pub const NET_HDR_LEN: usize = 34;
/// Full header image length for a TCP frame (Ethernet + IPv4 + TCP).
pub const TCP_HDR_LEN: usize = 54;
/// Full header image length for a UDP frame (Ethernet + IPv4 + UDP).
pub const UDP_HDR_LEN: usize = 42;
/// Full header image length for an ICMP frame (Ethernet + IPv4 + ICMP).
pub const ICMP_HDR_LEN: usize = 42;

/// Raw ones-complement word sum of `data` (big-endian 16-bit words, odd
/// trailing byte zero-padded), carries unfolded.
fn word_sum(data: &[u8]) -> u32 {
    let mut s = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        s += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        s += u16::from_be_bytes([*last, 0]) as u32;
    }
    s
}

/// Fold carries and complement: turns a [`word_sum`] into the wire checksum
/// value (same folding as [`crate::checksum::Checksum::finish`]).
fn fold_sum(mut s: u32) -> u16 {
    while s > 0xFFFF {
        s = (s & 0xFFFF) + (s >> 16);
    }
    !(s as u16)
}

/// Shared Ethernet + IPv4 header prefix of a template: MACs, EtherType,
/// version/IHL, TTL, protocol and addresses filled in; total-length, ident
/// and header checksum left zero for per-packet patching.
fn net_prefix(
    src_mac: ethernet::MacAddr,
    dst_mac: ethernet::MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    ttl: u8,
    protocol: u8,
) -> [u8; NET_HDR_LEN] {
    let mut hdr = [0u8; NET_HDR_LEN];
    hdr[0..6].copy_from_slice(&dst_mac.0);
    hdr[6..12].copy_from_slice(&src_mac.0);
    crate::put_be16(&mut hdr, 12, ethernet::EtherType::Ipv4.to_u16());
    hdr[14] = 0x45; // version 4, IHL 5
    hdr[22] = ttl;
    hdr[23] = protocol;
    hdr[26..30].copy_from_slice(&src_ip.octets());
    hdr[30..34].copy_from_slice(&dst_ip.octets());
    hdr
}

/// Per-session TCP frame template: the full 54-byte Ethernet/IPv4/TCP
/// header image plus the static halves of both checksums.
///
/// Built once per session from a [`TcpFrameSpec`] (whose `seq`/`ack`/`flags`
/// are ignored — they are per-packet); [`tcp_frame_into`] then emits each
/// frame by patching seq, ack, flags, lengths, ident and checksums.
#[derive(Debug, Clone, Copy)]
pub struct TcpTemplate {
    /// Header image; dynamic fields zero.
    hdr: [u8; TCP_HDR_LEN],
    /// Word sum of the IPv4 header minus total-length and ident.
    ip_static: u32,
    /// Word sum of pseudo-header addresses + protocol + static TCP fields.
    tcp_static: u32,
    /// Source port, the per-session half of the IP ident derivation.
    src_port: u16,
}

impl TcpTemplate {
    /// Precompute the template for one session's direction.
    pub fn new(spec: &TcpFrameSpec) -> TcpTemplate {
        let mut hdr = [0u8; TCP_HDR_LEN];
        hdr[0..NET_HDR_LEN].copy_from_slice(&net_prefix(
            spec.src_mac,
            spec.dst_mac,
            spec.src_ip,
            spec.dst_ip,
            spec.ttl,
            ipv4::Protocol::Tcp.to_u8(),
        ));
        crate::put_be16(&mut hdr, 34, spec.src_port);
        crate::put_be16(&mut hdr, 36, spec.dst_port);
        hdr[46] = 5 << 4; // data offset 5 words
        crate::put_be16(&mut hdr, 48, spec.window);
        // Dynamic IP fields (total length, ident, checksum) are zero in the
        // image, so summing the whole IP header yields the static part.
        let ip_static = word_sum(&hdr[14..34]);
        // Pseudo-header addresses + protocol, plus the TCP header with
        // seq/ack/flags/checksum zeroed; the pseudo-header length, seq, ack
        // and flags are added per packet.
        let tcp_static =
            word_sum(&hdr[26..34]) + ipv4::Protocol::Tcp.to_u8() as u32 + word_sum(&hdr[34..54]);
        TcpTemplate {
            hdr,
            ip_static,
            tcp_static,
            src_port: spec.src_port,
        }
    }
}

/// Append one TCP frame built from `t` to `out`: the header image is
/// copied, seq/ack/flags/lengths/ident patched, and both checksums
/// finished incrementally from the template's static sums.
pub fn tcp_frame_into(
    t: &TcpTemplate,
    seq: u32,
    ack: u32,
    flags: tcp::Flags,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    tcp_frame_split_into(t, seq, ack, flags, SplitPayload::contiguous(payload), usize::MAX, out);
}

/// A logical payload expressed as a literal head followed by a run of one
/// fill byte: `head ∥ [fill; fill_len]`.
///
/// The enterprise generator's large objects (HTTP bodies, NFS reads, SMB
/// writes, TLS application data) are a short protocol head followed by a
/// constant filler. Materialising that filler just to checksum and copy it
/// dominated `gen_synth`; the split form lets the frame writers compute the
/// fill's ones-complement contribution in O(1) and emit it with a single
/// `resize` (memset) instead of a build-sum-copy triple pass.
#[derive(Debug, Clone, Copy)]
pub struct SplitPayload<'a> {
    /// Literal leading bytes.
    pub head: &'a [u8],
    /// Byte value repeated after the head.
    pub fill: u8,
    /// Number of fill bytes.
    pub fill_len: usize,
}

impl<'a> SplitPayload<'a> {
    /// A fully-literal payload (no fill run).
    pub fn contiguous(head: &'a [u8]) -> SplitPayload<'a> {
        SplitPayload { head, fill: 0, fill_len: 0 }
    }

    /// Logical payload length.
    pub fn len(&self) -> usize {
        self.head.len() + self.fill_len
    }

    /// True when the logical payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`word_sum`] of the logical byte sequence. An odd-length head pairs
    /// its last byte with the first fill byte, so the straddling word is
    /// accounted for explicitly; the rest of the run is a closed form.
    fn sum(&self) -> u32 {
        let mut s = word_sum(self.head);
        let mut n = self.fill_len;
        if self.head.len() % 2 == 1 && n > 0 {
            // word_sum(head) already added `last << 8`; the concatenated
            // word is `last << 8 | fill`, so only the low byte is missing.
            s += self.fill as u32;
            n -= 1;
        }
        let word = ((self.fill as u32) << 8) | self.fill as u32;
        s += (n / 2) as u32 * word;
        if n % 2 == 1 {
            s += (self.fill as u32) << 8;
        }
        s
    }

    /// Append the first `limit` logical bytes to `out` (head copy + one
    /// memset).
    fn write_into(&self, limit: usize, out: &mut Vec<u8>) {
        let head = self.head.get(..limit).unwrap_or(self.head);
        out.extend_from_slice(head);
        let fill_len = self.fill_len.min(limit - head.len());
        out.resize(out.len() + fill_len, self.fill);
    }
}

/// Append the first `limit` bytes of the frame `hdr ∥ payload` to `out`.
///
/// `limit` is the capture's snaplen: a header-only tap keeps 68 bytes of a
/// 1500-byte frame, so the other 1432 are never written. The header image
/// passed in is already complete — lengths, ident and checksums cover the
/// whole logical payload — which makes the output exactly the prefix of the
/// unlimited frame.
fn write_frame<const N: usize>(
    hdr: &[u8; N],
    payload: SplitPayload<'_>,
    limit: usize,
    out: &mut Vec<u8>,
) {
    match limit.checked_sub(N) {
        Some(rest) => {
            out.extend_from_slice(hdr);
            payload.write_into(rest, out);
        }
        None => out.extend_from_slice(hdr.get(..limit).unwrap_or(hdr)),
    }
}

/// Append the first `limit` bytes of one TCP frame with a split payload to
/// `out`; with `limit >= TCP_HDR_LEN + payload.len()` byte-identical to
/// [`tcp_frame_into`] over the concatenated payload, otherwise its prefix.
pub fn tcp_frame_split_into(
    t: &TcpTemplate,
    seq: u32,
    ack: u32,
    flags: tcp::Flags,
    payload: SplitPayload<'_>,
    limit: usize,
    out: &mut Vec<u8>,
) {
    let mut hdr = t.hdr;
    let total = (TCP_HDR_LEN - 14 + payload.len()) as u16;
    let ident = ip_ident(seq, t.src_port);
    crate::put_be16(&mut hdr, 16, total);
    crate::put_be16(&mut hdr, 18, ident);
    crate::put_be16(
        &mut hdr,
        24,
        fold_sum(t.ip_static + total as u32 + ident as u32),
    );
    crate::put_be32(&mut hdr, 38, seq);
    crate::put_be32(&mut hdr, 42, ack);
    hdr[47] = flags.0;
    let seg_len = (TCP_HDR_LEN - NET_HDR_LEN + payload.len()) as u32;
    let sum = t.tcp_static
        + seg_len
        + (seq >> 16)
        + (seq & 0xFFFF)
        + (ack >> 16)
        + (ack & 0xFFFF)
        + flags.0 as u32
        + payload.sum();
    crate::put_be16(&mut hdr, 50, fold_sum(sum));
    write_frame(&hdr, payload, limit, out);
}

/// Append the first `limit` bytes of one UDP frame with a split payload to
/// `out`; with `limit >= UDP_HDR_LEN + payload.len()` byte-identical to
/// [`udp_frame_into`] over the concatenated payload, otherwise its prefix.
pub fn udp_frame_split_into(
    t: &UdpTemplate,
    payload: SplitPayload<'_>,
    limit: usize,
    out: &mut Vec<u8>,
) {
    let mut hdr = t.hdr;
    let total = (UDP_HDR_LEN - 14 + payload.len()) as u16;
    let dg_len = (UDP_HDR_LEN - NET_HDR_LEN + payload.len()) as u16;
    let ident = ip_ident(payload.len() as u32, t.src_port);
    crate::put_be16(&mut hdr, 16, total);
    crate::put_be16(&mut hdr, 18, ident);
    crate::put_be16(
        &mut hdr,
        24,
        fold_sum(t.ip_static + total as u32 + ident as u32),
    );
    crate::put_be16(&mut hdr, 38, dg_len);
    // The datagram length enters the sum twice: once in the pseudo-header,
    // once as the UDP length field itself.
    let ck = fold_sum(t.udp_static + 2 * dg_len as u32 + payload.sum());
    // Per RFC 768 a computed checksum of zero is transmitted as all-ones.
    crate::put_be16(&mut hdr, 40, if ck == 0 { 0xFFFF } else { ck });
    write_frame(&hdr, payload, limit, out);
}

/// Per-session UDP frame template (see [`TcpTemplate`]).
#[derive(Debug, Clone, Copy)]
pub struct UdpTemplate {
    /// Header image; dynamic fields zero.
    hdr: [u8; UDP_HDR_LEN],
    /// Word sum of the IPv4 header minus total-length and ident.
    ip_static: u32,
    /// Word sum of pseudo-header addresses + protocol + ports.
    udp_static: u32,
    /// Source port, the per-session half of the IP ident derivation.
    src_port: u16,
}

impl UdpTemplate {
    /// Precompute the template for one flow's direction.
    pub fn new(spec: &UdpFrameSpec) -> UdpTemplate {
        let mut hdr = [0u8; UDP_HDR_LEN];
        hdr[0..NET_HDR_LEN].copy_from_slice(&net_prefix(
            spec.src_mac,
            spec.dst_mac,
            spec.src_ip,
            spec.dst_ip,
            spec.ttl,
            ipv4::Protocol::Udp.to_u8(),
        ));
        crate::put_be16(&mut hdr, 34, spec.src_port);
        crate::put_be16(&mut hdr, 36, spec.dst_port);
        let ip_static = word_sum(&hdr[14..34]);
        let udp_static =
            word_sum(&hdr[26..34]) + ipv4::Protocol::Udp.to_u8() as u32 + word_sum(&hdr[34..42]);
        UdpTemplate {
            hdr,
            ip_static,
            udp_static,
            src_port: spec.src_port,
        }
    }
}

/// Append one UDP frame built from `t` to `out`.
pub fn udp_frame_into(t: &UdpTemplate, payload: &[u8], out: &mut Vec<u8>) {
    udp_frame_split_into(t, SplitPayload::contiguous(payload), usize::MAX, out);
}

/// Append one ICMP frame to `out`. ICMP echoes are too few per session to
/// warrant a cached template.
#[allow(clippy::too_many_arguments)]
pub fn icmp_frame_into(
    src_mac: ethernet::MacAddr,
    dst_mac: ethernet::MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    mtype: icmp::MessageType,
    ident: u16,
    seq: u16,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let mut hdr = net_icmp_header(src_mac, dst_mac, src_ip, dst_ip, mtype, ident, seq, payload);
    let ck = fold_sum(word_sum(&hdr[34..42]) + word_sum(payload));
    crate::put_be16(&mut hdr, 36, ck);
    out.extend_from_slice(&hdr);
    out.extend_from_slice(payload);
}

/// ICMP header image with the message checksum still zero.
#[allow(clippy::too_many_arguments)]
fn net_icmp_header(
    src_mac: ethernet::MacAddr,
    dst_mac: ethernet::MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    mtype: icmp::MessageType,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> [u8; ICMP_HDR_LEN] {
    let mut hdr = [0u8; ICMP_HDR_LEN];
    hdr[0..NET_HDR_LEN].copy_from_slice(&net_prefix(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        64,
        ipv4::Protocol::Icmp.to_u8(),
    ));
    let total = (ICMP_HDR_LEN - 14 + payload.len()) as u16;
    crate::put_be16(&mut hdr, 16, total);
    crate::put_be16(&mut hdr, 18, ip_ident(seq as u32, ident));
    let ip_ck = fold_sum(word_sum(&hdr[14..34]));
    crate::put_be16(&mut hdr, 24, ip_ck);
    hdr[34] = mtype.to_u8();
    crate::put_be16(&mut hdr, 38, ident);
    crate::put_be16(&mut hdr, 40, seq);
    hdr
}

/// Append one raw-IPv4 frame (arbitrary transport protocol) to `out`.
pub fn raw_ip_frame_into(
    src_mac: ethernet::MacAddr,
    dst_mac: ethernet::MacAddr,
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    protocol: u8,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let mut hdr = net_prefix(src_mac, dst_mac, src_ip, dst_ip, 64, protocol);
    let total = (NET_HDR_LEN - 14 + payload.len()) as u16;
    crate::put_be16(&mut hdr, 16, total);
    let ip_ck = fold_sum(word_sum(&hdr[14..34]));
    crate::put_be16(&mut hdr, 24, ip_ck);
    out.extend_from_slice(&hdr);
    out.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{udp, Packet};

    fn macs() -> (ethernet::MacAddr, ethernet::MacAddr) {
        (ethernet::MacAddr::from_host_id(1), ethernet::MacAddr::from_host_id(2))
    }

    #[test]
    fn icmp_frame_parses() {
        let (s, d) = macs();
        let f = icmp_frame(
            s,
            d,
            ipv4::Addr::new(10, 0, 0, 1),
            ipv4::Addr::new(10, 0, 0, 2),
            icmp::MessageType::EchoRequest,
            7,
            1,
            b"ping",
        );
        let p = Packet::parse(&f).unwrap();
        assert!(matches!(
            p.transport,
            crate::Transport::Icmp { mtype: icmp::MessageType::EchoRequest, ident: 7, seq: 1, .. }
        ));
    }

    #[test]
    fn raw_ip_frame_parses_as_other() {
        let (s, d) = macs();
        let f = raw_ip_frame(
            s,
            d,
            ipv4::Addr::new(10, 0, 0, 1),
            ipv4::Addr::new(224, 0, 0, 13),
            103,
            &[0u8; 16],
        );
        let p = Packet::parse(&f).unwrap();
        assert_eq!(p.transport, crate::Transport::Other(103));
        assert!(p.is_multicast());
    }

    // The reference builders: each layer's own `emit`, nested, every
    // checksum computed from scratch over materialised bytes.

    fn legacy_tcp_frame(spec: &TcpFrameSpec, payload: &[u8]) -> Vec<u8> {
        let seg = tcp::emit(
            spec.src_ip,
            spec.dst_ip,
            spec.src_port,
            spec.dst_port,
            spec.seq,
            spec.ack,
            spec.flags,
            spec.window,
            payload,
        );
        let ident = ip_ident(spec.seq, spec.src_port);
        let ip = ipv4::emit(spec.src_ip, spec.dst_ip, ipv4::Protocol::Tcp, spec.ttl, ident, &seg);
        ethernet::emit(spec.dst_mac, spec.src_mac, ethernet::EtherType::Ipv4, &ip)
    }

    fn legacy_udp_frame(spec: &UdpFrameSpec, payload: &[u8]) -> Vec<u8> {
        let dg = udp::emit(spec.src_ip, spec.dst_ip, spec.src_port, spec.dst_port, payload);
        let ident = ip_ident(payload.len() as u32, spec.src_port);
        let ip = ipv4::emit(spec.src_ip, spec.dst_ip, ipv4::Protocol::Udp, spec.ttl, ident, &dg);
        ethernet::emit(spec.dst_mac, spec.src_mac, ethernet::EtherType::Ipv4, &ip)
    }

    /// Tiny deterministic generator (xorshift64*) so the equivalence
    /// property runs without a rand dependency.
    struct X(u64);
    impl X {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    fn random_payload(x: &mut X, len: usize) -> Vec<u8> {
        (0..len).map(|_| x.next_u64() as u8).collect()
    }

    /// Payload lengths covering the interesting cases: empty, single byte,
    /// odd (checksum pad), exact MSS-sized, and a few random in between.
    fn payload_lens(x: &mut X) -> Vec<usize> {
        let mut lens = vec![0, 1, 3, 57, 536, 1446];
        for _ in 0..4 {
            lens.push(x.below(1446) as usize);
        }
        lens
    }

    #[test]
    fn tcp_template_matches_legacy_builder() {
        let mut x = X(0xDEAD_BEEF_1234_5678);
        for round in 0..50u64 {
            let spec = TcpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(x.next_u64() as u32),
                dst_mac: ethernet::MacAddr::from_host_id(x.next_u64() as u32),
                src_ip: ipv4::Addr(x.next_u64() as u32),
                dst_ip: ipv4::Addr(x.next_u64() as u32),
                src_port: x.next_u64() as u16,
                dst_port: x.next_u64() as u16,
                seq: 0,
                ack: 0,
                flags: tcp::Flags::NONE,
                window: x.next_u64() as u16,
                ttl: if round % 2 == 0 { 64 } else { 52 },
            };
            let tmpl = TcpTemplate::new(&spec);
            for len in payload_lens(&mut x) {
                let payload = random_payload(&mut x, len);
                // Exercise carry-heavy checksums too: all-0xFF payloads and
                // extreme seq/ack values stress the incremental fold.
                let seq = if len % 3 == 0 { u32::MAX } else { x.next_u64() as u32 };
                let ack = x.next_u64() as u32;
                let flags = tcp::Flags((x.next_u64() as u8) & 0x1F);
                let legacy = legacy_tcp_frame(&TcpFrameSpec { seq, ack, flags, ..spec }, &payload);
                let mut got = Vec::new();
                tcp_frame_into(&tmpl, seq, ack, flags, &payload, &mut got);
                assert_eq!(got, legacy, "tcp template mismatch (len {len})");
            }
            // Saturated payload: every word 0xFFFF, maximal carry folding.
            let payload = vec![0xFFu8; 97];
            let legacy = legacy_tcp_frame(
                &TcpFrameSpec { seq: u32::MAX, ack: u32::MAX, flags: tcp::Flags::ACK, ..spec },
                &payload,
            );
            let mut got = Vec::new();
            tcp_frame_into(&tmpl, u32::MAX, u32::MAX, tcp::Flags::ACK, &payload, &mut got);
            assert_eq!(got, legacy, "tcp template mismatch (saturated)");
        }
    }

    #[test]
    fn udp_template_matches_legacy_builder() {
        let mut x = X(0x0123_4567_89AB_CDEF);
        for _ in 0..50u64 {
            let spec = UdpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(x.next_u64() as u32),
                dst_mac: ethernet::MacAddr::from_host_id(x.next_u64() as u32),
                src_ip: ipv4::Addr(x.next_u64() as u32),
                dst_ip: ipv4::Addr(x.next_u64() as u32),
                src_port: x.next_u64() as u16,
                dst_port: x.next_u64() as u16,
                ttl: 64,
            };
            let tmpl = UdpTemplate::new(&spec);
            for len in payload_lens(&mut x) {
                let payload = random_payload(&mut x, len);
                let legacy = legacy_udp_frame(&spec, &payload);
                let mut got = Vec::new();
                udp_frame_into(&tmpl, &payload, &mut got);
                assert_eq!(got, legacy, "udp template mismatch (len {len})");
            }
        }
    }

    #[test]
    fn icmp_and_raw_into_match_legacy_builders() {
        let mut x = X(0xFACE_CAFE_0BAD_F00D);
        for _ in 0..100u64 {
            let (sm, dm) = (
                ethernet::MacAddr::from_host_id(x.next_u64() as u32),
                ethernet::MacAddr::from_host_id(x.next_u64() as u32),
            );
            let (si, di) = (ipv4::Addr(x.next_u64() as u32), ipv4::Addr(x.next_u64() as u32));
            let (ident, seq) = (x.next_u64() as u16, x.next_u64() as u16);
            let mtype = if seq % 2 == 0 {
                icmp::MessageType::EchoRequest
            } else {
                icmp::MessageType::EchoReply
            };
            let plen = x.below(120) as usize;
            let payload = random_payload(&mut x, plen);
            let msg = icmp::emit(mtype, 0, ident, seq, &payload);
            let ip = ipv4::emit(si, di, ipv4::Protocol::Icmp, 64, ip_ident(seq as u32, ident), &msg);
            let legacy = ethernet::emit(dm, sm, ethernet::EtherType::Ipv4, &ip);
            let mut got = Vec::new();
            icmp_frame_into(sm, dm, si, di, mtype, ident, seq, &payload, &mut got);
            assert_eq!(got, legacy, "icmp mismatch");

            let proto = x.next_u64() as u8;
            let ip = ipv4::emit(si, di, ipv4::Protocol::from_u8(proto), 64, 0, &payload);
            let legacy = ethernet::emit(dm, sm, ethernet::EtherType::Ipv4, &ip);
            let mut got = Vec::new();
            raw_ip_frame_into(sm, dm, si, di, proto, &payload, &mut got);
            assert_eq!(got, legacy, "raw ip mismatch (proto {proto})");
        }
    }

    /// One fixed TCP and one fixed UDP template for the payload-shape
    /// properties below.
    fn fixed_templates() -> (TcpTemplate, UdpTemplate) {
        let tspec = TcpFrameSpec {
            src_mac: ethernet::MacAddr::from_host_id(3),
            dst_mac: ethernet::MacAddr::from_host_id(4),
            src_ip: ipv4::Addr::new(10, 1, 2, 3),
            dst_ip: ipv4::Addr::new(192, 168, 9, 7),
            src_port: 40123,
            dst_port: 80,
            seq: 0,
            ack: 0,
            flags: tcp::Flags::NONE,
            window: 8192,
            ttl: 64,
        };
        let uspec = UdpFrameSpec {
            src_mac: tspec.src_mac,
            dst_mac: tspec.dst_mac,
            src_ip: tspec.src_ip,
            dst_ip: tspec.dst_ip,
            src_port: 2049,
            dst_port: 997,
            ttl: 64,
        };
        (TcpTemplate::new(&tspec), UdpTemplate::new(&uspec))
    }

    #[test]
    fn split_payload_matches_concatenated_form() {
        // Every head-parity × fill-parity combination, plus carry-heavy
        // fills, must checksum and serialise exactly like the materialised
        // concatenation.
        let mut x = X(0x5EED_0F00_1234_ABCD);
        let (tt, ut) = fixed_templates();
        let heads: [&[u8]; 5] = [b"", b"X", b"HTTP/1.1 200 OK\r\n", b"ab", b"odd"];
        let fills = [0u8, b'x', 0xFF, 0x4E];
        let fill_lens = [0usize, 1, 2, 3, 57, 536, 1400];
        for head in heads {
            for &fill in &fills {
                for &fill_len in &fill_lens {
                    let split = SplitPayload { head, fill, fill_len };
                    let mut concat = head.to_vec();
                    concat.resize(head.len() + fill_len, fill);
                    let seq = x.next_u64() as u32;
                    let ack = x.next_u64() as u32;

                    let mut want = Vec::new();
                    tcp_frame_into(&tt, seq, ack, tcp::Flags::ACK, &concat, &mut want);
                    let mut got = Vec::new();
                    tcp_frame_split_into(&tt, seq, ack, tcp::Flags::ACK, split, usize::MAX, &mut got);
                    assert_eq!(got, want, "tcp split mismatch head={head:?} fill={fill} n={fill_len}");

                    let mut want = Vec::new();
                    udp_frame_into(&ut, &concat, &mut want);
                    let mut got = Vec::new();
                    udp_frame_split_into(&ut, split, usize::MAX, &mut got);
                    assert_eq!(got, want, "udp split mismatch head={head:?} fill={fill} n={fill_len}");
                }
            }
        }
    }

    #[test]
    fn limited_writer_emits_exactly_the_prefix_of_the_full_frame() {
        // For every limit from nothing to the whole frame (and one past
        // it), the limited writer's output is the first `limit` bytes of
        // the unlimited one: lengths, ident and both checksums describe
        // the logical payload, not what was kept.
        let mut x = X(0x6868_6868_0000_0001);
        let (tt, ut) = fixed_templates();
        for round in 0..24 {
            // Heads shorter and longer than the 14 payload bytes a
            // snaplen-68 TCP frame keeps; empty head and empty fill too.
            let head = random_payload(&mut x, [0, 1, 9, 14, 15, 40][round % 6]);
            let fill = x.next_u64() as u8;
            let fill_len = if round % 4 == 3 { 0 } else { x.below(400) as usize };
            let split = SplitPayload { head: &head, fill, fill_len };
            let seq = x.next_u64() as u32;
            let ack = x.next_u64() as u32;

            let mut full = Vec::new();
            tcp_frame_split_into(&tt, seq, ack, tcp::Flags::ACK, split, usize::MAX, &mut full);
            assert_eq!(full.len(), TCP_HDR_LEN + split.len());
            for limit in 0..=full.len() + 1 {
                let mut got = vec![0xEE];
                tcp_frame_split_into(&tt, seq, ack, tcp::Flags::ACK, split, limit, &mut got);
                assert_eq!(&got[1..], &full[..limit.min(full.len())], "tcp limit {limit}");
            }

            let mut full = Vec::new();
            udp_frame_split_into(&ut, split, usize::MAX, &mut full);
            assert_eq!(full.len(), UDP_HDR_LEN + split.len());
            for limit in 0..=full.len() + 1 {
                let mut got = vec![0xEE];
                udp_frame_split_into(&ut, split, limit, &mut got);
                assert_eq!(&got[1..], &full[..limit.min(full.len())], "udp limit {limit}");
            }
        }
    }

    #[test]
    fn frame_into_appends_after_existing_bytes() {
        // The into-forms append; earlier arena contents must be untouched.
        let spec = UdpFrameSpec {
            src_mac: ethernet::MacAddr::from_host_id(1),
            dst_mac: ethernet::MacAddr::from_host_id(2),
            src_ip: ipv4::Addr::new(10, 0, 0, 1),
            dst_ip: ipv4::Addr::new(10, 0, 0, 2),
            src_port: 1000,
            dst_port: 53,
            ttl: 64,
        };
        let mut out = vec![0xAA, 0xBB];
        udp_frame_into(&UdpTemplate::new(&spec), b"hi", &mut out);
        assert_eq!(&out[..2], &[0xAA, 0xBB]);
        assert_eq!(&out[2..], &udp_frame(&spec, b"hi")[..]);
    }

    #[test]
    fn retransmitted_tcp_frames_are_byte_identical() {
        let spec = TcpFrameSpec {
            src_mac: ethernet::MacAddr::from_host_id(1),
            dst_mac: ethernet::MacAddr::from_host_id(2),
            src_ip: ipv4::Addr::new(10, 0, 0, 1),
            dst_ip: ipv4::Addr::new(10, 0, 0, 2),
            src_port: 40000,
            dst_port: 80,
            seq: 1234,
            ack: 99,
            flags: tcp::Flags::ACK,
            window: 1000,
            ttl: 64,
        };
        assert_eq!(tcp_frame(&spec, b"data"), tcp_frame(&spec, b"data"));
    }
}
