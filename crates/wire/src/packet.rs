//! Fully parsed packet representation used throughout the pipeline.
//!
//! [`Packet::parse`] dissects a captured Ethernet frame into owned layer
//! summaries plus a borrowed payload slice. Parsing never fails for traffic
//! that merely uses a protocol we do not model — such packets are classified
//! as [`NetLayer::OtherL3`] / [`Transport::Other`] so the broad breakdowns of
//! the paper's §3 can still count them.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::{arp, be16, be32, ethernet, icmp, ipv4, ipv6, ipx, tcp, udp, Error, Result};

/// The network-layer classification of a frame (paper Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetLayer {
    /// IPv4 with its parsed header fields.
    Ipv4 {
        /// Source address.
        src: ipv4::Addr,
        /// Destination address.
        dst: ipv4::Addr,
        /// Transport protocol number.
        protocol: ipv4::Protocol,
        /// Datagram total length (authoritative wire size).
        total_len: u16,
        /// IP TTL.
        ttl: u8,
        /// IP identification (used for duplicate detection).
        ident: u16,
    },
    /// IPv6 (rare in the traces; counted, not deeply analyzed).
    Ipv6 {
        /// Source address.
        src: ipv6::Addr,
        /// Destination address.
        dst: ipv6::Addr,
        /// Next-header value.
        next_header: u8,
    },
    /// ARP request/reply.
    Arp(arp::Packet),
    /// IPX datagram (type + sockets retained for SAP/RIP classification).
    Ipx {
        /// IPX packet type.
        ptype: ipx::PacketType,
        /// Source socket.
        src_socket: u16,
        /// Destination socket.
        dst_socket: u16,
    },
    /// Anything else above Ethernet ("other" row of Table 2).
    OtherL3(u16),
}

/// The transport-layer content of an IPv4 packet (paper Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// TCP segment.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Flags.
        flags: tcp::Flags,
        /// Receive window.
        window: u16,
        /// On-the-wire payload length (post-truncation arithmetic).
        wire_payload_len: u32,
    },
    /// UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// On-the-wire payload length.
        wire_payload_len: u32,
    },
    /// ICMP message.
    Icmp {
        /// Type.
        mtype: icmp::MessageType,
        /// Code.
        code: u8,
        /// Echo identifier.
        ident: u16,
        /// Echo sequence.
        seq: u16,
    },
    /// Another IP protocol (IGMP, ESP, PIM, GRE, 224, ...).
    Other(u8),
    /// No transport: non-IPv4 frames.
    None,
}

/// A dissected frame: link + network + transport summaries and the
/// application payload (borrowed from the capture buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<'a> {
    /// Destination MAC address.
    pub dst_mac: ethernet::MacAddr,
    /// Source MAC address.
    pub src_mac: ethernet::MacAddr,
    /// Network-layer summary.
    pub net: NetLayer,
    /// Transport-layer summary (IPv4 only).
    pub transport: Transport,
    /// Captured application payload (may be snaplen-truncated; the
    /// `wire_payload_len` fields carry true sizes).
    payload: &'a [u8],
}

// The common frame, field by field at constant positions: Ethernet II,
// then IPv4 with IHL 5, then the transport header — the layout SNIPPETS.md
// builds its SYN frame from (`PKT_IP4_OFFSET`, `PKT_TCP_OFFSET`).
const ETHERTYPE_AT: usize = 12;
const IP4_AT: usize = ethernet::HEADER_LEN;
const IP4_TOTAL_LEN_AT: usize = IP4_AT + 2;
const IP4_IDENT_AT: usize = IP4_AT + 4;
const IP4_FRAG_AT: usize = IP4_AT + 6;
const IP4_TTL_AT: usize = IP4_AT + 8;
const IP4_PROTO_AT: usize = IP4_AT + 9;
const IP4_SRC_AT: usize = IP4_AT + 12;
const IP4_DST_AT: usize = IP4_AT + 16;
const L4_AT: usize = IP4_AT + ipv4::MIN_HEADER_LEN;
const SRC_PORT_AT: usize = L4_AT;
const DST_PORT_AT: usize = L4_AT + 2;
const TCP_SEQ_AT: usize = L4_AT + 4;
const TCP_ACK_AT: usize = L4_AT + 8;
const TCP_DATA_OFF_AT: usize = L4_AT + 12;
const TCP_FLAGS_AT: usize = L4_AT + 13;
const TCP_WINDOW_AT: usize = L4_AT + 14;
const UDP_LEN_AT: usize = L4_AT + 4;
const UDP_PAYLOAD_AT: usize = L4_AT + udp::HEADER_LEN;
/// The bytes [`Packet::parse_fixed`] bounds-checks, once: through a
/// 20-byte TCP header (the UDP header is the first 8 of them).
const FIXED_LEN: usize = L4_AT + tcp::MIN_HEADER_LEN;
/// IPv4 version 4, IHL 5: no options.
const VERSION_IHL5: u8 = 0x45;
const IP4_HDR_BYTES: u16 = 20;
const UDP_HDR_BYTES: u16 = 8;
const TCP_HDR_BYTES: u16 = 20;
const _: () = assert!(
    IP4_HDR_BYTES as usize == ipv4::MIN_HEADER_LEN
        && UDP_HDR_BYTES as usize == udp::HEADER_LEN
        && TCP_HDR_BYTES as usize == tcp::MIN_HEADER_LEN
);
/// Smallest IPv4 total length that carries a whole TCP / UDP header.
const TCP_MIN_TOTAL: u16 = IP4_HDR_BYTES + TCP_HDR_BYTES;
const UDP_MIN_TOTAL: u16 = IP4_HDR_BYTES + UDP_HDR_BYTES;

impl<'a> Packet<'a> {
    /// Dissect a captured Ethernet frame.
    ///
    /// Fails only if the Ethernet header itself is truncated, or an inner
    /// header is malformed beyond classification; unknown protocols succeed
    /// with `OtherL3` / `Transport::Other`. A later fragment of an IPv4
    /// datagram (fragment offset ≠ 0) starts mid-payload, so its transport
    /// is `Transport::Other(protocol)`: its first bytes are not ports.
    ///
    /// The common frame is read at constant offsets; every other frame
    /// walks the layers, and the two agree on every input.
    #[inline]
    pub fn parse(frame: &'a [u8]) -> Result<Packet<'a>> {
        match Packet::parse_fixed(frame) {
            Some(pkt) => Ok(pkt),
            None => Packet::layered(frame),
        }
    }

    /// The common frame — Ethernet II, IPv4 without options and not a
    /// later fragment, then TCP (captured IP payload ≥ 20, data offset ≥
    /// 20) or UDP (captured IP payload ≥ 8, length ≥ 8) — read at constant
    /// offsets after one bounds check. `None` for every other frame.
    ///
    /// Always inlined: left to the inliner it stays a call in the frame
    /// loop, the packet comes back through memory, and most of the saving
    /// goes with it (`analyze_capture` over one D1 trace: 49.6 ns/packet
    /// out of line, 43.5 inlined, against 50.5 for the layer walk alone).
    #[inline(always)]
    fn parse_fixed(frame: &'a [u8]) -> Option<Packet<'a>> {
        let h = frame.first_chunk::<FIXED_LEN>()?;
        if be16(h, ETHERTYPE_AT) != 0x0800
            || h[IP4_AT] != VERSION_IHL5
            || be16(h, IP4_FRAG_AT) & ipv4::FRAG_OFFSET_MASK != 0
        {
            return None;
        }
        let total_len = be16(h, IP4_TOTAL_LEN_AT);
        // The datagram's captured end: the frame's, or the total length's
        // when the frame carries trailing padding.
        let ip_end = frame
            .len()
            .min(IP4_AT.saturating_add(usize::from(total_len)));
        let (protocol, transport, payload) = match h[IP4_PROTO_AT] {
            6 => {
                let data_off = h[TCP_DATA_OFF_AT] >> 4 << 2;
                if total_len < TCP_MIN_TOTAL || usize::from(data_off) < tcp::MIN_HEADER_LEN {
                    return None;
                }
                let transport = Transport::Tcp {
                    src_port: be16(h, SRC_PORT_AT),
                    dst_port: be16(h, DST_PORT_AT),
                    seq: be32(h, TCP_SEQ_AT),
                    ack: be32(h, TCP_ACK_AT),
                    flags: tcp::Flags(h[TCP_FLAGS_AT] & 0x3F),
                    window: be16(h, TCP_WINDOW_AT),
                    wire_payload_len: u32::from(
                        total_len
                            .saturating_sub(IP4_HDR_BYTES)
                            .saturating_sub(u16::from(data_off)),
                    ),
                };
                let start = L4_AT.saturating_add(usize::from(data_off));
                (
                    ipv4::Protocol::Tcp,
                    transport,
                    frame.get(start..ip_end).unwrap_or(&[]),
                )
            }
            17 => {
                let length = be16(h, UDP_LEN_AT);
                if total_len < UDP_MIN_TOTAL || length < UDP_HDR_BYTES {
                    return None;
                }
                let transport = Transport::Udp {
                    src_port: be16(h, SRC_PORT_AT),
                    dst_port: be16(h, DST_PORT_AT),
                    wire_payload_len: u32::from(length.saturating_sub(UDP_HDR_BYTES)),
                };
                let end = ip_end.min(L4_AT.saturating_add(usize::from(length)));
                (
                    ipv4::Protocol::Udp,
                    transport,
                    frame.get(UDP_PAYLOAD_AT..end).unwrap_or(&[]),
                )
            }
            _ => return None,
        };
        let mut dst_mac = [0u8; 6];
        let mut src_mac = [0u8; 6];
        dst_mac.copy_from_slice(&h[0..6]);
        src_mac.copy_from_slice(&h[6..12]);
        Some(Packet {
            dst_mac: ethernet::MacAddr(dst_mac),
            src_mac: ethernet::MacAddr(src_mac),
            net: NetLayer::Ipv4 {
                src: ipv4::Addr(be32(h, IP4_SRC_AT)),
                dst: ipv4::Addr(be32(h, IP4_DST_AT)),
                protocol,
                total_len,
                ttl: h[IP4_TTL_AT],
                ident: be16(h, IP4_IDENT_AT),
            },
            transport,
            payload,
        })
    }

    /// The layer walk: Ethernet, then whichever network and transport
    /// headers the frame declares, each parsed by its own module. Handles
    /// every frame, and is the reference [`Packet::parse_fixed`] is held
    /// to.
    fn layered(frame: &'a [u8]) -> Result<Packet<'a>> {
        let eth = ethernet::Frame::parse(frame)?;
        let mut payload: &[u8] = &[];
        let mut transport = Transport::None;
        let net = match eth.ethertype {
            ethernet::EtherType::Ipv4 => {
                let ip = ipv4::Header::parse(eth.payload)?;
                match ip.protocol {
                    protocol if ip.frag_offset != 0 => {
                        transport = Transport::Other(protocol.to_u8())
                    }
                    ipv4::Protocol::Tcp => match tcp::Segment::parse(ip.payload) {
                        Ok(seg) => {
                            payload = seg.payload;
                            let hdr = seg.header_len as usize;
                            transport = Transport::Tcp {
                                src_port: seg.src_port,
                                dst_port: seg.dst_port,
                                seq: seg.seq,
                                ack: seg.ack,
                                flags: seg.flags,
                                window: seg.window,
                                wire_payload_len: u32::try_from(
                                    ip.wire_payload_len().saturating_sub(hdr),
                                )
                                .unwrap_or(u32::MAX),
                            };
                        }
                        Err(Error::Truncated) => transport = Transport::Other(6),
                        Err(e) => return Err(e),
                    },
                    ipv4::Protocol::Udp => match udp::Datagram::parse(ip.payload) {
                        Ok(dg) => {
                            payload = dg.payload;
                            transport = Transport::Udp {
                                src_port: dg.src_port,
                                dst_port: dg.dst_port,
                                wire_payload_len: u32::try_from(dg.wire_payload_len())
                                    .unwrap_or(u32::MAX),
                            };
                        }
                        Err(Error::Truncated) => transport = Transport::Other(17),
                        Err(e) => return Err(e),
                    },
                    ipv4::Protocol::Icmp => match icmp::Message::parse(ip.payload) {
                        Ok(m) => {
                            payload = m.payload;
                            transport = Transport::Icmp {
                                mtype: m.mtype,
                                code: m.code,
                                ident: m.ident,
                                seq: m.seq,
                            };
                        }
                        Err(Error::Truncated) => transport = Transport::Other(1),
                        Err(e) => return Err(e),
                    },
                    other => transport = Transport::Other(other.to_u8()),
                }
                NetLayer::Ipv4 {
                    src: ip.src,
                    dst: ip.dst,
                    protocol: ip.protocol,
                    total_len: ip.total_len,
                    ttl: ip.ttl,
                    ident: ip.ident,
                }
            }
            ethernet::EtherType::Arp => match arp::Packet::parse(eth.payload) {
                Ok(a) => NetLayer::Arp(a),
                Err(_) => NetLayer::OtherL3(0x0806),
            },
            ethernet::EtherType::Ipx => match ipx::Header::parse(eth.payload) {
                Ok(x) => NetLayer::Ipx {
                    ptype: x.ptype,
                    src_socket: x.src.socket,
                    dst_socket: x.dst.socket,
                },
                Err(_) => NetLayer::OtherL3(0x8137),
            },
            ethernet::EtherType::Ipv6 => match ipv6::Header::parse(eth.payload) {
                Ok(v6) => NetLayer::Ipv6 {
                    src: v6.src,
                    dst: v6.dst,
                    next_header: v6.next_header,
                },
                Err(_) => NetLayer::OtherL3(0x86DD),
            },
            ethernet::EtherType::Ieee8023Length(_) => {
                // Raw 802.3 IPX starts with FF FF (the IPX "checksum").
                if eth.payload.starts_with(&[0xFF, 0xFF]) {
                    match ipx::Header::parse(eth.payload) {
                        Ok(x) => NetLayer::Ipx {
                            ptype: x.ptype,
                            src_socket: x.src.socket,
                            dst_socket: x.dst.socket,
                        },
                        Err(_) => NetLayer::OtherL3(0),
                    }
                } else {
                    NetLayer::OtherL3(0)
                }
            }
            ethernet::EtherType::Other(t) => NetLayer::OtherL3(t),
        };
        Ok(Packet {
            dst_mac: eth.dst,
            src_mac: eth.src,
            net,
            transport,
            payload,
        })
    }

    /// Captured application payload bytes.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// IPv4 addresses if this is an IPv4 packet.
    #[inline]
    pub fn ipv4_addrs(&self) -> Option<(ipv4::Addr, ipv4::Addr)> {
        match self.net {
            NetLayer::Ipv4 { src, dst, .. } => Some((src, dst)),
            _ => None,
        }
    }

    /// TCP summary if this is a TCP packet.
    #[inline]
    pub fn tcp(&self) -> Option<TcpSummary> {
        match self.transport {
            Transport::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                wire_payload_len,
            } => Some(TcpSummary {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                wire_payload_len,
            }),
            _ => None,
        }
    }

    /// UDP (src_port, dst_port, wire_payload_len) if this is a UDP packet.
    #[inline]
    pub fn udp(&self) -> Option<(u16, u16, u32)> {
        match self.transport {
            Transport::Udp {
                src_port,
                dst_port,
                wire_payload_len,
            } => Some((src_port, dst_port, wire_payload_len)),
            _ => None,
        }
    }

    /// True if the destination is an IPv4/Ethernet multicast or broadcast.
    #[inline]
    pub fn is_multicast(&self) -> bool {
        match &self.net {
            NetLayer::Ipv4 { dst, .. } => dst.is_multicast() || dst.is_broadcast(),
            NetLayer::Ipv6 { dst, .. } => dst.is_multicast(),
            _ => self.dst_mac.is_multicast(),
        }
    }

    /// Transport payload length as seen on the wire (0 for non-TCP/UDP).
    #[inline]
    pub fn wire_payload_len(&self) -> u32 {
        match self.transport {
            Transport::Tcp {
                wire_payload_len, ..
            }
            | Transport::Udp {
                wire_payload_len, ..
            } => wire_payload_len,
            _ => 0,
        }
    }
}

/// Owned copy of the TCP fields of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSummary {
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
    /// True payload length on the wire.
    pub wire_payload_len: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    #[test]
    fn parse_udp_frame() {
        let frame = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(1),
                dst_mac: ethernet::MacAddr::from_host_id(2),
                src_ip: ipv4::Addr::new(10, 0, 0, 1),
                dst_ip: ipv4::Addr::new(10, 0, 0, 2),
                src_port: 1024,
                dst_port: 53,
                ttl: 64,
            },
            b"dnsq",
        );
        let p = Packet::parse(&frame).unwrap();
        assert_eq!(p.udp(), Some((1024, 53, 4)));
        assert_eq!(p.payload(), b"dnsq");
        assert!(!p.is_multicast());
    }

    #[test]
    fn parse_arp_frame() {
        let a = arp::Packet {
            operation: arp::Operation::Request,
            sender_mac: ethernet::MacAddr::from_host_id(9),
            sender_ip: ipv4::Addr::new(10, 0, 0, 9),
            target_mac: ethernet::MacAddr([0; 6]),
            target_ip: ipv4::Addr::new(10, 0, 0, 1),
        };
        let frame = ethernet::emit(
            ethernet::MacAddr::BROADCAST,
            a.sender_mac,
            ethernet::EtherType::Arp,
            &a.emit(),
        );
        let p = Packet::parse(&frame).unwrap();
        assert!(matches!(p.net, NetLayer::Arp(ref pa) if pa.operation == arp::Operation::Request));
        assert!(p.is_multicast());
        assert_eq!(p.transport, Transport::None);
    }

    #[test]
    fn parse_raw_8023_ipx() {
        let ipx_pkt = ipx::emit(
            ipx::PacketType::Rip,
            ipx::Addr { network: 1, node: [1; 6], socket: 0x453 },
            ipx::Addr { network: 2, node: [2; 6], socket: 0x453 },
            &[0u8; 10],
        );
        let frame = ethernet::emit(
            ethernet::MacAddr::BROADCAST,
            ethernet::MacAddr::from_host_id(5),
            ethernet::EtherType::Ieee8023Length(ipx_pkt.len() as u16),
            &ipx_pkt,
        );
        let p = Packet::parse(&frame).unwrap();
        assert!(matches!(p.net, NetLayer::Ipx { ptype: ipx::PacketType::Rip, .. }));
    }

    #[test]
    fn snaplen68_tcp_keeps_flags_and_wire_len() {
        let frame = build::tcp_frame(
            &build::TcpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(1),
                dst_mac: ethernet::MacAddr::from_host_id(2),
                src_ip: ipv4::Addr::new(10, 0, 0, 1),
                dst_ip: ipv4::Addr::new(10, 0, 0, 2),
                src_port: 40000,
                dst_port: 445,
                seq: 100,
                ack: 1,
                flags: tcp::Flags::ACK | tcp::Flags::PSH,
                window: 5000,
                ttl: 64,
            },
            &[0xAB; 1000],
        );
        let truncated = &frame[..68];
        let p = Packet::parse(truncated).unwrap();
        let t = p.tcp().unwrap();
        assert_eq!(t.dst_port, 445);
        assert!(t.flags.ack());
        assert_eq!(t.wire_payload_len, 1000);
        assert_eq!(p.payload().len(), 68 - 14 - 20 - 20);
    }

    #[test]
    fn unknown_protocols_classified_not_rejected() {
        // GRE-in-IP frame.
        let ip = ipv4::emit(
            ipv4::Addr::new(1, 1, 1, 1),
            ipv4::Addr::new(2, 2, 2, 2),
            ipv4::Protocol::Gre,
            64,
            0,
            &[0u8; 4],
        );
        let frame = ethernet::emit(
            ethernet::MacAddr::from_host_id(1),
            ethernet::MacAddr::from_host_id(2),
            ethernet::EtherType::Ipv4,
            &ip,
        );
        let p = Packet::parse(&frame).unwrap();
        assert_eq!(p.transport, Transport::Other(47));
        // Unknown EtherType.
        let frame = ethernet::emit(
            ethernet::MacAddr::from_host_id(1),
            ethernet::MacAddr::from_host_id(2),
            ethernet::EtherType::Other(0x88CC),
            &[],
        );
        assert_eq!(Packet::parse(&frame).unwrap().net, NetLayer::OtherL3(0x88CC));
    }

    /// The second (and last) fragment of a UDP datagram whose first
    /// fragment carried `first` bytes of it: a hand-built IPv4 header with
    /// fragment offset `first / 8` over the datagram's remaining bytes.
    fn second_fragment(src: ipv4::Addr, dst: ipv4::Addr, datagram: &[u8], first: usize) -> Vec<u8> {
        let mut ip = ipv4::emit(
            src,
            dst,
            ipv4::Protocol::Udp,
            64,
            0x4242,
            &datagram[first..],
        );
        ip[6..8].copy_from_slice(&((first / 8) as u16).to_be_bytes());
        ethernet::emit(
            ethernet::MacAddr::from_host_id(2),
            ethernet::MacAddr::from_host_id(1),
            ethernet::EtherType::Ipv4,
            &ip,
        )
    }

    #[test]
    fn later_fragments_carry_no_transport_header() {
        let (src, dst) = (ipv4::Addr::new(10, 0, 0, 1), ipv4::Addr::new(10, 0, 0, 2));
        // An 8 KB NFS read reply over UDP; the bytes where the second
        // fragment starts would read as ports 0x4141 and a valid length.
        let datagram = udp::emit(src, dst, 2049, 800, &[0x41; 8192]);
        let frame = second_fragment(src, dst, &datagram, 1480);
        for p in [
            Packet::parse(&frame).unwrap(),
            Packet::layered(&frame).unwrap(),
        ] {
            assert_eq!(p.transport, Transport::Other(17));
            assert!(matches!(
                p.net,
                NetLayer::Ipv4 {
                    protocol: ipv4::Protocol::Udp,
                    ..
                }
            ));
            assert_eq!(p.udp(), None);
            assert!(p.payload().is_empty());
        }
        // A first fragment (more-fragments set, offset 0) keeps its ports.
        let mut first = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(1),
                dst_mac: ethernet::MacAddr::from_host_id(2),
                src_ip: src,
                dst_ip: dst,
                src_port: 2049,
                dst_port: 800,
                ttl: 64,
            },
            &[0x41; 1472],
        );
        first[20] = 0x20;
        let p = Packet::parse(&first).unwrap();
        assert_eq!(p.udp(), Some((2049, 800, 1472)));
        assert_eq!(p, Packet::layered(&first).unwrap());
    }

    /// Every frame shape the builders make, at payload lengths either side
    /// of the fixed path's edges (54 bytes of headers; 14 bytes of TCP
    /// payload under a snaplen of 68): the common frames — every TCP frame,
    /// the UDP frames of 54 bytes or more — then the rest.
    fn built_frames() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let (sm, dm) = (
            ethernet::MacAddr::from_host_id(1),
            ethernet::MacAddr::from_host_id(2),
        );
        let (si, di) = (
            ipv4::Addr::new(10, 0, 0, 1),
            ipv4::Addr::new(192, 168, 1, 9),
        );
        let tcp = build::TcpFrameSpec {
            src_mac: sm,
            dst_mac: dm,
            src_ip: si,
            dst_ip: di,
            src_port: 40_000,
            dst_port: 80,
            seq: 0xDEAD_BEEF,
            ack: 7,
            flags: tcp::Flags::ACK | tcp::Flags::PSH,
            window: 512,
            ttl: 64,
        };
        let udp = build::UdpFrameSpec {
            src_mac: sm,
            dst_mac: dm,
            src_ip: si,
            dst_ip: di,
            src_port: 53,
            dst_port: 5353,
            ttl: 9,
        };
        let (mut common, mut rest) = (Vec::new(), Vec::new());
        for len in [0usize, 1, 11, 12, 13, 14, 15, 40, 333] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            common.push(build::tcp_frame(&tcp, &payload));
            let udp = build::udp_frame(&udp, &payload);
            if udp.len() >= FIXED_LEN {
                common.push(udp)
            } else {
                rest.push(udp)
            }
            rest.push(build::icmp_frame(
                sm,
                dm,
                si,
                di,
                icmp::MessageType::EchoRequest,
                3,
                4,
                &payload,
            ));
            for proto in [6, 17, 47] {
                rest.push(build::raw_ip_frame(sm, dm, si, di, proto, &payload));
            }
        }
        (common, rest)
    }

    #[test]
    fn fixed_offsets_agree_with_the_layer_walk() {
        let same = |f: &[u8]| assert_eq!(Packet::parse(f), Packet::layered(f), "frame {f:02x?}");
        let (common, rest) = built_frames();
        for f in &common {
            assert!(
                Packet::parse_fixed(f).is_some(),
                "a common frame walked the layers: {f:02x?}"
            );
        }
        let frames = [common, rest].concat();
        for f in &frames {
            for cut in 0..=f.len() {
                same(&f[..cut]);
            }
        }
        // Seeded mutations of the header bytes 12..=54, aimed at the fields
        // the fixed path tests or reads lengths from, each value drawn
        // around its edges half the time.
        let mut x = crate::test_rng::X(0x0F1C_ED0F_F5E7_5EED);
        let mut fixed = 0;
        for _ in 0..120_000 {
            let mut f = frames[x.below(frames.len() as u64) as usize].clone();
            for _ in 0..1 + x.below(3) {
                let any = x.next_u64() as u16;
                let mut pick = |edges: &[u16]| {
                    if x.below(2) == 0 {
                        edges[x.below(edges.len() as u64) as usize]
                    } else {
                        any
                    }
                };
                // (first byte, value, whether the field is two bytes wide)
                let (at, value, wide) = match any % 8 {
                    0 => (12, pick(&[0x0800, 0x0806, 0x86DD, 0x8137, 1500]), true),
                    1 => (14, pick(&[0x45, 0x44, 0x46, 0x4F, 0x55, 0x05]), false),
                    2 => (
                        16,
                        pick(&[0, 19, 20, 27, 28, 39, 40, 41, 54, u16::MAX]),
                        true,
                    ),
                    3 => (20, pick(&[0, 1, 0x2000, 0x4000, 0x1FFF, 185]), true),
                    4 => (23, pick(&[1, 6, 17, 47]), false),
                    5 => (46, pick(&[0x00, 0x40, 0x50, 0x60, 0xF0]), false),
                    6 => (38, pick(&[0, 7, 8, 9, 20, u16::MAX]), true),
                    _ => (12 + (any >> 8) as usize % 43, pick(&[0, 0xFF]), false),
                };
                let bytes = value.to_be_bytes();
                let field = if wide { &bytes[..] } else { &bytes[1..] };
                for (i, b) in field.iter().enumerate() {
                    if let Some(slot) = f.get_mut(at + i) {
                        *slot = *b;
                    }
                }
            }
            if x.below(4) == 0 {
                f.truncate(x.below(f.len() as u64 + 1) as usize);
            }
            fixed += usize::from(Packet::parse_fixed(&f).is_some());
            same(&f);
        }
        // The mutations reach both sides of the fixed path's checks.
        assert!(
            (5_000..110_000).contains(&fixed),
            "{fixed} of 120000 mutated frames took the fixed path"
        );
    }

    #[test]
    fn multicast_ipv4_detected() {
        let frame = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(1),
                dst_mac: ethernet::MacAddr([0x01, 0x00, 0x5E, 0, 0, 1]),
                src_ip: ipv4::Addr::new(10, 0, 0, 1),
                dst_ip: ipv4::Addr::new(239, 1, 1, 1),
                src_port: 5000,
                dst_port: 5004,
                ttl: 16,
            },
            &[0u8; 100],
        );
        assert!(Packet::parse(&frame).unwrap().is_multicast());
    }
}
