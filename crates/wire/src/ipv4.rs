//! IPv4 header parsing and emission.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::{be16, checksum, put, put_be16, Error, Result};
use core::fmt;

/// Minimum IPv4 header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// The fragment-offset bits of the flags/fragment-offset word.
pub const FRAG_OFFSET_MASK: u16 = 0x1FFF;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u32);

impl Addr {
    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four octets in network order.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Class-D multicast range 224.0.0.0/4.
    pub const fn is_multicast(self) -> bool {
        self.0 >> 28 == 0b1110
    }

    /// Limited broadcast 255.255.255.255.
    pub const fn is_broadcast(self) -> bool {
        self.0 == u32::MAX
    }

    /// True if this address falls inside `net/prefix_len`.
    pub const fn in_prefix(self, net: Addr, prefix_len: u8) -> bool {
        if prefix_len == 0 {
            return true;
        }
        let shift = 32u32.saturating_sub(prefix_len as u32);
        (self.0 >> shift) == (net.0 >> shift)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

crate::code_table! {
    /// IP protocol numbers seen in the traces (paper Table 3 and §3).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Protocol: u8 {
        /// ICMP.
        Icmp = 1,
        /// IGMP.
        Igmp = 2,
        /// TCP.
        Tcp = 6,
        /// UDP.
        Udp = 17,
        /// GRE.
        Gre = 47,
        /// IPSEC ESP.
        Esp = 50,
        /// PIM.
        Pim = 103,
    }
    /// Anything else, including the unidentified protocol 224 the paper notes.
    else Other(u8);
    pub fn from_u8;
    pub fn to_u8;
}

/// A parsed IPv4 header with its (possibly truncated) payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header<'a> {
    /// Header length in bytes (20–60).
    pub header_len: u8,
    /// Total datagram length from the header — the authoritative on-the-wire
    /// size even when the capture truncated the payload.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Fragment offset, in 8-byte units (the flags are not kept). Only a
    /// datagram's first fragment — offset 0 — starts with its transport
    /// header; a later one starts mid-payload.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Captured payload bytes (may be shorter than `total_len - header_len`
    /// under snaplen truncation).
    pub payload: &'a [u8],
}

impl<'a> Header<'a> {
    /// Parse an IPv4 header. Tolerates truncated payloads but rejects
    /// truncated or structurally invalid headers.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Header<'a>> {
        let hdr = buf
            .first_chunk::<MIN_HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        if hdr[0] >> 4 != 4 {
            return Err(Error::Malformed);
        }
        let ihl = usize::from(hdr[0] & 0x0F).saturating_mul(4);
        if ihl < MIN_HEADER_LEN {
            return Err(Error::Malformed);
        }
        if buf.len() < ihl {
            return Err(Error::Truncated);
        }
        let total_len = be16(hdr, 2);
        if usize::from(total_len) < ihl {
            return Err(Error::Malformed);
        }
        let captured_payload_end = core::cmp::min(buf.len(), usize::from(total_len));
        let payload = buf
            .get(ihl..core::cmp::max(ihl, captured_payload_end))
            .unwrap_or(&[]);
        Ok(Header {
            header_len: u8::try_from(ihl).unwrap_or(u8::MAX),
            total_len,
            ident: be16(hdr, 4),
            frag_offset: be16(hdr, 6) & FRAG_OFFSET_MASK,
            ttl: hdr[8],
            protocol: Protocol::from_u8(hdr[9]),
            src: Addr(crate::be32(hdr, 12)),
            dst: Addr(crate::be32(hdr, 16)),
            payload,
        })
    }

    /// On-the-wire payload length implied by the header (not capped by the
    /// capture snaplen). This is what byte-volume analyses must use.
    pub fn wire_payload_len(&self) -> usize {
        usize::from(self.total_len).saturating_sub(usize::from(self.header_len))
    }
}

/// Emit a 20-byte IPv4 header (checksummed) followed by `payload`.
pub fn emit(src: Addr, dst: Addr, protocol: Protocol, ttl: u8, ident: u16, payload: &[u8]) -> Vec<u8> {
    let total = u16::try_from(MIN_HEADER_LEN.saturating_add(payload.len()));
    assert!(total.is_ok(), "IPv4 datagram too large");
    let mut hdr = [0u8; MIN_HEADER_LEN];
    hdr[0] = 0x45; // version 4, IHL 5
    put_be16(&mut hdr, 2, total.unwrap_or(u16::MAX));
    put_be16(&mut hdr, 4, ident);
    hdr[8] = ttl;
    hdr[9] = protocol.to_u8();
    put(&mut hdr, 12, &src.octets());
    put(&mut hdr, 16, &dst.octets());
    let ck = checksum::of(&hdr);
    put_be16(&mut hdr, 10, ck);
    [hdr.as_slice(), payload].concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = emit(
            Addr::new(10, 1, 2, 3),
            Addr::new(192, 168, 0, 1),
            Protocol::Udp,
            64,
            0x1234,
            b"hello",
        );
        let h = Header::parse(&p).unwrap();
        assert_eq!(h.src, Addr::new(10, 1, 2, 3));
        assert_eq!(h.dst, Addr::new(192, 168, 0, 1));
        assert_eq!(h.protocol, Protocol::Udp);
        assert_eq!(h.ttl, 64);
        assert_eq!(h.ident, 0x1234);
        assert_eq!(h.payload, b"hello");
        assert_eq!(h.wire_payload_len(), 5);
        assert!(checksum::verify(&p[..20]));
    }

    #[test]
    fn truncated_payload_reports_wire_len() {
        let p = emit(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), Protocol::Tcp, 64, 0, &[0u8; 100]);
        // Simulate snaplen 68 on the IP layer (68 - 14 ethernet = 54 bytes).
        let h = Header::parse(&p[..54]).unwrap();
        assert_eq!(h.payload.len(), 34);
        assert_eq!(h.wire_payload_len(), 100);
    }

    #[test]
    fn bad_version_and_lengths() {
        let mut p = emit(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), Protocol::Tcp, 64, 0, &[]);
        p[0] = 0x65;
        assert_eq!(Header::parse(&p).unwrap_err(), Error::Malformed);
        p[0] = 0x41; // IHL 4 -> 16 bytes, invalid
        assert_eq!(Header::parse(&p).unwrap_err(), Error::Malformed);
        assert_eq!(Header::parse(&[0u8; 10]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn fragment_offset_ignores_the_flags() {
        let mut p = emit(
            Addr::new(1, 1, 1, 1),
            Addr::new(2, 2, 2, 2),
            Protocol::Udp,
            64,
            7,
            &[0u8; 16],
        );
        assert_eq!(Header::parse(&p).unwrap().frag_offset, 0);
        // More-fragments set, offset 0: a first fragment.
        put_be16(&mut p, 6, 0x2000);
        assert_eq!(Header::parse(&p).unwrap().frag_offset, 0);
        // Don't-fragment plus offset 185 (1480 bytes in).
        put_be16(&mut p, 6, 0x4000 | 185);
        assert_eq!(Header::parse(&p).unwrap().frag_offset, 185);
    }

    #[test]
    fn total_len_shorter_than_header_is_malformed() {
        let mut p = emit(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2), Protocol::Tcp, 64, 0, &[]);
        p[2] = 0;
        p[3] = 10;
        assert_eq!(Header::parse(&p).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn multicast_and_prefix() {
        assert!(Addr::new(224, 0, 0, 1).is_multicast());
        assert!(Addr::new(239, 255, 1, 1).is_multicast());
        assert!(!Addr::new(223, 255, 255, 255).is_multicast());
        assert!(Addr::new(255, 255, 255, 255).is_broadcast());
        let net = Addr::new(131, 243, 0, 0);
        assert!(Addr::new(131, 243, 7, 9).in_prefix(net, 16));
        assert!(!Addr::new(131, 244, 7, 9).in_prefix(net, 16));
        assert!(Addr::new(8, 8, 8, 8).in_prefix(net, 0));
    }

    #[test]
    fn protocol_codes_roundtrip() {
        for v in [1u8, 2, 6, 17, 47, 50, 103, 224, 255] {
            assert_eq!(Protocol::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn display() {
        assert_eq!(Addr::new(131, 243, 1, 99).to_string(), "131.243.1.99");
    }
}
