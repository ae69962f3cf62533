//! IPv4 header parsing and emission.

use crate::{be16, checksum, put_be16, Error, Result};
use core::fmt;

/// Minimum IPv4 header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

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
        let shift = 32 - prefix_len as u32;
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
        if buf.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated);
        }
        if buf[0] >> 4 != 4 {
            return Err(Error::Malformed);
        }
        let ihl = usize::from(buf[0] & 0x0F).saturating_mul(4);
        if ihl < MIN_HEADER_LEN {
            return Err(Error::Malformed);
        }
        if buf.len() < ihl {
            return Err(Error::Truncated);
        }
        let total_len = be16(buf, 2);
        if (total_len as usize) < ihl {
            return Err(Error::Malformed);
        }
        let captured_payload_end = core::cmp::min(buf.len(), total_len as usize);
        let payload = buf
            .get(ihl..core::cmp::max(ihl, captured_payload_end))
            .unwrap_or(&[]);
        Ok(Header {
            header_len: u8::try_from(ihl).unwrap_or(u8::MAX),
            total_len,
            ident: be16(buf, 4),
            ttl: buf[8],
            protocol: Protocol::from_u8(buf[9]),
            src: Addr(crate::be32(buf, 12)),
            dst: Addr(crate::be32(buf, 16)),
            payload,
        })
    }

    /// On-the-wire payload length implied by the header (not capped by the
    /// capture snaplen). This is what byte-volume analyses must use.
    pub fn wire_payload_len(&self) -> usize {
        self.total_len as usize - self.header_len as usize
    }
}

/// Emit a 20-byte IPv4 header (checksummed) followed by `payload`.
pub fn emit(src: Addr, dst: Addr, protocol: Protocol, ttl: u8, ident: u16, payload: &[u8]) -> Vec<u8> {
    let total = MIN_HEADER_LEN + payload.len();
    assert!(total <= u16::MAX as usize, "IPv4 datagram too large");
    let mut buf = vec![0u8; total];
    buf[0] = 0x45; // version 4, IHL 5
    put_be16(&mut buf, 2, total as u16);
    put_be16(&mut buf, 4, ident);
    buf[8] = ttl;
    buf[9] = protocol.to_u8();
    buf[12..16].copy_from_slice(&src.octets());
    buf[16..20].copy_from_slice(&dst.octets());
    let ck = checksum::of(&buf[..MIN_HEADER_LEN]);
    put_be16(&mut buf, 10, ck);
    buf[MIN_HEADER_LEN..].copy_from_slice(payload);
    buf
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
