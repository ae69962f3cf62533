//! UDP datagram parsing and emission.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::{be16, checksum, ipv4, put_be16, Error, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A parsed UDP datagram with its (possibly truncated) payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Datagram<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length field from the header (header + payload, authoritative even
    /// under snaplen truncation).
    pub length: u16,
    /// Captured payload bytes.
    pub payload: &'a [u8],
}

impl<'a> Datagram<'a> {
    /// Parse a UDP header, tolerating payload truncation.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Datagram<'a>> {
        let hdr = buf.first_chunk::<HEADER_LEN>().ok_or(Error::Truncated)?;
        let length = be16(hdr, 4);
        if usize::from(length) < HEADER_LEN {
            return Err(Error::Malformed);
        }
        let end = core::cmp::min(buf.len(), usize::from(length));
        Ok(Datagram {
            src_port: be16(hdr, 0),
            dst_port: be16(hdr, 2),
            length,
            payload: buf.get(HEADER_LEN..core::cmp::max(HEADER_LEN, end)).unwrap_or(&[]),
        })
    }

    /// On-the-wire payload length implied by the header.
    pub fn wire_payload_len(&self) -> usize {
        usize::from(self.length).saturating_sub(HEADER_LEN)
    }
}

/// Emit a UDP datagram, checksummed against the IPv4 pseudo-header.
pub fn emit(
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut hdr = [0u8; HEADER_LEN];
    put_be16(&mut hdr, 0, src_port);
    put_be16(&mut hdr, 2, dst_port);
    put_be16(
        &mut hdr,
        4,
        u16::try_from(HEADER_LEN.saturating_add(payload.len())).unwrap_or(u16::MAX),
    );
    let mut buf = [hdr.as_slice(), payload].concat();
    let ck = checksum::transport(src_ip, dst_ip, 17, &buf);
    // Per RFC 768 a computed checksum of zero is transmitted as all-ones.
    put_be16(&mut buf, 6, if ck == 0 { 0xFFFF } else { ck });
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let d = emit(
            ipv4::Addr::new(10, 0, 0, 1),
            ipv4::Addr::new(10, 0, 0, 53),
            5353,
            53,
            b"query",
        );
        let p = Datagram::parse(&d).unwrap();
        assert_eq!(p.src_port, 5353);
        assert_eq!(p.dst_port, 53);
        assert_eq!(p.payload, b"query");
        assert_eq!(p.wire_payload_len(), 5);
    }

    #[test]
    fn truncation_keeps_wire_length() {
        let d = emit(
            ipv4::Addr::new(1, 1, 1, 1),
            ipv4::Addr::new(2, 2, 2, 2),
            1,
            2,
            &[0u8; 200],
        );
        let p = Datagram::parse(&d[..50]).unwrap();
        assert_eq!(p.payload.len(), 42);
        assert_eq!(p.wire_payload_len(), 200);
    }

    #[test]
    fn malformed_length() {
        let mut d = emit(
            ipv4::Addr::new(1, 1, 1, 1),
            ipv4::Addr::new(2, 2, 2, 2),
            1,
            2,
            b"x",
        );
        d[4] = 0;
        d[5] = 4; // length < 8
        assert_eq!(Datagram::parse(&d).unwrap_err(), Error::Malformed);
        assert_eq!(Datagram::parse(&d[..7]).unwrap_err(), Error::Truncated);
    }
}
