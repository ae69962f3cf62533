//! Novell IPX header parsing and emission.
//!
//! IPX is the dominant non-IP protocol in the LBNL traces (paper Table 2:
//! 32–80% of non-IP packets), mostly broadcast SAP/RIP chatter confined to
//! subnets. We parse enough of the header to classify and count it.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::{be16, bytes_at, put, put_be16, Error, Result};

/// IPX header length.
pub const HEADER_LEN: usize = 30;

crate::code_table! {
    /// IPX packet types.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PacketType: u8 {
        /// Unknown/any.
        Unknown = 0,
        /// RIP.
        Rip = 1,
        /// Echo.
        Echo = 2,
        /// SPX.
        Spx = 5,
        /// NCP.
        Ncp = 17,
        /// NetBIOS broadcast.
        NetBios = 20,
    }
    /// Other.
    else Other(u8);
    pub fn from_u8;
    pub fn to_u8;
}

/// An IPX network.node.socket address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// 32-bit network number.
    pub network: u32,
    /// 48-bit node (usually the MAC).
    pub node: [u8; 6],
    /// 16-bit socket.
    pub socket: u16,
}

/// A parsed IPX header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header<'a> {
    /// Packet length from the header (header + payload).
    pub length: u16,
    /// Packet type.
    pub ptype: PacketType,
    /// Destination address.
    pub dst: Addr,
    /// Source address.
    pub src: Addr,
    /// Captured payload.
    pub payload: &'a [u8],
}

fn addr_at(buf: &[u8], off: usize) -> Addr {
    Addr {
        network: crate::be32(buf, off),
        node: bytes_at(buf, off.saturating_add(4)),
        socket: be16(buf, off.saturating_add(10)),
    }
}

impl<'a> Header<'a> {
    /// Parse an IPX header; the checksum field must be 0xFFFF (IPX never
    /// checksums in practice) — anything else is treated as malformed.
    pub fn parse(buf: &'a [u8]) -> Result<Header<'a>> {
        let hdr = buf.first_chunk::<HEADER_LEN>().ok_or(Error::Truncated)?;
        if be16(hdr, 0) != 0xFFFF {
            return Err(Error::Malformed);
        }
        let length = be16(hdr, 2);
        if usize::from(length) < HEADER_LEN {
            return Err(Error::Malformed);
        }
        let end = core::cmp::min(buf.len(), usize::from(length));
        Ok(Header {
            length,
            ptype: PacketType::from_u8(hdr[5]),
            dst: addr_at(hdr, 6),
            src: addr_at(hdr, 18),
            payload: buf.get(HEADER_LEN..core::cmp::max(HEADER_LEN, end)).unwrap_or(&[]),
        })
    }
}

/// Emit an IPX packet.
pub fn emit(ptype: PacketType, src: Addr, dst: Addr, payload: &[u8]) -> Vec<u8> {
    let mut hdr = [0u8; HEADER_LEN];
    put_be16(&mut hdr, 0, 0xFFFF);
    put_be16(
        &mut hdr,
        2,
        u16::try_from(HEADER_LEN.saturating_add(payload.len())).unwrap_or(u16::MAX),
    );
    hdr[4] = 0; // transport control
    hdr[5] = ptype.to_u8();
    let put_addr = |buf: &mut [u8], off: usize, a: &Addr| {
        crate::put_be32(buf, off, a.network);
        put(buf, off.saturating_add(4), &a.node);
        put_be16(buf, off.saturating_add(10), a.socket);
    };
    put_addr(&mut hdr, 6, &dst);
    put_addr(&mut hdr, 18, &src);
    [hdr.as_slice(), payload].concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn an_addr(net: u32, sock: u16) -> Addr {
        Addr {
            network: net,
            node: [1, 2, 3, 4, 5, 6],
            socket: sock,
        }
    }

    #[test]
    fn roundtrip() {
        let buf = emit(PacketType::Unknown, an_addr(1, 0x452), an_addr(2, 0x4000), b"sap");
        let h = Header::parse(&buf).unwrap();
        assert_eq!(h.src.network, 1);
        assert_eq!(h.src.socket, 0x452);
        assert_eq!(h.dst.network, 2);
        assert_eq!(h.dst.socket, 0x4000);
        assert_eq!(h.payload, b"sap");
        assert_eq!(h.length as usize, HEADER_LEN + 3);
    }

    #[test]
    fn bad_checksum_field() {
        let mut buf = emit(PacketType::Rip, an_addr(1, 1), an_addr(2, 2), &[]);
        buf[0] = 0;
        assert_eq!(Header::parse(&buf).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated() {
        assert_eq!(Header::parse(&[0xFFu8; 29]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn type_codes_roundtrip() {
        for v in [0u8, 1, 2, 5, 17, 20, 4, 99] {
            assert_eq!(PacketType::from_u8(v).to_u8(), v);
        }
    }
}
