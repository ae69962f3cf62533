//! ARP (IPv4-over-Ethernet) parsing and emission.
//!
//! ARP is one of the two dominant non-IP protocols in the LBNL traces
//! (paper Table 2: 5–27% of non-IP packets depending on dataset).

use crate::{be16, ethernet::MacAddr, ipv4, put_be16, Error, Result};

/// ARP packet length for Ethernet/IPv4 (fixed 28 bytes).
pub const PACKET_LEN: usize = 28;

crate::code_table! {
    /// ARP operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Operation: u16 {
        /// who-has.
        Request = 1,
        /// is-at.
        Reply = 2,
    }
    /// Any other opcode.
    else Other(u16);
    pub fn from_u16;
    pub fn to_u16;
}

/// A parsed Ethernet/IPv4 ARP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Operation (request/reply).
    pub operation: Operation,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: ipv4::Addr,
    /// Target hardware address.
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: ipv4::Addr,
}

impl Packet {
    /// Parse an ARP packet; only Ethernet/IPv4 ARP is supported.
    pub fn parse(buf: &[u8]) -> Result<Packet> {
        if buf.len() < PACKET_LEN {
            return Err(Error::Truncated);
        }
        if be16(buf, 0) != 1 || be16(buf, 2) != 0x0800 || buf[4] != 6 || buf[5] != 4 {
            return Err(Error::Unsupported);
        }
        let mac = |off: usize| {
            let mut m = [0u8; 6];
            if let Some(src) = buf.get(off..off.saturating_add(6)) {
                m.copy_from_slice(src);
            }
            MacAddr(m)
        };
        Ok(Packet {
            operation: Operation::from_u16(be16(buf, 6)),
            sender_mac: mac(8),
            sender_ip: ipv4::Addr(crate::be32(buf, 14)),
            target_mac: mac(18),
            target_ip: ipv4::Addr(crate::be32(buf, 24)),
        })
    }

    /// Emit the 28-byte wire form.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = vec![0u8; PACKET_LEN];
        put_be16(&mut buf, 0, 1); // Ethernet
        put_be16(&mut buf, 2, 0x0800); // IPv4
        buf[4] = 6;
        buf[5] = 4;
        put_be16(&mut buf, 6, self.operation.to_u16());
        buf[8..14].copy_from_slice(&self.sender_mac.0);
        buf[14..18].copy_from_slice(&self.sender_ip.octets());
        buf[18..24].copy_from_slice(&self.target_mac.0);
        buf[24..28].copy_from_slice(&self.target_ip.octets());
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = Packet {
            operation: Operation::Request,
            sender_mac: MacAddr([1, 2, 3, 4, 5, 6]),
            sender_ip: ipv4::Addr::new(10, 0, 0, 1),
            target_mac: MacAddr([0; 6]),
            target_ip: ipv4::Addr::new(10, 0, 0, 2),
        };
        let buf = p.emit();
        assert_eq!(Packet::parse(&buf).unwrap(), p);
    }

    #[test]
    fn unsupported_hardware_type() {
        let mut buf = Packet {
            operation: Operation::Reply,
            sender_mac: MacAddr([0; 6]),
            sender_ip: ipv4::Addr::new(0, 0, 0, 0),
            target_mac: MacAddr([0; 6]),
            target_ip: ipv4::Addr::new(0, 0, 0, 0),
        }
        .emit();
        buf[1] = 6; // token ring
        assert_eq!(Packet::parse(&buf).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn truncated() {
        assert_eq!(Packet::parse(&[0u8; 27]).unwrap_err(), Error::Truncated);
    }
}
