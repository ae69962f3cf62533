//! Ethernet II framing.
//!
//! The LBNL traces are Ethernet captures; the network-layer breakdown of the
//! paper's Table 2 (IP vs ARP vs IPX vs other) is driven entirely by the
//! EtherType / 802.3 length field parsed here.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::{be16, bytes_at, Error, Result};
use core::fmt;

/// Minimum Ethernet II header: dst(6) + src(6) + ethertype(2).
pub const HEADER_LEN: usize = 14;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// True if the group bit (least-significant bit of the first octet) is
    /// set — multicast and broadcast destinations.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for the all-ones broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Derive a locally-administered unicast MAC from a 32-bit host id.
    /// Used by the trace generator for stable per-host addresses.
    pub fn from_host_id(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x1B, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Values of the EtherType field relevant to the study, plus an escape for
/// everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// IPv6 (0x86DD).
    Ipv6,
    /// Novell IPX via EtherType 0x8137 (Ethernet II framing).
    Ipx,
    /// An IEEE 802.3 length field (value ≤ 1500): the payload is
    /// LLC/SNAP or raw-802.3 IPX ("other" in the paper's Table 2 unless the
    /// raw-IPX signature is present).
    Ieee8023Length(u16),
    /// Any other EtherType.
    Other(u16),
}

impl EtherType {
    /// Decode the 16-bit type/length field.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86DD => EtherType::Ipv6,
            0x8137 => EtherType::Ipx,
            x if x <= 1500 => EtherType::Ieee8023Length(x),
            x => EtherType::Other(x),
        }
    }

    /// Encode back to the wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Ipx => 0x8137,
            EtherType::Ieee8023Length(x) => x,
            EtherType::Other(x) => x,
        }
    }
}

/// A parsed Ethernet frame header (borrowing the payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Type/length field.
    pub ethertype: EtherType,
    /// Bytes after the 14-byte header (possibly capture-truncated).
    pub payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Parse an Ethernet II header.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Frame<'a>> {
        let (hdr, payload) = buf
            .split_first_chunk::<HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        Ok(Frame {
            dst: MacAddr(bytes_at(hdr, 0)),
            src: MacAddr(bytes_at(hdr, 6)),
            ethertype: EtherType::from_u16(be16(hdr, 12)),
            payload,
        })
    }
}

/// Emit an Ethernet II header followed by `payload` into a fresh vector.
pub fn emit(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN.saturating_add(payload.len()));
    buf.extend_from_slice(&dst.0);
    buf.extend_from_slice(&src.0);
    buf.extend_from_slice(&ethertype.to_u16().to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_emit_roundtrip() {
        let frame = emit(
            MacAddr::BROADCAST,
            MacAddr([1, 2, 3, 4, 5, 6]),
            EtherType::Arp,
            &[0xAA, 0xBB],
        );
        let f = Frame::parse(&frame).unwrap();
        assert!(f.dst.is_broadcast());
        assert_eq!(f.src, MacAddr([1, 2, 3, 4, 5, 6]));
        assert_eq!(f.ethertype, EtherType::Arp);
        assert_eq!(f.payload, &[0xAA, 0xBB]);
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(Frame::parse(&[0u8; 13]).unwrap_err(), Error::Truncated);
        assert!(Frame::parse(&[0u8; 14]).is_ok());
    }

    #[test]
    fn ethertype_classification() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x05DC), EtherType::Ieee8023Length(1500));
        assert_eq!(EtherType::from_u16(0x88CC), EtherType::Other(0x88CC));
        for v in [0x0800u16, 0x0806, 0x86DD, 0x8137, 100, 0x9999] {
            assert_eq!(EtherType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn multicast_bit() {
        assert!(MacAddr([0x01, 0, 0x5E, 0, 0, 1]).is_multicast());
        assert!(!MacAddr([0x02, 0, 0, 0, 0, 1]).is_multicast());
        assert!(MacAddr::BROADCAST.is_multicast());
    }

    #[test]
    fn host_id_macs_are_stable_unicast() {
        let a = MacAddr::from_host_id(77);
        assert_eq!(a, MacAddr::from_host_id(77));
        assert!(!a.is_multicast());
        assert_ne!(a, MacAddr::from_host_id(78));
    }

    #[test]
    fn display_format() {
        assert_eq!(
            MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]).to_string(),
            "de:ad:be:ef:00:01"
        );
    }
}
