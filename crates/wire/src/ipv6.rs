//! Minimal IPv6 header parsing.
//!
//! The 2004–05 LBNL traces contain essentially no IPv6 *traffic* (though
//! 17–25% of DNS queries ask for AAAA records, §5.1.3); we parse the fixed
//! header so such packets are classified rather than dropped as malformed.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::{be16, bytes_at, Error, Result};
use core::fmt;

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// A 128-bit IPv6 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub [u8; 16]);

impl Addr {
    /// Multicast (ff00::/8).
    pub fn is_multicast(&self) -> bool {
        self.0[0] == 0xFF
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, pair) in self.0.as_chunks::<2>().0.iter().enumerate() {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{:x}", u16::from_be_bytes(*pair))?;
        }
        Ok(())
    }
}

/// A parsed fixed IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header<'a> {
    /// Payload length field.
    pub payload_len: u16,
    /// Next-header protocol number.
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Captured payload.
    pub payload: &'a [u8],
}

impl<'a> Header<'a> {
    /// Parse the fixed header.
    pub fn parse(buf: &'a [u8]) -> Result<Header<'a>> {
        let (hdr, payload) = buf
            .split_first_chunk::<HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        if hdr[0] >> 4 != 6 {
            return Err(Error::Malformed);
        }
        Ok(Header {
            payload_len: be16(hdr, 4),
            next_header: hdr[6],
            hop_limit: hdr[7],
            src: Addr(bytes_at(hdr, 8)),
            dst: Addr(bytes_at(hdr, 24)),
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal() {
        let mut buf = vec![0u8; 44];
        buf[0] = 0x60;
        buf[4] = 0;
        buf[5] = 4;
        buf[6] = 17; // UDP
        buf[7] = 64;
        buf[8] = 0xFE;
        buf[24] = 0xFF;
        let h = Header::parse(&buf).unwrap();
        assert_eq!(h.payload_len, 4);
        assert_eq!(h.next_header, 17);
        assert!(h.dst.is_multicast());
        assert!(!h.src.is_multicast());
        assert_eq!(h.payload.len(), 4);
    }

    #[test]
    fn rejects_wrong_version_and_short() {
        let mut buf = vec![0u8; 40];
        buf[0] = 0x40;
        assert_eq!(Header::parse(&buf).unwrap_err(), Error::Malformed);
        assert_eq!(Header::parse(&buf[..39]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn display() {
        let a = Addr([0xfe, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(a.to_string(), "fe80:0:0:0:0:0:0:1");
    }
}
