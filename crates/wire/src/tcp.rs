//! TCP segment parsing and emission.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::{be16, be32, checksum, ipv4, put_be16, put_be32, Error, Result};

/// Minimum TCP header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// TCP flag bits. Combine with `|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags(pub u8);

impl Flags {
    /// No flags set.
    pub const NONE: Flags = Flags(0);
    /// FIN.
    pub const FIN: Flags = Flags(0x01);
    /// SYN.
    pub const SYN: Flags = Flags(0x02);
    /// RST.
    pub const RST: Flags = Flags(0x04);
    /// PSH.
    pub const PSH: Flags = Flags(0x08);
    /// ACK.
    pub const ACK: Flags = Flags(0x10);
    /// URG.
    pub const URG: Flags = Flags(0x20);

    /// True if every bit of `other` is set in `self`.
    pub const fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Convenience accessors.
    pub const fn syn(self) -> bool {
        self.contains(Flags::SYN)
    }
    /// True if ACK set.
    pub const fn ack(self) -> bool {
        self.contains(Flags::ACK)
    }
    /// True if FIN set.
    pub const fn fin(self) -> bool {
        self.contains(Flags::FIN)
    }
    /// True if RST set.
    pub const fn rst(self) -> bool {
        self.contains(Flags::RST)
    }
}

impl core::ops::BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        Flags(self.0 | rhs.0)
    }
}

impl core::fmt::Display for Flags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (bit, ch) in [
            (Flags::SYN, 'S'),
            (Flags::FIN, 'F'),
            (Flags::RST, 'R'),
            (Flags::PSH, 'P'),
            (Flags::ACK, 'A'),
            (Flags::URG, 'U'),
        ] {
            if self.contains(bit) {
                write!(f, "{ch}")?;
            }
        }
        Ok(())
    }
}

/// A parsed TCP segment header with its (possibly truncated) payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (valid when ACK flag set).
    pub ack: u32,
    /// Header length in bytes (20–60).
    pub header_len: u8,
    /// Flags.
    pub flags: Flags,
    /// Receive window.
    pub window: u16,
    /// Captured payload (may be truncated by snaplen).
    pub payload: &'a [u8],
}

impl<'a> Segment<'a> {
    /// Parse a TCP header. The header itself must be fully captured; payload
    /// truncation is tolerated (`wire_payload_len` on the IP layer carries
    /// the true size).
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Segment<'a>> {
        let hdr = buf
            .first_chunk::<MIN_HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        let data_off = usize::from(hdr[12] >> 4).saturating_mul(4);
        if data_off < MIN_HEADER_LEN {
            return Err(Error::Malformed);
        }
        // Under snaplen truncation the options may be cut; degrade to the
        // 20-byte header and an empty payload rather than failing, so that
        // header-only traces (D1/D2) still yield flags and ports.
        let (hdr_len, payload) = (data_off, buf.get(data_off..).unwrap_or(&[]));
        Ok(Segment {
            src_port: be16(hdr, 0),
            dst_port: be16(hdr, 2),
            seq: be32(hdr, 4),
            ack: be32(hdr, 8),
            header_len: u8::try_from(hdr_len).unwrap_or(u8::MAX),
            flags: Flags(hdr[13] & 0x3F),
            window: be16(hdr, 14),
            payload,
        })
    }
}

/// Emit a 20-byte TCP header + payload, checksummed against the given
/// IPv4 pseudo-header.
#[allow(clippy::too_many_arguments)]
pub fn emit(
    src_ip: ipv4::Addr,
    dst_ip: ipv4::Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: Flags,
    window: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut hdr = [0u8; MIN_HEADER_LEN];
    put_be16(&mut hdr, 0, src_port);
    put_be16(&mut hdr, 2, dst_port);
    put_be32(&mut hdr, 4, seq);
    put_be32(&mut hdr, 8, ack);
    hdr[12] = 5 << 4;
    hdr[13] = flags.0;
    put_be16(&mut hdr, 14, window);
    let mut buf = [hdr.as_slice(), payload].concat();
    let ck = checksum::transport(src_ip, dst_ip, 6, &buf);
    put_be16(&mut buf, 16, ck);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (ipv4::Addr, ipv4::Addr) {
        (ipv4::Addr::new(10, 0, 0, 1), ipv4::Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn roundtrip() {
        let (s, d) = addrs();
        let seg = emit(s, d, 12345, 80, 1000, 2000, Flags::SYN | Flags::ACK, 8192, b"xyz");
        let p = Segment::parse(&seg).unwrap();
        assert_eq!(p.src_port, 12345);
        assert_eq!(p.dst_port, 80);
        assert_eq!(p.seq, 1000);
        assert_eq!(p.ack, 2000);
        assert!(p.flags.syn() && p.flags.ack() && !p.flags.fin());
        assert_eq!(p.window, 8192);
        assert_eq!(p.payload, b"xyz");
    }

    #[test]
    fn checksum_valid_over_pseudo_header() {
        let (s, d) = addrs();
        let seg = emit(s, d, 1, 2, 0, 0, Flags::ACK, 100, b"data!");
        assert_eq!(checksum::transport(s, d, 6, &seg), 0);
    }

    #[test]
    fn truncated_options_degrade_gracefully() {
        let (s, d) = addrs();
        let mut seg = emit(s, d, 1, 2, 0, 0, Flags::SYN, 100, &[]);
        seg[12] = 8 << 4; // claim 32-byte header, but buffer is 20
        let p = Segment::parse(&seg).unwrap();
        assert!(p.flags.syn());
        assert!(p.payload.is_empty());
    }

    #[test]
    fn too_short_and_malformed() {
        assert_eq!(Segment::parse(&[0u8; 19]).unwrap_err(), Error::Truncated);
        let (s, d) = addrs();
        let mut seg = emit(s, d, 1, 2, 0, 0, Flags::NONE, 0, &[]);
        seg[12] = 2 << 4; // 8-byte header: malformed
        assert_eq!(Segment::parse(&seg).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn flags_display() {
        assert_eq!((Flags::SYN | Flags::ACK).to_string(), "SA");
        assert_eq!(Flags::RST.to_string(), "R");
        assert_eq!(Flags::NONE.to_string(), "");
    }
}
