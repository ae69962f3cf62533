//! # ent-wire — wire-format packet parsing and construction
//!
//! Typed, zero-copy *views* over byte slices for the protocols observed in the
//! LBNL enterprise traces of Pang et al. (IMC 2005): Ethernet II, ARP, IPX,
//! IPv4, IPv6 (headers only), TCP, UDP and ICMP — plus owned *builders* used by
//! the synthetic trace generator, and a fully parsed [`Packet`] representation
//! used by the analysis pipeline.
//!
//! The design follows the smoltcp idiom: each protocol module exposes a
//! view wrapper whose accessors read fields directly from the underlying
//! buffer after a single up-front length check, and builders that emit the
//! same format. No `unsafe` is used anywhere in this crate.
//!
//! ```
//! use ent_wire::{ethernet, ipv4, tcp, Packet};
//!
//! // Build a TCP/IPv4/Ethernet frame, then parse it back.
//! let payload = b"GET / HTTP/1.1\r\n\r\n";
//! let frame = ent_wire::build::tcp_frame(
//!     &ent_wire::build::TcpFrameSpec {
//!         src_mac: ethernet::MacAddr([0, 1, 2, 3, 4, 5]),
//!         dst_mac: ethernet::MacAddr([6, 7, 8, 9, 10, 11]),
//!         src_ip: ipv4::Addr::new(10, 0, 1, 2),
//!         dst_ip: ipv4::Addr::new(10, 0, 2, 3),
//!         src_port: 32768,
//!         dst_port: 80,
//!         seq: 1,
//!         ack: 1,
//!         flags: tcp::Flags::ACK | tcp::Flags::PSH,
//!         window: 65535,
//!         ttl: 64,
//!     },
//!     payload,
//! );
//! let pkt = Packet::parse(&frame).unwrap();
//! assert_eq!(pkt.tcp().unwrap().dst_port, 80);
//! assert_eq!(pkt.payload(), payload);
//! ```

// E001 (DESIGN §6a): ingest code reads bytes through `get`, fixed-size
// chunks or slice patterns, never a panicking index.
#![deny(clippy::indexing_slicing)]

pub mod arp;
pub mod build;
pub mod checksum;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod ipv6;
pub mod ipx;
pub mod packet;
mod table;
pub mod tcp;
pub mod time;
pub mod udp;

pub use packet::{NetLayer, Packet, Transport};
pub use time::Timestamp;

/// Errors produced while parsing wire formats.
///
/// Parsing is deliberately tolerant: analyses over truncated captures
/// (snaplen 68) must still classify packets whose payloads are cut off, so
/// [`Error::Truncated`] is distinguished from [`Error::Malformed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is shorter than the protocol's minimum header, or shorter
    /// than a length declared inside the packet (typical of snaplen-truncated
    /// captures).
    Truncated,
    /// A field value is structurally invalid (bad version, impossible header
    /// length, inconsistent lengths).
    Malformed,
    /// The protocol or version is recognized but not supported by this
    /// analyzer (e.g. exotic ARP hardware types).
    Unsupported,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Truncated => write!(f, "packet truncated"),
            Error::Malformed => write!(f, "packet malformed"),
            Error::Unsupported => write!(f, "protocol unsupported"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide parse result.
pub type Result<T> = core::result::Result<T, Error>;

/// Read a big-endian `u16` at `off`. Total: a read past the end of the
/// buffer yields 0, so a missed caller-side length check degrades to a
/// zero field instead of aborting ingest.
#[inline]
pub(crate) fn be16(buf: &[u8], off: usize) -> u16 {
    match buf.get(off..off.saturating_add(2)) {
        Some(&[a, b]) => u16::from_be_bytes([a, b]),
        _ => 0,
    }
}

/// Read a big-endian `u32` at `off`; total, like [`be16`].
#[inline]
pub(crate) fn be32(buf: &[u8], off: usize) -> u32 {
    match buf.get(off..off.saturating_add(4)) {
        Some(&[a, b, c, d]) => u32::from_be_bytes([a, b, c, d]),
        _ => 0,
    }
}

/// Read the `N` bytes at `off` as an array; total, like [`be16`] (a read
/// past the end yields zeros).
#[inline]
pub(crate) fn bytes_at<const N: usize>(buf: &[u8], off: usize) -> [u8; N] {
    buf.get(off..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .unwrap_or([0; N])
}

/// Copy `src` into `buf` at `off`. Total: an out-of-range write is dropped
/// (builders always size their buffers up front).
#[inline]
pub(crate) fn put(buf: &mut [u8], off: usize, src: &[u8]) {
    if let Some(dst) = buf.get_mut(off..off.saturating_add(src.len())) {
        dst.copy_from_slice(src);
    }
}

/// Write a big-endian `u16`; total, like [`put`].
#[inline]
pub(crate) fn put_be16(buf: &mut [u8], off: usize, v: u16) {
    put(buf, off, &v.to_be_bytes());
}

/// Write a big-endian `u32`; total, like [`put`].
#[inline]
pub(crate) fn put_be32(buf: &mut [u8], off: usize, v: u32) {
    put(buf, off, &v.to_be_bytes());
}

/// Tiny deterministic generator (xorshift64*) for this crate's property
/// tests, so they run without a rand dependency.
#[cfg(test)]
pub(crate) mod test_rng {
    pub(crate) struct X(pub(crate) u64);

    impl X {
        pub(crate) fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_helpers_roundtrip() {
        let mut buf = [0u8; 8];
        put_be16(&mut buf, 1, 0xBEEF);
        put_be32(&mut buf, 3, 0xDEADBEEF);
        assert_eq!(be16(&buf, 1), 0xBEEF);
        assert_eq!(be32(&buf, 3), 0xDEADBEEF);
    }

    #[test]
    fn error_display() {
        assert_eq!(Error::Truncated.to_string(), "packet truncated");
        assert_eq!(Error::Malformed.to_string(), "packet malformed");
        assert_eq!(Error::Unsupported.to_string(), "protocol unsupported");
    }
}
