//! ICMP message parsing and emission.
//!
//! The paper treats ICMP echo exchanges as "connections" (Table 3) and most
//! of the external scanners it removes are ICMP probes, so echo semantics and
//! the ident/seq pair matter for flow keying.

use crate::{be16, checksum, put_be16, Error, Result};

/// Minimum ICMP header length.
pub const HEADER_LEN: usize = 8;

crate::code_table! {
    /// ICMP message types of interest.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum MessageType: u8 {
        /// Echo reply.
        EchoReply = 0,
        /// Destination unreachable.
        DestUnreachable = 3,
        /// Echo request.
        EchoRequest = 8,
        /// Time exceeded.
        TimeExceeded = 11,
    }
    /// Everything else.
    else Other(u8);
    pub fn from_u8;
    pub fn to_u8;
}

/// A parsed ICMP message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message<'a> {
    /// Message type.
    pub mtype: MessageType,
    /// Sub-code.
    pub code: u8,
    /// For echo request/reply: the identifier field; otherwise raw bytes 4–5.
    pub ident: u16,
    /// For echo request/reply: the sequence field; otherwise raw bytes 6–7.
    pub seq: u16,
    /// Bytes after the 8-byte header.
    pub payload: &'a [u8],
}

impl<'a> Message<'a> {
    /// Parse an ICMP message.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Message<'a>> {
        if buf.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Message {
            mtype: MessageType::from_u8(buf[0]),
            code: buf[1],
            ident: be16(buf, 4),
            seq: be16(buf, 6),
            payload: &buf[HEADER_LEN..],
        })
    }
}

/// Emit an ICMP message (checksummed).
pub fn emit(mtype: MessageType, code: u8, ident: u16, seq: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = vec![0u8; HEADER_LEN + payload.len()];
    buf[0] = mtype.to_u8();
    buf[1] = code;
    put_be16(&mut buf, 4, ident);
    put_be16(&mut buf, 6, seq);
    buf[HEADER_LEN..].copy_from_slice(payload);
    let ck = checksum::of(&buf);
    put_be16(&mut buf, 2, ck);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let m = emit(MessageType::EchoRequest, 0, 0x42, 7, b"ping");
        let p = Message::parse(&m).unwrap();
        assert_eq!(p.mtype, MessageType::EchoRequest);
        assert_eq!(p.ident, 0x42);
        assert_eq!(p.seq, 7);
        assert_eq!(p.payload, b"ping");
        assert!(checksum::verify(&m));
    }

    #[test]
    fn truncated() {
        assert_eq!(Message::parse(&[0u8; 7]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn type_codes_roundtrip() {
        for v in [0u8, 3, 8, 11, 5, 13, 255] {
            assert_eq!(MessageType::from_u8(v).to_u8(), v);
        }
    }
}
