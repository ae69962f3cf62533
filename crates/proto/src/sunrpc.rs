//! ONC/Sun RPC message framing (RFC 1831) — the substrate of NFS.
//!
//! Handles both transports the paper observed (§5.2.2 notes — contrary to
//! expectation — that UDP still dominated NFS at the site): one message
//! per UDP datagram, and record-marked streams over TCP.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::cursor::Cursor;
use crate::len32;

/// RPC program numbers of interest.
pub const PROG_PORTMAP: u32 = 100000;
/// NFS program number.
pub const PROG_NFS: u32 = 100003;
/// Mount protocol program number.
pub const PROG_MOUNT: u32 = 100005;

/// A parsed RPC call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Transaction ID (pairs calls with replies).
    pub xid: u32,
    /// Program number (e.g. 100003 for NFS).
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Procedure number.
    pub proc: u32,
    /// Argument byte length (after the call header).
    pub arg_len: u32,
}

/// A parsed RPC reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Transaction ID.
    pub xid: u32,
    /// Accepted and executed (MSG_ACCEPTED + SUCCESS).
    pub accepted: bool,
    /// The first 4 result bytes (NFS puts its status there).
    pub status_word: u32,
    /// Result byte length (after the reply header).
    pub result_len: u32,
}

/// A parsed RPC message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    /// Call message.
    Call(Call),
    /// Reply message.
    Reply(Reply),
}

impl Message {
    /// The transaction ID of either kind.
    pub fn xid(&self) -> u32 {
        match self {
            Message::Call(c) => c.xid,
            Message::Reply(r) => r.xid,
        }
    }
}

/// Parse one RPC message from a complete buffer (a UDP payload or a
/// de-marked TCP record).
pub fn parse_message(buf: &[u8]) -> Option<Message> {
    let mut c = Cursor::new(buf);
    let xid = c.be32()?;
    let mtype = c.be32()?;
    match mtype {
        0 => {
            let rpcvers = c.be32()?;
            if rpcvers != 2 {
                return None;
            }
            let prog = c.be32()?;
            let vers = c.be32()?;
            let proc = c.be32()?;
            // Credentials and verifier: flavor(4) + len(4) + body, twice.
            for _ in 0..2 {
                c.be32()?;
                let len = c.be32()? as usize;
                c.skip(len.saturating_add(3) & !3)?;
            }
            Some(Message::Call(Call {
                xid,
                prog,
                vers,
                proc,
                arg_len: len32(c.remaining()),
            }))
        }
        1 => {
            let reply_stat = c.be32()?;
            // Verifier.
            c.be32()?;
            let len = c.be32()? as usize;
            c.skip(len.saturating_add(3) & !3)?;
            let accept_stat = c.be32()?;
            let status_word = c.be32().unwrap_or(0);
            Some(Message::Reply(Reply {
                xid,
                accepted: reply_stat == 0 && accept_stat == 0,
                status_word,
                result_len: len32(c.remaining()).saturating_add(4),
            }))
        }
        _ => None,
    }
}

/// Encode an RPC call with `arg_len` filler argument bytes.
pub fn encode_call(xid: u32, prog: u32, vers: u32, proc: u32, arg_len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(arg_len.saturating_add(40));
    buf.extend_from_slice(&xid.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes()); // CALL
    buf.extend_from_slice(&2u32.to_be_bytes()); // RPC v2
    buf.extend_from_slice(&prog.to_be_bytes());
    buf.extend_from_slice(&vers.to_be_bytes());
    buf.extend_from_slice(&proc.to_be_bytes());
    // AUTH_UNIX cred with empty body + AUTH_NONE verifier.
    buf.extend_from_slice(&1u32.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes());
    buf.extend(std::iter::repeat_n(0x4E, arg_len));
    buf
}

/// Encode an accepted RPC reply whose first result word is `status_word`
/// followed by `result_len` filler bytes.
pub fn encode_reply(xid: u32, status_word: u32, result_len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(result_len.saturating_add(28));
    buf.extend_from_slice(&xid.to_be_bytes());
    buf.extend_from_slice(&1u32.to_be_bytes()); // REPLY
    buf.extend_from_slice(&0u32.to_be_bytes()); // MSG_ACCEPTED
    buf.extend_from_slice(&0u32.to_be_bytes()); // AUTH_NONE
    buf.extend_from_slice(&0u32.to_be_bytes()); // verifier len 0
    buf.extend_from_slice(&0u32.to_be_bytes()); // SUCCESS
    buf.extend_from_slice(&status_word.to_be_bytes());
    buf.extend(std::iter::repeat_n(0x52, result_len));
    buf
}

/// Filler byte [`encode_call`] uses for argument bytes.
pub const CALL_FILL: u8 = 0x4E;
/// Filler byte [`encode_reply`] uses for result bytes.
pub const REPLY_FILL: u8 = 0x52;

/// The 40 header bytes of [`encode_call`] without the argument filler:
/// appending `arg_len` [`CALL_FILL`] bytes reproduces `encode_call` exactly.
pub fn call_head(xid: u32, prog: u32, vers: u32, proc: u32) -> Vec<u8> {
    encode_call(xid, prog, vers, proc, 0)
}

/// The 28 header bytes of [`encode_reply`] without the result filler.
pub fn reply_head(xid: u32, status_word: u32) -> Vec<u8> {
    encode_reply(xid, status_word, 0)
}

/// Record-marked head of the message `head ∥ [fill; fill_len]`: the marker
/// covers the full logical length, so `mark_record_head(&m, 0)` equals
/// [`mark_record`] and the fill stays at the tail for split emission.
pub fn mark_record_head(head: &[u8], fill_len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(head.len().saturating_add(4));
    let len = len32(head.len().saturating_add(fill_len));
    buf.extend_from_slice(&(0x8000_0000u32 | len).to_be_bytes());
    buf.extend_from_slice(head);
    buf
}

/// Wrap a message with TCP record marking (single final fragment).
pub fn mark_record(msg: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(msg.len().saturating_add(4));
    buf.extend_from_slice(&(0x8000_0000u32 | len32(msg.len())).to_be_bytes());
    buf.extend_from_slice(msg);
    buf
}

/// Extract the next record-marked message from a stream buffer prefix;
/// returns (message bytes, total consumed).
pub fn next_record(buf: &[u8]) -> Option<(&[u8], usize)> {
    let word = u32::from_be_bytes(*buf.first_chunk::<4>()?);
    let len = (word & 0x7FFF_FFFF) as usize;
    if word & 0x8000_0000 == 0 {
        // Multi-fragment records are not generated; treat as unparseable.
        return None;
    }
    let end = 4usize.saturating_add(len);
    if buf.len() < end {
        return None;
    }
    Some((buf.get(4..end).unwrap_or(&[]), end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_variants_match_filled_encoders() {
        for (arg, res) in [(0usize, 0usize), (1, 2), (64, 8_192)] {
            let full = encode_call(7, PROG_NFS, 3, 6, arg);
            let mut split = call_head(7, PROG_NFS, 3, 6);
            split.extend(std::iter::repeat_n(CALL_FILL, arg));
            assert_eq!(split, full);
            let full = encode_reply(7, 2, res);
            let mut split = reply_head(7, 2);
            split.extend(std::iter::repeat_n(REPLY_FILL, res));
            assert_eq!(split, full);
            let marked = mark_record(&encode_call(9, PROG_NFS, 3, 6, arg));
            let mut split = mark_record_head(&call_head(9, PROG_NFS, 3, 6), arg);
            split.extend(std::iter::repeat_n(CALL_FILL, arg));
            assert_eq!(split, marked);
        }
    }

    #[test]
    fn call_roundtrip() {
        let c = encode_call(0xABCD, PROG_NFS, 3, 6, 96);
        match parse_message(&c).unwrap() {
            Message::Call(call) => {
                assert_eq!(call.xid, 0xABCD);
                assert_eq!(call.prog, PROG_NFS);
                assert_eq!(call.vers, 3);
                assert_eq!(call.proc, 6);
                assert_eq!(call.arg_len, 96);
            }
            _ => panic!("expected call"),
        }
    }

    #[test]
    fn reply_roundtrip() {
        let r = encode_reply(0xABCD, 0, 8192);
        match parse_message(&r).unwrap() {
            Message::Reply(rep) => {
                assert_eq!(rep.xid, 0xABCD);
                assert!(rep.accepted);
                assert_eq!(rep.status_word, 0);
                assert_eq!(rep.result_len, 8196);
            }
            _ => panic!("expected reply"),
        }
    }

    #[test]
    fn record_marking() {
        let msg = encode_call(1, PROG_NFS, 3, 1, 10);
        let rec = mark_record(&msg);
        let (inner, used) = next_record(&rec).unwrap();
        assert_eq!(inner, &msg[..]);
        assert_eq!(used, rec.len());
        assert!(next_record(&rec[..10]).is_none());
    }

    #[test]
    fn bad_messages_rejected() {
        assert!(parse_message(&[0u8; 7]).is_none());
        let mut c = encode_call(1, PROG_NFS, 3, 1, 0);
        c[8..12].copy_from_slice(&9u32.to_be_bytes()); // rpcvers 9
        assert!(parse_message(&c).is_none());
    }

    #[test]
    fn nonzero_status_word() {
        let r = encode_reply(7, 2, 0); // NFS3ERR_NOENT
        match parse_message(&r).unwrap() {
            Message::Reply(rep) => {
                assert!(rep.accepted);
                assert_eq!(rep.status_word, 2);
            }
            _ => panic!(),
        }
    }
}
