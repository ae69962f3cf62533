//! NCP (NetWare Core Protocol) over TCP 524 — request classification for
//! the paper's Table 14 and the reply-size modes of Figure 8(d).
//!
//! NCP-over-IP frames each packet with a signature + length header
//! ("DmdT"). Requests carry a function code; replies a completion code.
//! The paper found NCP "predominantly used for file sharing" with reads
//! dominating, plus the striking keep-alive-only connection population
//! (detected at the flow layer, not here).

use crate::cursor::Cursor;
use crate::{Call, CallMatcher, StreamPair};
use ent_wire::Timestamp;

/// NCP-over-IP frame signature ("DmdT").
pub const SIGNATURE: u32 = 0x446D_6454;
const REQUEST_TYPE: u16 = 0x2222;
const REPLY_TYPE: u16 = 0x3333;

ent_wire::code_table! {
    /// The paper's Table 14 request buckets with representative NCP function
    /// codes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum NcpOp: u8 {
        /// ReadFile.
        Read = 72 => "Read",
        /// WriteFile.
        Write = 73 => "Write",
        /// Obtain file / directory info.
        FileDirInfo = 87 => "FileDirInfo",
        /// Open/create, and close.
        FileOpenClose = 76 | 66 => "File Open/Close",
        /// GetFileCurrentSize.
        FileSize = 71 => "File Size",
        /// File search.
        FileSearch = 63 => "File Search",
        /// NDS directory services.
        DirectoryService = 104 => "Directory Service",
    }
    /// Everything else.
    else Other = 1 => "Other";
    pub fn from_function;
    pub fn to_function;
    pub fn label;
}

/// One completed NCP request/reply exchange: sizes are the NCP packet
/// without the frame header, `ok` is completion code 0.
pub type NcpCall = Call<NcpOp>;

/// Parse one NCP-over-IP frame from the buffer front; returns
/// (packet bytes, consumed) when complete.
fn next_frame(buf: &[u8]) -> Option<(&[u8], usize)> {
    let mut c = Cursor::new(buf);
    if c.be32()? != SIGNATURE {
        return None;
    }
    let total = c.be32()? as usize;
    if total < 8 || buf.len() < total {
        return None;
    }
    Some((buf.get(8..total).unwrap_or(&[]), total))
}

/// Encode an NCP request with the given function and `extra` filler bytes.
pub fn encode_request(seq: u8, op: NcpOp, extra: usize) -> Vec<u8> {
    let mut pkt = Vec::with_capacity(7 + extra);
    pkt.extend_from_slice(&REQUEST_TYPE.to_be_bytes());
    pkt.push(seq);
    pkt.push(1); // connection low
    pkt.push(0); // task
    pkt.push(0); // connection high
    pkt.push(op.to_function());
    pkt.extend(std::iter::repeat_n(0x6E, extra));
    frame(&pkt)
}

/// Encode an NCP reply with completion code and `extra` filler bytes.
/// Sizes follow the paper's Figure 8(d) modes: pure completion replies are
/// 2 bytes of payload beyond the reply header, etc. — controlled by the
/// caller via `extra`.
pub fn encode_reply(seq: u8, completion: u8, extra: usize) -> Vec<u8> {
    let mut pkt = Vec::with_capacity(8 + extra);
    pkt.extend_from_slice(&REPLY_TYPE.to_be_bytes());
    pkt.push(seq);
    pkt.push(1);
    pkt.push(0);
    pkt.push(0);
    pkt.push(completion);
    pkt.push(0); // connection status
    pkt.extend(std::iter::repeat_n(0x6F, extra));
    frame(&pkt)
}

/// Filler byte [`encode_request`] uses for the extra bytes.
pub const REQUEST_FILL: u8 = 0x6E;
/// Filler byte [`encode_reply`] uses for the extra bytes.
pub const REPLY_FILL: u8 = 0x6F;

/// The framed head of [`encode_request`] without the filler: the frame
/// length already counts `extra`, so appending `extra` [`REQUEST_FILL`]
/// bytes reproduces `encode_request` exactly.
pub fn request_head(seq: u8, op: NcpOp, extra: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(15);
    buf.extend_from_slice(&SIGNATURE.to_be_bytes());
    buf.extend_from_slice(&((8 + 7 + extra) as u32).to_be_bytes());
    buf.extend_from_slice(&REQUEST_TYPE.to_be_bytes());
    buf.push(seq);
    buf.push(1); // connection low
    buf.push(0); // task
    buf.push(0); // connection high
    buf.push(op.to_function());
    buf
}

/// The framed head of [`encode_reply`] without the filler (see
/// [`request_head`] for the contract).
pub fn reply_head(seq: u8, completion: u8, extra: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(&SIGNATURE.to_be_bytes());
    buf.extend_from_slice(&((8 + 8 + extra) as u32).to_be_bytes());
    buf.extend_from_slice(&REPLY_TYPE.to_be_bytes());
    buf.push(seq);
    buf.push(1);
    buf.push(0);
    buf.push(0);
    buf.push(completion);
    buf.push(0); // connection status
    buf
}

fn frame(pkt: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + pkt.len());
    buf.extend_from_slice(&SIGNATURE.to_be_bytes());
    buf.extend_from_slice(&((8 + pkt.len()) as u32).to_be_bytes());
    buf.extend_from_slice(pkt);
    buf
}

/// Streaming analyzer for one NCP connection.
#[derive(Debug, Default)]
pub struct NcpAnalyzer {
    streams: StreamPair,
    calls: CallMatcher<u8, NcpOp>,
}

/// Match one NCP packet against the pending requests; `None` is a packet
/// too short to say.
fn handle(calls: &mut CallMatcher<u8, NcpOp>, from_client: bool, ts: Timestamp, pkt: &[u8]) -> Option<()> {
    let mut c = Cursor::new(pkt);
    let ptype = c.be16()?;
    let seq = c.u8()?;
    c.skip(3)?;
    // The function of a request, the completion code of a reply.
    let code = c.u8()?;
    if from_client && ptype == REQUEST_TYPE {
        calls.request(seq, NcpOp::from_function(code), pkt.len() as u64, ts);
    } else if !from_client && ptype == REPLY_TYPE {
        calls.reply(seq, pkt.len() as u64, code == 0, ts);
    }
    Some(())
}

impl NcpAnalyzer {
    /// New analyzer.
    pub fn new() -> NcpAnalyzer {
        NcpAnalyzer::default()
    }

    /// Feed stream bytes from the client or server side.
    pub fn feed(&mut self, from_client: bool, ts: Timestamp, data: &[u8]) {
        self.streams.dir(from_client).feed(data, |u| {
            handle(&mut self.calls, from_client, ts, u.framed(next_frame)?);
            Some(())
        });
    }

    /// Announce a capture gap in the given direction.
    pub fn gap(&mut self, from_client: bool) {
        self.streams.gap(from_client);
    }

    /// Flush unanswered requests as failed calls, in ascending-sequence
    /// order.
    pub fn finish(&mut self) {
        self.calls.finish();
    }

    /// Take completed calls.
    pub fn take_calls(&mut self) -> Vec<NcpCall> {
        self.calls.take_calls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_variants_match_filled_encoders() {
        for extra in [0usize, 1, 7, 1_024] {
            let full = encode_request(5, NcpOp::Read, extra);
            let mut split = request_head(5, NcpOp::Read, extra);
            split.extend(std::iter::repeat_n(REQUEST_FILL, extra));
            assert_eq!(split, full);
            let full = encode_reply(5, 0x9C, extra);
            let mut split = reply_head(5, 0x9C, extra);
            split.extend(std::iter::repeat_n(REPLY_FILL, extra));
            assert_eq!(split, full);
        }
    }

    #[test]
    fn read_request_reply() {
        let mut a = NcpAnalyzer::new();
        // 14-byte request mode of Figure 8(c): 7 header + 7 extra.
        a.feed(true, Timestamp::ZERO, &encode_request(1, NcpOp::Read, 7));
        a.feed(false, Timestamp::from_micros(800), &encode_reply(1, 0, 252));
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].op, NcpOp::Read);
        assert!(calls[0].ok);
        assert_eq!(calls[0].latency_us, 800);
        assert_eq!(calls[0].reply_bytes, 8 + 252);
    }

    #[test]
    fn failed_filedirinfo() {
        let mut a = NcpAnalyzer::new();
        a.feed(true, Timestamp::ZERO, &encode_request(2, NcpOp::FileDirInfo, 20));
        a.feed(false, Timestamp::from_micros(100), &encode_reply(2, 0x9C, 0));
        let calls = a.take_calls();
        assert!(!calls[0].ok);
        assert_eq!(calls[0].op, NcpOp::FileDirInfo);
    }

    #[test]
    fn frames_reassembled() {
        let mut a = NcpAnalyzer::new();
        let req = encode_request(3, NcpOp::Write, 8192);
        for chunk in req.chunks(1460) {
            a.feed(true, Timestamp::ZERO, chunk);
        }
        a.feed(false, Timestamp::from_micros(50), &encode_reply(3, 0, 0));
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].op, NcpOp::Write);
        assert!(calls[0].request_bytes > 8192);
    }

    #[test]
    fn sequence_pairing_out_of_order() {
        let mut a = NcpAnalyzer::new();
        a.feed(true, Timestamp::ZERO, &encode_request(1, NcpOp::Read, 7));
        a.feed(true, Timestamp::ZERO, &encode_request(2, NcpOp::FileSize, 2));
        a.feed(false, Timestamp::from_micros(10), &encode_reply(2, 0, 2));
        a.feed(false, Timestamp::from_micros(20), &encode_reply(1, 0, 252));
        let calls = a.take_calls();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0].op, NcpOp::FileSize);
        assert_eq!(calls[1].op, NcpOp::Read);
    }

    #[test]
    fn unanswered_flushed() {
        let mut a = NcpAnalyzer::new();
        a.feed(true, Timestamp::ZERO, &encode_request(9, NcpOp::FileSearch, 30));
        a.finish();
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert!(!calls[0].ok);
    }

    #[test]
    fn op_taxonomy() {
        for op in [
            NcpOp::Read,
            NcpOp::Write,
            NcpOp::FileDirInfo,
            NcpOp::FileOpenClose,
            NcpOp::FileSize,
            NcpOp::FileSearch,
            NcpOp::DirectoryService,
        ] {
            assert_eq!(NcpOp::from_function(op.to_function()), op);
        }
        assert_eq!(NcpOp::from_function(66), NcpOp::FileOpenClose);
        assert_eq!(NcpOp::from_function(200), NcpOp::Other);
    }

    #[test]
    fn garbage_not_parsed() {
        let mut a = NcpAnalyzer::new();
        a.feed(true, Timestamp::ZERO, b"not ncp at all............");
        a.finish();
        assert!(a.take_calls().is_empty());
    }
}
