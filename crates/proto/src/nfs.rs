//! NFSv3 request classification (paper Table 13, Figures 7–8).
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::sunrpc::{self, Message, PROG_NFS};
use crate::{Call, CallMatcher, StreamPair};
use ent_wire::Timestamp;

ent_wire::code_table! {
    /// The paper's Table 13 request buckets.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum NfsOp: u32 {
        /// READ.
        Read = 6 => "Read",
        /// WRITE.
        Write = 7 => "Write",
        /// GETATTR.
        GetAttr = 1 => "GetAttr",
        /// LOOKUP.
        LookUp = 3 => "LookUp",
        /// ACCESS.
        Access = 4 => "Access",
    }
    /// Everything else.
    else Other = 0 => "Other";
    pub fn from_proc;
    pub fn to_proc;
    pub fn label;
}

/// One completed NFS request/reply exchange. `ok` means accepted with NFS
/// status 0: lookups for non-existent files — the paper's dominant NFS
/// failure — carry NFS3ERR_NOENT there.
pub type NfsCall = Call<NfsOp>;

/// Pairs NFS calls with replies, over UDP datagrams and/or record-marked
/// TCP streams of one host-pair.
#[derive(Debug, Default)]
pub struct NfsAnalyzer {
    streams: StreamPair,
    calls: CallMatcher<u32, NfsOp>,
}

/// Match one RPC message (a datagram or a de-marked TCP record) against the
/// pending calls.
fn handle(calls: &mut CallMatcher<u32, NfsOp>, from_client: bool, ts: Timestamp, msg: &[u8]) {
    let wire_len = msg.len() as u64;
    match sunrpc::parse_message(msg) {
        Some(Message::Call(c)) if from_client && c.prog == PROG_NFS => {
            calls.request(c.xid, NfsOp::from_proc(c.proc), wire_len, ts);
        }
        Some(Message::Reply(r)) if !from_client => {
            calls.reply(r.xid, wire_len, r.accepted && r.status_word == 0, ts);
        }
        _ => {}
    }
}

impl NfsAnalyzer {
    /// New analyzer.
    pub fn new() -> NfsAnalyzer {
        NfsAnalyzer::default()
    }

    /// Feed one UDP datagram payload.
    pub fn feed_udp(&mut self, from_client: bool, ts: Timestamp, payload: &[u8]) {
        handle(&mut self.calls, from_client, ts, payload);
    }

    /// Feed TCP stream bytes (record-marked).
    pub fn feed_tcp(&mut self, from_client: bool, ts: Timestamp, data: &[u8]) {
        self.streams.dir(from_client).feed(data, |u| {
            handle(&mut self.calls, from_client, ts, u.framed(sunrpc::next_record)?);
            Some(())
        });
    }

    /// Announce a capture gap in the given direction of the TCP stream.
    pub fn gap(&mut self, from_client: bool) {
        self.streams.gap(from_client);
    }

    /// Flush unanswered requests as failed calls, in ascending-xid order.
    pub fn finish(&mut self) {
        self.calls.finish();
    }

    /// Take completed calls.
    pub fn take_calls(&mut self) -> Vec<NfsCall> {
        self.calls.take_calls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_read_call() {
        let mut a = NfsAnalyzer::new();
        let call = sunrpc::encode_call(1, PROG_NFS, 3, 6, 100);
        let reply = sunrpc::encode_reply(1, 0, 8192);
        a.feed_udp(true, Timestamp::from_micros(0), &call);
        a.feed_udp(false, Timestamp::from_micros(900), &reply);
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].op, NfsOp::Read);
        assert!(calls[0].ok);
        assert_eq!(calls[0].latency_us, 900);
        assert!(calls[0].reply_bytes > 8192);
    }

    #[test]
    fn failed_lookup() {
        let mut a = NfsAnalyzer::new();
        a.feed_udp(true, Timestamp::ZERO, &sunrpc::encode_call(9, PROG_NFS, 3, 3, 60));
        a.feed_udp(false, Timestamp::from_micros(100), &sunrpc::encode_reply(9, 2, 4));
        let calls = a.take_calls();
        assert_eq!(calls[0].op, NfsOp::LookUp);
        assert!(!calls[0].ok);
    }

    #[test]
    fn tcp_record_marked_stream() {
        let mut a = NfsAnalyzer::new();
        let call = sunrpc::mark_record(&sunrpc::encode_call(3, PROG_NFS, 3, 7, 8192));
        let reply = sunrpc::mark_record(&sunrpc::encode_reply(3, 0, 8));
        for chunk in call.chunks(1000) {
            a.feed_tcp(true, Timestamp::ZERO, chunk);
        }
        a.feed_tcp(false, Timestamp::from_micros(500), &reply);
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].op, NfsOp::Write);
        assert!(calls[0].request_bytes > 8192);
    }

    #[test]
    fn unanswered_flushed_as_failed() {
        let mut a = NfsAnalyzer::new();
        a.feed_udp(true, Timestamp::ZERO, &sunrpc::encode_call(5, PROG_NFS, 3, 1, 40));
        a.finish();
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert!(!calls[0].ok);
        assert_eq!(calls[0].op, NfsOp::GetAttr);
    }

    #[test]
    fn non_nfs_program_ignored() {
        let mut a = NfsAnalyzer::new();
        a.feed_udp(true, Timestamp::ZERO, &sunrpc::encode_call(5, 100000, 2, 3, 4));
        a.finish();
        assert!(a.take_calls().is_empty());
    }

    #[test]
    fn op_labels() {
        assert_eq!(NfsOp::from_proc(6).label(), "Read");
        assert_eq!(NfsOp::from_proc(99).label(), "Other");
        for op in [NfsOp::Read, NfsOp::Write, NfsOp::GetAttr, NfsOp::LookUp, NfsOp::Access] {
            assert_eq!(NfsOp::from_proc(op.to_proc()), op);
        }
    }
}
