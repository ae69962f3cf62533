//! NFSv3 request classification (paper Table 13, Figures 7–8).

use crate::sunrpc::{self, Message, PROG_NFS};
use crate::StreamBuf;
use ent_wire::Timestamp;
use std::collections::HashMap;

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

/// One completed NFS request/reply exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NfsCall {
    /// Operation bucket.
    pub op: NfsOp,
    /// Request message bytes (RPC header + args).
    pub request_bytes: u64,
    /// Reply message bytes (0 if the reply was never seen).
    pub reply_bytes: u64,
    /// The request succeeded (accepted, NFS status 0). Lookups for
    /// non-existent files — the paper's dominant NFS failure — carry
    /// NFS3ERR_NOENT here.
    pub ok: bool,
    /// Reply latency in microseconds (0 if unmatched).
    pub latency_us: u64,
}

/// Pairs NFS calls with replies, over UDP datagrams and/or record-marked
/// TCP streams of one host-pair.
#[derive(Debug, Default)]
pub struct NfsAnalyzer {
    pending: HashMap<u32, (NfsOp, u64, Timestamp)>,
    client: StreamBuf,
    server: StreamBuf,
    /// Completed calls.
    out: Vec<NfsCall>,
}

impl NfsAnalyzer {
    /// New analyzer.
    pub fn new() -> NfsAnalyzer {
        NfsAnalyzer {
            pending: HashMap::new(),
            client: StreamBuf::new(),
            server: StreamBuf::new(),
            out: Vec::new(),
        }
    }

    /// Feed one UDP datagram payload.
    pub fn feed_udp(&mut self, from_client: bool, ts: Timestamp, payload: &[u8]) {
        let wire_len = payload.len() as u64;
        if let Some(msg) = sunrpc::parse_message(payload) {
            self.handle(from_client, ts, msg, wire_len);
        }
    }

    /// Feed TCP stream bytes (record-marked).
    pub fn feed_tcp(&mut self, from_client: bool, ts: Timestamp, data: &[u8]) {
        let buf = if from_client {
            &mut self.client
        } else {
            &mut self.server
        };
        buf.push(data);
        loop {
            let bytes = if from_client {
                self.client.bytes()
            } else {
                self.server.bytes()
            };
            let Some((msg_bytes, used)) = sunrpc::next_record(bytes) else {
                return;
            };
            let wire_len = msg_bytes.len() as u64;
            let msg = sunrpc::parse_message(msg_bytes);
            if from_client {
                self.client.consume(used);
            } else {
                self.server.consume(used);
            }
            if let Some(m) = msg {
                self.handle(from_client, ts, m, wire_len);
            }
        }
    }

    fn handle(&mut self, from_client: bool, ts: Timestamp, msg: Message, wire_len: u64) {
        match msg {
            Message::Call(c) if from_client
                && c.prog == PROG_NFS => {
                    self.pending
                        .insert(c.xid, (NfsOp::from_proc(c.proc), wire_len, ts));
                }
            Message::Reply(r) if !from_client => {
                if let Some((op, req_bytes, t0)) = self.pending.remove(&r.xid) {
                    self.out.push(NfsCall {
                        op,
                        request_bytes: req_bytes,
                        reply_bytes: wire_len,
                        ok: r.accepted && r.status_word == 0,
                        latency_us: ts.saturating_micros_since(t0),
                    });
                }
            }
            _ => {}
        }
    }

    /// Flush unanswered requests in ascending-xid order: `HashMap` drain
    /// order is per-process random, and these calls feed the report path.
    pub fn finish(&mut self) {
        let mut xids: Vec<u32> = self.pending.keys().copied().collect();
        xids.sort_unstable();
        for xid in xids {
            if let Some((op, req_bytes, _)) = self.pending.remove(&xid) {
                self.out.push(NfsCall {
                    op,
                    request_bytes: req_bytes,
                    reply_bytes: 0,
                    ok: false,
                    latency_us: 0,
                });
            }
        }
    }

    /// Take completed calls.
    pub fn take_calls(&mut self) -> Vec<NfsCall> {
        std::mem::take(&mut self.out)
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
