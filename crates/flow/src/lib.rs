//! # ent-flow — connection tracking
//!
//! Bro-style connection summaries over dissected packets: a [`ConnTable`]
//! ingests [`ent_wire::Packet`]s in timestamp order and produces, per flow,
//! a [`ConnSummary`] carrying the quantities the paper's analyses need —
//! originator/responder payload bytes and packets, duration, TCP
//! establishment outcome ([`TcpOutcome`]: successful / rejected /
//! unanswered, Table 9 and §5), retransmission counts with TCP keep-alive
//! exclusion (§6, Figure 10), and capture-loss evidence (acknowledged data
//! absent from the trace, §2).
//!
//! Application analyzers do not buffer inside the table: the table pushes
//! in-order stream data and UDP datagrams to a caller-supplied
//! [`FlowHandler`], the same architectural split Bro uses between its
//! connection engine and protocol analyzers.
//!
//! ```
//! use ent_flow::{CollectSummaries, ConnTable, Proto, TableConfig, TcpOutcome};
//! use ent_wire::{build, ethernet::MacAddr, ipv4::Addr, Packet, Timestamp};
//!
//! // A DNS-style UDP request/response pair becomes one "connection".
//! let q = build::udp_frame(
//!     &build::UdpFrameSpec {
//!         src_mac: MacAddr::from_host_id(1),
//!         dst_mac: MacAddr::from_host_id(2),
//!         src_ip: Addr::new(10, 0, 0, 1),
//!         dst_ip: Addr::new(10, 0, 0, 53),
//!         src_port: 5353,
//!         dst_port: 53,
//!         ttl: 64,
//!     },
//!     b"query",
//! );
//! let r = build::udp_frame(
//!     &build::UdpFrameSpec {
//!         src_mac: MacAddr::from_host_id(2),
//!         dst_mac: MacAddr::from_host_id(1),
//!         src_ip: Addr::new(10, 0, 0, 53),
//!         dst_ip: Addr::new(10, 0, 0, 1),
//!         src_port: 53,
//!         dst_port: 5353,
//!         ttl: 64,
//!     },
//!     b"answer!!",
//! );
//! let mut table = ConnTable::new(TableConfig::default());
//! let mut sink = CollectSummaries::default();
//! table.ingest(&Packet::parse(&q).unwrap(), Timestamp::ZERO, &mut sink);
//! table.ingest(&Packet::parse(&r).unwrap(), Timestamp::from_millis(1), &mut sink);
//! table.finish(Timestamp::from_secs(1), &mut sink);
//! let conn = &sink.summaries[0];
//! assert_eq!(conn.key.proto, Proto::Udp);
//! assert_eq!(conn.outcome, TcpOutcome::Successful);
//! assert_eq!(conn.orig.payload_bytes, 5);
//! assert_eq!(conn.resp.payload_bytes, 8);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Ingest code must degrade gracefully, never abort: panicking escape
// hatches are compile errors outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fasthash;
pub mod handler;
pub mod key;
pub mod shard;
pub mod summary;
pub mod table;
pub mod tcp;

pub use fasthash::{fx_map_with_capacity, FxBuildHasher, FxHashMap, FxHasher};
pub use handler::{CollectSummaries, FlowHandler};
pub use key::{ConnIndex, Dir, Endpoint, FlowKey, Proto};
pub use shard::{shard_of_key, shard_of_packet, shard_of_pair, DESIGNATED_SHARD};
pub use summary::{ConnSummary, DirStats, TcpOutcome, TcpState};
pub use table::{ConnTable, FlowStats, TableCarry, TableConfig, IDLE_TIMEOUT_US};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use ent_wire::{build, ethernet::MacAddr, ipv4::Addr, tcp::Flags, Packet, Timestamp};

    /// Drive a miniature three-way handshake + data + FIN teardown through
    /// the table and check every summary field the analyses rely on.
    #[test]
    fn full_tcp_lifecycle() {
        let client = Addr::new(10, 1, 0, 5);
        let server = Addr::new(10, 2, 0, 9);
        let mk = |src_ip, dst_ip, sp, dp, seq, ack, flags, payload: &[u8]| {
            build::tcp_frame(
                &build::TcpFrameSpec {
                    src_mac: MacAddr::from_host_id(1),
                    dst_mac: MacAddr::from_host_id(2),
                    src_ip,
                    dst_ip,
                    src_port: sp,
                    dst_port: dp,
                    seq,
                    ack,
                    flags,
                    window: 65535,
                    ttl: 64,
                },
                payload,
            )
        };
        let frames = [mk(client, server, 40000, 80, 100, 0, Flags::SYN, b""),
            mk(server, client, 80, 40000, 500, 101, Flags::SYN | Flags::ACK, b""),
            mk(client, server, 40000, 80, 101, 501, Flags::ACK, b""),
            mk(client, server, 40000, 80, 101, 501, Flags::ACK | Flags::PSH, b"GET /"),
            mk(server, client, 80, 40000, 501, 106, Flags::ACK | Flags::PSH, b"200 OK body"),
            mk(client, server, 40000, 80, 106, 512, Flags::FIN | Flags::ACK, b""),
            mk(server, client, 80, 40000, 512, 107, Flags::FIN | Flags::ACK, b""),
            mk(client, server, 40000, 80, 107, 513, Flags::ACK, b"")];
        let mut table = ConnTable::new(TableConfig::default());
        let mut sink = CollectSummaries::default();
        for (i, f) in frames.iter().enumerate() {
            let pkt = Packet::parse(f).unwrap();
            table.ingest(&pkt, Timestamp::from_millis(i as u64), &mut sink);
        }
        table.finish(Timestamp::from_millis(100), &mut sink);
        assert_eq!(sink.summaries.len(), 1);
        let s = &sink.summaries[0];
        assert_eq!(s.key.proto, Proto::Tcp);
        assert_eq!(s.key.orig.addr, client);
        assert_eq!(s.key.resp.port, 80);
        assert_eq!(s.outcome, TcpOutcome::Successful);
        assert_eq!(s.tcp_state, TcpState::Closed);
        assert_eq!(s.orig.payload_bytes, 5);
        assert_eq!(s.resp.payload_bytes, 11);
        assert_eq!(s.orig.packets, 5);
        assert_eq!(s.resp.packets, 3);
        assert_eq!(s.duration_us(), 7_000);
        assert_eq!(s.orig.retx_packets + s.resp.retx_packets, 0);
    }
}
