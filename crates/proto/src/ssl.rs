//! TLS/SSL record-layer identification.
//!
//! IMAP/S, POP/S and HTTPS payloads are encrypted; like the paper, we
//! analyze them at the transport level but verify that the handshake
//! completed (the paper's HTTPS observation of many short connections
//! that *do* finish the SSL handshake then immediately close, §5.1.1).
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::cursor::Cursor;
use crate::{len16, StreamPair};

ent_wire::code_table! {
    /// TLS record content types.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum RecordType: u8 {
        /// ChangeCipherSpec.
        ChangeCipherSpec = 20,
        /// Alert.
        Alert = 21,
        /// Handshake.
        Handshake = 22,
        /// ApplicationData.
        ApplicationData = 23,
    }
    /// Unknown.
    else Other(u8);
    pub fn from_u8;
    pub fn to_u8;
}

/// A parsed TLS record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub rtype: RecordType,
    /// Protocol version (major, minor), e.g. (3, 1) for TLS 1.0.
    pub version: (u8, u8),
    /// Record payload length.
    pub length: usize,
}

const RECORD_HEADER_LEN: usize = 5;

/// The record header at the front of `buf`, once its 5 bytes are there.
fn parse_header(buf: &[u8]) -> Option<Record> {
    let mut c = Cursor::new(buf);
    Some(Record {
        rtype: RecordType::from_u8(c.u8()?),
        version: (c.u8()?, c.u8()?),
        length: c.be16()? as usize,
    })
}

impl Record {
    /// A version and length TLS can carry; anything else is not a record.
    fn plausible(&self) -> bool {
        self.version.0 == 3 && self.version.1 <= 4 && self.length <= 1 << (14 + 2)
    }
}

/// Parse a record header from the front of a stream buffer; returns the
/// record and bytes consumed once the full record is present.
pub fn parse_record(buf: &[u8]) -> Option<(Record, usize)> {
    let rec = parse_header(buf).filter(Record::plausible)?;
    let used = RECORD_HEADER_LEN.saturating_add(rec.length);
    (buf.len() >= used).then_some((rec, used))
}

/// Tracks handshake completion across both directions of a connection.
#[derive(Debug, Default)]
pub struct TlsTracker {
    streams: StreamPair,
    client_hello: bool,
    server_hello: bool,
    client_ccs: bool,
    server_ccs: bool,
    /// Application-data records seen (both directions).
    pub app_records: u32,
}

impl TlsTracker {
    /// New tracker.
    pub fn new() -> TlsTracker {
        TlsTracker::default()
    }

    /// Feed one direction's stream bytes. A record counts once its header
    /// (and, for a handshake, the message-type byte behind it) has
    /// arrived; its body is passed over, not kept.
    pub fn feed(&mut self, from_client: bool, data: &[u8]) {
        self.streams.dir(from_client).feed(data, |u| {
            let (rec, msg_type) = u.framed(|buf| {
                let rec = parse_header(buf)?;
                let msg_type = match rec.rtype {
                    RecordType::Handshake => *buf.get(RECORD_HEADER_LEN)?,
                    _ => 0,
                };
                Some(((rec, msg_type), RECORD_HEADER_LEN))
            })?;
            if !rec.plausible() {
                u.poison();
                return None;
            }
            u.skip(rec.length as u64);
            match rec.rtype {
                RecordType::Handshake if from_client => self.client_hello |= msg_type == 1,
                RecordType::Handshake => self.server_hello |= msg_type == 2,
                RecordType::ChangeCipherSpec if from_client => self.client_ccs = true,
                RecordType::ChangeCipherSpec => self.server_ccs = true,
                RecordType::ApplicationData => {
                    self.app_records = self.app_records.saturating_add(1)
                }
                _ => {}
            }
            Some(())
        });
    }

    /// Announce a capture gap in the given direction.
    pub fn gap(&mut self, from_client: bool) {
        self.streams.gap(from_client);
    }

    /// Handshake completed in both directions.
    pub fn handshake_complete(&self) -> bool {
        self.client_hello && self.server_hello && self.client_ccs && self.server_ccs
    }
}

/// Encode a TLS record with filler payload.
pub fn encode_record(rtype: RecordType, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![rtype.to_u8(), 3, 1];
    out.extend_from_slice(&len16(payload.len()).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// The 5 header bytes of a TLS record carrying `payload_len` body bytes:
/// appending the payload reproduces [`encode_record`] exactly, so filler
/// bodies can stay symbolic (head + fill run) until frame emission.
pub fn record_head(rtype: RecordType, payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(rtype.to_u8());
    out.push(3);
    out.push(1);
    out.extend_from_slice(&len16(payload_len).to_be_bytes());
    out
}

/// Encode a minimal handshake flight: (client hello, server flight,
/// client ccs+finished, server ccs+finished).
pub fn encode_handshake() -> (Vec<u8>, Vec<u8>, Vec<u8>, Vec<u8>) {
    let mut ch = vec![1u8]; // ClientHello
    ch.extend_from_slice(&[0u8; 49]);
    let mut sh = vec![2u8]; // ServerHello
    sh.extend_from_slice(&[0u8; 80]);
    let mut server_flight = encode_record(RecordType::Handshake, &sh);
    // Certificate (bulk of the server flight).
    let mut cert = vec![11u8];
    cert.extend_from_slice(&[0u8; 1200]);
    server_flight.extend_from_slice(&encode_record(RecordType::Handshake, &cert));
    let mut cc = encode_record(RecordType::ChangeCipherSpec, &[1]);
    cc.extend_from_slice(&encode_record(RecordType::Handshake, &[20u8; 40]));
    (
        encode_record(RecordType::Handshake, &ch),
        server_flight,
        cc.clone(),
        cc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_completes() {
        let (ch, sf, ccc, scc) = encode_handshake();
        let mut t = TlsTracker::new();
        t.feed(true, &ch);
        t.feed(false, &sf);
        t.feed(true, &ccc);
        t.feed(false, &scc);
        assert!(t.handshake_complete());
        assert_eq!(t.app_records, 0);
        t.feed(true, &encode_record(RecordType::ApplicationData, &[0u8; 100]));
        assert_eq!(t.app_records, 1);
    }

    #[test]
    fn incomplete_handshake() {
        let (ch, _, _, _) = encode_handshake();
        let mut t = TlsTracker::new();
        t.feed(true, &ch);
        assert!(!t.handshake_complete());
    }

    #[test]
    fn record_head_matches_filled_encoder() {
        for len in [0usize, 1, 64, 16_000] {
            let full = encode_record(RecordType::ApplicationData, &vec![0u8; len]);
            let mut split = record_head(RecordType::ApplicationData, len);
            split.extend(std::iter::repeat_n(0u8, len));
            assert_eq!(split, full);
        }
    }

    #[test]
    fn record_bounds() {
        let r = encode_record(RecordType::Alert, &[2, 40]);
        let (rec, used) = parse_record(&r).unwrap();
        assert_eq!(rec.rtype, RecordType::Alert);
        assert_eq!(rec.length, 2);
        assert_eq!(used, 7);
        assert!(parse_record(&r[..6]).is_none());
    }

    #[test]
    fn non_tls_rejected() {
        assert!(parse_record(b"GET / HTTP/1.1\r\n").is_none());
    }
}
