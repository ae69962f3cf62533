//! TLS/SSL record-layer identification.
//!
//! IMAP/S, POP/S and HTTPS payloads are encrypted; like the paper, we
//! analyze them at the transport level but verify that the handshake
//! completed (the paper's HTTPS observation of many short connections
//! that *do* finish the SSL handshake then immediately close, §5.1.1).

use crate::cursor::Cursor;

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

/// Parse a record header from the front of a stream buffer; returns the
/// record and bytes consumed once the full record is present.
pub fn parse_record(buf: &[u8]) -> Option<(Record, usize)> {
    let mut c = Cursor::new(buf);
    let t = c.u8()?;
    let major = c.u8()?;
    let minor = c.u8()?;
    let len = c.be16()? as usize;
    if major != 3 || minor > 4 || len > 1 << (14 + 2) {
        return None;
    }
    if c.remaining() < len {
        return None;
    }
    Some((
        Record {
            rtype: RecordType::from_u8(t),
            version: (major, minor),
            length: len,
        },
        5usize.saturating_add(len),
    ))
}

/// True if the stream prefix looks like a TLS ClientHello.
pub fn looks_like_client_hello(buf: &[u8]) -> bool {
    matches!(parse_record(buf), Some((r, _)) if r.rtype == RecordType::Handshake)
        && buf.len() > 5
        && buf[5] == 1
}

/// Tracks handshake completion across both directions of a connection.
#[derive(Debug, Default, Clone, Copy)]
pub struct TlsTracker {
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

    /// Feed one direction's stream bytes (complete records expected;
    /// partial trailing records are ignored).
    pub fn feed(&mut self, from_client: bool, mut data: &[u8]) {
        while let Some((rec, used)) = parse_record(data) {
            match rec.rtype {
                RecordType::Handshake => {
                    let msg_type = data.get(5).copied().unwrap_or(0);
                    if from_client && msg_type == 1 {
                        self.client_hello = true;
                    }
                    if !from_client && msg_type == 2 {
                        self.server_hello = true;
                    }
                }
                RecordType::ChangeCipherSpec => {
                    if from_client {
                        self.client_ccs = true;
                    } else {
                        self.server_ccs = true;
                    }
                }
                RecordType::ApplicationData => self.app_records += 1,
                _ => {}
            }
            data = data.get(used..).unwrap_or(&[]);
        }
    }

    /// Handshake completed in both directions.
    pub fn handshake_complete(&self) -> bool {
        self.client_hello && self.server_hello && self.client_ccs && self.server_ccs
    }
}

/// Encode a TLS record with filler payload.
pub fn encode_record(rtype: RecordType, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![rtype.to_u8(), 3, 1];
    out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
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
    out.extend_from_slice(&(payload_len as u16).to_be_bytes());
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
        assert!(looks_like_client_hello(&ch));
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
        assert!(!looks_like_client_hello(&r));
    }

    #[test]
    fn non_tls_rejected() {
        assert!(parse_record(b"GET / HTTP/1.1\r\n").is_none());
    }
}
