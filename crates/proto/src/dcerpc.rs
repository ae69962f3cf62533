//! DCE/RPC PDU parsing and the function taxonomy of the paper's Table 11.
//!
//! DCE/RPC reaches services two ways (§5.2.1): over CIFS named pipes, and
//! over plain TCP/UDP endpoints discovered through the Endpoint Mapper on
//! 135/tcp. We parse bind PDUs (to learn the interface), request PDUs (to
//! get the operation number), and Endpoint-Mapper map responses (to learn
//! dynamic ports — feeding [`crate::registry::DynamicPorts`]).
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]

use crate::cursor::Cursor;
use crate::{len16, len32, StreamPair};
use ent_wire::ipv4;

/// A 16-byte interface UUID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uuid(pub [u8; 16]);

/// Well-known interfaces from the traces.
pub mod interfaces {
    use super::Uuid;
    /// Spoolss (print spooler).
    pub const SPOOLSS: Uuid = Uuid([
        0x78, 0x56, 0x34, 0x12, 0x34, 0x12, 0xcd, 0xab, 0xef, 0x00, 0x01, 0x23, 0x45, 0x67, 0x89,
        0xab,
    ]);
    /// NetLogon (user authentication).
    pub const NETLOGON: Uuid = Uuid([
        0x78, 0x56, 0x34, 0x12, 0x34, 0x12, 0xcd, 0xab, 0xef, 0x00, 0x01, 0x23, 0x45, 0x67, 0xcf,
        0xfb,
    ]);
    /// LsaRPC (local security authority).
    pub const LSARPC: Uuid = Uuid([
        0x78, 0x57, 0x34, 0x12, 0x34, 0x12, 0xcd, 0xab, 0xef, 0x00, 0x01, 0x23, 0x45, 0x67, 0x89,
        0xab,
    ]);
    /// Endpoint mapper.
    pub const EPMAPPER: Uuid = Uuid([
        0x08, 0x83, 0xaf, 0xe1, 0x1f, 0x5d, 0xc9, 0x11, 0x91, 0xa4, 0x08, 0x00, 0x2b, 0x14, 0xa0,
        0xfa,
    ]);
    /// Srvsvc (server service).
    pub const SRVSVC: Uuid = Uuid([
        0xc8, 0x4f, 0x32, 0x4b, 0x70, 0x16, 0xd3, 0x01, 0x12, 0x78, 0x5a, 0x47, 0xbf, 0x6e, 0xe1,
        0x88,
    ]);
}

ent_wire::code_table! {
    /// The paper's Table 11 function buckets.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub enum RpcFunction {
        /// NetLogon authentication calls.
        NetLogon => "NetLogon",
        /// LsaRPC calls.
        LsaRpc => "LsaRPC",
        /// Spoolss WritePrinter — the single dominant function where a print
        /// server is monitored (81% of D4 requests).
        SpoolssWritePrinter => "Spoolss/WritePrinter",
        /// All other Spoolss printing calls.
        SpoolssOther => "Spoolss/other",
        /// Endpoint-mapper map calls.
        EpmMap => "EpmMap",
        /// Everything else.
        Other => "Other",
    }
    pub fn label;
}

impl RpcFunction {
    /// Classify (interface, opnum) per Table 11.
    pub fn classify(iface: Uuid, opnum: u16) -> RpcFunction {
        use interfaces::*;
        if iface == SPOOLSS {
            if opnum == 19 {
                RpcFunction::SpoolssWritePrinter
            } else {
                RpcFunction::SpoolssOther
            }
        } else if iface == NETLOGON {
            RpcFunction::NetLogon
        } else if iface == LSARPC {
            RpcFunction::LsaRpc
        } else if iface == EPMAPPER {
            RpcFunction::EpmMap
        } else {
            RpcFunction::Other
        }
    }
}

ent_wire::code_table! {
    /// PDU types.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PduType: u8 {
        /// Request.
        Request = 0,
        /// Response.
        Response = 2,
        /// Bind.
        Bind = 11,
        /// Bind acknowledgment.
        BindAck = 12,
    }
    /// Other.
    else Other(u8);
    pub(crate) fn from_u8;
    pub(crate) fn to_u8;
}

/// One parsed DCE/RPC PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pdu {
    /// PDU type.
    pub ptype: PduType,
    /// Total fragment length.
    pub frag_len: u16,
    /// For Bind: the abstract-syntax interface UUID.
    pub bind_iface: Option<Uuid>,
    /// For Request: the operation number.
    pub opnum: Option<u16>,
    /// Stub (payload) byte length for request/response.
    pub stub_len: u32,
    /// For Endpoint-Mapper map responses: the mapped (interface, address,
    /// port) triple.
    pub epm_mapping: Option<(Uuid, ipv4::Addr, u16)>,
}

const HEADER_LEN: usize = 16;

/// Parse one PDU from the front of `buf`; returns the PDU and bytes
/// consumed once a complete fragment is present.
pub fn parse_pdu(buf: &[u8]) -> Option<(Pdu, usize)> {
    let mut c = Cursor::new(buf);
    let ver = c.u8()?;
    let ver_minor = c.u8()?;
    if ver != 5 || ver_minor > 1 {
        return None;
    }
    let ptype = PduType::from_u8(c.u8()?);
    let _flags = c.u8()?;
    c.skip(4)?; // data representation
    let frag_len = c.le16()?;
    let _auth_len = c.le16()?;
    let _call_id = c.le32()?;
    if (frag_len as usize) < HEADER_LEN || buf.len() < frag_len as usize {
        return None;
    }
    let body = buf.get(HEADER_LEN..frag_len as usize).unwrap_or(&[]);
    let mut pdu = Pdu {
        ptype,
        frag_len,
        bind_iface: None,
        opnum: None,
        stub_len: 0,
        epm_mapping: None,
    };
    match ptype {
        PduType::Bind => {
            // max_xmit(2) max_recv(2) assoc_group(4) n_ctx(1) pad(3)
            // ctx_id(2) n_transfer(1) pad(1) iface_uuid(16) ...
            let mut b = Cursor::new(body);
            b.skip(8)?;
            b.skip(4)?;
            pdu.bind_iface = Some(Uuid(b.array()?));
        }
        PduType::Request => {
            // alloc_hint(4) context_id(2) opnum(2) stub...
            let mut b = Cursor::new(body);
            b.skip(4)?;
            b.skip(2)?;
            pdu.opnum = Some(b.le16()?);
            pdu.stub_len = len32(b.remaining());
        }
        PduType::Response => {
            // alloc_hint(4) context_id(2) cancel(1) pad(1) stub...
            let mut b = Cursor::new(body);
            b.skip(8)?;
            pdu.stub_len = len32(b.remaining());
            pdu.epm_mapping = epm_tower(&mut b);
        }
        _ => {}
    }
    Some((pdu, frag_len as usize))
}

/// The simplified tower an endpoint-mapper map response carries after
/// its stub header: magic "EPMv" + uuid(16) + port(2) + addr(4).
fn epm_tower(c: &mut Cursor<'_>) -> Option<(Uuid, ipv4::Addr, u16)> {
    if c.take(4)? != b"EPMv" {
        return None;
    }
    let (u, port, addr) = (c.array()?, c.be16()?, c.be32()?);
    Some((Uuid(u), ipv4::Addr(addr), port))
}

fn emit_header(ptype: PduType, body_len: usize) -> Vec<u8> {
    let frag = body_len.saturating_add(HEADER_LEN);
    let mut buf = Vec::with_capacity(frag);
    buf.push(5);
    buf.push(0);
    buf.push(ptype.to_u8());
    buf.push(0x03); // first+last fragment
    buf.extend_from_slice(&[0x10, 0, 0, 0]); // little-endian drep
    buf.extend_from_slice(&len16(frag).to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf
}

/// Encode a Bind PDU for `iface`.
pub fn encode_bind(iface: Uuid) -> Vec<u8> {
    let mut body = Vec::with_capacity(36);
    body.extend_from_slice(&4280u16.to_le_bytes());
    body.extend_from_slice(&4280u16.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&[1, 0, 0, 0]); // one context
    body.extend_from_slice(&iface.0);
    body.extend_from_slice(&2u32.to_le_bytes()); // iface version
    let mut pdu = emit_header(PduType::Bind, body.len());
    pdu.extend_from_slice(&body);
    pdu
}

/// Encode a BindAck PDU.
pub fn encode_bind_ack() -> Vec<u8> {
    let body = vec![0u8; 24];
    let mut pdu = emit_header(PduType::BindAck, body.len());
    pdu.extend_from_slice(&body);
    pdu
}

/// Encode a Request PDU with `opnum` and `stub_len` filler stub bytes.
pub fn encode_request(opnum: u16, stub_len: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(stub_len.saturating_add(8));
    body.extend_from_slice(&len32(stub_len).to_le_bytes());
    body.extend_from_slice(&0u16.to_le_bytes());
    body.extend_from_slice(&opnum.to_le_bytes());
    body.extend(std::iter::repeat_n(0x5A, stub_len));
    let mut pdu = emit_header(PduType::Request, body.len());
    pdu.extend_from_slice(&body);
    pdu
}

/// Encode a Response PDU with `stub_len` filler bytes.
pub fn encode_response(stub_len: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(stub_len.saturating_add(8));
    body.extend_from_slice(&len32(stub_len).to_le_bytes());
    body.extend_from_slice(&[0u8; 4]);
    body.extend(std::iter::repeat_n(0xA5, stub_len));
    let mut pdu = emit_header(PduType::Response, body.len());
    pdu.extend_from_slice(&body);
    pdu
}

/// Encode an Endpoint-Mapper map *response* announcing that `iface` is
/// served at `addr:port`.
pub fn encode_epm_response(iface: Uuid, addr: ipv4::Addr, port: u16) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + 26);
    body.extend_from_slice(&26u32.to_le_bytes());
    body.extend_from_slice(&[0u8; 4]);
    body.extend_from_slice(b"EPMv");
    body.extend_from_slice(&iface.0);
    body.extend_from_slice(&port.to_be_bytes());
    body.extend_from_slice(&addr.octets());
    let mut pdu = emit_header(PduType::Response, body.len());
    pdu.extend_from_slice(&body);
    pdu
}

/// One classified DCE/RPC call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcCall {
    /// Classified function bucket.
    pub function: RpcFunction,
    /// Operation number.
    pub opnum: u16,
    /// Request stub bytes.
    pub request_bytes: u64,
    /// Response stub bytes (0 if unseen).
    pub response_bytes: u64,
}

/// Streaming analyzer for one DCE/RPC channel (a TCP connection or a CIFS
/// named pipe): pairs requests with responses and tracks the bound
/// interface.
#[derive(Debug, Default)]
pub struct DcerpcAnalyzer {
    streams: StreamPair,
    calls: Calls,
    /// Endpoint-mapper mappings observed (for dynamic port learning).
    pub mappings: Vec<(Uuid, ipv4::Addr, u16)>,
}

/// The request/response pairing, apart from the readers and `mappings`.
#[derive(Debug, Default)]
struct Calls {
    iface: Option<Uuid>,
    pending: std::collections::VecDeque<(u16, u64)>,
    /// Completed calls.
    out: Vec<RpcCall>,
}

impl Calls {
    /// Complete the oldest pending request, if any.
    fn answer(&mut self, response_bytes: u64) -> Option<()> {
        let (opnum, request_bytes) = self.pending.pop_front()?;
        self.out.push(RpcCall {
            function: RpcFunction::classify(self.iface.unwrap_or(Uuid([0; 16])), opnum),
            opnum,
            request_bytes,
            response_bytes,
        });
        Some(())
    }
}

impl DcerpcAnalyzer {
    /// New analyzer.
    pub fn new() -> DcerpcAnalyzer {
        DcerpcAnalyzer::default()
    }

    /// The interface bound on this channel, once seen.
    pub fn iface(&self) -> Option<Uuid> {
        self.calls.iface
    }

    /// Feed channel bytes (client = request direction).
    pub fn feed(&mut self, from_client: bool, data: &[u8]) {
        self.streams.dir(from_client).feed(data, |u| {
            let pdu = u.framed(parse_pdu)?;
            match pdu.ptype {
                PduType::Bind => self.calls.iface = pdu.bind_iface,
                PduType::Request => {
                    if let Some(op) = pdu.opnum {
                        self.calls.pending.push_back((op, pdu.stub_len as u64));
                    }
                }
                PduType::Response => {
                    self.mappings.extend(pdu.epm_mapping);
                    self.calls.answer(pdu.stub_len as u64);
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

    /// Flush unanswered requests as calls with zero response bytes.
    pub fn finish(&mut self) {
        while self.calls.answer(0).is_some() {}
    }

    /// Take completed calls.
    pub fn take_calls(&mut self) -> Vec<RpcCall> {
        std::mem::take(&mut self.calls.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interfaces::*;

    #[test]
    fn bind_request_response_flow() {
        let mut a = DcerpcAnalyzer::new();
        a.feed(true, &encode_bind(SPOOLSS));
        a.feed(false, &encode_bind_ack());
        a.feed(true, &encode_request(19, 4096)); // WritePrinter
        a.feed(false, &encode_response(4));
        a.finish();
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].function, RpcFunction::SpoolssWritePrinter);
        assert_eq!(calls[0].request_bytes, 4096);
        assert_eq!(calls[0].response_bytes, 4);
        assert_eq!(a.iface(), Some(SPOOLSS));
    }

    #[test]
    fn classification_table() {
        assert_eq!(RpcFunction::classify(SPOOLSS, 19), RpcFunction::SpoolssWritePrinter);
        assert_eq!(RpcFunction::classify(SPOOLSS, 1), RpcFunction::SpoolssOther);
        assert_eq!(RpcFunction::classify(NETLOGON, 2), RpcFunction::NetLogon);
        assert_eq!(RpcFunction::classify(LSARPC, 6), RpcFunction::LsaRpc);
        assert_eq!(RpcFunction::classify(EPMAPPER, 3), RpcFunction::EpmMap);
        assert_eq!(RpcFunction::classify(SRVSVC, 1), RpcFunction::Other);
    }

    #[test]
    fn epm_mapping_learned() {
        let srv = ipv4::Addr::new(10, 3, 0, 7);
        let mut a = DcerpcAnalyzer::new();
        a.feed(true, &encode_bind(EPMAPPER));
        a.feed(true, &encode_request(3, 60));
        a.feed(false, &encode_epm_response(SPOOLSS, srv, 49160));
        assert_eq!(a.mappings, vec![(SPOOLSS, srv, 49160)]);
        let calls = a.take_calls();
        assert_eq!(calls[0].function, RpcFunction::EpmMap);
    }

    #[test]
    fn pdus_reassembled_across_chunks() {
        let mut a = DcerpcAnalyzer::new();
        a.feed(true, &encode_bind(NETLOGON));
        let req = encode_request(2, 500);
        for chunk in req.chunks(64) {
            a.feed(true, chunk);
        }
        a.feed(false, &encode_response(120));
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].function, RpcFunction::NetLogon);
    }

    #[test]
    fn unanswered_request_flushed() {
        let mut a = DcerpcAnalyzer::new();
        a.feed(true, &encode_bind(LSARPC));
        a.feed(true, &encode_request(6, 80));
        a.finish();
        let calls = a.take_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].response_bytes, 0);
    }

    #[test]
    fn non_dcerpc_rejected() {
        assert!(parse_pdu(b"GET / HTTP/1.1\r\n\r\n").is_none());
        assert!(parse_pdu(&[5, 0, 0]).is_none());
    }

    #[test]
    fn distinct_interfaces_have_distinct_uuids() {
        let all = [SPOOLSS, NETLOGON, LSARPC, EPMAPPER, SRVSVC];
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }
}
