//! NetBIOS Name Service (137/udp) and Session Service (139/tcp) framing.
//!
//! §5.1.3 of the paper analyzes NBNS request types (query vs refresh vs
//! register/release), queried *name types* (workstation/server vs
//! domain/browser), and the strikingly high NXDOMAIN rate (36–50% of
//! distinct queries). §5.2.1 analyzes the NetBIOS-SSN handshake that
//! fronts CIFS on port 139.

use crate::cursor::Cursor;

/// NBNS operations (opcode field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NsOpcode {
    /// Name query (0).
    Query,
    /// Name registration (5).
    Registration,
    /// Name release (6).
    Release,
    /// WACK (7).
    Wack,
    /// Name refresh (8 or 9).
    Refresh,
    /// Anything else.
    Other(u8),
}

impl NsOpcode {
    /// Decode the opcode.
    pub fn from_u8(v: u8) -> NsOpcode {
        match v {
            0 => NsOpcode::Query,
            5 => NsOpcode::Registration,
            6 => NsOpcode::Release,
            7 => NsOpcode::Wack,
            8 | 9 => NsOpcode::Refresh,
            x => NsOpcode::Other(x),
        }
    }

    /// Encode to the wire opcode.
    pub fn to_u8(self) -> u8 {
        match self {
            NsOpcode::Query => 0,
            NsOpcode::Registration => 5,
            NsOpcode::Release => 6,
            NsOpcode::Wack => 7,
            NsOpcode::Refresh => 8,
            NsOpcode::Other(x) => x & 0x0F,
        }
    }
}

ent_wire::code_table! {
    /// The NetBIOS name-type suffix (16th byte of the decoded name), which the
    /// paper buckets into workstation/server vs domain/browser queries.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum NameType: u8 {
        /// Workstation service.
        Workstation = 0x00,
        /// File server service.
        Server = 0x20,
        /// Domain master browser.
        DomainMaster = 0x1B,
        /// Domain controllers.
        DomainControllers = 0x1C,
        /// Local master browser.
        MasterBrowser = 0x1D,
        /// Browser service elections.
        BrowserElection = 0x1E,
    }
    /// Anything else.
    else Other(u8);
    pub fn from_u8;
    pub fn to_u8;
}

impl NameType {
    /// The paper's "workstations and servers" bucket (63–71% of queries).
    pub fn is_host(self) -> bool {
        matches!(self, NameType::Workstation | NameType::Server)
    }

    /// The paper's "domain/browser information" bucket (22–32%).
    pub fn is_domain_browser(self) -> bool {
        matches!(
            self,
            NameType::DomainMaster
                | NameType::DomainControllers
                | NameType::MasterBrowser
                | NameType::BrowserElection
        )
    }
}

/// A parsed NBNS message (header + first question/record name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsMessage {
    /// Transaction ID.
    pub id: u16,
    /// True for responses.
    pub is_response: bool,
    /// Operation.
    pub opcode: NsOpcode,
    /// Response code (0 = success, 3 = name-not-found).
    pub rcode: u8,
    /// Decoded NetBIOS name (trailing spaces stripped).
    pub name: String,
    /// Name-type suffix.
    pub name_type: NameType,
}

impl NsMessage {
    /// NXDOMAIN-equivalent failure (the paper's "NXDOMAIN reply" count).
    pub fn is_name_error(&self) -> bool {
        self.is_response && self.rcode == 3
    }
}

/// First-level encode a NetBIOS name (RFC 1001 §14): 15 space-padded
/// characters + type suffix, each nibble mapped to 'A'..'P', wrapped as a
/// 32-byte DNS label.
pub fn encode_nb_name(name: &str, ntype: NameType) -> [u8; 34] {
    let mut raw = [b' '; 16];
    for (i, b) in name.bytes().take(15).enumerate() {
        if let Some(slot) = raw.get_mut(i) {
            *slot = b.to_ascii_uppercase();
        }
    }
    raw[15] = ntype.to_u8();
    let mut out = [0u8; 34];
    out[0] = 32;
    for (i, &b) in raw.iter().enumerate() {
        if let Some(slot) = out.get_mut(1 + i * 2) {
            *slot = b'A' + (b >> 4);
        }
        if let Some(slot) = out.get_mut(2 + i * 2) {
            *slot = b'A' + (b & 0x0F);
        }
    }
    out[33] = 0;
    out
}

fn decode_nb_name(label: &[u8]) -> Option<(String, NameType)> {
    if label.len() != 32 {
        return None;
    }
    let mut raw = [0u8; 16];
    for i in 0..16 {
        let hi = label.get(i * 2)?.checked_sub(b'A')?;
        let lo = label.get(i * 2 + 1)?.checked_sub(b'A')?;
        if hi > 15 || lo > 15 {
            return None;
        }
        if let Some(slot) = raw.get_mut(i) {
            *slot = (hi << 4) | lo;
        }
    }
    let ntype = NameType::from_u8(raw[15]);
    let name = String::from_utf8_lossy(&raw[..15]).trim_end().to_string();
    Some((name, ntype))
}

/// Parse an NBNS message from a UDP payload.
pub fn parse_ns(payload: &[u8]) -> Option<NsMessage> {
    let mut c = Cursor::new(payload);
    let id = c.be16()?;
    let flags = c.be16()?;
    let qd = c.be16()?;
    let an = c.be16()?;
    c.be16()?;
    c.be16()?;
    let is_response = flags & 0x8000 != 0;
    // Questions carry the name in queries; responses carry it in the
    // answer section (qd == 0). Either way the first name follows.
    if qd == 0 && an == 0 {
        return None;
    }
    let len = c.u8()?;
    if len != 32 {
        return None;
    }
    let label = c.take(32)?;
    let (name, name_type) = decode_nb_name(label)?;
    Some(NsMessage {
        id,
        is_response,
        opcode: NsOpcode::from_u8(((flags >> 11) & 0x0F) as u8),
        rcode: (flags & 0x000F) as u8,
        name,
        name_type,
    })
}

/// Encode an NBNS query/request.
pub fn encode_ns_request(id: u16, opcode: NsOpcode, name: &str, ntype: NameType) -> Vec<u8> {
    let mut buf = Vec::with_capacity(50);
    buf.extend_from_slice(&id.to_be_bytes());
    let flags: u16 = ((opcode.to_u8() as u16) << 11) | 0x0110; // RD + B
    buf.extend_from_slice(&flags.to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes()); // QD
    buf.extend_from_slice(&[0; 6]);
    buf.extend_from_slice(&encode_nb_name(name, ntype));
    buf.extend_from_slice(&0x0020u16.to_be_bytes()); // NB
    buf.extend_from_slice(&0x0001u16.to_be_bytes()); // IN
    buf
}

/// Encode an NBNS response with the given rcode (0 success, 3 name error).
pub fn encode_ns_response(
    id: u16,
    opcode: NsOpcode,
    name: &str,
    ntype: NameType,
    rcode: u8,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(62);
    buf.extend_from_slice(&id.to_be_bytes());
    let flags: u16 = 0x8000 | ((opcode.to_u8() as u16) << 11) | 0x0400 | (rcode as u16 & 0x0F);
    buf.extend_from_slice(&flags.to_be_bytes());
    buf.extend_from_slice(&0u16.to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes()); // AN
    buf.extend_from_slice(&[0; 4]);
    buf.extend_from_slice(&encode_nb_name(name, ntype));
    buf.extend_from_slice(&0x0020u16.to_be_bytes());
    buf.extend_from_slice(&0x0001u16.to_be_bytes());
    buf.extend_from_slice(&0u32.to_be_bytes()); // TTL
    if rcode == 0 {
        buf.extend_from_slice(&6u16.to_be_bytes()); // RDLENGTH
        buf.extend_from_slice(&[0, 0, 10, 0, 0, 1]); // flags + addr
    } else {
        buf.extend_from_slice(&0u16.to_be_bytes());
    }
    buf
}

// ---------------------------------------------------------------------------
// NetBIOS Session Service (139/tcp)
// ---------------------------------------------------------------------------

ent_wire::code_table! {
    /// NetBIOS session packet types.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SsnType: u8 {
        /// Session message — carries SMB.
        Message = 0x00,
        /// Session request.
        Request = 0x81,
        /// Positive response.
        PositiveResponse = 0x82,
        /// Negative response.
        NegativeResponse = 0x83,
        /// Keep-alive.
        KeepAlive = 0x85,
    }
    /// Anything else.
    else Other(u8);
    pub fn from_u8;
    pub fn to_u8;
}

/// One NetBIOS session-service frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsnFrame {
    /// Frame type.
    pub stype: SsnType,
    /// Payload length.
    pub length: usize,
}

/// Try to parse a session frame header from the front of `buf`; returns the
/// frame and total consumed length once the full frame is buffered.
pub fn parse_ssn_frame(buf: &[u8]) -> Option<(SsnFrame, usize)> {
    if buf.len() < 4 {
        return None;
    }
    let stype = SsnType::from_u8(buf[0]);
    let length = ((buf[1] as usize & 0x01) << 16) | ((buf[2] as usize) << 8) | buf[3] as usize;
    let total = 4usize.saturating_add(length);
    if buf.len() < total {
        return None;
    }
    Some((SsnFrame { stype, length }, total))
}

/// Encode a session frame with the given payload.
pub fn encode_ssn_frame(stype: SsnType, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() < (1 << 17));
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.push(stype.to_u8());
    buf.push(((payload.len() >> 16) & 0x01) as u8);
    buf.push((payload.len() >> 8) as u8);
    buf.push(payload.len() as u8);
    buf.extend_from_slice(payload);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nb_name_roundtrip() {
        let enc = encode_nb_name("FILESRV01", NameType::Server);
        assert_eq!(enc[0], 32);
        let (name, ntype) = decode_nb_name(&enc[1..33]).unwrap();
        assert_eq!(name, "FILESRV01");
        assert_eq!(ntype, NameType::Server);
    }

    #[test]
    fn ns_query_roundtrip() {
        let q = encode_ns_request(42, NsOpcode::Query, "wkst-12", NameType::Workstation);
        let m = parse_ns(&q).unwrap();
        assert_eq!(m.id, 42);
        assert!(!m.is_response);
        assert_eq!(m.opcode, NsOpcode::Query);
        assert_eq!(m.name, "WKST-12");
        assert!(m.name_type.is_host());
    }

    #[test]
    fn ns_name_error_response() {
        let r = encode_ns_response(42, NsOpcode::Query, "STALE", NameType::Workstation, 3);
        let m = parse_ns(&r).unwrap();
        assert!(m.is_response);
        assert!(m.is_name_error());
        assert_eq!(m.name, "STALE");
    }

    #[test]
    fn ns_refresh_roundtrip() {
        let q = encode_ns_request(1, NsOpcode::Refresh, "HOSTX", NameType::Workstation);
        let m = parse_ns(&q).unwrap();
        assert_eq!(m.opcode, NsOpcode::Refresh);
    }

    #[test]
    fn domain_browser_types() {
        let q = encode_ns_request(1, NsOpcode::Query, "LBNLDOM", NameType::DomainControllers);
        let m = parse_ns(&q).unwrap();
        assert!(m.name_type.is_domain_browser());
        assert!(!m.name_type.is_host());
    }

    #[test]
    fn ssn_frame_roundtrip() {
        let f = encode_ssn_frame(SsnType::Request, b"calling-name");
        let (frame, used) = parse_ssn_frame(&f).unwrap();
        assert_eq!(frame.stype, SsnType::Request);
        assert_eq!(frame.length, 12);
        assert_eq!(used, f.len());
        // Incomplete buffer: needs more bytes.
        assert!(parse_ssn_frame(&f[..10]).is_none());
        assert!(parse_ssn_frame(&f[..3]).is_none());
    }

    #[test]
    fn ssn_types_roundtrip() {
        for v in [0x00u8, 0x81, 0x82, 0x83, 0x85, 0x99] {
            assert_eq!(SsnType::from_u8(v).to_u8(), v);
        }
    }

    #[test]
    fn truncated_ns_rejected() {
        let q = encode_ns_request(1, NsOpcode::Query, "X", NameType::Workstation);
        assert!(parse_ns(&q[..20]).is_none());
    }
}
