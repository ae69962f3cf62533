//! DNS wire format: enough of RFC 1035 to reproduce the paper's §5.1.3
//! name-service analysis — query types (A / AAAA / PTR / MX dominate),
//! response codes (NOERROR vs NXDOMAIN), and query/response latency
//! pairing by transaction ID.

use crate::cursor::Cursor;

ent_wire::code_table! {
    /// Query/record types the analysis distinguishes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum QType: u16 {
        /// IPv4 address.
        A = 1,
        /// Name server.
        Ns = 2,
        /// Canonical name.
        Cname = 5,
        /// Pointer/reverse.
        Ptr = 12,
        /// Mail exchanger.
        Mx = 15,
        /// Text.
        Txt = 16,
        /// IPv6 address — surprisingly prevalent in the traces.
        Aaaa = 28,
        /// Service locator.
        Srv = 33,
    }
    /// Anything else.
    else Other(u16);
    pub fn from_u16;
    pub fn to_u16;
}

/// Response codes the analysis distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RCode {
    /// Success (0).
    NoError,
    /// Format error (1).
    FormErr,
    /// Server failure (2).
    ServFail,
    /// Name does not exist (3).
    NxDomain,
    /// Other code.
    Other(u8),
}

impl RCode {
    /// Decode the 4-bit rcode.
    pub fn from_u8(v: u8) -> RCode {
        match v & 0x0F {
            0 => RCode::NoError,
            1 => RCode::FormErr,
            2 => RCode::ServFail,
            3 => RCode::NxDomain,
            x => RCode::Other(x),
        }
    }

    /// Encode to the wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            RCode::NoError => 0,
            RCode::FormErr => 1,
            RCode::ServFail => 2,
            RCode::NxDomain => 3,
            RCode::Other(x) => x & 0x0F,
        }
    }
}

/// A parsed DNS message header + first question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction ID (pairs queries with responses).
    pub id: u16,
    /// True for responses.
    pub is_response: bool,
    /// Response code (meaningful in responses).
    pub rcode: RCode,
    /// First question's name (lowercased, dot-separated) if present.
    pub qname: Option<String>,
    /// First question's type if present.
    pub qtype: Option<QType>,
    /// Answer record count.
    pub answers: u16,
}

/// Parse a DNS message from a UDP payload (or a TCP message after its
/// 2-byte length prefix has been stripped).
pub fn parse(payload: &[u8]) -> Option<Message> {
    let mut c = Cursor::new(payload);
    let id = c.be16()?;
    let flags = c.be16()?;
    let qdcount = c.be16()?;
    let ancount = c.be16()?;
    let _ns = c.be16()?;
    let _ar = c.be16()?;
    let mut qname = None;
    let mut qtype = None;
    if qdcount > 0 {
        let name = parse_name(&mut c)?;
        qtype = Some(QType::from_u16(c.be16()?));
        c.be16()?; // qclass
        qname = Some(name);
    }
    Some(Message {
        id,
        is_response: flags & 0x8000 != 0,
        rcode: RCode::from_u8((flags & 0x000F) as u8),
        qname,
        qtype,
        answers: ancount,
    })
}

fn parse_name(c: &mut Cursor<'_>) -> Option<String> {
    let mut name = String::new();
    loop {
        let len = c.u8()?;
        if len == 0 {
            break;
        }
        if len & 0xC0 == 0xC0 {
            // Compression pointer: consume the second byte and stop (we
            // only need the leading labels for analysis).
            c.u8()?;
            break;
        }
        if len > 63 {
            return None;
        }
        let label = c.take(len as usize)?;
        if !name.is_empty() {
            name.push('.');
        }
        for &b in label {
            name.push((b as char).to_ascii_lowercase());
        }
        if name.len() > 255 {
            return None;
        }
    }
    Some(name)
}

/// Build a DNS query for (`qname`, `qtype`) with transaction id `id`.
pub fn encode_query(id: u16, qname: &str, qtype: QType) -> Vec<u8> {
    let mut buf = Vec::with_capacity(17 + qname.len());
    buf.extend_from_slice(&id.to_be_bytes());
    buf.extend_from_slice(&0x0100u16.to_be_bytes()); // RD
    buf.extend_from_slice(&1u16.to_be_bytes()); // QD
    buf.extend_from_slice(&[0; 6]); // AN/NS/AR
    encode_name(&mut buf, qname);
    buf.extend_from_slice(&qtype.to_u16().to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes()); // IN
    buf
}

/// Build a DNS response echoing the question, with `answers` dummy A/AAAA
/// records (enough structure for size realism; the analyzer only reads the
/// header and question).
pub fn encode_response(id: u16, qname: &str, qtype: QType, rcode: RCode, answers: u16) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + qname.len());
    buf.extend_from_slice(&id.to_be_bytes());
    let flags: u16 = 0x8180 | rcode.to_u8() as u16;
    buf.extend_from_slice(&flags.to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes());
    buf.extend_from_slice(&answers.to_be_bytes());
    buf.extend_from_slice(&[0; 4]);
    encode_name(&mut buf, qname);
    buf.extend_from_slice(&qtype.to_u16().to_be_bytes());
    buf.extend_from_slice(&1u16.to_be_bytes());
    for i in 0..answers {
        // Compressed pointer to the question name at offset 12.
        buf.extend_from_slice(&0xC00Cu16.to_be_bytes());
        let (rtype, rdlen): (u16, u16) = match qtype {
            QType::Aaaa => (28, 16),
            QType::Mx => (15, 8),
            QType::Ptr => (12, 10),
            _ => (1, 4),
        };
        buf.extend_from_slice(&rtype.to_be_bytes());
        buf.extend_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&300u32.to_be_bytes()); // TTL
        buf.extend_from_slice(&rdlen.to_be_bytes());
        buf.extend(std::iter::repeat_n(i as u8, rdlen as usize));
    }
    buf
}

fn encode_name(buf: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let l = label.len().min(63);
        buf.push(l as u8);
        buf.extend_from_slice(label.as_bytes().get(..l).unwrap_or(&[]));
    }
    buf.push(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = encode_query(0x1234, "mail.lbl.gov", QType::Mx);
        let m = parse(&q).unwrap();
        assert_eq!(m.id, 0x1234);
        assert!(!m.is_response);
        assert_eq!(m.qname.as_deref(), Some("mail.lbl.gov"));
        assert_eq!(m.qtype, Some(QType::Mx));
        assert_eq!(m.answers, 0);
    }

    #[test]
    fn response_roundtrip() {
        let r = encode_response(7, "host.lbl.gov", QType::A, RCode::NoError, 2);
        let m = parse(&r).unwrap();
        assert!(m.is_response);
        assert_eq!(m.rcode, RCode::NoError);
        assert_eq!(m.answers, 2);
        assert_eq!(m.qname.as_deref(), Some("host.lbl.gov"));
    }

    #[test]
    fn nxdomain() {
        let r = encode_response(9, "stale.lbl.gov", QType::A, RCode::NxDomain, 0);
        let m = parse(&r).unwrap();
        assert_eq!(m.rcode, RCode::NxDomain);
    }

    #[test]
    fn aaaa_answer_sizes() {
        let r4 = encode_response(1, "h.lbl.gov", QType::A, RCode::NoError, 1);
        let r6 = encode_response(1, "h.lbl.gov", QType::Aaaa, RCode::NoError, 1);
        assert!(r6.len() > r4.len());
    }

    #[test]
    fn truncated_rejected() {
        let q = encode_query(1, "a.b", QType::A);
        assert!(parse(&q[..6]).is_none());
        assert!(parse(&[]).is_none());
    }

    #[test]
    fn malformed_label_rejected() {
        let mut q = encode_query(1, "ok.example", QType::A);
        q[12] = 77; // label length beyond buffer
        assert!(parse(&q).is_none());
    }

    #[test]
    fn uppercase_folded() {
        let q = encode_query(1, "WWW.LBL.GOV", QType::A);
        assert_eq!(parse(&q).unwrap().qname.as_deref(), Some("www.lbl.gov"));
    }

    #[test]
    fn qtype_codes_roundtrip() {
        for v in [1u16, 2, 5, 12, 15, 16, 28, 33, 99] {
            assert_eq!(QType::from_u16(v).to_u16(), v);
        }
        for v in [0u8, 1, 2, 3, 5] {
            assert_eq!(RCode::from_u8(v).to_u8(), v);
        }
    }
}
