//! CIFS/SMB message framing and the paper's command taxonomy (Table 10).
//!
//! CIFS rides on either 445/tcp directly or inside NetBIOS-SSN on 139/tcp
//! (hosts "use the two interchangeably", §5.2.1); both carry the same
//! 4-byte NetBIOS framing. We parse the SMB1 header, classify each command
//! into the paper's buckets — *SMB Basic*, *Windows File Sharing*, *RPC
//! Pipes*, *LANMAN* — and expose embedded DCE/RPC fragments from
//! Transaction messages so the DCE/RPC analyzer can process named-pipe
//! traffic (which the paper found to be the dominant CIFS component).

use crate::cursor::Cursor;
use crate::netbios::{self, SsnType};
use crate::StreamPair;

ent_wire::code_table! {
    /// SMB1 command codes used by the generator and classifier.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    #[allow(missing_docs)]
    pub enum SmbCommand: u8 {
        Negotiate = 0x72,
        SessionSetupAndX = 0x73,
        LogoffAndX = 0x74,
        TreeConnectAndX = 0x75,
        TreeDisconnect = 0x71,
        NtCreateAndX = 0xA2,
        Close = 0x04,
        Echo = 0x2B,
        ReadAndX = 0x2E,
        WriteAndX = 0x2F,
        Trans2 = 0x32,
        Trans = 0x25,
    }
    else Other(u8);
    pub fn from_u8;
    pub fn to_u8;
}

/// The paper's Table 10 command buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CifsClass {
    /// Session plumbing: negotiate, session setup/teardown, tree
    /// connect/disconnect, open/close of files and pipes.
    SmbBasic,
    /// DCE/RPC over named pipes.
    RpcPipes,
    /// Actual file read/write and metadata (Windows File Sharing).
    FileSharing,
    /// The LANMAN non-RPC management pipe.
    Lanman,
    /// Everything else.
    Other,
}

impl CifsClass {
    /// Display label as in Table 10.
    pub fn label(self) -> &'static str {
        match self {
            CifsClass::SmbBasic => "SMB Basic",
            CifsClass::RpcPipes => "RPC Pipes",
            CifsClass::FileSharing => "Windows File Sharing",
            CifsClass::Lanman => "LANMAN",
            CifsClass::Other => "Other",
        }
    }
}

/// One parsed SMB message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CifsMessage {
    /// Command.
    pub command: SmbCommand,
    /// True for responses (server→client).
    pub is_response: bool,
    /// Total message size in bytes (including SMB header, excluding the
    /// 4-byte NetBIOS framing) — the unit of Table 10's "Data" columns.
    pub size: u64,
    /// For Transaction messages: the pipe name.
    pub pipe: Option<String>,
    /// For Transaction messages: the embedded payload (DCE/RPC fragment
    /// for RPC pipes).
    pub trans_data: Vec<u8>,
}

impl CifsMessage {
    /// Classify per Table 10.
    pub fn class(&self) -> CifsClass {
        match self.command {
            SmbCommand::Negotiate
            | SmbCommand::SessionSetupAndX
            | SmbCommand::LogoffAndX
            | SmbCommand::TreeConnectAndX
            | SmbCommand::TreeDisconnect
            | SmbCommand::NtCreateAndX
            | SmbCommand::Close
            | SmbCommand::Echo => CifsClass::SmbBasic,
            SmbCommand::ReadAndX | SmbCommand::WriteAndX | SmbCommand::Trans2 => {
                CifsClass::FileSharing
            }
            SmbCommand::Trans => match self.pipe.as_deref() {
                Some(p) if p.to_ascii_uppercase().contains("LANMAN") => CifsClass::Lanman,
                Some(_) => CifsClass::RpcPipes,
                None => CifsClass::Other,
            },
            SmbCommand::Other(_) => CifsClass::Other,
        }
    }
}

const SMB_HEADER_LEN: usize = 32;
const FLAGS_REPLY: u8 = 0x80;

/// Parse one SMB message (after NetBIOS framing removal).
pub fn parse_smb(buf: &[u8]) -> Option<CifsMessage> {
    let mut c = Cursor::new(buf);
    let magic = c.take(4)?;
    if magic != [0xFF, b'S', b'M', b'B'] {
        return None;
    }
    let command = SmbCommand::from_u8(c.u8()?);
    c.skip(4)?; // status
    let flags = c.u8()?;
    c.skip(22)?; // flags2, pid-high, signature, reserved, tid, pid, uid, mid
    debug_assert_eq!(c.pos(), SMB_HEADER_LEN);
    let mut pipe = None;
    let mut trans_data = Vec::new();
    if command == SmbCommand::Trans {
        // Simplified-but-faithful Trans layout (matches our encoder):
        // word_count(1), 14 parameter words, byte_count(2),
        // name(ascii nul-terminated), data...
        let wc = c.u8()? as usize;
        c.skip(wc * 2)?;
        let bc = c.le16()? as usize;
        let body = c.take(bc)?;
        let nul = body.iter().position(|&b| b == 0)?;
        pipe = Some(String::from_utf8_lossy(body.get(..nul).unwrap_or(&[])).into_owned());
        trans_data = body.get(nul + 1..).unwrap_or(&[]).to_vec();
    }
    Some(CifsMessage {
        command,
        is_response: flags & FLAGS_REPLY != 0,
        size: buf.len() as u64,
        pipe,
        trans_data,
    })
}

/// Emit an SMB message with the given command and body bytes.
pub fn encode_smb(command: SmbCommand, is_response: bool, body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SMB_HEADER_LEN + body.len());
    buf.extend_from_slice(&[0xFF, b'S', b'M', b'B']);
    buf.push(command.to_u8());
    buf.extend_from_slice(&[0; 4]); // status
    buf.push(if is_response { FLAGS_REPLY } else { 0 });
    buf.extend_from_slice(&[0; 22]);
    buf.extend_from_slice(body);
    buf
}

/// Emit a Transaction message carrying `data` on pipe `pipe`.
pub fn encode_trans(pipe: &str, is_response: bool, data: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + 28 + 2 + pipe.len() + 1 + data.len());
    body.push(14); // word count
    let mut words = [0u8; 28];
    words[0..2].copy_from_slice(&(data.len() as u16).to_le_bytes()); // total data count
    body.extend_from_slice(&words);
    let bc = pipe.len() + 1 + data.len();
    body.extend_from_slice(&(bc as u16).to_le_bytes());
    body.extend_from_slice(pipe.as_bytes());
    body.push(0);
    body.extend_from_slice(data);
    encode_smb(SmbCommand::Trans, is_response, &body)
}

/// Emit a ReadAndX/WriteAndX-style message whose body is `data_len` filler
/// bytes (for volume realism).
pub fn encode_rw(command: SmbCommand, is_response: bool, data_len: usize) -> Vec<u8> {
    let mut body = vec![12u8]; // word count
    body.extend_from_slice(&[0u8; 24]);
    body.extend_from_slice(&(data_len as u16).to_le_bytes());
    body.extend(std::iter::repeat_n(0xAB, data_len));
    encode_smb(command, is_response, &body)
}

/// Events from the connection-level CIFS analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CifsEvent {
    /// NetBIOS session handshake request seen (139/tcp only).
    SsnRequest,
    /// Positive NetBIOS session response — handshake success (§5.2.1's
    /// 89–99% handshake success observation).
    SsnPositive,
    /// Negative NetBIOS session response — handshake failure.
    SsnNegative,
    /// One SMB message (either direction).
    Smb(CifsMessage),
}

/// Streaming analyzer for one CIFS connection (either port).
#[derive(Debug, Default)]
pub struct CifsAnalyzer {
    streams: StreamPair,
    /// Completed events in order.
    out: Vec<CifsEvent>,
}

impl CifsAnalyzer {
    /// New analyzer for one connection.
    pub fn new() -> CifsAnalyzer {
        CifsAnalyzer::default()
    }

    /// Feed stream data from the client (originator) or server.
    pub fn feed(&mut self, from_client: bool, data: &[u8]) {
        self.streams.dir(from_client).feed(data, |u| {
            let (stype, payload) = u.framed(|buf| {
                let (frame, used) = netbios::parse_ssn_frame(buf)?;
                Some(((frame.stype, buf.get(4..used)?), used))
            })?;
            match stype {
                SsnType::Request => self.out.push(CifsEvent::SsnRequest),
                SsnType::PositiveResponse => self.out.push(CifsEvent::SsnPositive),
                SsnType::NegativeResponse => self.out.push(CifsEvent::SsnNegative),
                SsnType::Message => self.out.extend(parse_smb(payload).map(CifsEvent::Smb)),
                _ => {}
            }
            Some(())
        });
    }

    /// Announce a capture gap.
    pub fn gap(&mut self, from_client: bool) {
        self.streams.gap(from_client);
    }

    /// Take accumulated events.
    pub fn take_events(&mut self) -> Vec<CifsEvent> {
        std::mem::take(&mut self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smb_roundtrip() {
        let m = encode_smb(SmbCommand::Negotiate, false, &[0u8; 10]);
        let p = parse_smb(&m).unwrap();
        assert_eq!(p.command, SmbCommand::Negotiate);
        assert!(!p.is_response);
        assert_eq!(p.size, m.len() as u64);
        assert_eq!(p.class(), CifsClass::SmbBasic);
    }

    #[test]
    fn trans_pipe_extraction() {
        let rpc_frag = vec![5u8, 0, 0, 0, 1, 2, 3];
        let m = encode_trans("\\PIPE\\spoolss", false, &rpc_frag);
        let p = parse_smb(&m).unwrap();
        assert_eq!(p.command, SmbCommand::Trans);
        assert_eq!(p.pipe.as_deref(), Some("\\PIPE\\spoolss"));
        assert_eq!(p.trans_data, rpc_frag);
        assert_eq!(p.class(), CifsClass::RpcPipes);
    }

    #[test]
    fn lanman_classified() {
        let m = encode_trans("\\PIPE\\LANMAN", false, &[0u8; 50]);
        assert_eq!(parse_smb(&m).unwrap().class(), CifsClass::Lanman);
    }

    #[test]
    fn file_sharing_classified() {
        let m = encode_rw(SmbCommand::WriteAndX, false, 4096);
        let p = parse_smb(&m).unwrap();
        assert_eq!(p.class(), CifsClass::FileSharing);
        assert!(p.size > 4096);
    }

    #[test]
    fn response_flag() {
        let m = encode_rw(SmbCommand::ReadAndX, true, 100);
        assert!(parse_smb(&m).unwrap().is_response);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(parse_smb(&[0xFE, b'S', b'M', b'B', 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn analyzer_handles_139_handshake_then_smb() {
        let mut a = CifsAnalyzer::new();
        a.feed(true, &netbios::encode_ssn_frame(SsnType::Request, b"caller"));
        a.feed(false, &netbios::encode_ssn_frame(SsnType::PositiveResponse, b""));
        let smb = encode_smb(SmbCommand::SessionSetupAndX, false, &[0u8; 30]);
        a.feed(true, &netbios::encode_ssn_frame(SsnType::Message, &smb));
        let ev = a.take_events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0], CifsEvent::SsnRequest);
        assert_eq!(ev[1], CifsEvent::SsnPositive);
        assert!(matches!(&ev[2], CifsEvent::Smb(m) if m.command == SmbCommand::SessionSetupAndX));
    }

    #[test]
    fn analyzer_reassembles_split_frames() {
        let mut a = CifsAnalyzer::new();
        let smb = encode_rw(SmbCommand::ReadAndX, true, 8000);
        let framed = netbios::encode_ssn_frame(SsnType::Message, &smb);
        for chunk in framed.chunks(1000) {
            a.feed(false, chunk);
        }
        let ev = a.take_events();
        assert_eq!(ev.len(), 1);
        assert!(matches!(&ev[0], CifsEvent::Smb(m) if m.size == smb.len() as u64));
    }

    #[test]
    fn negative_ssn_response() {
        let mut a = CifsAnalyzer::new();
        a.feed(false, &netbios::encode_ssn_frame(SsnType::NegativeResponse, &[0x82]));
        assert_eq!(a.take_events(), vec![CifsEvent::SsnNegative]);
    }

    #[test]
    fn command_codes_roundtrip() {
        for v in [0x72u8, 0x73, 0x74, 0x75, 0x71, 0xA2, 0x04, 0x2B, 0x2E, 0x2F, 0x32, 0x25, 0x99] {
            assert_eq!(SmbCommand::from_u8(v).to_u8(), v);
        }
    }
}
