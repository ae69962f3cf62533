//! # ent-proto — application-protocol analyzers
//!
//! Message-level parsers for every application protocol the paper
//! characterizes in §5: HTTP (with automated-client attribution), SMTP,
//! IMAP, TLS session identification, DNS, NetBIOS Name Service, NetBIOS
//! Session Service, CIFS/SMB with its command taxonomy, DCE/RPC (over both
//! named pipes and mapped TCP ports, with Endpoint-Mapper tracking),
//! SunRPC/NFS, and NCP.
//!
//! Parsers come in two flavors mirroring the transport:
//! * **datagram parsers** (`dns`, `netbios::ns`) decode one UDP payload;
//! * **stream analyzers** (`http`, `smtp`, `cifs`, `ncp`, ...) are fed
//!   in-order TCP payload chunks per direction and emit typed records.
//!
//! Every parser also has an *encoder* used by the trace generator, so the
//! full parse path is exercised end-to-end against realistic payloads.
//!
//! ```
//! use ent_proto::{dns, identify, AppProtocol, Category, DynamicPorts, Transport};
//! use ent_wire::ipv4::Addr;
//!
//! // Port-based identification with the paper's Table 4 taxonomy:
//! let app = identify(Addr::new(10, 0, 0, 5), 524, Transport::Tcp, &DynamicPorts::new());
//! assert_eq!(app, Some(AppProtocol::Ncp));
//! assert_eq!(app.unwrap().category(), Category::NetFile);
//!
//! // Message-level parsing, e.g. DNS:
//! let query = dns::encode_query(7, "www.lbl.gov", dns::QType::Aaaa);
//! let msg = dns::parse(&query).unwrap();
//! assert_eq!(msg.qname.as_deref(), Some("www.lbl.gov"));
//! assert_eq!(msg.qtype, Some(dns::QType::Aaaa));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cifs;
pub mod dcerpc;
pub mod dns;
pub mod http;
pub mod imap;
pub mod ncp;
pub mod netbios;
pub mod nfs;
pub mod registry;
pub mod smtp;
pub mod ssl;
pub mod sunrpc;

pub use registry::{identify, well_known, AppProtocol, Category, DynamicPorts};

/// Transport of a flow, for identification purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
}

/// Reading helpers shared by the binary protocol parsers.
pub(crate) mod cursor {
    /// A bounds-checked little/big-endian reader over a byte slice.
    #[derive(Debug, Clone, Copy)]
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        pub fn new(buf: &'a [u8]) -> Cursor<'a> {
            Cursor { buf, pos: 0 }
        }

        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        pub fn pos(&self) -> usize {
            self.pos
        }

        pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            if self.remaining() < n {
                return None;
            }
            let s = self.buf.get(self.pos..self.pos + n)?;
            self.pos += n;
            Some(s)
        }

        pub fn u8(&mut self) -> Option<u8> {
            self.take(1).map(|s| s[0])
        }

        pub fn be16(&mut self) -> Option<u16> {
            self.take(2).map(|s| u16::from_be_bytes([s[0], s[1]]))
        }

        pub fn be32(&mut self) -> Option<u32> {
            self.take(4).map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
        }

        pub fn le16(&mut self) -> Option<u16> {
            self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
        }

        pub fn le32(&mut self) -> Option<u32> {
            self.take(4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        }

        pub fn skip(&mut self, n: usize) -> Option<()> {
            self.take(n).map(|_| ())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bounds_checked_reads() {
            let data = [1u8, 2, 0, 0, 0, 0, 3];
            let mut c = Cursor::new(&data);
            assert_eq!(c.u8(), Some(1));
            assert_eq!(c.le16(), Some(2));
            assert_eq!(c.pos(), 3);
            assert_eq!(c.be32(), Some(3));
            assert_eq!(c.remaining(), 0);
            assert_eq!(c.u8(), None);
            assert_eq!(c.take(1), None);
        }

        #[test]
        fn endianness() {
            let data = [0x12u8, 0x34, 0x12, 0x34];
            let mut c = Cursor::new(&data);
            assert_eq!(c.be16(), Some(0x1234));
            assert_eq!(c.le16(), Some(0x3412));
            let data = [0x78u8, 0x56, 0x34, 0x12];
            assert_eq!(Cursor::new(&data).le32(), Some(0x1234_5678));
        }
    }
}

/// A per-direction reassembly buffer for stream analyzers: accumulates
/// chunks until a full message can be consumed, and poisons itself after a
/// gap so analyzers do not mis-parse across capture loss.
#[derive(Debug)]
pub struct StreamBuf {
    data: Vec<u8>,
    /// Set once a gap makes further byte-exact parsing unreliable.
    pub broken: bool,
    /// Hard cap to bound memory on pathological streams.
    cap: usize,
}

impl Default for StreamBuf {
    fn default() -> Self {
        StreamBuf::new()
    }
}

impl StreamBuf {
    /// A buffer with the default 1 MiB cap.
    pub fn new() -> StreamBuf {
        StreamBuf {
            data: Vec::new(),
            broken: false,
            cap: 1 << 20,
        }
    }

    /// Append stream bytes (ignored once broken; truncated at the cap —
    /// overflow marks the stream broken rather than growing unboundedly).
    pub fn push(&mut self, chunk: &[u8]) {
        if self.broken {
            return;
        }
        if self.data.len() + chunk.len() > self.cap {
            self.broken = true;
            return;
        }
        self.data.extend_from_slice(chunk);
    }

    /// Record a gap: parsing state is no longer trustworthy.
    pub fn gap(&mut self) {
        self.broken = true;
    }

    /// Current buffered bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Consume `n` bytes from the front.
    pub fn consume(&mut self, n: usize) {
        self.data.drain(..n);
    }

    /// Buffered length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod stream_buf_tests {
    use super::*;

    #[test]
    fn push_consume() {
        let mut b = StreamBuf::new();
        b.push(b"hello ");
        b.push(b"world");
        assert_eq!(b.bytes(), b"hello world");
        b.consume(6);
        assert_eq!(b.bytes(), b"world");
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn gap_poisons() {
        let mut b = StreamBuf::new();
        b.push(b"x");
        b.gap();
        b.push(b"y");
        assert!(b.broken);
        assert_eq!(b.bytes(), b"x");
    }

    #[test]
    fn cap_bounds_memory() {
        let mut b = StreamBuf::new();
        b.push(&vec![0u8; 1 << 20]);
        assert!(!b.broken);
        b.push(b"x");
        assert!(b.broken);
        assert_eq!(b.len(), 1 << 20);
    }
}

/// Every `code_table!` of this crate and the registry's protocol table
/// convert exactly as the hand-written `match` blocks they replaced: each
/// digest was recorded by running the same body against a `git archive` of
/// the last commit that had those blocks.
#[cfg(test)]
mod table_digest_tests {
    use crate::{cifs, dcerpc, dns, ncp, netbios, nfs, ssl};
    use crate::{well_known, AppProtocol, Transport};

    /// FNV-1a over one line per code, in code order.
    fn fnv(lines: impl Iterator<Item = String>) -> u64 {
        lines.fold(0xcbf2_9ce4_8422_2325, |h, line| {
            line.bytes()
                .chain([b'\n'])
                .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// Assert the recorded digest of `(Debug of decode(v), encode(decode(v)),
    /// label)` over the given codes, checking `decode(encode(x)) == x` on
    /// the way.
    macro_rules! assert_digest {
        ($recorded:literal, $codes:expr, $decode:path, $encode:path $(, $label:path)?) => {
            let got = fnv($codes.map(|v| {
                let x = $decode(v);
                assert_eq!($decode($encode(x)), x);
                format!("{x:?} {}", $encode(x)) $(+ " " + $label(x))?
            }));
            assert_eq!(got, $recorded, "{}: got {got:#018x}", stringify!($decode));
        };
    }

    #[test]
    fn every_code_converts_as_the_hand_written_matches_did() {
        use {cifs::SmbCommand, dcerpc::PduType, dns::QType, ncp::NcpOp, nfs::NfsOp};
        use {netbios::NameType, netbios::SsnType, ssl::RecordType};
        assert_digest!(
            0xdc67_94b0_fdfb_63e3,
            0..=u16::MAX,
            QType::from_u16,
            QType::to_u16
        );
        assert_digest!(
            0xa8b5_539e_6eef_c8fd,
            0..=u8::MAX,
            NameType::from_u8,
            NameType::to_u8
        );
        assert_digest!(
            0x40b3_26d7_cdaf_956a,
            0..=u8::MAX,
            SsnType::from_u8,
            SsnType::to_u8
        );
        assert_digest!(
            0x2e88_bc87_dca9_9dd6,
            0..=u8::MAX,
            SmbCommand::from_u8,
            SmbCommand::to_u8
        );
        assert_digest!(
            0x6f9f_aae8_6242_113a,
            0..=u8::MAX,
            RecordType::from_u8,
            RecordType::to_u8
        );
        assert_digest!(
            0xfcde_4d4b_635a_8575,
            0..=u8::MAX,
            PduType::from_u8,
            PduType::to_u8
        );
        assert_digest!(
            0x6af6_fce6_9d1c_ce48,
            (0..=1024).chain([u32::MAX]),
            NfsOp::from_proc,
            NfsOp::to_proc,
            NfsOp::label
        );
        assert_digest!(
            0xd577_be31_9430_0c8f,
            0..=u8::MAX,
            NcpOp::from_function,
            NcpOp::to_function,
            NcpOp::label
        );
    }

    #[test]
    fn registry_identifies_names_and_buckets_as_the_hand_written_lists_did() {
        let ports = fnv([Transport::Tcp, Transport::Udp]
            .into_iter()
            .flat_map(|t| (0..=u16::MAX).map(move |port| format!("{:?}", well_known(port, t)))));
        assert_eq!(
            ports, 0x2cc3_714a_1f92_8136,
            "well_known: got {ports:#018x}"
        );
        let rows = fnv(AppProtocol::ALL
            .iter()
            .map(|p| format!("{p:?} {} {:?}", p.name(), p.category())));
        assert_eq!(
            rows, 0xc52f_aeed_2820_71f7,
            "name/category: got {rows:#018x}"
        );
    }
}
