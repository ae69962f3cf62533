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

// E001 (DESIGN §6a): ingest code reads bytes through `get`, fixed-size
// chunks or slice patterns, never a panicking index.
#![deny(clippy::indexing_slicing)]

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

use ent_wire::Timestamp;
use std::collections::HashMap;
use std::hash::Hash;

/// Transport of a flow, for identification purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
}

/// `n` as a 16-bit length field, saturating: no encoded message comes near
/// the limit.
pub(crate) fn len16(n: usize) -> u16 {
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// `n` as a 32-bit length field, saturating, like [`len16`].
pub(crate) fn len32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
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

        pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
            self.take(N)?.first_chunk().copied()
        }

        pub fn u8(&mut self) -> Option<u8> {
            self.array().map(u8::from_be_bytes)
        }

        pub fn be16(&mut self) -> Option<u16> {
            self.array().map(u16::from_be_bytes)
        }

        pub fn be32(&mut self) -> Option<u32> {
            self.array().map(u32::from_be_bytes)
        }

        pub fn le16(&mut self) -> Option<u16> {
            self.array().map(u16::from_le_bytes)
        }

        pub fn le32(&mut self) -> Option<u32> {
            self.array().map(u32::from_le_bytes)
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

/// Most unread bytes one direction carries from one segment to the next.
const CARRY_CAP: usize = 1 << 20;

/// One direction of a reassembled TCP stream: the stream contract every
/// analyzer of this crate reads under, stated once.
///
/// [`StreamBuf::feed`] takes the next in-order segment and a *step*: the
/// analyzer's framing rule and message handler, written over the
/// [`Unread`] bytes. The step is run again and again: `Some(())` says it
/// read a message, `None` that the next one is not all here yet.
///
/// * **In place.** With nothing carried the unread bytes *are* the segment,
///   and only the tail no step claimed is copied for the next call; with
///   bytes carried, the segment is appended to them first. A body an
///   analyzer does not look at is passed over with [`Unread::skip`], across
///   segments, and never stored.
/// * **Never twice.** A delimiter search that fails remembers how far it
///   got ([`Unread::until`]), so a byte is compared against a needle once
///   however the stream is cut into segments.
/// * **Poison means stop.** A capture gap ([`StreamBuf::gap`]), bytes that
///   are not the protocol ([`Unread::poison`]), or more than 1 MiB carried
///   without a complete message end the reading of this direction: what is
///   carried is freed and no step runs again.
#[derive(Debug, Default)]
pub struct StreamBuf {
    /// Unread bytes no step has claimed yet.
    carry: Vec<u8>,
    /// How many start positions at the front of `carry` a failed
    /// [`Unread::until`] has already ruled out.
    searched: usize,
    /// Bytes of a skipped body that have not arrived yet.
    owed: u64,
    poisoned: bool,
}

impl StreamBuf {
    /// A reader at the start of its direction.
    pub fn new() -> StreamBuf {
        StreamBuf::default()
    }

    /// Record a capture gap: byte-exact parsing cannot resume behind it.
    pub fn gap(&mut self) {
        self.carry = Vec::new();
        self.poisoned = true;
    }

    /// Bytes of a skipped body that have not gone by (and, once poisoned,
    /// never will).
    pub fn owed(&self) -> u64 {
        self.owed
    }

    /// Read the next in-order segment: pay off an owed skip, then run
    /// `step` over the unread bytes until it returns `None` (or stops
    /// making progress), and carry what it left.
    #[deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]
    pub fn feed(&mut self, segment: &[u8], mut step: impl FnMut(&mut Unread<'_>) -> Option<()>) {
        if self.poisoned {
            return;
        }
        // Nothing is carried while a skip is owed: it took all there was.
        let carried = !self.carry.is_empty();
        if carried {
            if self.carry.len().saturating_add(segment.len()) > CARRY_CAP {
                return self.gap();
            }
            self.carry.extend_from_slice(segment);
        }
        let mut unread = Unread {
            bytes: if carried { &self.carry } else { segment },
            searched: self.searched,
            owed: 0,
            poisoned: false,
        };
        unread.skip(self.owed);
        while unread.owed == 0 && !unread.poisoned {
            let before = unread.bytes.len();
            if step(&mut unread).is_none() || unread.bytes.len() == before {
                break;
            }
        }
        let left = unread.bytes.len();
        if unread.poisoned || left > CARRY_CAP {
            return self.gap();
        }
        (self.searched, self.owed) = (unread.searched, unread.owed);
        if carried {
            self.carry.drain(..self.carry.len().saturating_sub(left));
        } else {
            let tail = segment.len().saturating_sub(left);
            self.carry.extend_from_slice(segment.get(tail..).unwrap_or(&[]));
        }
    }
}

/// The unread bytes of one direction, as a step sees them. Every read
/// takes from the front; a slice it returns borrows the stream bytes, not
/// this view, so a step can keep a head while it skips the body.
#[derive(Debug)]
pub struct Unread<'a> {
    bytes: &'a [u8],
    searched: usize,
    owed: u64,
    poisoned: bool,
}

impl<'a> Unread<'a> {
    /// Take `n` bytes off the front; the search watermark moves with it.
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, rest) = self.bytes.split_at(n.min(self.bytes.len()));
        self.bytes = rest;
        self.searched = self.searched.saturating_sub(n);
        head
    }

    /// The bytes before the first `needle`, taking both. A failed search
    /// leaves a watermark, so the next call — on this segment's carried
    /// tail plus the next segment — starts where this one stopped. A step
    /// searches for one needle at a time. Only positions holding the
    /// needle's first byte ([`find_byte`]) are compared against all of it.
    pub fn until<const N: usize>(&mut self, needle: &[u8; N]) -> Option<&'a [u8]> {
        let first = *needle.first()?;
        // Start positions that leave room for the whole needle.
        let starts = self.bytes.len().saturating_add(1).saturating_sub(N);
        let mut from = self.searched;
        while let Some(hit) = self.bytes.get(from..starts).and_then(|hay| find_byte(hay, first)) {
            let at = from.saturating_add(hit);
            let end = at.saturating_add(N);
            if self.bytes.get(at..end) == Some(needle.as_slice()) {
                return Some(self.take(end).get(..at).unwrap_or(&[]));
            }
            from = at.saturating_add(1);
        }
        self.searched = self.searched.max(starts);
        None
    }

    /// Take what a failed [`Unread::until`] ruled out — bytes that cannot
    /// begin its needle — and return how many that was: how an analyzer
    /// counts a delimited body it does not keep.
    pub fn take_searched(&mut self) -> usize {
        self.take(self.searched).len()
    }

    /// One length-framed message: `parse` sees the unread bytes and returns
    /// the message with its framed length once all of it is there.
    pub fn framed<T>(&mut self, parse: impl FnOnce(&'a [u8]) -> Option<(T, usize)>) -> Option<T> {
        let (message, used) = parse(self.bytes)?;
        self.take(used);
        Some(message)
    }

    /// Pass over the next `n` bytes unseen, those of later segments
    /// included; no step runs until they have all gone by.
    pub fn skip(&mut self, n: u64) {
        let here = usize::try_from(n).map_or(self.bytes.len(), |n| n.min(self.bytes.len()));
        self.take(here);
        self.owed = self.owed.saturating_add(n.saturating_sub(here as u64));
    }

    /// These bytes are not the protocol: stop reading this direction.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

/// Index of the first `byte` in `hay`, looked for eight bytes at a time:
/// XOR turns a match into a zero byte, `(x − 0x01…) & !x & 0x80…` is
/// non-zero exactly when `x` has one, and — the word read little-endian —
/// its lowest set bit marks the first.
fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    const LOW: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let pattern = u64::from_le_bytes([byte; 8]);
    let (words, tail) = hay.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let x = u64::from_le_bytes(*word) ^ pattern;
        let zeros = x.wrapping_sub(LOW) & !x & HIGH;
        if zeros != 0 {
            return Some(i.saturating_mul(8).saturating_add((zeros.trailing_zeros() >> 3) as usize));
        }
    }
    let in_tail = tail.iter().position(|b| *b == byte)?;
    Some(words.len().saturating_mul(8).saturating_add(in_tail))
}

/// The two directions of one connection.
#[derive(Debug, Default)]
pub struct StreamPair {
    client: StreamBuf,
    server: StreamBuf,
}

impl StreamPair {
    /// The reader of the client→server (`from_client`) or the
    /// server→client direction.
    pub fn dir(&mut self, from_client: bool) -> &mut StreamBuf {
        if from_client {
            &mut self.client
        } else {
            &mut self.server
        }
    }

    /// Record a capture gap in one direction.
    pub fn gap(&mut self, from_client: bool) {
        self.dir(from_client).gap();
    }
}

/// One completed file-protocol request/reply exchange (NFS, NCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call<Op> {
    /// Operation bucket.
    pub op: Op,
    /// Request message bytes (headers and arguments, without the stream
    /// framing).
    pub request_bytes: u64,
    /// Reply message bytes (0 if the reply was never seen).
    pub reply_bytes: u64,
    /// The reply reported success (false if it was never seen).
    pub ok: bool,
    /// Reply latency in microseconds (0 if unmatched).
    pub latency_us: u64,
}

/// Pairs the requests of a file protocol with their replies by transaction
/// id and collects the completed [`Call`]s.
#[derive(Debug)]
pub(crate) struct CallMatcher<Id, Op> {
    pending: HashMap<Id, (Op, u64, Timestamp)>,
    out: Vec<Call<Op>>,
}

impl<Id, Op> Default for CallMatcher<Id, Op> {
    fn default() -> Self {
        CallMatcher {
            pending: HashMap::new(),
            out: Vec::new(),
        }
    }
}

impl<Id: Copy + Ord + Hash, Op> CallMatcher<Id, Op> {
    pub(crate) fn request(&mut self, id: Id, op: Op, bytes: u64, ts: Timestamp) {
        self.pending.insert(id, (op, bytes, ts));
    }

    pub(crate) fn reply(&mut self, id: Id, bytes: u64, ok: bool, ts: Timestamp) {
        if let Some((op, request_bytes, t0)) = self.pending.remove(&id) {
            self.out.push(Call {
                op,
                request_bytes,
                reply_bytes: bytes,
                ok,
                latency_us: ts.saturating_micros_since(t0),
            });
        }
    }

    /// Flush unanswered requests as failed calls in ascending-id order:
    /// `HashMap` drain order is per-process random, and these calls feed
    /// the report path.
    pub(crate) fn finish(&mut self) {
        let mut ids: Vec<Id> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            if let Some((op, request_bytes, _)) = self.pending.remove(&id) {
                self.out.push(Call {
                    op,
                    request_bytes,
                    reply_bytes: 0,
                    ok: false,
                    latency_us: 0,
                });
            }
        }
    }

    pub(crate) fn take_calls(&mut self) -> Vec<Call<Op>> {
        std::mem::take(&mut self.out)
    }
}

#[cfg(test)]
mod stream_buf_tests {
    use super::*;

    /// Reads `\n`-terminated lines, and after a line `skip N` passes over
    /// the next N bytes.
    fn lines(buf: &mut StreamBuf, segment: &[u8], out: &mut Vec<String>) {
        buf.feed(segment, |u| {
            let line = String::from_utf8_lossy(u.until(b"\n")?).into_owned();
            if let Some(n) = line.strip_prefix("skip ") {
                u.skip(n.parse().unwrap());
            }
            out.push(line);
            Some(())
        });
    }

    #[test]
    fn push_consume() {
        // In place (fed whole) and carried (cut every way) read the same.
        let stream = b"hello\nskip 7\n1234567world\nskip 0\n\nskip 3\nabcend\ntail";
        let mut whole = Vec::new();
        lines(&mut StreamBuf::new(), stream, &mut whole);
        assert_eq!(whole, ["hello", "skip 7", "world", "skip 0", "", "skip 3", "end"]);
        for cut in 1..stream.len() {
            let (mut buf, mut got) = (StreamBuf::new(), Vec::new());
            for segment in stream.chunks(cut) {
                lines(&mut buf, segment, &mut got);
            }
            assert_eq!(got, whole, "cut at {cut}");
            assert_eq!(buf.carry, b"tail");
        }
    }

    #[test]
    fn in_place_copies_only_the_unclaimed_tail() {
        let (mut buf, mut got) = (StreamBuf::new(), Vec::new());
        lines(&mut buf, b"one\ntwo\n", &mut got);
        assert!(buf.carry.is_empty() && buf.carry.capacity() == 0);
        lines(&mut buf, b"three\nfo", &mut got);
        assert_eq!(buf.carry, b"fo");
        lines(&mut buf, b"ur\nskip 100\n0123456789", &mut got);
        assert!(buf.carry.is_empty());
        assert_eq!(buf.owed(), 90);
        // Skipped bytes are never stored, and no step runs while any are owed.
        lines(&mut buf, &[b'\n'; 89], &mut got);
        assert_eq!((buf.owed(), buf.carry.len()), (1, 0));
        lines(&mut buf, b"\nfive\n", &mut got);
        assert_eq!(got, ["one", "two", "three", "four", "skip 100", "five"]);
    }

    #[test]
    fn failed_search_watermark_only_advances() {
        let mut buf = StreamBuf::new();
        let mut search = |segment: &[u8]| {
            let mut found = None;
            buf.feed(segment, |u| {
                found = Some(u.until(b"\r\n\r\n")?.to_vec());
                Some(())
            });
            (found, buf.searched)
        };
        // 6 bytes rule out start positions 0..3, a 7th one more; the
        // needle straddling three segments is still found, and a hit
        // resets the mark for the bytes behind it.
        assert_eq!(search(b"abcdef"), (None, 3));
        assert_eq!(search(b"\r"), (None, 4));
        assert_eq!(search(b"\n\r"), (None, 6));
        assert_eq!(search(b"\nxy"), (Some(b"abcdef".to_vec()), 0));
        assert_eq!(buf.carry, b"xy");
    }

    /// One `until` over `bytes` with the watermark at `searched`: what it
    /// returned, then the view's unread length and watermark afterwards.
    fn until_at<const N: usize>(bytes: &[u8], searched: usize, needle: &[u8; N]) -> (Option<Vec<u8>>, usize, usize) {
        let mut unread = Unread { bytes, searched, owed: 0, poisoned: false };
        let head = unread.until(needle).map(<[u8]>::to_vec);
        (head, unread.bytes.len(), unread.searched)
    }

    /// The search `until` replaced: every window compared in full.
    fn until_by_windows<const N: usize>(bytes: &[u8], searched: usize, needle: &[u8; N]) -> (Option<Vec<u8>>, usize, usize) {
        match bytes[searched..].windows(N).position(|w| w == needle) {
            Some(at) => (Some(bytes[..searched + at].to_vec()), bytes.len() - (searched + at + N), 0),
            None => (None, bytes.len(), searched.max((bytes.len() + 1).saturating_sub(N))),
        }
    }

    #[test]
    fn until_finds_the_needle_wherever_the_word_scan_puts_it() {
        let needle = b"\r\n.\r\n";
        // Every alignment against the eight-byte words, the last possible
        // start included; the bytes behind the needle stay unread.
        for offset in 0..=24 {
            let mut hay = vec![b'x'; offset];
            hay.extend_from_slice(needle);
            assert_eq!(until_at(&hay, 0, needle), (Some(vec![b'x'; offset]), 0, 0), "at the end, offset {offset}");
            hay.extend_from_slice(b"tail");
            assert_eq!(until_at(&hay, 0, needle), (Some(vec![b'x'; offset]), 4, 0), "offset {offset}");
        }
        // Absent, and shorter than the needle: every start that could
        // still hold it is ruled out, no more.
        assert_eq!(until_at(&[b'x'; 40], 0, needle), (None, 40, 36));
        assert_eq!(until_at(b"\r\n.", 0, needle), (None, 3, 0));
        assert_eq!(until_at(b"", 0, needle), (None, 0, 0));
        // First-byte decoys: a hit on `\r` that is not the needle moves on
        // by one, so the overlapping real one behind it is found...
        assert_eq!(until_at(b"\r\r\n.\r\n", 0, needle), (Some(b"\r".to_vec()), 0, 0));
        // ...and a run of nothing but decoys is ruled out to its last four.
        let mut decoys = vec![b'\r'; 4_096];
        assert_eq!(until_at(&decoys, 0, needle), (None, 4_096, 4_092));
        decoys.extend_from_slice(b"\n.\r\n");
        assert_eq!(until_at(&decoys, 4_092, needle), (Some(vec![b'\r'; 4_095]), 0, 0));
    }

    #[test]
    fn until_agrees_with_the_window_by_window_search() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        fn agree<const N: usize>(rng: &mut StdRng, needle: &[u8; N]) {
            // Bytes drawn from the needle's own plus one other, so hits,
            // near misses and overlaps are all common.
            let len = rng.random_range(0..48usize);
            let bytes: Vec<u8> = (0..len)
                .map(|_| needle.get(rng.random_range(0..=N)).copied().unwrap_or(b'x'))
                .collect();
            let searched = rng.random_range(0..=len.saturating_sub(N - 1));
            assert_eq!(
                until_at(&bytes, searched, needle),
                until_by_windows(&bytes, searched, needle),
                "{bytes:?} from {searched} for {needle:?}"
            );
        }
        let mut rng = StdRng::seed_from_u64(2005);
        for _ in 0..10_000 {
            agree(&mut rng, b"\r\n");
            agree(&mut rng, b"\r\n\r\n");
            agree(&mut rng, b"\r\n.\r\n");
        }
    }

    #[test]
    fn take_searched_keeps_what_could_begin_the_needle() {
        let (mut buf, mut dropped) = (StreamBuf::new(), Vec::new());
        let mut body = |segment: &[u8]| {
            buf.feed(segment, |u| {
                let rest = u.until(b"\r\n.\r\n").map(<[u8]>::len);
                dropped.push(rest.unwrap_or_else(|| u.take_searched()));
                rest.map(|_| ())
            });
            buf.carry.len()
        };
        assert_eq!(body(b"ab"), 2);
        assert_eq!(body(b"cdefgh\r\n"), 4);
        assert_eq!(body(b".\r"), 4);
        assert_eq!(body(b"\nnext"), 4);
        assert_eq!(dropped, [0, 6, 2, 0, 0]);
    }

    #[test]
    fn gap_poisons() {
        let poisoned_by = |poison: fn(&mut StreamBuf)| {
            let (mut buf, mut got) = (StreamBuf::new(), Vec::new());
            lines(&mut buf, b"x\nhalf", &mut got);
            poison(&mut buf);
            assert!(buf.poisoned && buf.carry.capacity() == 0);
            lines(&mut buf, b" line\ny\n", &mut got);
            lines(&mut buf, b"z\n", &mut got);
            assert_eq!(got, ["x"]);
            assert!(buf.carry.is_empty());
        };
        poisoned_by(StreamBuf::gap);
        // A step that says the bytes are not the protocol stops the reader
        // just the same, complete messages behind them included.
        poisoned_by(|buf| {
            buf.feed(b"\n", |u| {
                u.until(b"\n")?;
                u.poison();
                None
            })
        });
    }

    #[test]
    fn gap_freezes_what_is_owed() {
        let (mut buf, mut got) = (StreamBuf::new(), Vec::new());
        lines(&mut buf, b"skip 10\n123", &mut got);
        buf.gap();
        lines(&mut buf, b"4567890next\n", &mut got);
        assert_eq!((buf.owed(), got.len()), (7, 1));
    }

    #[test]
    fn cap_bounds_memory() {
        let never = |u: &mut Unread<'_>| u.until(b"\n").map(|_| ());
        // Exactly 1 MiB carried is fine, in place or appended...
        let mut buf = StreamBuf::new();
        buf.feed(&vec![0u8; CARRY_CAP], never);
        assert!(!buf.poisoned);
        assert_eq!(buf.carry.len(), CARRY_CAP);
        // ...one byte more poisons and gives the memory back.
        buf.feed(b"x", never);
        assert!(buf.poisoned && buf.carry.capacity() == 0);
        let mut buf = StreamBuf::new();
        buf.feed(&vec![0u8; CARRY_CAP + 1], never);
        assert!(buf.poisoned && buf.carry.capacity() == 0);
        // A message claimed in place does not count against the cap.
        let mut big = vec![0u8; 2 * CARRY_CAP];
        big.push(b'\n');
        let mut buf = StreamBuf::new();
        buf.feed(&big, never);
        assert!(!buf.poisoned && buf.carry.is_empty());
    }

    #[test]
    fn a_step_that_reads_nothing_ends_the_feed() {
        let mut calls = 0;
        StreamBuf::new().feed(b"abc", |_| {
            calls += 1;
            Some(())
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn call_matcher_pairs_by_id_and_flushes_in_id_order() {
        let mut m: CallMatcher<u8, char> = CallMatcher::default();
        for (id, op) in [(9, 'c'), (3, 'a'), (5, 'b')] {
            m.request(id, op, 10 + u64::from(id), Timestamp::from_micros(100));
        }
        m.reply(5, 50, true, Timestamp::from_micros(350));
        m.reply(7, 70, true, Timestamp::from_micros(400));
        m.finish();
        let call = |op, request_bytes, reply_bytes, ok, latency_us| Call {
            op,
            request_bytes,
            reply_bytes,
            ok,
            latency_us,
        };
        assert_eq!(
            m.take_calls(),
            [
                call('b', 15, 50, true, 250),
                call('a', 13, 0, false, 0),
                call('c', 19, 0, false, 0),
            ]
        );
        assert!(m.take_calls().is_empty());
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

    /// `ALL` is Table 13/14's row order, as `core::analyses::netfile` used
    /// to list it by hand.
    #[test]
    fn bucket_tables_list_their_rows_in_the_papers_order() {
        use {ncp::NcpOp, nfs::NfsOp};
        assert_eq!(
            NfsOp::ALL,
            [NfsOp::Read, NfsOp::Write, NfsOp::GetAttr, NfsOp::LookUp, NfsOp::Access, NfsOp::Other]
        );
        assert_eq!(
            NcpOp::ALL,
            [
                NcpOp::Read,
                NcpOp::Write,
                NcpOp::FileDirInfo,
                NcpOp::FileOpenClose,
                NcpOp::FileSize,
                NcpOp::FileSearch,
                NcpOp::DirectoryService,
                NcpOp::Other
            ]
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
