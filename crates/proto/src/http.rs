//! Streaming HTTP/1.x analyzer.
//!
//! Reproduces the measurements of the paper's §5.1.1: request methods and
//! conditional GETs, response status and content types, body sizes,
//! per-client fan-out, and attribution of *automated clients* (the
//! vulnerability scanner, two Google crawl bots, and HTTP-layered
//! applications like iFolder) which dominate internal HTTP traffic
//! (Table 6).

use crate::{StreamPair, Unread};
use std::collections::VecDeque;

/// Classification of the client software issuing a request, from the
/// User-Agent header. The paper separates these automated clients out
/// before characterizing "ordinary" browsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClientKind {
    /// Ordinary interactive browser.
    Browser,
    /// The site's vulnerability scanner ("scan1" in Table 6).
    Scanner,
    /// First Google crawl appliance bot.
    GoogleBot1,
    /// Second Google crawl appliance bot.
    GoogleBot2,
    /// Novell iFolder file-sync client (HTTP-layered application).
    IFolder,
    /// Viacom NetMeeting (HTTP-layered application).
    NetMeeting,
    /// Some other automated client.
    OtherAutomated,
}

/// Case-insensitive substring search; `needle` must already be lowercase.
/// Runs on the raw bytes so classifying a User-Agent never allocates —
/// this sits on the analyzer's per-request path.
fn contains_ignore_case(haystack: &str, needle: &str) -> bool {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() || h.len() < n.len() {
        return n.is_empty();
    }
    h.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
}

impl ClientKind {
    /// Classify a User-Agent header value.
    pub fn from_user_agent(ua: &str) -> ClientKind {
        if contains_ignore_case(ua, "vulnscan")
            || contains_ignore_case(ua, "security-scanner")
            || contains_ignore_case(ua, "nessus")
        {
            ClientKind::Scanner
        } else if contains_ignore_case(ua, "googlebot-1") {
            ClientKind::GoogleBot1
        } else if contains_ignore_case(ua, "googlebot") {
            ClientKind::GoogleBot2
        } else if contains_ignore_case(ua, "ifolder") {
            ClientKind::IFolder
        } else if contains_ignore_case(ua, "netmeeting") {
            ClientKind::NetMeeting
        } else if contains_ignore_case(ua, "bot")
            || contains_ignore_case(ua, "crawler")
            || contains_ignore_case(ua, "spider")
        {
            ClientKind::OtherAutomated
        } else {
            ClientKind::Browser
        }
    }

    /// The variant name, identical to its `Debug` rendering but without
    /// formatting machinery or an allocation.
    pub fn as_str(self) -> &'static str {
        match self {
            ClientKind::Browser => "Browser",
            ClientKind::Scanner => "Scanner",
            ClientKind::GoogleBot1 => "GoogleBot1",
            ClientKind::GoogleBot2 => "GoogleBot2",
            ClientKind::IFolder => "IFolder",
            ClientKind::NetMeeting => "NetMeeting",
            ClientKind::OtherAutomated => "OtherAutomated",
        }
    }

    /// True for the automated (non-browsing) clients of Table 6.
    pub fn is_automated(self) -> bool {
        self != ClientKind::Browser
    }
}

/// Coarse content-type buckets of the paper's Table 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentClass {
    /// `text/*`.
    Text,
    /// `image/*`.
    Image,
    /// `application/*`.
    Application,
    /// Audio, video, multipart, anything else.
    Other,
    /// No body or no Content-Type.
    None,
}

impl ContentClass {
    /// Classify a Content-Type header value.
    pub fn from_header(v: &str) -> ContentClass {
        let l = v.trim().to_ascii_lowercase();
        if l.starts_with("text/") {
            ContentClass::Text
        } else if l.starts_with("image/") {
            ContentClass::Image
        } else if l.starts_with("application/") {
            ContentClass::Application
        } else {
            ContentClass::Other
        }
    }
}

/// One completed HTTP request/response exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpTransaction {
    /// Request method (GET, POST, HEAD, ...).
    pub method: String,
    /// Request URI.
    pub uri: String,
    /// Host header, if present.
    pub host: Option<String>,
    /// Client classification from User-Agent.
    pub client: ClientKind,
    /// The request was a conditional GET (If-Modified-Since /
    /// If-None-Match), the paper's internally-heavy pattern.
    pub conditional: bool,
    /// Request body bytes (POST uploads).
    pub request_body_len: u64,
    /// Response status code (0 if the response was never seen).
    pub status: u16,
    /// Response content classification.
    pub content: ContentClass,
    /// Response body bytes.
    pub response_body_len: u64,
}

impl HttpTransaction {
    /// "Successful" per the paper: object returned (2xx) or a 304
    /// not-modified answer to a conditional GET.
    pub fn is_successful(&self) -> bool {
        (200..300).contains(&self.status) || self.status == 304
    }
}

#[derive(Debug)]
struct PendingRequest {
    method: String,
    uri: String,
    host: Option<String>,
    client: ClientKind,
    conditional: bool,
    body_len: u64,
}

#[derive(Debug)]
struct PendingResponse {
    status: u16,
    content: ContentClass,
    /// The declared body length while the body is being passed over
    /// ([`UNTIL_CLOSE`] with none declared), the observed one after.
    body_len: u64,
}

/// Body length of a response that declares none (or is chunked, which we
/// treat the same): it runs to connection close.
const UNTIL_CLOSE: u64 = u64::MAX;

/// Incremental HTTP/1.x connection analyzer.
///
/// Feed originator bytes with [`HttpAnalyzer::feed_request_data`] and
/// responder bytes with [`HttpAnalyzer::feed_response_data`]; call
/// [`HttpAnalyzer::finish`] at connection close to flush a trailing
/// read-until-close response. Completed transactions accumulate in order.
#[derive(Debug, Default)]
pub struct HttpAnalyzer {
    streams: StreamPair,
    exchange: Exchange,
}

/// What the two directions share, apart from their readers, so that each
/// direction's step is a method that borrows this while its reader is fed.
#[derive(Debug, Default)]
struct Exchange {
    pending: VecDeque<PendingRequest>,
    /// The response whose body is being passed over.
    current_resp: Option<PendingResponse>,
    /// Completed transactions (drain with [`HttpAnalyzer::take_transactions`]).
    out: Vec<HttpTransaction>,
}

fn header_value<'a>(headers: &'a str, name: &str) -> Option<&'a str> {
    for line in headers.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case(name) {
                return Some(v.trim());
            }
        }
    }
    None
}

impl HttpAnalyzer {
    /// New analyzer for one connection.
    pub fn new() -> HttpAnalyzer {
        HttpAnalyzer::default()
    }

    /// Feed originator→responder stream bytes.
    pub fn feed_request_data(&mut self, data: &[u8]) {
        self.streams.dir(true).feed(data, |u| self.exchange.request(u));
    }

    /// Feed responder→originator stream bytes.
    pub fn feed_response_data(&mut self, data: &[u8]) {
        self.streams.dir(false).feed(data, |u| self.exchange.response(u));
    }

    /// Announce a capture gap in the given direction (poisons parsing).
    pub fn gap(&mut self, request_dir: bool) {
        self.streams.gap(request_dir);
    }

    /// Flush at connection close: completes a read-until-close response,
    /// and emits a fixed-length response cut short by the capture window
    /// with the bytes observed so far.
    pub fn finish(&mut self) {
        if let Some(mut resp) = self.exchange.current_resp.take() {
            resp.body_len = resp.body_len.saturating_sub(self.streams.dir(false).owed());
            self.exchange.complete(resp);
        }
    }

    /// Take the completed transactions accumulated so far.
    pub fn take_transactions(&mut self) -> Vec<HttpTransaction> {
        std::mem::take(&mut self.exchange.out)
    }
}

impl Exchange {
    /// One request: its head, then its body passed over.
    fn request(&mut self, u: &mut Unread<'_>) -> Option<()> {
        let head = String::from_utf8_lossy(u.until(b"\r\n\r\n")?);
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        let method = parts.next().unwrap_or("");
        let uri = parts.next().unwrap_or("");
        if method.is_empty() || !method.chars().all(|c| c.is_ascii_uppercase()) {
            // Not HTTP after all; stop parsing this stream.
            u.poison();
            return None;
        }
        let body_len: u64 = header_value(&head, "Content-Length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        self.pending.push_back(PendingRequest {
            method: method.to_string(),
            uri: uri.to_string(),
            host: header_value(&head, "Host").map(|s| s.to_string()),
            client: header_value(&head, "User-Agent")
                .map(ClientKind::from_user_agent)
                .unwrap_or(ClientKind::Browser),
            conditional: header_value(&head, "If-Modified-Since").is_some()
                || header_value(&head, "If-None-Match").is_some(),
            body_len,
        });
        u.skip(body_len);
        Some(())
    }

    /// One response: its head, then its body passed over. A step runs only
    /// once the reader owes no body byte, so a response still current here
    /// has had its whole declared body go by.
    fn response(&mut self, u: &mut Unread<'_>) -> Option<()> {
        if let Some(resp) = self.current_resp.take() {
            self.complete(resp);
        }
        let head = String::from_utf8_lossy(u.until(b"\r\n\r\n")?);
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let bodyless = status == 304 || status == 204 || (100..200).contains(&status);
        let resp = PendingResponse {
            status,
            content: match header_value(&head, "Content-Type") {
                Some(v) if !bodyless => ContentClass::from_header(v),
                _ => ContentClass::None,
            },
            body_len: if bodyless {
                0
            } else {
                header_value(&head, "Content-Length")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(UNTIL_CLOSE)
            },
        };
        if resp.body_len == 0 {
            self.complete(resp);
        } else {
            u.skip(resp.body_len);
            self.current_resp = Some(resp);
        }
        Some(())
    }

    fn complete(&mut self, resp: PendingResponse) {
        let req = self.pending.pop_front();
        let (method, uri, host, client, conditional, request_body_len) = match req {
            Some(r) => (r.method, r.uri, r.host, r.client, r.conditional, r.body_len),
            // Response with no captured request (mid-stream capture).
            None => (String::new(), String::new(), None, ClientKind::Browser, false, 0),
        };
        self.out.push(HttpTransaction {
            method,
            uri,
            host,
            client,
            conditional,
            request_body_len,
            status: resp.status,
            content: resp.content,
            response_body_len: resp.body_len,
        });
    }
}

// ---------------------------------------------------------------------------
// Encoders (used by the trace generator)
// ---------------------------------------------------------------------------

/// Filler byte [`encode_response`] uses for response bodies.
pub const RESPONSE_FILL: u8 = b'x';

/// Write `v` as ASCII decimal digits (no formatting machinery).
fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut v = v;
    loop {
        i -= 1;
        // In-bounds by construction: u64 has at most 20 decimal digits,
        // so i stays in 0..20. ent-lint: allow(E001)
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // ent-lint: allow(E001)
    out.extend_from_slice(&digits[i..]);
}

/// Build an HTTP request head whose URI is assembled from literal
/// `uri_parts` interleaved with decimal `uri_slots` (part 0, slot 0,
/// part 1, slot 1, ...; trailing parts without a slot are appended as-is).
/// Byte-identical to [`encode_request`] with the equivalent formatted URI
/// and a `body_len`-byte body, but with the body left off: callers append
/// it (or keep it symbolic as a fill run).
pub fn encode_request_head(
    method: &str,
    uri_parts: &[&str],
    uri_slots: &[u64],
    host: &str,
    user_agent: &str,
    conditional: bool,
    body_len: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + host.len() + user_agent.len());
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    for (i, part) in uri_parts.iter().enumerate() {
        out.extend_from_slice(part.as_bytes());
        if let Some(&slot) = uri_slots.get(i) {
            push_u64(&mut out, slot);
        }
    }
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
    out.extend_from_slice(host.as_bytes());
    out.extend_from_slice(b"\r\nUser-Agent: ");
    out.extend_from_slice(user_agent.as_bytes());
    out.extend_from_slice(b"\r\n");
    if conditional {
        out.extend_from_slice(b"If-Modified-Since: Mon, 04 Oct 2004 07:00:00 GMT\r\n");
    }
    if body_len > 0 {
        out.extend_from_slice(b"Content-Length: ");
        push_u64(&mut out, body_len as u64);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// Build an HTTP request head (+ optional body).
pub fn encode_request(
    method: &str,
    uri: &str,
    host: &str,
    user_agent: &str,
    conditional: bool,
    body: &[u8],
) -> Vec<u8> {
    let mut out =
        encode_request_head(method, &[uri], &[], host, user_agent, conditional, body.len());
    out.extend_from_slice(body);
    out
}

/// Build an HTTP response head for a `body_len`-byte body: byte-identical
/// to [`encode_response`] minus the [`RESPONSE_FILL`] filler, which stays
/// symbolic until frame emission. Bodyless statuses (304/204) carry no
/// Content-* headers and no filler.
pub fn encode_response_head(status: u16, content_type: &str, body_len: usize) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        206 => "Partial Content",
        304 => "Not Modified",
        404 => "Not Found",
        _ => "Response",
    };
    let mut out = Vec::with_capacity(96 + content_type.len());
    out.extend_from_slice(b"HTTP/1.1 ");
    push_u64(&mut out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nServer: Apache/1.3\r\n");
    if status != 304 && status != 204 {
        out.extend_from_slice(b"Content-Type: ");
        out.extend_from_slice(content_type.as_bytes());
        out.extend_from_slice(b"\r\nContent-Length: ");
        push_u64(&mut out, body_len as u64);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out
}

/// True when `status` carries a response body (and thus filler bytes).
pub fn response_has_body(status: u16) -> bool {
    status != 304 && status != 204
}

/// Build an HTTP response head + body of `body_len` filler bytes.
pub fn encode_response(status: u16, content_type: &str, body_len: usize) -> Vec<u8> {
    let mut out = encode_response_head(status, content_type, body_len);
    if response_has_body(status) {
        out.extend(std::iter::repeat_n(RESPONSE_FILL, body_len));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(reqs: &[Vec<u8>], resps: &[Vec<u8>]) -> Vec<HttpTransaction> {
        let mut a = HttpAnalyzer::new();
        for r in reqs {
            a.feed_request_data(r);
        }
        for r in resps {
            a.feed_response_data(r);
        }
        a.finish();
        a.take_transactions()
    }

    #[test]
    fn head_variants_match_formatted_encoders() {
        // Request: slot-assembled URI and symbolic body must reproduce the
        // formatted encoder byte-for-byte.
        for (body_len, conditional) in [(0usize, false), (0, true), (1, false), (512, true)] {
            let body: Vec<u8> = std::iter::repeat_n(b'p', body_len).collect();
            let uri = format!("/page{}/obj{}.html", 417, 9);
            let full = encode_request("POST", &uri, "h.example", "Mozilla/5.0", conditional, &body);
            let mut split = encode_request_head(
                "POST",
                &["/page", "/obj", ".html"],
                &[417, 9],
                "h.example",
                "Mozilla/5.0",
                conditional,
                body_len,
            );
            split.extend_from_slice(&body);
            assert_eq!(split, full);
        }
        // Response: head + RESPONSE_FILL run reproduces the encoder, and
        // bodyless statuses stay filler-free.
        for (status, ct, len) in [
            (200u16, "text/html", 0usize),
            (200, "application/zip", 38_000),
            (206, "image/gif", 7),
            (304, "", 0),
            (404, "text/html", 220),
            (555, "text/plain", 12),
        ] {
            let full = encode_response(status, ct, len);
            let mut split = encode_response_head(status, ct, len);
            if response_has_body(status) {
                split.extend(std::iter::repeat_n(RESPONSE_FILL, len));
            }
            assert_eq!(split, full, "status {status}");
        }
    }

    #[test]
    fn client_kind_as_str_matches_debug() {
        for k in [
            ClientKind::Browser,
            ClientKind::Scanner,
            ClientKind::GoogleBot1,
            ClientKind::GoogleBot2,
            ClientKind::IFolder,
            ClientKind::NetMeeting,
            ClientKind::OtherAutomated,
        ] {
            assert_eq!(k.as_str(), format!("{k:?}"));
        }
    }

    #[test]
    fn simple_get() {
        let req = encode_request("GET", "/index.html", "www.lbl.gov", "Mozilla/5.0", false, b"");
        let resp = encode_response(200, "text/html", 120);
        let tx = run(&[req], &[resp]);
        assert_eq!(tx.len(), 1);
        let t = &tx[0];
        assert_eq!(t.method, "GET");
        assert_eq!(t.uri, "/index.html");
        assert_eq!(t.status, 200);
        assert_eq!(t.content, ContentClass::Text);
        assert_eq!(t.response_body_len, 120);
        assert!(t.is_successful());
        assert_eq!(t.client, ClientKind::Browser);
        assert!(!t.conditional);
    }

    #[test]
    fn conditional_get_304() {
        let req = encode_request("GET", "/logo.png", "www", "Mozilla/4.0", true, b"");
        let resp = encode_response(304, "", 0);
        let tx = run(&[req], &[resp]);
        assert!(tx[0].conditional);
        assert_eq!(tx[0].status, 304);
        assert_eq!(tx[0].response_body_len, 0);
        assert!(tx[0].is_successful());
    }

    #[test]
    fn pipelined_transactions() {
        let r1 = encode_request("GET", "/a", "h", "Mozilla", false, b"");
        let r2 = encode_request("GET", "/b", "h", "Mozilla", false, b"");
        let p1 = encode_response(200, "image/gif", 10);
        let p2 = encode_response(404, "text/html", 20);
        let tx = run(&[r1, r2], &[p1, p2]);
        assert_eq!(tx.len(), 2);
        assert_eq!(tx[0].uri, "/a");
        assert_eq!(tx[0].content, ContentClass::Image);
        assert_eq!(tx[1].uri, "/b");
        assert_eq!(tx[1].status, 404);
        assert!(!tx[1].is_successful());
    }

    #[test]
    fn post_with_body() {
        let req = encode_request("POST", "/ifolder/sync", "srv", "iFolderClient/2.0", false, &[7u8; 512]);
        let resp = encode_response(200, "application/octet-stream", 32780);
        let tx = run(&[req], &[resp]);
        assert_eq!(tx[0].method, "POST");
        assert_eq!(tx[0].client, ClientKind::IFolder);
        assert_eq!(tx[0].request_body_len, 512);
        assert_eq!(tx[0].response_body_len, 32780);
        assert_eq!(tx[0].content, ContentClass::Application);
    }

    #[test]
    fn chunk_boundaries_do_not_matter() {
        let req = encode_request("GET", "/x", "h", "Mozilla", false, b"");
        let resp = encode_response(200, "application/pdf", 1000);
        // Feed byte-by-byte.
        let mut a = HttpAnalyzer::new();
        for b in &req {
            a.feed_request_data(std::slice::from_ref(b));
        }
        for chunk in resp.chunks(7) {
            a.feed_response_data(chunk);
        }
        a.finish();
        let tx = a.take_transactions();
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].response_body_len, 1000);
    }

    #[test]
    fn read_until_close_body() {
        let req = encode_request("GET", "/old", "h", "Mozilla", false, b"");
        let mut resp = b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\n".to_vec();
        resp.extend_from_slice(&[b'y'; 333]);
        let tx = run(&[req], &[resp]);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].response_body_len, 333);
    }

    #[test]
    fn client_kinds() {
        assert_eq!(ClientKind::from_user_agent("Googlebot-1/LBNL"), ClientKind::GoogleBot1);
        assert_eq!(ClientKind::from_user_agent("Googlebot/2.1"), ClientKind::GoogleBot2);
        assert_eq!(ClientKind::from_user_agent("VulnScan/3.1"), ClientKind::Scanner);
        assert_eq!(ClientKind::from_user_agent("NetMeeting/3"), ClientKind::NetMeeting);
        assert_eq!(ClientKind::from_user_agent("WebCrawler/1"), ClientKind::OtherAutomated);
        assert_eq!(ClientKind::from_user_agent("Mozilla/5.0 (X11)"), ClientKind::Browser);
        assert!(ClientKind::Scanner.is_automated());
        assert!(!ClientKind::Browser.is_automated());
    }

    #[test]
    fn content_classes() {
        assert_eq!(ContentClass::from_header("text/html; charset=utf-8"), ContentClass::Text);
        assert_eq!(ContentClass::from_header("IMAGE/JPEG"), ContentClass::Image);
        assert_eq!(ContentClass::from_header("application/zip"), ContentClass::Application);
        assert_eq!(ContentClass::from_header("video/mpeg"), ContentClass::Other);
    }

    #[test]
    fn chunked_encoding_degrades_to_read_until_close() {
        // We do not decode chunked framing; the body is counted until the
        // connection closes (byte counts then include chunk headers,
        // which is the same approximation header-only tools make).
        let req = encode_request("GET", "/c", "h", "Mozilla", false, b"");
        let resp = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n".to_vec();
        let tx = run(&[req], &[resp]);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].status, 200);
        assert!(tx[0].response_body_len > 5);
    }

    #[test]
    fn interleaved_feed_order_is_immaterial() {
        // Request and response bytes may arrive in any interleaving (as
        // delivered by the flow engine); pairing must still work.
        let mut a = HttpAnalyzer::new();
        let req = encode_request("GET", "/i", "h", "Mozilla", false, b"");
        let resp = encode_response(200, "text/plain", 64);
        let (r1, r2) = req.split_at(req.len() / 2);
        let (p1, p2) = resp.split_at(resp.len() / 3);
        a.feed_request_data(r1);
        a.feed_response_data(p1);
        a.feed_request_data(r2);
        a.feed_response_data(p2);
        a.finish();
        let tx = a.take_transactions();
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].response_body_len, 64);
    }

    #[test]
    fn non_http_stream_poisons_quietly() {
        let mut a = HttpAnalyzer::new();
        a.feed_request_data(b"\x16\x03\x01\x00\x2f binary not http\r\n\r\n");
        a.finish();
        assert!(a.take_transactions().is_empty());
    }

    #[test]
    fn response_without_request_still_recorded() {
        let resp = encode_response(200, "text/html", 5);
        let tx = run(&[], &[resp]);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].method, "");
        assert_eq!(tx[0].status, 200);
    }
}
