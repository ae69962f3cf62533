//! The stream contract of `ent-proto`, checked from outside through every
//! consumer of its one stream reader: what an analyzer records does not
//! depend on how TCP cut the stream into segments, a capture gap ends the
//! reading of a direction for good, and a stream that never completes a
//! message costs linear time.

use ent_proto::cifs::{self, CifsAnalyzer, SmbCommand};
use ent_proto::dcerpc::{self, interfaces, DcerpcAnalyzer};
use ent_proto::http::{self, HttpAnalyzer};
use ent_proto::imap::{self, ImapAnalyzer};
use ent_proto::ncp::{self, NcpAnalyzer, NcpOp};
use ent_proto::netbios::{encode_ssn_frame, SsnType};
use ent_proto::nfs::NfsAnalyzer;
use ent_proto::smtp::{self, SmtpAnalyzer};
use ent_proto::ssl::{self, RecordType, TlsTracker};
use ent_proto::sunrpc::{self, PROG_NFS};
use ent_wire::{ipv4, Timestamp};
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// One side's next flight of bytes: `(from_client, bytes)`.
type Dialogue = Vec<(bool, Vec<u8>)>;

/// Segment sizes every dialogue is cut at, besides being fed whole.
const CUTS: [usize; 6] = [1, 2, 3, 7, 64, 1460];

/// Run `analyze` over the dialogue fed flight by flight, then over the
/// same dialogue with every flight cut into `cut`-byte segments, and
/// return the records after checking they never differ. A segment is
/// `(from_client, microseconds, bytes)`, all segments of a flight arriving
/// at the same instant.
fn segmentation_invariant<R: PartialEq + Debug>(
    dialogue: &Dialogue,
    analyze: impl Fn(&mut dyn Iterator<Item = (bool, Timestamp, &[u8])>) -> R,
) -> R {
    let cut_at = |cut: usize| {
        analyze(&mut dialogue.iter().enumerate().flat_map(|(i, (from_client, flight))| {
            let ts = Timestamp::from_micros(1_000 * i as u64);
            flight.chunks(cut).map(move |segment| (*from_client, ts, segment))
        }))
    };
    let whole = cut_at(usize::MAX);
    for cut in CUTS {
        assert_eq!(cut_at(cut), whole, "cut at {cut}");
    }
    whole
}

fn http_dialogue() -> Dialogue {
    let get = |uri, conditional| http::encode_request("GET", uri, "www.lbl.gov", "Mozilla/5.0", conditional, b"");
    let mut until_close = b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\n".to_vec();
    until_close.extend_from_slice(&[b'y'; 3_333]);
    vec![
        // Two pipelined requests in one flight, answered in one flight.
        (true, [get("/a", false), get("/b", false)].concat()),
        (false, [http::encode_response(200, "image/gif", 10), http::encode_response(404, "text/html", 20)].concat()),
        (true, http::encode_request("POST", "/ifolder/sync", "srv", "iFolderClient/2.0", false, &[7u8; 3_000])),
        (false, http::encode_response(200, "application/octet-stream", 32_780)),
        (true, get("/logo.png", true)),
        (false, http::encode_response(304, "", 0)),
        (true, get("/old", false)),
        (false, until_close),
    ]
}

#[test]
fn http_records_do_not_depend_on_segmentation() {
    let tx = segmentation_invariant(&http_dialogue(), |segments| {
        let mut a = HttpAnalyzer::new();
        for (from_client, _, bytes) in segments {
            if from_client {
                a.feed_request_data(bytes);
            } else {
                a.feed_response_data(bytes);
            }
        }
        a.finish();
        a.take_transactions()
    });
    let seen: Vec<_> = tx
        .iter()
        .map(|t| (t.uri.as_str(), t.status, t.request_body_len, t.response_body_len))
        .collect();
    assert_eq!(
        seen,
        [
            ("/a", 200, 0, 10),
            ("/b", 404, 0, 20),
            ("/ifolder/sync", 200, 3_000, 32_780),
            ("/logo.png", 304, 0, 0),
            ("/old", 200, 0, 3_333),
        ]
    );
}

#[test]
fn smtp_records_do_not_depend_on_segmentation() {
    let mut dialogue = Dialogue::new();
    for body_len in [5_000, 40] {
        let (client, server) = smtp::encode_session(body_len, 3);
        let mut server = server.into_iter();
        dialogue.extend(server.next().map(|greeting| (false, greeting)));
        for (c, s) in client.into_iter().zip(server) {
            dialogue.extend([(true, c), (false, s)]);
        }
    }
    let session = segmentation_invariant(&dialogue, |segments| {
        let mut a = SmtpAnalyzer::new();
        for (from_client, _, bytes) in segments {
            if from_client {
                a.feed_client(bytes);
            } else {
                a.feed_server(bytes);
            }
        }
        a.session().clone()
    });
    assert!(session.greeted);
    assert_eq!((session.messages, session.message_bytes, session.recipients), (2, 5_040, 6));
    assert_eq!(session.commands.len(), 2 * 7);
}

#[test]
fn imap_records_do_not_depend_on_segmentation() {
    let dialogue = vec![
        (true, imap::encode_client_session(5, 2)),
        (false, b"* OK ignored, the server side is not read\r\n".to_vec()),
    ];
    let session = segmentation_invariant(&dialogue, |segments| {
        let mut a = ImapAnalyzer::new();
        for (from_client, _, bytes) in segments {
            if from_client {
                a.feed_client(bytes);
            }
        }
        a.session().clone()
    });
    assert_eq!((session.polls, session.fetches, session.commands.len()), (5, 2, 10));
}

fn tls_dialogue() -> Dialogue {
    let (hello, server_flight, client_ccs, server_ccs) = ssl::encode_handshake();
    let app = |len| ssl::encode_record(RecordType::ApplicationData, &vec![0u8; len]);
    vec![
        (true, hello),
        (false, server_flight),
        (true, client_ccs),
        (false, server_ccs),
        // Records longer than a segment: counted at their header.
        (true, app(1_900)),
        (false, app(16_000)),
        (true, app(100)),
    ]
}

#[test]
fn tls_records_do_not_depend_on_segmentation() {
    let outcome = segmentation_invariant(&tls_dialogue(), |segments| {
        let mut t = TlsTracker::new();
        for (from_client, _, bytes) in segments {
            t.feed(from_client, bytes);
        }
        (t.handshake_complete(), t.app_records)
    });
    assert_eq!(outcome, (true, 3));
}

fn cifs_dialogue() -> Dialogue {
    let msg = |smb: Vec<u8>| encode_ssn_frame(SsnType::Message, &smb);
    let basic = |cmd, is_response| msg(cifs::encode_smb(cmd, is_response, &[0u8; 30]));
    vec![
        (true, encode_ssn_frame(SsnType::Request, b"caller")),
        (false, encode_ssn_frame(SsnType::PositiveResponse, b"")),
        (true, [basic(SmbCommand::Negotiate, false), basic(SmbCommand::SessionSetupAndX, false)].concat()),
        (false, [basic(SmbCommand::Negotiate, true), basic(SmbCommand::SessionSetupAndX, true)].concat()),
        (true, msg(cifs::encode_trans("\\PIPE\\spoolss", false, &dcerpc::encode_bind(interfaces::SPOOLSS)))),
        (false, msg(cifs::encode_trans("\\PIPE\\spoolss", true, &dcerpc::encode_bind_ack()))),
        (true, msg(cifs::encode_rw(SmbCommand::ReadAndX, false, 0))),
        (false, msg(cifs::encode_rw(SmbCommand::ReadAndX, true, 30_000))),
        (true, basic(SmbCommand::Close, false)),
    ]
}

#[test]
fn cifs_records_do_not_depend_on_segmentation() {
    let events = segmentation_invariant(&cifs_dialogue(), |segments| {
        let mut a = CifsAnalyzer::new();
        for (from_client, _, bytes) in segments {
            a.feed(from_client, bytes);
        }
        a.take_events()
    });
    assert_eq!(events.len(), 2 + 4 + 2 + 2 + 1);
    assert!(events.iter().any(|e| matches!(e, cifs::CifsEvent::Smb(m) if m.size > 30_000)));
    assert!(events.iter().any(
        |e| matches!(e, cifs::CifsEvent::Smb(m) if m.trans_data == dcerpc::encode_bind(interfaces::SPOOLSS))
    ));
}

fn dcerpc_dialogue() -> Dialogue {
    vec![
        (true, dcerpc::encode_bind(interfaces::EPMAPPER)),
        (false, dcerpc::encode_bind_ack()),
        (true, dcerpc::encode_request(3, 60)),
        (false, dcerpc::encode_epm_response(interfaces::SPOOLSS, ipv4::Addr::new(10, 3, 0, 7), 49_160)),
        // Two pipelined requests, the first larger than a segment.
        (true, [dcerpc::encode_request(19, 4_096), dcerpc::encode_request(1, 8)].concat()),
        (false, [dcerpc::encode_response(4), dcerpc::encode_response(2_000)].concat()),
        (true, dcerpc::encode_request(7, 16)),
    ]
}

#[test]
fn dcerpc_records_do_not_depend_on_segmentation() {
    let (calls, mappings, iface) = segmentation_invariant(&dcerpc_dialogue(), |segments| {
        let mut a = DcerpcAnalyzer::new();
        for (from_client, _, bytes) in segments {
            a.feed(from_client, bytes);
        }
        a.finish();
        (a.take_calls(), a.mappings.clone(), a.iface())
    });
    let seen: Vec<_> = calls.iter().map(|c| (c.opnum, c.request_bytes, c.response_bytes)).collect();
    assert_eq!(seen, [(3, 60, 26), (19, 4_096, 4), (1, 8, 2_000), (7, 16, 0)]);
    assert_eq!(mappings.len(), 1);
    assert_eq!(iface, Some(interfaces::EPMAPPER));
}

fn nfs_dialogue() -> Dialogue {
    let call = |xid, proc, args| sunrpc::mark_record(&sunrpc::encode_call(xid, PROG_NFS, 3, proc, args));
    let reply = |xid, status, len| sunrpc::mark_record(&sunrpc::encode_reply(xid, status, len));
    vec![
        (true, [call(1, 6, 100), call(2, 3, 60)].concat()),
        // A 32 KiB read reply, then a failed lookup, in one flight.
        (false, [reply(1, 0, 32_768), reply(2, 2, 4)].concat()),
        (true, call(3, 7, 8_192)),
        (false, reply(3, 0, 8)),
        (true, call(4, 1, 40)),
    ]
}

#[test]
fn nfs_records_do_not_depend_on_segmentation() {
    let calls = segmentation_invariant(&nfs_dialogue(), |segments| {
        let mut a = NfsAnalyzer::new();
        for (from_client, ts, bytes) in segments {
            a.feed_tcp(from_client, ts, bytes);
        }
        a.finish();
        a.take_calls()
    });
    let seen: Vec<_> = calls.iter().map(|c| (c.op.label(), c.ok, c.latency_us)).collect();
    assert_eq!(
        seen,
        [("Read", true, 1_000), ("LookUp", false, 1_000), ("Write", true, 1_000), ("GetAttr", false, 0)]
    );
    assert!(calls[0].reply_bytes > 32_768 && calls[2].request_bytes > 8_192);
}

fn ncp_dialogue() -> Dialogue {
    vec![
        (true, [ncp::encode_request(1, NcpOp::Read, 7), ncp::encode_request(2, NcpOp::FileSize, 2)].concat()),
        // Answered out of order.
        (false, [ncp::encode_reply(2, 0, 2), ncp::encode_reply(1, 0, 4_096)].concat()),
        (true, ncp::encode_request(3, NcpOp::Write, 8_192)),
        (false, ncp::encode_reply(3, 0x9C, 0)),
        (true, ncp::encode_request(4, NcpOp::FileSearch, 30)),
    ]
}

#[test]
fn ncp_records_do_not_depend_on_segmentation() {
    let calls = segmentation_invariant(&ncp_dialogue(), |segments| {
        let mut a = NcpAnalyzer::new();
        for (from_client, ts, bytes) in segments {
            a.feed(from_client, ts, bytes);
        }
        a.finish();
        a.take_calls()
    });
    let seen: Vec<_> = calls.iter().map(|c| (c.op.label(), c.ok, c.reply_bytes)).collect();
    assert_eq!(
        seen,
        [("File Size", true, 10), ("Read", true, 8 + 4_096), ("Write", false, 8), ("File Search", false, 0)]
    );
}

/// Per analyzer family: a message, a gap, then bytes that would parse as a
/// message — the direction behind the gap yields no further record.
#[test]
fn a_gap_ends_the_reading_of_that_direction() {
    // HTTP: the response direction is lost inside a body; what went by
    // before the hole is what the transaction reports.
    let mut a = HttpAnalyzer::new();
    let response = http::encode_response(200, "text/html", 1_000);
    let (seen, lost) = response.split_at(response.len() - 700);
    a.feed_response_data(&http::encode_response(304, "", 0));
    a.feed_response_data(seen);
    a.gap(false);
    a.feed_response_data(lost);
    a.feed_response_data(&response);
    a.finish();
    let tx = a.take_transactions();
    assert_eq!(tx.iter().map(|t| t.response_body_len).collect::<Vec<_>>(), [0, 300]);

    // SMTP and IMAP: commands behind the gap are not recorded.
    let (client, _) = smtp::encode_session(10, 1);
    let mut a = SmtpAnalyzer::new();
    a.feed_client(&client[0]);
    a.gap(true);
    client.iter().for_each(|c| a.feed_client(c));
    a.gap(false);
    a.feed_server(b"220 late greeting\r\n");
    assert_eq!((a.session().commands.len(), a.session().messages, a.session().greeted), (1, 0, false));
    let mut a = ImapAnalyzer::new();
    a.feed_client(b"a001 LOGIN user pass\r\n");
    a.gap(false); // the unread direction: nothing to lose
    a.feed_client(b"a002 NOOP\r\n");
    a.gap(true);
    a.feed_client(b"a003 NOOP\r\n");
    assert_eq!((a.session().commands.len(), a.session().polls), (2, 1));

    // TLS: one direction lost, the other still read.
    let mut t = TlsTracker::new();
    let app = ssl::encode_record(RecordType::ApplicationData, &[0u8; 100]);
    t.feed(true, &app);
    t.gap(true);
    t.feed(true, &app);
    t.feed(false, &app);
    assert_eq!(t.app_records, 2);

    // CIFS, DCE/RPC, NFS, NCP.
    let mut a = CifsAnalyzer::new();
    let smb = encode_ssn_frame(SsnType::Message, &cifs::encode_smb(SmbCommand::Echo, false, &[0u8; 8]));
    a.feed(true, &smb);
    a.gap(true);
    a.feed(true, &smb);
    assert_eq!(a.take_events().len(), 1);
    let mut a = DcerpcAnalyzer::new();
    a.feed(true, &dcerpc::encode_request(1, 8));
    a.gap(true);
    a.feed(true, &dcerpc::encode_request(2, 8));
    a.finish();
    assert_eq!(a.take_calls().iter().map(|c| c.opnum).collect::<Vec<_>>(), [1]);
    let mut a = NfsAnalyzer::new();
    let call = |xid| sunrpc::mark_record(&sunrpc::encode_call(xid, PROG_NFS, 3, 6, 100));
    a.feed_tcp(true, Timestamp::ZERO, &call(1));
    a.gap(true);
    a.feed_tcp(true, Timestamp::ZERO, &call(2));
    a.finish();
    assert_eq!(a.take_calls().len(), 1);
    let mut a = NcpAnalyzer::new();
    a.feed(true, Timestamp::ZERO, &ncp::encode_request(1, NcpOp::Read, 7));
    a.gap(true);
    a.feed(true, Timestamp::ZERO, &ncp::encode_request(2, NcpOp::Read, 7));
    a.finish();
    assert_eq!(a.take_calls().len(), 1);
}

/// 1 MiB that never completes a message, one byte per segment, through
/// each delimiter-searching direction. Reading a byte once makes this a
/// million constant-time calls (well under a second); rescanning from
/// byte 0 on every segment makes it 5·10¹¹ comparisons (minutes). The
/// bound only has to tell those two apart on any machine.
#[test]
fn an_endless_head_in_one_byte_segments_is_read_in_linear_time() {
    fn endless(what: &str, mut feed: impl FnMut(&[u8])) {
        let started = Instant::now();
        for _ in 0..1 << 20 {
            feed(b"x");
        }
        let took = started.elapsed();
        assert!(took < Duration::from_secs(30), "{what}: {took:?} for 1 MiB");
    }
    let mut a = HttpAnalyzer::new();
    endless("http request", |b| a.feed_request_data(b));
    endless("http response", |b| a.feed_response_data(b));
    assert!(a.take_transactions().is_empty());
    let mut a = SmtpAnalyzer::new();
    endless("smtp command", |b| a.feed_client(b));
    endless("smtp reply", |b| a.feed_server(b));
    let mut a = SmtpAnalyzer::new();
    a.feed_client(b"DATA\r\n");
    endless("smtp body", |b| a.feed_client(b));
    a.feed_client(b"\r\n.\r\n");
    assert_eq!(a.session().message_bytes, 1 << 20);
    let mut a = ImapAnalyzer::new();
    endless("imap", |b| a.feed_client(b));
    assert!(a.session().commands.is_empty());
}
