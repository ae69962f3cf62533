//! Windows services: NetBIOS-SSN, CIFS/SMB, DCE/RPC, Endpoint Mapper and
//! NetBIOS datagrams (§5.2.1, Tables 9–11).
//!
//! Calibration targets:
//! * clients dial 139/tcp and 445/tcp *in parallel*; many servers listen
//!   only on 139, so the 445 attempt is rejected — producing CIFS connect
//!   success of only 46–68% with 26–37% rejected, while NetBIOS-SSN
//!   connections succeed 82–92% and Endpoint Mapper 99–100% (Table 9);
//! * the NetBIOS-SSN application handshake succeeds 89–99%;
//! * DCE/RPC over named pipes is the biggest CIFS component (33–48% of
//!   messages, 32–77% of bytes), file sharing 11–27%/8–43%, LANMAN 1–3%
//!   (Table 10);
//! * DCE/RPC functions: NetLogon+LsaRPC dominate where a domain
//!   controller is monitored (D0: 68% of calls), Spoolss/WritePrinter
//!   where the print server is (D3: 29%, D4: 81% of calls; 94–99% of
//!   bytes) (Table 11).

use super::TraceCtx;
use crate::dataset::RpcProfile;
use crate::distr::{coin, weighted_choice, LogNormal};
use crate::network::Role;
use crate::synth::{Close, Exchange, Outcome, Payload, Peer, TcpSessionSpec, UdpFlowSpec, UdpMessage};
use ent_proto::cifs::{self, SmbCommand};
use ent_proto::dcerpc::{self, interfaces};
use ent_proto::netbios::{self, SsnType};
use rand::RngExt;

/// Generate all Windows-service traffic for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.windows; ctx.count(rate) };
    for _ in 0..n {
        let what: f64 = ctx.rng.random();
        if what < 0.62 {
            cifs_session(ctx);
        } else if what < 0.80 {
            epmapper_then_dcerpc(ctx);
        } else {
            netbios_dgm(ctx);
        }
    }
}

/// Wrap SMB messages in NetBIOS session framing.
fn framed(smb: Vec<u8>) -> Vec<u8> {
    netbios::encode_ssn_frame(SsnType::Message, &smb)
}

/// The SMB Basic preamble: negotiate, session setup, tree connect.
fn smb_preamble(exchanges: &mut Vec<Exchange>) {
    for cmd in [
        SmbCommand::Negotiate,
        SmbCommand::SessionSetupAndX,
        SmbCommand::TreeConnectAndX,
    ] {
        exchanges.push(Exchange::client(framed(cifs::encode_smb(cmd, false, &[0u8; 60])), 2_000));
        exchanges.push(Exchange::server(framed(cifs::encode_smb(cmd, true, &[0u8; 40])), 1_500));
    }
}

/// A run of DCE/RPC calls over a named pipe, per the vantage profile.
fn rpc_pipe_dialogue(ctx: &mut TraceCtx<'_>, exchanges: &mut Vec<Exchange>) {
    let (pipe, iface, calls): (&str, dcerpc::Uuid, Vec<(u16, usize, usize)>) =
        match ctx.spec.rpc_profile {
            RpcProfile::AuthHeavy => {
                if coin(&mut ctx.rng, 0.6) {
                    // NetLogon: SamLogon exchanges.
                    let n = ctx.rng.random_range(2..8);
                    (
                        "\\PIPE\\NETLOGON",
                        interfaces::NETLOGON,
                        (0..n).map(|_| (2u16, 180usize, 120usize)).collect(),
                    )
                } else {
                    let n = ctx.rng.random_range(1..6);
                    (
                        "\\PIPE\\lsarpc",
                        interfaces::LSARPC,
                        (0..n).map(|_| (6u16, 90usize, 60usize)).collect(),
                    )
                }
            }
            RpcProfile::PrintHeavy => {
                if ctx.hosts_role(Role::PrintServer) || coin(&mut ctx.rng, 0.5) {
                    // A print job: open, start doc, many WritePrinter, end.
                    // D3's jobs are smaller with more status chatter
                    // (WritePrinter 29% of D3 calls vs 81% of D4's).
                    let d3 = ctx.spec.name == "D3";
                    let pages = if d3 {
                        1
                    } else {
                        ctx.rng.random_range(1..20)
                    };
                    let mut calls = Vec::from([(1u16, 120usize, 80usize), (17, 100, 40)]);
                    for _ in 0..pages * 4 {
                        calls.push((19, 4_096, 16)); // WritePrinter
                    }
                    if d3 {
                        // GetPrinter / EnumJobs polling between writes.
                        for _ in 0..ctx.rng.random_range(6..14) {
                            calls.push((8, 90, 300));
                        }
                    }
                    calls.push((23, 60, 30));
                    calls.push((29, 40, 30));
                    ("\\PIPE\\spoolss", interfaces::SPOOLSS, calls)
                } else {
                    let n = ctx.rng.random_range(1..5);
                    (
                        "\\PIPE\\srvsvc",
                        interfaces::SRVSVC,
                        (0..n).map(|_| (15u16, 120usize, 600usize)).collect(),
                    )
                }
            }
        };
    exchanges.push(Exchange::client(
        framed(cifs::encode_trans(pipe, false, &dcerpc::encode_bind(iface))),
        3_000,
    ));
    exchanges.push(Exchange::server(
        framed(cifs::encode_trans(pipe, true, &dcerpc::encode_bind_ack())),
        1_000,
    ));
    for (opnum, req, resp) in calls {
        exchanges.push(Exchange::client(
            framed(cifs::encode_trans(pipe, false, &dcerpc::encode_request(opnum, req))),
            1_200,
        ));
        exchanges.push(Exchange::server(
            framed(cifs::encode_trans(pipe, true, &dcerpc::encode_response(resp))),
            900,
        ));
    }
}

/// Windows file-sharing reads/writes.
fn file_sharing_dialogue(ctx: &mut TraceCtx<'_>, exchanges: &mut Vec<Exchange>) {
    exchanges.push(Exchange::client(
        framed(cifs::encode_smb(SmbCommand::NtCreateAndX, false, &[0u8; 80])),
        2_000,
    ));
    exchanges.push(Exchange::server(
        framed(cifs::encode_smb(SmbCommand::NtCreateAndX, true, &[0u8; 60])),
        1_500,
    ));
    let ops = ctx.rng.random_range(2..14);
    for _ in 0..ops {
        if coin(&mut ctx.rng, 0.65) {
            let len = ctx.rng.random_range(1_024..16_384);
            exchanges.push(Exchange::client(framed(cifs::encode_rw(SmbCommand::ReadAndX, false, 40)), 1_500));
            exchanges.push(Exchange::server(framed(cifs::encode_rw(SmbCommand::ReadAndX, true, len)), 1_000));
        } else if coin(&mut ctx.rng, 0.7) {
            let len = ctx.rng.random_range(1_024..16_384);
            exchanges.push(Exchange::client(framed(cifs::encode_rw(SmbCommand::WriteAndX, false, len)), 1_500));
            exchanges.push(Exchange::server(framed(cifs::encode_rw(SmbCommand::WriteAndX, true, 30)), 1_000));
        } else {
            exchanges.push(Exchange::client(framed(cifs::encode_smb(SmbCommand::Trans2, false, &[0u8; 90])), 1_200));
            exchanges.push(Exchange::server(framed(cifs::encode_smb(SmbCommand::Trans2, true, &[0u8; 220])), 900));
        }
    }
    exchanges.push(Exchange::client(framed(cifs::encode_smb(SmbCommand::Close, false, &[0u8; 24])), 800));
    exchanges.push(Exchange::server(framed(cifs::encode_smb(SmbCommand::Close, true, &[0u8; 24])), 600));
}

/// LANMAN management pipe traffic.
fn lanman_dialogue(ctx: &mut TraceCtx<'_>, exchanges: &mut Vec<Exchange>) {
    static ZEROS: [u8; 2_500] = [0u8; 2_500];
    let n = ctx.rng.random_range(1..3);
    for _ in 0..n {
        exchanges.push(Exchange::client(
            framed(cifs::encode_trans("\\PIPE\\LANMAN", false, &[0u8; 90])),
            2_000,
        ));
        exchanges.push(Exchange::server(
            framed(cifs::encode_trans("\\PIPE\\LANMAN", true, &ZEROS[..ctx.rng.random_range(300..2_500)])),
            1_500,
        ));
    }
}

/// A CIFS session, possibly with the parallel 139+445 dial pattern.
fn cifs_session(ctx: &mut TraceCtx<'_>) {
    let client_host = ctx.local_client();
    let server_host = if ctx.hosts_role(Role::CifsServer) && coin(&mut ctx.rng, 0.5) {
        ctx.server(Role::CifsServer).unwrap_or_else(|| ctx.remote_internal())
    } else if coin(&mut ctx.rng, 0.4) {
        match ctx.spec.rpc_profile {
            RpcProfile::AuthHeavy => ctx.server(Role::AuthServer),
            RpcProfile::PrintHeavy => ctx.server(Role::PrintServer),
        }
        .unwrap_or_else(|| ctx.remote_internal())
    } else {
        ctx.remote_internal()
    };
    let rtt = ctx.rtt_internal();
    let start = ctx.start();
    // Does this server listen on 445? About half are 139-only, which is
    // what produces the low CIFS (445) connect success of Table 9.
    let server_445 = coin(&mut ctx.rng, 0.55);
    let parallel_dial = coin(&mut ctx.rng, 0.70);
    let use_139 = !server_445 || coin(&mut ctx.rng, 0.4);

    // Build the SMB dialogue.
    let mut exchanges = Vec::with_capacity(16);
    let mut ssn_ok = true;
    if use_139 {
        // NetBIOS-SSN application handshake (fails ~4% of the time).
        exchanges.push(Exchange::client(
            netbios::encode_ssn_frame(SsnType::Request, b"CALLING*CALLED"),
            0,
        ));
        if coin(&mut ctx.rng, 0.04) {
            ssn_ok = false;
            exchanges.push(Exchange::server(
                netbios::encode_ssn_frame(SsnType::NegativeResponse, &[0x82]),
                1_000,
            ));
        } else {
            exchanges.push(Exchange::server(
                netbios::encode_ssn_frame(SsnType::PositiveResponse, b""),
                1_000,
            ));
        }
    }
    if ssn_ok {
        smb_preamble(&mut exchanges);
        let kind = weighted_choice(
            &mut ctx.rng,
            &[("rpc", 46.0), ("file", 38.0), ("lanman", 10.0), ("basic", 6.0)],
        );
        match kind {
            "rpc" => rpc_pipe_dialogue(ctx, &mut exchanges),
            "file" => file_sharing_dialogue(ctx, &mut exchanges),
            "lanman" => lanman_dialogue(ctx, &mut exchanges),
            _ => {}
        }
        exchanges.push(Exchange::client(
            framed(cifs::encode_smb(SmbCommand::LogoffAndX, false, &[0u8; 24])),
            900,
        ));
        exchanges.push(Exchange::server(
            framed(cifs::encode_smb(SmbCommand::LogoffAndX, true, &[0u8; 24])),
            700,
        ));
    }

    let client139 = ctx.peer_eph(&client_host);
    let client445 = ctx.peer_eph(&client_host);
    let server139 = ctx.peer_of(&server_host, 139);
    let server445 = ctx.peer_of(&server_host, 445);
    if parallel_dial {
        // Dial both; use whichever works, abandon the loser.
        if server_445 {
            // 445 wins; the 139 connection is opened then dropped.
            let spec445 = TcpSessionSpec::success(start, client445, server445, rtt, exchanges);
            ctx.tcp(&spec445);
            let mut spec139 = TcpSessionSpec::bare(start + 150, client139, server139, rtt);
            spec139.close = Close::Rst;
            ctx.tcp(&spec139);
        } else {
            // Server rejects 445; dialogue proceeds on 139.
            let mut spec445 = TcpSessionSpec::bare(start, client445, server445, rtt);
            spec445.outcome = if coin(&mut ctx.rng, 0.8) {
                Outcome::Rejected
            } else {
                Outcome::Unanswered
            };
            ctx.tcp(&spec445);
            let spec139 = TcpSessionSpec::success(start + 150, client139, server139, rtt, exchanges);
            ctx.tcp(&spec139);
        }
    } else if use_139 {
        // Single-dial 139: a slice of attempts go unanswered (powered-off
        // or firewalled hosts), giving NBSSN its 82-92% success.
        let mut spec = TcpSessionSpec::success(start, client139, server139, rtt, exchanges);
        if coin(&mut ctx.rng, 0.22) {
            spec.outcome = if coin(&mut ctx.rng, 0.93) {
                Outcome::Unanswered
            } else {
                Outcome::Rejected
            };
        }
        ctx.tcp(&spec);
    } else {
        let spec = TcpSessionSpec::success(start, client445, server445, rtt, exchanges);
        ctx.tcp(&spec);
    }
}

/// Endpoint-mapper lookup on 135/tcp followed by DCE/RPC on the mapped
/// ephemeral port.
fn epmapper_then_dcerpc(ctx: &mut TraceCtx<'_>) {
    let server_host = match ctx.spec.rpc_profile {
        RpcProfile::AuthHeavy => ctx.server(Role::AuthServer),
        RpcProfile::PrintHeavy => ctx.server(Role::PrintServer),
    }
    .unwrap_or_else(|| ctx.remote_internal());
    let client_host = ctx.local_client();
    let rtt = ctx.rtt_internal();
    let start = ctx.start();
    let (iface, opnum, req_len, resp_len, calls) = match ctx.spec.rpc_profile {
        RpcProfile::AuthHeavy => (interfaces::NETLOGON, 2u16, 180usize, 120usize, ctx.rng.random_range(1..6)),
        RpcProfile::PrintHeavy => (interfaces::SPOOLSS, 19u16, 4_096usize, 16usize, ctx.rng.random_range(4..40)),
    };
    let mapped_port = 49_152 + ctx.rng.random_range(0..64u16);
    // The EPM conversation (99-100% success, Table 9).
    let client = ctx.peer_eph(&client_host);
    let epm_server = ctx.peer_of(&server_host, 135);
    let epm = TcpSessionSpec::success(
        start,
        client,
        epm_server,
        rtt,
        Vec::from([
            Exchange::client(dcerpc::encode_bind(interfaces::EPMAPPER), 0),
            Exchange::server(dcerpc::encode_bind_ack(), 800),
            Exchange::client(dcerpc::encode_request(3, 80), 500),
            Exchange::server(
                dcerpc::encode_epm_response(iface, server_host.addr, mapped_port),
                800,
            ),
        ]),
    );
    ctx.tcp(&epm);
    // The mapped-port DCE/RPC conversation.
    let client2 = ctx.peer_eph(&client_host);
    let svc_server = ctx.peer_of(&server_host, mapped_port);
    let mut exchanges = Vec::from([
        Exchange::client(dcerpc::encode_bind(iface), 0),
        Exchange::server(dcerpc::encode_bind_ack(), 800),
    ]);
    for _ in 0..calls {
        exchanges.push(Exchange::client(dcerpc::encode_request(opnum, req_len), 1_000));
        exchanges.push(Exchange::server(dcerpc::encode_response(resp_len), 800));
    }
    let svc = TcpSessionSpec::success(start + 20_000, client2, svc_server, rtt, exchanges);
    ctx.tcp(&svc);
}

/// NetBIOS datagram-service broadcasts (small; mostly stays on-subnet,
/// hence rare at this vantage).
fn netbios_dgm(ctx: &mut TraceCtx<'_>) {
    let sender_host = ctx.local_client();
    let sender = ctx.peer_of(&sender_host, 138);
    let bcast = Peer {
        addr: ent_wire::ipv4::Addr::new(10, 100, 255, 255),
        mac: ent_wire::ethernet::MacAddr::BROADCAST,
        port: 138,
        ttl: 64,
    };
    let size = LogNormal::from_median(220.0, 0.5).sample_clamped(&mut ctx.rng, 100.0, 500.0) as usize;
    let spec = UdpFlowSpec {
        start: ctx.start(),
        client: sender,
        server: bcast,
        half_rtt_us: 0,
        messages: Vec::from([UdpMessage::client(Payload::fill(0x11, size), 0)]),
        multicast_mac: Some(ent_wire::ethernet::MacAddr::BROADCAST),
    };
    ctx.udp(&spec);
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_flow::{CollectSummaries, ConnTable, TableConfig, TcpOutcome};
    use ent_wire::{Packet, Timestamp};

    fn summaries(pkts: &[ent_pcap::TimedPacket]) -> Vec<ent_flow::ConnSummary> {
        let mut sorted = pkts.to_vec();
        sorted.sort_by_key(|p| p.ts);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        for p in &sorted {
            t.ingest(&Packet::parse(&p.frame).unwrap(), p.ts, &mut h);
        }
        t.finish(Timestamp::from_secs(4_000), &mut h);
        h.summaries
    }

    #[test]
    fn cifs_success_much_lower_than_nbssn() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[0], 4);
        for _ in 0..250 {
            cifs_session(&mut c);
        }
        let sums = summaries(&packets(&mut c.out));
        let rate = |port: u16| {
            let all: Vec<_> = sums.iter().filter(|s| s.key.resp.port == port).collect();
            let ok = all
                .iter()
                .filter(|s| s.outcome == TcpOutcome::Successful)
                .count();
            (ok as f64 / all.len().max(1) as f64, all.len())
        };
        let (r139, n139) = rate(139);
        let (r445, n445) = rate(445);
        assert!(n139 > 30 && n445 > 30, "n139={n139} n445={n445}");
        assert!(r139 > 0.8, "139 success {r139}");
        assert!((0.40..=0.75).contains(&r445), "445 success {r445}");
        assert!(r139 > r445 + 0.15);
    }

    #[test]
    fn print_vantage_dominated_by_writeprinter() {
        use ent_flow::{ConnIndex, Dir, FlowHandler};
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[4], 30); // D4, print-server subnet
        for _ in 0..260 {
            cifs_session(&mut c);
        }
        // SMB messages span TCP segments, so reassemble per connection
        // with the real flow engine + CIFS/DCE-RPC analyzers.
        #[derive(Default)]
        struct H {
            analyzers: std::collections::BTreeMap<ConnIndex, cifs::CifsAnalyzer>,
        }
        impl FlowHandler for H {
            fn on_tcp_data(&mut self, idx: ConnIndex, dir: Dir, _ts: Timestamp, data: &[u8]) {
                self.analyzers
                    .entry(idx)
                    .or_default()
                    .feed(dir == Dir::Orig, data);
            }
        }
        let mut sorted = packets(&mut c.out);
        sorted.sort_by_key(|p| p.ts);
        let mut table = ConnTable::new(TableConfig::default());
        let mut h = H::default();
        for p in &sorted {
            table.ingest(&Packet::parse(&p.frame).unwrap(), p.ts, &mut h);
        }
        table.finish(Timestamp::from_secs(4_000), &mut h);
        let mut writes = 0usize;
        let mut others = 0usize;
        for a in h.analyzers.values_mut() {
            let mut rpc = dcerpc::DcerpcAnalyzer::new();
            for ev in a.take_events() {
                if let cifs::CifsEvent::Smb(msg) = ev {
                    if !msg.trans_data.is_empty() {
                        rpc.feed(!msg.is_response, &msg.trans_data);
                    }
                }
            }
            rpc.finish();
            for call in rpc.take_calls() {
                if call.function == dcerpc::RpcFunction::SpoolssWritePrinter {
                    writes += 1;
                } else {
                    others += 1;
                }
            }
        }
        assert!(writes > 50, "writes {writes}");
        assert!(
            writes as f64 / (writes + others) as f64 > 0.5,
            "WritePrinter must dominate at the print vantage: {writes} vs {others}"
        );
    }

    #[test]
    fn epmapper_maps_then_service_follows() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[3], 30);
        for _ in 0..30 {
            epmapper_then_dcerpc(&mut c);
        }
        let sums = summaries(&packets(&mut c.out));
        let epm: Vec<_> = sums.iter().filter(|s| s.key.resp.port == 135).collect();
        let mapped: Vec<_> = sums.iter().filter(|s| s.key.resp.port >= 49_152).collect();
        assert!(!epm.is_empty() && !mapped.is_empty());
        assert!(epm.iter().all(|s| s.outcome == TcpOutcome::Successful));
        assert_eq!(epm.len(), mapped.len());
    }
}
