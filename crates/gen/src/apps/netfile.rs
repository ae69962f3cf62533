//! Network file systems: NFS and NCP (§5.2.2, Tables 12–14, Figures 7–8).
//!
//! Calibration targets:
//! * NFS moves more bytes per connection than NCP; the relative NCP share
//!   is much higher at the D0–D2 vantage (NCP servers on router A);
//! * "heavy hitters": the top three NFS host-pairs carry 89–94% of NFS
//!   bytes (NCP: 35–62%);
//! * UDP still dominates NFS host-pairs (~90% of pairs; byte share varies
//!   wildly across datasets: 66/16/31/94/7%);
//! * 40–80% of NCP connections carry nothing but 1-byte TCP keep-alives;
//! * request mixes per Tables 13–14 (dataset-dependent: D0 read-heavy,
//!   D3 getattr-heavy, D4 write-byte-heavy for NFS);
//! * request/reply sizes are dual-mode (~100 B and ~8 KB for NFS; NCP
//!   requests mode at 14 B, replies at 2/10/260 B) — Figure 8;
//! * inter-request spacing ≤ ~10 ms; requests-per-pair spans 1 → 100k+
//!   (Figure 7); NFS requests succeed 84–95% (failed lookups), NCP ~95%.

use super::TraceCtx;
use crate::distr::{coin, weighted_choice, LogNormal};
use crate::network::Role;
use crate::synth::{Close, Exchange, Keepalives, Outcome, Payload, Peer, TcpSessionSpec, UdpFlowSpec, UdpMessage};
use ent_proto::ncp::{self, NcpOp};
use ent_proto::nfs::NfsOp;
use ent_proto::sunrpc;
use rand::RngExt;

/// Generate all network-file-system traffic for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    nfs_traffic(ctx);
    ncp_traffic(ctx);
}

/// Dataset-specific NFS request mix (Table 13 request columns).
fn nfs_op_mix(dataset: &str) -> [(NfsOp, f64); 6] {
    match dataset {
        "D0" => [
            (NfsOp::Read, 70.0),
            (NfsOp::Write, 15.0),
            (NfsOp::GetAttr, 9.0),
            (NfsOp::LookUp, 4.0),
            (NfsOp::Access, 0.5),
            (NfsOp::Other, 1.5),
        ],
        "D3" => [
            (NfsOp::Read, 25.0),
            (NfsOp::Write, 1.0),
            (NfsOp::GetAttr, 53.0),
            (NfsOp::LookUp, 16.0),
            (NfsOp::Access, 4.0),
            (NfsOp::Other, 1.0),
        ],
        "D4" => [
            (NfsOp::Read, 1.0),
            (NfsOp::Write, 19.0),
            (NfsOp::GetAttr, 50.0),
            (NfsOp::LookUp, 23.0),
            (NfsOp::Access, 5.0),
            (NfsOp::Other, 2.0),
        ],
        _ => [
            (NfsOp::Read, 40.0),
            (NfsOp::Write, 12.0),
            (NfsOp::GetAttr, 30.0),
            (NfsOp::LookUp, 13.0),
            (NfsOp::Access, 3.0),
            (NfsOp::Other, 2.0),
        ],
    }
}

/// Approximate UDP byte share of NFS per dataset (§5.2.2).
fn nfs_udp_byte_share(dataset: &str) -> f64 {
    match dataset {
        "D0" => 0.66,
        "D1" => 0.16,
        "D2" => 0.31,
        "D3" => 0.94,
        "D4" => 0.07,
        _ => 0.5,
    }
}

/// One NFS host-pair session: a stream of RPC request/reply exchanges.
fn nfs_pair(ctx: &mut TraceCtx<'_>, client: Peer, server: Peer, budget_bytes: f64, over_udp: bool) {
    let mix = nfs_op_mix(ctx.spec.name);
    let rtt = ctx.rtt_internal();
    let mut xid = ctx.rng.random::<u32>();
    let start = ctx.early_start(0.5);
    let mut spent = 0f64;
    let mut udp_messages: Vec<UdpMessage> = Vec::default();
    let mut tcp_exchanges: Vec<Exchange> = Vec::default();
    // Cap request count so tiny budgets still make 1 request and huge
    // heavy-hitter budgets generate their tens of thousands.
    let mut requests = 0u32;
    while spent < budget_bytes && requests < 400_000 {
        let op = weighted_choice(&mut ctx.rng, &mix);
        let fail = if op == NfsOp::LookUp {
            coin(&mut ctx.rng, 0.45) // lookups of non-existent files
        } else {
            coin(&mut ctx.rng, 0.02)
        };
        let ok = !fail;
        let (req_arg, reply_res) = match op {
            NfsOp::Read => (64, if ok { 8_192 } else { 4 }),
            NfsOp::Write => (8_192, if ok { 96 } else { 4 }),
            _ => (80, if ok { 110 } else { 4 }),
        };
        let status = if ok { 0 } else { 2 }; // NFS3ERR_NOENT
        // Head-only encodings: the constant argument/result filler stays
        // symbolic so the frame writers emit it as an O(1)-checksum run.
        let call_head = sunrpc::call_head(xid, sunrpc::PROG_NFS, 3, op.to_proc());
        let reply_head = sunrpc::reply_head(xid, status);
        xid = xid.wrapping_add(1);
        let gap = ctx.rng.random_range(800..9_000u64);
        spent += (call_head.len() + req_arg + reply_head.len() + reply_res) as f64;
        requests += 1;
        if over_udp {
            udp_messages.push(UdpMessage::client(
                Payload::head_fill(call_head, sunrpc::CALL_FILL, req_arg),
                gap,
            ));
            udp_messages.push(UdpMessage::server(
                Payload::head_fill(reply_head, sunrpc::REPLY_FILL, reply_res),
                0,
            ));
        } else {
            tcp_exchanges.push(Exchange::client(
                Payload::head_fill(sunrpc::mark_record_head(&call_head, req_arg), sunrpc::CALL_FILL, req_arg),
                gap,
            ));
            tcp_exchanges.push(Exchange::server(
                Payload::head_fill(sunrpc::mark_record_head(&reply_head, reply_res), sunrpc::REPLY_FILL, reply_res),
                300,
            ));
        }
    }
    if over_udp {
        let spec = UdpFlowSpec {
            start,
            client,
            server,
            half_rtt_us: rtt / 2,
            messages: udp_messages,
            multicast_mac: None,
        };
        ctx.udp(&spec);
    } else {
        let mut spec = TcpSessionSpec::success(start, client, server, rtt, tcp_exchanges);
        spec.close = Close::None; // NFS mounts outlive the trace
        ctx.tcp(&spec);
    }
}

fn nfs_traffic(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.nfs; ctx.count(rate) };
    let udp_share = nfs_udp_byte_share(ctx.spec.name);
    let nfs_here = ctx.hosts_role(Role::NfsServer);
    // Heavy hitters: present when an NFS server subnet is monitored.
    if nfs_here {
        let hh_pairs = 3;
        let srv = ctx.server(Role::NfsServer).unwrap_or_else(|| ctx.remote_internal());
        for i in 0..hh_pairs {
            let client_host = ctx.remote_internal();
            let client = ctx.peer_eph(&client_host);
            let server = ctx.peer_of(&srv, 2049);
            let budget =
                ctx.scaling.nfs_heavy_hitter_bytes(ctx.spec.nfs_hh_bytes) / hh_pairs as f64;
            // Heavy hitters' transport drives the dataset's UDP byte share.
            let over_udp = (i as f64 + 0.5) / hh_pairs as f64 <= udp_share;
            nfs_pair(ctx, client, server, budget, over_udp);
        }
    }
    // Ordinary pairs: small request counts, 90% UDP.
    for _ in 0..n {
        let (client, server) = if nfs_here && coin(&mut ctx.rng, 0.6) {
            let srv = ctx.server(Role::NfsServer).unwrap_or_else(|| ctx.remote_internal());
            let ch = ctx.internal_peer_client();
            (ctx.peer_eph(&ch), ctx.peer_of(&srv, 2049))
        } else {
            let srv = ctx.server(Role::NfsServer).unwrap_or_else(|| ctx.remote_internal());
            let ch = ctx.local_client();
            (ctx.peer_eph(&ch), ctx.peer_of(&srv, 2049))
        };
        let budget = LogNormal::from_median(60_000.0, 2.2).sample_clamped(&mut ctx.rng, 300.0, 50e6);
        let over_udp = coin(&mut ctx.rng, 0.9);
        nfs_pair(ctx, client, server, budget, over_udp);
    }
}

/// Dataset-specific NCP request mix (Table 14 request columns).
fn ncp_op_mix(dataset: &str) -> [(NcpOp, f64); 8] {
    match dataset {
        "D3" => [
            (NcpOp::Read, 44.0),
            (NcpOp::Write, 21.0),
            (NcpOp::FileDirInfo, 16.0),
            (NcpOp::FileOpenClose, 2.0),
            (NcpOp::FileSize, 7.0),
            (NcpOp::FileSearch, 7.0),
            (NcpOp::DirectoryService, 0.7),
            (NcpOp::Other, 3.0),
        ],
        "D4" => [
            (NcpOp::Read, 41.0),
            (NcpOp::Write, 2.0),
            (NcpOp::FileDirInfo, 26.0),
            (NcpOp::FileOpenClose, 7.0),
            (NcpOp::FileSize, 5.0),
            (NcpOp::FileSearch, 16.0),
            (NcpOp::DirectoryService, 1.0),
            (NcpOp::Other, 2.0),
        ],
        _ => [
            (NcpOp::Read, 42.0),
            (NcpOp::Write, 1.0),
            (NcpOp::FileDirInfo, 27.0),
            (NcpOp::FileOpenClose, 9.0),
            (NcpOp::FileSize, 9.0),
            (NcpOp::FileSearch, 9.0),
            (NcpOp::DirectoryService, 2.0),
            (NcpOp::Other, 1.0),
        ],
    }
}

fn ncp_traffic(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.ncp; ctx.count(rate) };
    let Some(srv) = ctx.server(Role::NcpServer) else {
        return;
    };
    // A couple of busy pairs give the top-3 pairs 35-62% of NCP bytes.
    let busy_clients: Vec<_> = (0..2).map(|_| ctx.internal_peer_client()).collect();
    for i in 0..n {
        let client_host = if i < 2 {
            busy_clients[i]
        } else if coin(&mut ctx.rng, 0.3) {
            busy_clients[ctx.rng.random_range(0..busy_clients.len())]
        } else {
            ctx.local_client()
        };
        let client = ctx.peer_eph(&client_host);
        let server = ctx.peer_of(&srv, 524);
        let rtt = ctx.rtt_internal();
        // Connection failure: 2-12%.
        if coin(&mut ctx.rng, 0.06) {
            let mut spec = TcpSessionSpec::bare(ctx.start(), client, server, rtt);
            spec.outcome = Outcome::Rejected;
            ctx.tcp(&spec);
            continue;
        }
        // 40-80% keep-alive-only connections.
        if coin(&mut ctx.rng, 0.6) {
            let mut spec = TcpSessionSpec::bare(ctx.early_start(0.3), client, server, rtt);
            spec.keepalives = Some(Keepalives {
                interval_us: 300_000_000, // 5-minute probes
                count: ctx.rng.random_range(2..10),
            });
            spec.close = Close::None;
            ctx.tcp_trimmed(&spec);
            continue;
        }
        // Active connection: request/reply stream.
        let mix = ncp_op_mix(ctx.spec.name);
        let busy = i < 2;
        let requests = if busy {
            // Paper Figure 7b: up to ~100k-1M requests at full scale.
            let full = ctx.rng.random_range(150_000..600_000u32) as f64;
            ctx.scaling.ncp_busy_requests(full)
        } else {
            (LogNormal::from_median(40.0, 1.6).sample_clamped(&mut ctx.rng, 1.0, 4_000.0)) as u32
        };
        let mut exchanges = Vec::with_capacity(2 * requests as usize);
        let mut seq = 0u8;
        for _ in 0..requests {
            let op = weighted_choice(&mut ctx.rng, &mix);
            let fail = if op == NcpOp::FileDirInfo {
                coin(&mut ctx.rng, 0.12) // the paper's dominant NCP failure
            } else {
                coin(&mut ctx.rng, 0.015)
            };
            let ok = !fail;
            let (req_extra, reply_extra) = match op {
                // 14-byte requests (7 header + 7) per Figure 8(c).
                NcpOp::Read => (7, if ok { if coin(&mut ctx.rng, 0.4) { 252 } else { 1_024 } } else { 0 }),
                NcpOp::Write => (ctx.rng.random_range(512..8_192), 0),
                NcpOp::FileSize => (7, 2), // 10-byte reply (8 hdr + 2)
                NcpOp::FileSearch => (30, if ok { 180 } else { 0 }),
                NcpOp::DirectoryService => (60, 300),
                _ => (20, if ok { 60 } else { 0 }),
            };
            let gap = ctx.rng.random_range(800..9_000u64);
            exchanges.push(Exchange::client(
                Payload::head_fill(ncp::request_head(seq, op, req_extra), ncp::REQUEST_FILL, req_extra),
                gap,
            ));
            exchanges.push(Exchange::server(
                Payload::head_fill(
                    ncp::reply_head(seq, if ok { 0 } else { 0x9C }, reply_extra),
                    ncp::REPLY_FILL,
                    reply_extra,
                ),
                300,
            ));
            seq = seq.wrapping_add(1);
        }
        let mut spec = TcpSessionSpec::success(ctx.early_start(0.5), client, server, rtt, exchanges);
        spec.close = Close::None;
        ctx.tcp_trimmed(&spec);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_flow::{CollectSummaries, ConnTable, TableConfig};
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
    fn nfs_heavy_hitters_dominate_bytes() {
        use rand::SeedableRng;
        let (site, wan) = small_site();
        let specs = all_datasets();
        // One generation pass at a moderate scale so ordinary pairs exist
        // alongside the heavy hitters (D3's hitter budget keeps this fast).
        let scaling = crate::scaling::Scaling::of(&crate::GenConfig {
            scale: 0.08,
            ..crate::GenConfig::default()
        });
        let mut c = crate::apps::TraceCtx::with_arena(
            rand::rngs::StdRng::seed_from_u64(3),
            &site,
            &wan,
            &specs[3],
            26,
            scaling,
            ent_pcap::PacketArena::unbounded(),
        );
        nfs_traffic(&mut c);
        let sums = summaries(&packets(&mut c.out));
        use std::collections::HashMap;
        let mut by_pair: HashMap<_, u64> = HashMap::new();
        let mut total = 0u64;
        for s in sums.iter().filter(|s| s.key.resp.port == 2049) {
            let b = s.total_payload();
            *by_pair.entry(s.key.host_pair()).or_default() += b;
            total += b;
        }
        assert!(by_pair.len() >= 3, "pairs: {}", by_pair.len());
        let mut v: Vec<u64> = by_pair.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top3: u64 = v.iter().take(3).sum();
        let frac = top3 as f64 / total as f64;
        assert!(frac > 0.75, "top-3 NFS pairs carry only {frac} of bytes");
    }

    #[test]
    fn ncp_keepalive_only_fraction_in_band() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[0], 3);
        // Boost count for statistical stability.
        for _ in 0..40 {
            ncp_traffic(&mut c);
        }
        let sums = summaries(&packets(&mut c.out));
        let ncp: Vec<_> = sums
            .iter()
            .filter(|s| s.key.resp.port == 524 && s.tcp_state != ent_flow::TcpState::RejectedState)
            .collect();
        assert!(ncp.len() > 20, "only {} NCP conns", ncp.len());
        let ka = ncp.iter().filter(|s| s.keepalive_only()).count();
        let frac = ka as f64 / ncp.len() as f64;
        assert!(
            (0.35..=0.85).contains(&frac),
            "keepalive-only fraction {frac} outside the paper's 40-80%"
        );
    }

    #[test]
    fn nfs_requests_parse_with_correct_mix() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[3], 26); // D3: getattr-heavy
        for _ in 0..3 {
            nfs_traffic(&mut c);
        }
        let mut ops: std::collections::HashMap<&'static str, usize> = Default::default();
        for p in &packets(&mut c.out) {
            let pkt = Packet::parse(&p.frame).unwrap();
            if pkt.udp().map(|(_, d, _)| d == 2049) == Some(true) {
                if let Some(sunrpc::Message::Call(call)) = sunrpc::parse_message(pkt.payload()) {
                    *ops.entry(NfsOp::from_proc(call.proc).label()).or_default() += 1;
                }
            }
        }
        let total: usize = ops.values().sum();
        assert!(total > 100, "too few NFS calls: {total}");
        let getattr = *ops.get("GetAttr").unwrap_or(&0) as f64 / total as f64;
        assert!(getattr > 0.35, "D3 GetAttr share {getattr} (paper: 53%)");
    }

    #[test]
    fn d0_vs_d3_udp_share_differs() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let share = |spec_idx: usize, subnet: u16| {
            let mut c = ctx(&site, &wan, &specs[spec_idx], subnet);
            nfs_traffic(&mut c);
            let sums = summaries(&packets(&mut c.out));
            let (mut udp, mut total) = (0u64, 0u64);
            for s in sums.iter().filter(|s| s.key.resp.port == 2049) {
                let b = s.total_payload();
                total += b;
                if s.key.proto == ent_flow::Proto::Udp {
                    udp += b;
                }
            }
            udp as f64 / total.max(1) as f64
        };
        let d3 = share(3, 26); // target 0.94
        let d4 = share(4, 26); // target 0.07
        assert!(d3 > 0.6, "D3 UDP byte share {d3}");
        assert!(d4 < 0.4, "D4 UDP byte share {d4}");
    }
}
