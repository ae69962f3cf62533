//! Streaming media: RTSP/RealStream unicast and multicast IPVideo (§3).
//!
//! Calibration targets: unicast streaming contributes a few percent of
//! bytes in some datasets, while *multicast* streaming carries 5–10% of
//! all TCP/UDP payload bytes — more than unicast streaming (§3).

use super::TraceCtx;
use crate::distr::coin;
use crate::network::Role;
use crate::synth::{Exchange, Payload, Peer, TcpSessionSpec, UdpFlowSpec, UdpMessage};
use ent_wire::ethernet::MacAddr;
use ent_wire::ipv4;
use rand::RngExt;

const VIDEO_GROUP: ipv4::Addr = ipv4::Addr::new(239, 192, 7, 1);
const VIDEO_MAC: MacAddr = MacAddr([0x01, 0x00, 0x5E, 0x40, 0x07, 0x01]);

/// Generate unicast streaming traffic for one trace. Multicast streams
/// are added later by [`multicast_background`], which sizes itself from
/// the trace's total byte volume.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    unicast(ctx);
}

fn unicast(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.streaming; ctx.count(rate) };
    for _ in 0..n {
        let wan = coin(&mut ctx.rng, 0.4);
        let client_host = if wan { ctx.local_wan_client() } else { ctx.local_client() };
        let (server, rtt) = if wan {
            (ctx.wan_peer(554), ctx.rtt_wan())
        } else {
            let Some(srv) = ctx.server(Role::MediaServer) else {
                continue;
            };
            (ctx.peer_of(&srv, 554), ctx.rtt_internal())
        };
        let start = ctx.early_start(0.5);
        // RTSP control.
        let client = ctx.peer_eph(&client_host);
        let ctl = TcpSessionSpec::success(
            start,
            client,
            server,
            rtt,
            Vec::from([
                Exchange::client(Payload::from_static(b"DESCRIBE rtsp://server/stream RTSP/1.0\r\nCSeq: 1\r\n\r\n"), 0),
                Exchange::server(Payload::fill(b's', 800), 20_000),
                Exchange::client(Payload::from_static(b"SETUP rtsp://server/stream RTSP/1.0\r\nCSeq: 2\r\n\r\n"), 30_000),
                Exchange::server(Payload::fill(b's', 300), 10_000),
                Exchange::client(Payload::from_static(b"PLAY rtsp://server/stream RTSP/1.0\r\nCSeq: 3\r\n\r\n"), 20_000),
                Exchange::server(Payload::fill(b's', 200), 10_000),
            ]),
        );
        ctx.tcp(&ctl);
        // RTP-over-UDP media, server → client.
        let dur_s = ctx.rng.random_range(30..400u64);
        let pps = 24u64; // ~350-byte packets at 24/s ≈ 67 kb/s
        let n_pkts = ((dur_s * pps) as f64 * 1.0) as u64;
        let mut media_server = server;
        media_server.port = if wan { 6_970 } else { 5_004 };
        let mut media_client = client;
        media_client.port = ctx.eph();
        let messages: Vec<UdpMessage> = (0..n_pkts)
            .map(|_| UdpMessage::server(Payload::fill(0x80, 350), 1_000_000 / pps))
            .collect();
        let spec = UdpFlowSpec {
            start: start + 500_000,
            client: media_client,
            server: media_server,
            half_rtt_us: rtt / 2,
            messages,
            multicast_mac: None,
        };
        ctx.udp_trimmed(&spec);
    }
}

/// Emit one or two long-running multicast video streams sized to carry
/// 5–10% of the trace's TCP/UDP payload bytes (the paper's §3 multicast
/// observation). Call after all unicast generators have run.
pub fn multicast_background(ctx: &mut TraceCtx<'_>) {
    let streams = 1 + usize::from(coin(&mut ctx.rng, 0.4));
    let Some(srv) = ctx.server(Role::MediaServer) else {
        return;
    };
    // Size from what the rest of the trace produced (logical volume, as
    // the legacy Vec still held its out-of-window tail at this point).
    let so_far: u64 = ctx.out.logical_wire_bytes();
    let target_frac = 0.055 + 0.04 * ctx.rng.random::<f64>();
    let budget = (so_far as f64 * target_frac) as u64;
    let total_pkts = (budget / 1_316).max(20);
    for s in 0..streams {
        let sender = ctx.peer_of(&srv, 5_004);
        let group = Peer {
            addr: ipv4::Addr::new(239, 192, 7, 1 + s as u8),
            mac: VIDEO_MAC,
            port: 5_004,
            ttl: 16,
        };
        let n = total_pkts / streams as u64;
        let gap = (ctx.duration_us / n.max(1)).max(1);
        let messages: Vec<UdpMessage> = (0..n)
            .map(|_| UdpMessage::client(Payload::fill(0x80, 1_316), gap))
            .collect();
        let spec = UdpFlowSpec {
            start: ent_wire::Timestamp::from_micros(ctx.rng.random_range(0..gap.max(2))),
            client: sender,
            server: group,
            half_rtt_us: 0,
            messages,
            multicast_mac: Some(VIDEO_MAC),
        };
        ctx.udp_trimmed(&spec);
    }
    // IGMP membership chatter accompanies the groups.
    for _ in 0..ctx.count(30.0) {
        let h = ctx.local_client();
        let t = ctx.start();
        let report = [0x16, 0, 0, 0, 239, 192, 7, 1];
        ctx.push_raw_ip(t, h.mac, VIDEO_MAC, h.addr, VIDEO_GROUP, 2 /* IGMP */, &report);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_wire::Packet;

    #[test]
    fn multicast_streaming_carries_significant_bytes() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[0], 8);
        generate(&mut c);
        multicast_background(&mut c);
        let mut mcast_bytes = 0u64;
        let mut ucast_bytes = 0u64;
        for p in &c.out.captured_packets() {
            let pkt = Packet::parse(&p.frame).unwrap();
            let len = pkt.wire_payload_len() as u64;
            if pkt.is_multicast() {
                mcast_bytes += len;
            } else {
                ucast_bytes += len;
            }
        }
        assert!(mcast_bytes > 0);
        // Multicast streaming should rival or exceed unicast streaming.
        assert!(
            mcast_bytes * 3 > ucast_bytes,
            "mcast {mcast_bytes} vs ucast {ucast_bytes}"
        );
    }

    #[test]
    fn rtsp_control_present() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[3], 22);
        for _ in 0..10 {
            unicast(&mut c);
        }
        let rtsp = c
            .out
            .captured_packets()
            .iter()
            .filter(|p| {
                Packet::parse(&p.frame)
                    .ok()
                    .and_then(|pkt| pkt.tcp())
                    .map(|t| t.dst_port == 554)
                    .unwrap_or(false)
            })
            .count();
        assert!(rtsp > 0, "no RTSP control packets");
    }
}
