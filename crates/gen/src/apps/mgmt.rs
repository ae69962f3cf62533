//! Network management, miscellaneous site services, unknown-port traffic,
//! minor IP transports and ordinary ICMP (§3; the net-mgnt / misc /
//! other-tcp / other-udp bars of Figure 1).
//!
//! Calibration targets: net-mgnt and misc connection shares are *stable*
//! across datasets (periodic probes and announcements); SAP multicast
//! announcements contribute 5–10% of connections; IGMP/ESP/PIM/GRE and IP
//! protocol 224 appear as minor transports (Table 3 text).

use super::TraceCtx;
use crate::distr::{coin, weighted_choice};
use crate::network::Role;
use crate::synth::{Exchange, Payload, Peer, TcpSessionSpec, UdpFlowSpec, UdpMessage};
use ent_wire::ethernet::MacAddr;
use ent_wire::ipv4;
use rand::RngExt;

const SAP_GROUP: ipv4::Addr = ipv4::Addr::new(224, 2, 127, 254);
const SAP_MAC: MacAddr = MacAddr([0x01, 0x00, 0x5E, 0x02, 0x7F, 0xFE]);

/// Generate management / misc / other / ICMP traffic for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    netmgnt(ctx);
    misc(ctx);
    other(ctx);
    icmp_echo(ctx);
    minor_transports(ctx);
}

fn udp_pair(ctx: &mut TraceCtx<'_>, client: Peer, server: Peer, req: usize, resp: usize, rtt: u64) {
    let mut messages = Vec::with_capacity(2);
    messages.push(UdpMessage::client(Payload::fill(0x4D, req), 0));
    if resp > 0 {
        messages.push(UdpMessage::server(Payload::fill(0x4D, resp), 0));
    }
    let spec = UdpFlowSpec {
        start: ctx.start(),
        client,
        server,
        half_rtt_us: rtt / 2,
        messages,
        multicast_mac: None,
    };
    ctx.udp(&spec);
}

fn netmgnt(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.netmgnt; ctx.count(rate) };
    for _ in 0..n {
        let what = weighted_choice(
            &mut ctx.rng,
            &[
                ("ntp", 30.0),
                ("snmp", 16.0),
                ("dhcp", 10.0),
                ("sap", 30.0),
                ("nav", 12.0),
                ("ident", 4.0),
                ("syslog", 6.0),
            ],
        );
        let rtt = ctx.rtt_internal();
        match what {
            "ntp" => {
                let c = ctx.local_client();
                let s = ctx.remote_internal();
                let client = ctx.peer_eph(&c);
                let server = ctx.peer_of(&s, 123);
                udp_pair(ctx, client, server, 48, 48, rtt);
            }
            "snmp" => {
                let c = ctx.remote_internal();
                let t = ctx.local_client();
                let client = ctx.peer_eph(&c);
                let server = ctx.peer_of(&t, 161);
                let polls = ctx.rng.random_range(1..6);
                for _ in 0..polls {
                    udp_pair(ctx, client, server, 90, 160, rtt);
                }
            }
            "dhcp" => {
                let c = ctx.local_client();
                let client = Peer {
                    addr: ipv4::Addr::new(0, 0, 0, 0),
                    mac: c.mac,
                    port: 68,
                    ttl: 64,
                };
                let server = Peer {
                    addr: ipv4::Addr::new(255, 255, 255, 255),
                    mac: MacAddr::BROADCAST,
                    port: 67,
                    ttl: 64,
                };
                let spec = UdpFlowSpec {
                    start: ctx.start(),
                    client,
                    server,
                    half_rtt_us: 0,
                    messages: Vec::from([UdpMessage::client(Payload::fill(0x63, 300), 0)]),
                    multicast_mac: Some(MacAddr::BROADCAST),
                };
                ctx.udp(&spec);
            }
            "sap" => {
                // Session-announcement multicast: periodic announcers, most
                // arriving from the Mbone (external sources — the paper's
                // 4-7% externally-sourced multicast flows).
                let announcer = if coin(&mut ctx.rng, 0.6) {
                    let sport = ctx.rng.random_range(30_000..50_000);
                    ctx.wan_peer(sport)
                } else {
                    let a = ctx.remote_internal();
                    ctx.peer_eph(&a)
                };
                let group = Peer {
                    addr: SAP_GROUP,
                    mac: SAP_MAC,
                    port: 9_875,
                    ttl: 32,
                };
                // Several announcements spaced past the flow timeout, so
                // each shows up as its own "connection" (as in the paper's
                // periodic-announcement stability observation).
                let announcements = ctx.rng.random_range(2..5);
                let messages = (0..announcements)
                    .map(|i| {
                        UdpMessage::client(
                            Payload::fill(0x20, ctx.rng.random_range(180..420)),
                            if i == 0 { 0 } else { ctx.rng.random_range(240_000_000..400_000_000) },
                        )
                    })
                    .collect();
                let spec = UdpFlowSpec {
                    start: ctx.early_start(0.4),
                    client: announcer,
                    server: group,
                    half_rtt_us: 0,
                    messages,
                    multicast_mac: Some(SAP_MAC),
                };
                ctx.udp_trimmed(&spec);
            }
            "nav" => {
                let c = ctx.remote_internal();
                let t = ctx.local_client();
                let client = ctx.peer_eph(&c);
                let server = ctx.peer_of(&t, 38_293);
                udp_pair(ctx, client, server, 60, 60, rtt);
            }
            "ident" => {
                let c = ctx.remote_internal();
                let t = ctx.local_client();
                let client = ctx.peer_eph(&c);
                let server = ctx.peer_of(&t, 113);
                let spec = TcpSessionSpec::success(
                    ctx.start(),
                    client,
                    server,
                    rtt,
                    Vec::from([
                        Exchange::client(Payload::from_static(b"40000, 25\r\n"), 0),
                        Exchange::server(Payload::from_static(b"40000, 25 : USERID : UNIX : user\r\n"), 5_000),
                    ]),
                );
                ctx.tcp(&spec);
            }
            _ => {
                let c = ctx.local_client();
                let s = ctx.remote_internal();
                let client = ctx.peer_eph(&c);
                let server = ctx.peer_of(&s, 514);
                let n = ctx.rng.random_range(80..300);
                udp_pair(ctx, client, server, n, 0, rtt);
            }
        }
    }
}

fn misc(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.misc; ctx.count(rate) };
    for _ in 0..n {
        let port = weighted_choice(
            &mut ctx.rng,
            &[
                (515u16, 22.0),  // LPD
                (631, 14.0),     // IPP
                (1_521, 18.0),   // Oracle
                (1_433, 14.0),   // MS-SQL
                (5_730, 18.0),   // Steltor calendar
                (11_001, 10.0),  // MetaSys
                (111, 4.0),      // portmapper
            ],
        );
        let c = ctx.local_client();
        let server_host = if port == 515 || port == 631 {
            ctx.server(Role::PrintServer).unwrap_or_else(|| ctx.remote_internal())
        } else {
            ctx.server(Role::AppServer).unwrap_or_else(|| ctx.remote_internal())
        };
        let client = ctx.peer_eph(&c);
        let server = ctx.peer_of(&server_host, port);
        let rtt = ctx.rtt_internal();
        let reqs = ctx.rng.random_range(1..8);
        let mut exchanges = Vec::with_capacity(2 * reqs as usize + 1);
        for _ in 0..reqs {
            exchanges.push(Exchange::client(
                Payload::fill(0x51, ctx.rng.random_range(40..400)),
                ctx.rng.random_range(5_000..200_000),
            ));
            let resp = if port == 515 || port == 631 {
                ctx.rng.random_range(20..120) // printers mostly absorb data
            } else {
                ctx.rng.random_range(200..6_000)
            };
            exchanges.push(Exchange::server(Payload::fill(0x52, resp), 4_000));
        }
        if port == 515 {
            // The print job payload itself.
            exchanges.push(Exchange::client(
                Payload::fill(0x1B, ctx.rng.random_range(20_000..400_000)),
                20_000,
            ));
        }
        let spec = TcpSessionSpec::success(ctx.start(), client, server, rtt, exchanges);
        ctx.tcp(&spec);
    }
}

fn other(ctx: &mut TraceCtx<'_>) {
    // Unrecognized TCP services.
    let n = { let rate = ctx.spec.rates.other_tcp; ctx.count(rate) };
    for _ in 0..n {
        let c = ctx.local_client();
        let s = ctx.remote_internal();
        let client = ctx.peer_eph(&c);
        let port = 10_000 + ctx.rng.random_range(0..20_000u16);
        let server = ctx.peer_of(&s, port);
        let rtt = ctx.rtt_internal();
        let spec = TcpSessionSpec::success(
            ctx.start(),
            client,
            server,
            rtt,
            Vec::from([
                Exchange::client(Payload::fill(0x58, ctx.rng.random_range(20..2_000)), 0),
                Exchange::server(Payload::fill(0x59, ctx.rng.random_range(20..8_000)), 10_000),
            ]),
        );
        ctx.tcp(&spec);
    }
    // Unrecognized UDP chatter.
    let n = { let rate = ctx.spec.rates.other_udp; ctx.count(rate) };
    for _ in 0..n {
        let wan = coin(&mut ctx.rng, 0.08);
        let c = if wan { ctx.local_wan_client() } else { ctx.local_client() };
        let s = if wan {
            None // WAN peer
        } else {
            Some(ctx.remote_internal())
        };
        let client = ctx.peer_eph(&c);
        let port = 20_000 + ctx.rng.random_range(0..30_000u16);
        let rtt = ctx.rtt_internal();
        let server = match s {
            Some(h) => ctx.peer_of(&h, port),
            None => ctx.wan_peer(port),
        };
        let answered = coin(&mut ctx.rng, 0.7);
        let req = ctx.rng.random_range(30..500);
        let resp = if answered { ctx.rng.random_range(30..500) } else { 0 };
        udp_pair(ctx, client, server, req, resp, rtt);
    }
}

fn icmp_echo(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.icmp; ctx.count(rate) };
    for _ in 0..n {
        let wan = coin(&mut ctx.rng, 0.12);
        let inbound = wan && coin(&mut ctx.rng, 0.4);
        let c = if wan { ctx.local_wan_client() } else { ctx.local_client() };
        let (client, server, rtt) = if inbound {
            // External host pinging an internal one.
            (ctx.wan_peer(0), ctx.peer_of(&c, 0), ctx.rtt_wan())
        } else if wan {
            (ctx.peer_of(&c, 0), ctx.wan_peer(0), ctx.rtt_wan())
        } else {
            let h = ctx.remote_internal();
            (ctx.peer_of(&c, 0), ctx.peer_of(&h, 0), ctx.rtt_internal())
        };
        let ident = ctx.rng.random::<u16>();
        let count = ctx.rng.random_range(1..5);
        let answered = coin(&mut ctx.rng, 0.85);
        let start = ctx.start();
        ctx.icmp_echo_trimmed(start, client, server, rtt, ident, count, answered);
    }
}

/// IGMP, PIM, ESP, GRE and the unidentified protocol 224 (§3).
fn minor_transports(ctx: &mut TraceCtx<'_>) {
    // Zero payloads for the minor transports, sliced to length.
    static ZEROS: [u8; 200] = [0u8; 200];
    let n = ctx.count(120.0);
    for _ in 0..n {
        let proto = weighted_choice(
            &mut ctx.rng,
            &[(2u8, 40.0), (103, 20.0), (50, 18.0), (47, 12.0), (224, 10.0)],
        );
        let c = ctx.local_client();
        let s = ctx.remote_internal();
        let len = ctx.rng.random_range(8..200);
        // IGMP and PIM go to the all-routers group, the rest to a peer.
        let (dst_mac, dst) = if proto == 2 || proto == 103 {
            (SAP_MAC, ipv4::Addr::new(224, 0, 0, 13))
        } else {
            (ctx.wan.router_mac(), s.addr)
        };
        let t = ctx.start();
        ctx.push_raw_ip(t, c.mac, dst_mac, c.addr, dst, proto, &ZEROS[..len]);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_wire::{Packet, Transport};

    #[test]
    fn sap_multicast_present() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 11);
        netmgnt(&mut c);
        let sap = c
            .out
            .captured_packets()
            .iter()
            .filter(|p| {
                Packet::parse(&p.frame)
                    .ok()
                    .and_then(|pkt| pkt.udp())
                    .map(|(_, d, _)| d == 9_875)
                    .unwrap_or(false)
            })
            .count();
        assert!(sap > 0, "no SAP announcements");
    }

    #[test]
    fn minor_transports_classified_as_other() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[2], 11);
        minor_transports(&mut c);
        assert!(!c.out.is_empty());
        for p in &c.out.captured_packets() {
            let pkt = Packet::parse(&p.frame).unwrap();
            assert!(matches!(pkt.transport, Transport::Other(_)));
        }
    }

    #[test]
    fn icmp_echo_mostly_answered() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 11);
        for _ in 0..5 {
            icmp_echo(&mut c);
        }
        let (mut req, mut rep) = (0, 0);
        for p in &c.out.captured_packets() {
            match Packet::parse(&p.frame).unwrap().transport {
                Transport::Icmp { mtype: ent_wire::icmp::MessageType::EchoRequest, .. } => req += 1,
                Transport::Icmp { mtype: ent_wire::icmp::MessageType::EchoReply, .. } => rep += 1,
                _ => {}
            }
        }
        assert!(req > 20);
        assert!(rep as f64 / req as f64 > 0.6);
    }
}
