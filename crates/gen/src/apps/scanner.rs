//! Scanning traffic (§3).
//!
//! The traces contain (i) the site's own proactive vulnerability scanners
//! — two known internal hosts probing many services across many hosts —
//! and (ii) external scanners, primarily ICMP probes sweeping addresses
//! *in ascending order* (most other external scans are blocked at the
//! border). The paper removes both with the heuristic: a source
//! contacting > 50 distinct hosts, ≥ 45 of them in monotone address
//! order; removal drops 4–18% of connections. These generators produce
//! traffic that heuristic must catch.

use super::TraceCtx;
use crate::distr::coin;
use crate::packs::label;
use crate::synth::{Outcome, Payload, Peer, TcpSessionSpec, UdpMessage};
use ent_wire::ipv4;
use rand::RngExt;

/// Generate scanner traffic for one trace.
///
/// Records are stamped with ground-truth labels as they are emitted:
/// the two sweep generators produce traffic the removal heuristic
/// *should* catch ([`label::SCAN`]), while background radiation is
/// attack-shaped traffic it should *not* ([`label::RADIATION`]) — the
/// scenario-pack scorer uses the distinction for precision/recall.
/// Labels ride on arena records, never in frame bytes, so stamping
/// them changes neither emitted bytes nor RNG draw order.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    ctx.out.set_label(label::SCAN);
    internal_scanners(ctx);
    external_icmp_scanners(ctx);
    ctx.out.set_label(label::RADIATION);
    background_radiation(ctx);
    ctx.out.set_label(label::BENIGN);
}

/// Internet background radiation (2004-05 was the Sasser/Slammer era):
/// external hosts probing *random* internal addresses on service ports.
/// Random targets means the sec-3 monotone-order heuristic does not (and
/// should not) remove it — this is the bulk of the paper's 6-11% of flows
/// originated from outside the enterprise (sec. 4).
fn background_radiation(ctx: &mut TraceCtx<'_>) {
    let n = ctx.count(1_600.0);
    for _ in 0..n {
        let sport = ctx.rng.random_range(1_024..60_000);
        let src = ctx.wan_peer_uniform(sport);
        // Worms reuse hit lists and low address space; most probes land on
        // the server-dense low octets, the rest spray randomly.
        let octet = if coin(&mut ctx.rng, 0.7) {
            ctx.rng.random_range(1..60u32)
        } else {
            ctx.rng.random_range(60..254u32)
        };
        let target = ipv4::Addr(ipv4::Addr::new(10, 100, ctx.subnet as u8, 0).0 + octet);
        let dst_mac = ent_wire::ethernet::MacAddr::from_host_id(target.0);
        let start = ctx.start();
        let kind: f64 = ctx.rng.random();
        if kind < 0.40 {
            // ICMP sweepless probe.
            let dst = Peer { addr: target, mac: dst_mac, port: 0, ttl: 48 };
            let answered = octet < 60 && coin(&mut ctx.rng, 0.2);
            let ident = ctx.rng.random::<u16>();
            ctx.icmp_echo(start, src, dst, 40_000, ident, 1, answered);
        } else if kind < 0.70 {
            // UDP worm traffic (Slammer-style 1434, NBNS probes).
            let port = [1434u16, 137, 1026].get(ctx.rng.random_range(0..3usize)).copied().unwrap_or(1434);
            let dst = Peer { addr: target, mac: dst_mac, port, ttl: 48 };
            let spec = crate::synth::UdpFlowSpec {
                start,
                client: src,
                server: dst,
                half_rtt_us: 0,
                messages: Vec::from([UdpMessage::client(
                    Payload::fill(0x90, ctx.rng.random_range(60..404)),
                    0,
                )]),
                multicast_mac: None,
            };
            ctx.udp(&spec);
        } else {
            // TCP probes at Windows service ports.
            let port = [445u16, 135, 139, 1_025].get(ctx.rng.random_range(0..4usize)).copied().unwrap_or(445);
            let dst = Peer { addr: target, mac: dst_mac, port, ttl: 48 };
            let mut spec = TcpSessionSpec::bare(start, src, dst, 40_000);
            // Only populated addresses can actively reject.
            spec.outcome = if octet < 60 && coin(&mut ctx.rng, 0.3) {
                Outcome::Rejected
            } else {
                Outcome::Unanswered
            };
            ctx.tcp(&spec);
        }
    }
}

/// The two internal vulnerability scanners: TCP probes over ascending
/// host addresses on the monitored subnet, across several service ports.
fn internal_scanners(ctx: &mut TraceCtx<'_>) {
    // Fixed scanner identities: hosts on subnets 9 and 32 (AppServer
    // subnets), stable across traces — "the 2 internal scanners".
    let scanners: Vec<_> = ctx.site.with_role(crate::network::Role::AppServer)
        .iter()
        .take(2)
        .map(|h| **h)
        .collect();
    let probes = ctx.scaling.scan_probes(ctx.count(2_400.0));
    let sweep_p = ctx.scaling.sweep_probability(ctx.duration_us);
    for scanner in scanners {
        if !coin(&mut ctx.rng, sweep_p) {
            continue; // not every subnet is being swept in every window
        }
        let base = ipv4::Addr::new(10, 100, ctx.subnet as u8, 0);
        let start = ctx.start();
        let mut t = start;
        let ports = [22u16, 23, 80, 111, 135, 139, 443, 445, 3_306, 8_080];
        for i in 0..probes {
            // Ascending sweep through the subnet's host octets.
            let target = ipv4::Addr(base.0 + 1 + (i as u32 % 254));
            let port = ports[i % ports.len()];
            let client = ctx.peer_eph(&scanner);
            let server = Peer {
                addr: target,
                mac: ent_wire::ethernet::MacAddr::from_host_id(target.0),
                port,
                ttl: 63,
            };
            let mut spec = TcpSessionSpec::bare(t, client, server, 400);
            // Scanners mostly hit closed ports; sometimes they engage
            // services that otherwise sit idle (the paper's skew caveat).
            let r: f64 = ctx.rng.random();
            if r < 0.55 {
                spec.outcome = Outcome::Rejected;
            } else if r < 0.85 {
                spec.outcome = Outcome::Unanswered;
            } else {
                spec.exchanges = Vec::from([crate::synth::Exchange::server(
                    Payload::from_static(b"220 banner\r\n"),
                    2_000,
                )]);
            }
            ctx.tcp(&spec);
            t += ctx.rng.random_range(2_000..40_000);
            if t.micros() >= ctx.duration_us {
                break;
            }
        }
    }
}

/// External ICMP scanners sweeping internal addresses in order.
fn external_icmp_scanners(ctx: &mut TraceCtx<'_>) {
    let p = ctx.scaling.external_scanner_probability(ctx.duration_us);
    let scanners = usize::from(coin(&mut ctx.rng, p));
    for _ in 0..scanners {
        let src = ctx.wan_peer_uniform(0);
        let ascending = coin(&mut ctx.rng, 0.8);
        // Keep each sweep just above the 50-host detection floor so a
        // single unlucky trace cannot blow the dataset's removal share
        // past the paper's 4-18% band.
        let sweep = ctx.rng.random_range(55..110usize);
        // Start early and pace the sweep to fit the window, so the probe
        // train stays above the 50-host detection floor.
        let start = ctx.early_start(0.2);
        let pace = (ctx.duration_us / (sweep as u64 * 2)).clamp(5_000, 120_000);
        let mut t = start;
        let ident = ctx.rng.random::<u16>();
        for i in 0..sweep {
            let octet = if ascending { i as u32 + 1 } else { 254 - i as u32 };
            let target = ipv4::Addr(ipv4::Addr::new(10, 100, ctx.subnet as u8, 0).0 + octet);
            let dst = Peer {
                addr: target,
                mac: ent_wire::ethernet::MacAddr::from_host_id(target.0),
                port: 0,
                ttl: 50,
            };
            // Few get replies (most targets drop unsolicited pings).
            let answered = coin(&mut ctx.rng, 0.15);
            // Trim: probes past the window never reached the legacy output.
            ctx.icmp_echo_trimmed(t, src, dst, 30_000, ident, 1, answered);
            t += pace + ctx.rng.random_range(0..5_000u64);
            if t.micros() >= ctx.duration_us {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_wire::Packet;
    use std::collections::BTreeMap;

    /// The removal heuristic itself lives in ent-core; here we verify the
    /// generated traffic has the *detectable shape*: >50 distinct
    /// destinations, ≥45 in monotone order.
    #[test]
    fn scanners_are_detectable_by_the_papers_heuristic() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 7);
        // Sweep frequency is probabilistic (scaled); repeat until traffic
        // is present.
        for _ in 0..12 {
            generate(&mut c);
        }
        let mut dests: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for p in &packets(&mut c.out) {
            let pkt = Packet::parse(&p.frame).unwrap();
            if let Some((src, dst)) = pkt.ipv4_addrs() {
                let e = dests.entry(src.0).or_default();
                if e.last() != Some(&dst.0) {
                    e.push(dst.0);
                }
            }
        }
        let mut detectable = 0;
        for seq in dests.values() {
            let distinct: std::collections::HashSet<_> = seq.iter().collect();
            if distinct.len() <= 50 {
                continue;
            }
            let mut asc = 0;
            let mut desc = 0;
            for w in seq.windows(2) {
                if w[1] > w[0] {
                    asc += 1;
                } else if w[1] < w[0] {
                    desc += 1;
                }
            }
            if asc >= 45 || desc >= 45 {
                detectable += 1;
            }
        }
        assert!(detectable >= 1, "no scanner met the removal heuristic");
    }
}
