//! Scenario packs: labeled adversarial and modern-enterprise workloads.
//!
//! A [`ScenarioPack`] composes the base enterprise mix (a trimmed
//! [`DatasetSpec`]) with *pack actors* — attack-shaped or
//! modern-variant sessions emitted after the base generators — and
//! stamps ground-truth labels onto every arena record via
//! [`ent_pcap::PacketArena::set_label`]. Labels live on the records,
//! never in frame bytes, so the base traffic of every pack is
//! byte-identical to the plain dataset at the same seed, and actors
//! (which draw RNG only *after* all base draws) leave the base stream
//! untouched — the golden-fingerprint suite pins both properties.
//!
//! The attack actors follow ConCap's labeled-capture idea (PAPERS.md):
//! every flow carries a ground-truth benign/attack tag so the paper's
//! scanner-removal pre-step (§3) can be *scored* (precision/recall in
//! `ent_core::packs`) instead of merely counted. The port sweep mirrors
//! the r-lanscan-style SYN sweep (ascending targets, small fixed port
//! set); the SYN flood, brute force and exfiltration actors are
//! deliberately *not* scan-shaped — they probe the heuristic's
//! precision, not its recall. The two modern-enterprise variants
//! (TLS-dominant web, IPv6-heavy chatter) are benign-labeled; the
//! trace-complexity analyzer (`ent_core::packs`, after Avin et al.)
//! proves each pack's header-field entropy differs from the base mix.

use crate::apps::TraceCtx;
use crate::build::{self, GenConfig, GenTiming};
use crate::dataset::{all_datasets, DatasetSpec};
use crate::distr::coin;
use crate::network::{Role, Site, WanPool};
use crate::synth::{Close, Exchange, Outcome, Peer, TcpSessionSpec};
use ent_pcap::TraceMeta;
use ent_proto::ssl;
use ent_wire::ethernet::{self, EtherType, MacAddr};
use ent_wire::ipv4;
use rand::RngExt;

/// Ground-truth record labels stamped onto arena records.
///
/// Only [`label::SCAN`] marks traffic the paper's removal heuristic
/// *should* flag; the other attack classes are precision probes — the
/// heuristic must leave them alone.
pub mod label {
    /// Ordinary enterprise traffic (the default label).
    pub const BENIGN: u32 = 0;
    /// Sweep-shaped scanning the removal heuristic should catch: the
    /// base mix's internal/external scanners and the pack port sweep.
    pub const SCAN: u32 = 1;
    /// Internet background radiation: attack-shaped but random-target,
    /// so the monotone-order heuristic should *not* remove it.
    pub const RADIATION: u32 = 2;
    /// Single-target SYN flood (precision probe).
    pub const SYN_FLOOD: u32 = 3;
    /// Brute-force auth burst against one server (precision probe).
    pub const BRUTE_FORCE: u32 = 4;
    /// Exfil-shaped bulk upload to one WAN sink (precision probe).
    pub const EXFIL: u32 = 5;
}

/// Which actor set a pack layers over the base mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackKind {
    /// No actors: the reference enterprise mix.
    Base,
    /// Rogue internal host SYN-sweeping the monitored subnet.
    PortSweep,
    /// One WAN source flooding one internal web server with SYNs.
    SynFlood,
    /// One WAN source hammering one auth server with short SSH logins.
    BruteForce,
    /// One insider workstation bulk-uploading to one WAN sink.
    Exfil,
    /// TLS-dominant web variant (benign modern-enterprise mix shift).
    TlsSurge,
    /// IPv6-chatter-heavy variant (benign link-layer mix shift).
    V6Heavy,
}

/// A named scenario: base dataset spec plus one actor set.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioPack {
    /// Short pack name (CLI / JSON key).
    pub name: &'static str,
    /// One-line description for tables.
    pub summary: &'static str,
    /// The actor set layered over the base mix.
    pub kind: PackKind,
    /// The base dataset calibration the pack generates over.
    pub spec: DatasetSpec,
}

/// Every pack name, in report order (`base` first).
pub const PACK_NAMES: [&str; 7] = [
    "base",
    "sweep",
    "synflood",
    "bruteforce",
    "exfil",
    "tlsweb",
    "v6heavy",
];

/// Look up one pack by name.
pub fn pack(name: &str) -> Option<ScenarioPack> {
    let (name, kind, summary) = match name {
        "base" => ("base", PackKind::Base, "unmodified enterprise mix (reference)"),
        "sweep" => (
            "sweep",
            PackKind::PortSweep,
            "rogue internal SYN port sweep (must be flagged)",
        ),
        "synflood" => (
            "synflood",
            PackKind::SynFlood,
            "single-target WAN SYN flood (must not be flagged)",
        ),
        "bruteforce" => (
            "bruteforce",
            PackKind::BruteForce,
            "SSH brute-force burst on one auth server (must not be flagged)",
        ),
        "exfil" => (
            "exfil",
            PackKind::Exfil,
            "insider bulk upload to one WAN sink (must not be flagged)",
        ),
        "tlsweb" => ("tlsweb", PackKind::TlsSurge, "TLS-dominant web variant"),
        "v6heavy" => ("v6heavy", PackKind::V6Heavy, "IPv6-chatter-heavy variant"),
        _ => return None,
    };
    Some(ScenarioPack {
        name,
        summary,
        kind,
        spec: pack_spec(),
    })
}

/// All packs in report order.
pub fn all_packs() -> Vec<ScenarioPack> {
    PACK_NAMES.iter().filter_map(|n| pack(n)).collect()
}

/// The shared base calibration: D0's mix over its first two monitored
/// subnets (packs probe scenario shape, not Table-1 trace counts).
fn pack_spec() -> DatasetSpec {
    let mut spec = all_datasets().remove(0);
    spec.monitored = (0..2).into();
    spec
}

/// Generate one pack trace into a caller-owned arena:
/// [`build::generate_trace_into`] plus the pack's actors, with every
/// record carrying its ground-truth label.
#[allow(clippy::too_many_arguments)]
pub fn generate_pack_trace_into(
    pack: &ScenarioPack,
    site: &Site,
    wan: &WanPool,
    subnet: u16,
    pass: u8,
    config: &GenConfig,
    arena: &mut ent_pcap::PacketArena,
) -> (TraceMeta, GenTiming) {
    let kind = pack.kind;
    build::generate_trace_into_with(site, wan, &pack.spec, subnet, pass, config, arena, |ctx| {
        emit_actors(kind, ctx)
    })
}

fn emit_actors(kind: PackKind, ctx: &mut TraceCtx<'_>) {
    match kind {
        PackKind::Base => {}
        PackKind::PortSweep => port_sweep(ctx),
        PackKind::SynFlood => syn_flood(ctx),
        PackKind::BruteForce => brute_force(ctx),
        PackKind::Exfil => exfil(ctx),
        PackKind::TlsSurge => tls_surge(ctx),
        PackKind::V6Heavy => v6_chatter(ctx),
    }
    ctx.out.set_label(label::BENIGN);
}

/// r-lanscan-style SYN sweep: a rogue on-subnet host (octet 250, outside
/// the site's address plan) probing ascending host octets across a small
/// service-port set. Ascending distinct targets put it squarely inside
/// the §3 heuristic (>50 distinct hosts, monotone order) — this is the
/// recall probe.
fn port_sweep(ctx: &mut TraceCtx<'_>) {
    ctx.out.set_label(label::SCAN);
    let base = ipv4::Addr::new(10, 100, ctx.subnet as u8, 0);
    let src_addr = ipv4::Addr(base.0 + 250);
    let src_mac = MacAddr::from_host_id(src_addr.0);
    let ports = [22u16, 80, 443, 445, 3_389, 8_080];
    let mut t = ctx.early_start(0.1);
    for i in 0..130usize {
        let target = ipv4::Addr(base.0 + 1 + (i as u32 % 254));
        let client = Peer {
            addr: src_addr,
            mac: src_mac,
            port: ctx.eph(),
            ttl: 64,
        };
        let server = Peer {
            addr: target,
            mac: MacAddr::from_host_id(target.0),
            port: ports[i % ports.len()],
            ttl: 63,
        };
        let mut spec = TcpSessionSpec::success(t, client, server, 400, vec![]);
        spec.outcome = if coin(&mut ctx.rng, 0.7) {
            Outcome::Rejected
        } else {
            Outcome::Unanswered
        };
        ctx.tcp(&spec);
        t += ctx.rng.random_range(1_000..20_000);
        if t.micros() >= ctx.duration_us {
            break;
        }
    }
}

/// Single-target SYN flood: one WAN source, one internal web server,
/// many unanswered SYNs from fresh ephemeral ports. One distinct
/// destination means the monotone-sweep heuristic must not flag the
/// source — a precision probe.
fn syn_flood(ctx: &mut TraceCtx<'_>) {
    ctx.out.set_label(label::SYN_FLOOD);
    let Some(srv) = ctx.server(Role::WebServer) else {
        return;
    };
    let server = ctx.peer_of(&srv, 80);
    let src = ctx.wan_peer_uniform(0);
    let mut t = ctx.early_start(0.5);
    for _ in 0..160 {
        let client = Peer {
            port: ctx.eph(),
            ..src
        };
        let mut spec = TcpSessionSpec::success(t, client, server, 40_000, vec![]);
        spec.outcome = Outcome::Unanswered;
        ctx.tcp(&spec);
        t += ctx.rng.random_range(1_000..60_000);
        if t.micros() >= ctx.duration_us {
            break;
        }
    }
}

/// Brute-force auth burst: one WAN source retrying short SSH logins
/// against one auth server, each connection reset after the banner
/// exchange. Again one destination — precision probe.
fn brute_force(ctx: &mut TraceCtx<'_>) {
    ctx.out.set_label(label::BRUTE_FORCE);
    let Some(srv) = ctx.server(Role::AuthServer) else {
        return;
    };
    let server = ctx.peer_of(&srv, 22);
    let src = ctx.wan_peer_uniform(0);
    let mut t = ctx.early_start(0.3);
    for _ in 0..120 {
        let client = Peer {
            port: ctx.eph(),
            ..src
        };
        let exchanges = vec![
            Exchange::server(b"SSH-2.0-OpenSSH_3.9p1\r\n".to_vec(), 1_000),
            Exchange::client(b"SSH-2.0-libssh-0.1\r\n".to_vec(), 500),
        ];
        let mut spec = TcpSessionSpec::success(t, client, server, 40_000, exchanges);
        spec.close = Close::Rst;
        ctx.tcp(&spec);
        t += ctx.rng.random_range(200_000..1_500_000);
        if t.micros() >= ctx.duration_us {
            break;
        }
    }
}

/// Exfil-shaped transfer: one insider workstation pushing a few large
/// uploads to one WAN sink over 443. Bulk volume, one destination —
/// precision probe.
fn exfil(ctx: &mut TraceCtx<'_>) {
    ctx.out.set_label(label::EXFIL);
    let insider = ctx.local_wan_client();
    let sink = ctx.wan_peer(443);
    for _ in 0..3 {
        let client = ctx.peer_eph(&insider);
        let bytes = ctx.rng.random_range(150_000..500_000usize);
        let exchanges = vec![
            Exchange::client(vec![0xA5; bytes], 0),
            Exchange::server(b"HTTP/1.1 200 OK\r\n\r\n".to_vec(), 5_000),
        ];
        let start = ctx.early_start(0.6);
        let rtt = ctx.rtt_wan();
        let mut spec = TcpSessionSpec::success(start, client, sink, rtt, exchanges);
        spec.close = Close::Fin;
        ctx.tcp(&spec);
    }
}

/// TLS-dominant web variant: benign-labeled surge of HTTPS sessions on
/// top of the base web mix, shifting the port/payload distribution the
/// complexity analyzer measures.
fn tls_surge(ctx: &mut TraceCtx<'_>) {
    let n = ctx.count(ctx.spec.rates.web * 4.0);
    for _ in 0..n {
        let client_host = ctx.local_wan_client();
        let client = ctx.peer_eph(&client_host);
        let (server, rtt) = if coin(&mut ctx.rng, 0.7) {
            let p = ctx.wan_peer(443);
            let r = ctx.rtt_wan();
            (p, r)
        } else {
            let Some(srv) = ctx.server(Role::WebServer) else {
                continue;
            };
            let p = ctx.peer_of(&srv, 443);
            let r = ctx.rtt_internal();
            (p, r)
        };
        let (ch, sf, ccc, scc) = ssl::encode_handshake();
        let mut exchanges = vec![
            Exchange::client(ch, 0),
            Exchange::server(sf, 1_000),
            Exchange::client(ccc, 500),
            Exchange::server(scc, 500),
        ];
        let records = ctx.rng.random_range(2..10);
        for i in 0..records {
            let len = ctx.rng.random_range(100..1_600);
            let rec = ssl::encode_record(ssl::RecordType::ApplicationData, &vec![0u8; len]);
            if i % 2 == 0 {
                exchanges.push(Exchange::client(rec, 1_000));
            } else {
                exchanges.push(Exchange::server(rec, 1_000));
            }
        }
        let start = ctx.start();
        let mut spec = TcpSessionSpec::success(start, client, server, rtt, exchanges);
        spec.close = Close::Fin;
        ctx.tcp(&spec);
    }
}

/// IPv6-heavy variant: benign link-local UDP chatter (fe80::/64 sources
/// to ff02::1) sized as a fraction of the trace's IP volume. The wire
/// layer is IPv4-only, so these ride the other-EtherType path and show
/// up in the pipeline's non-IP accounting — and in the complexity
/// analyzer's symbol distribution.
fn v6_chatter(ctx: &mut TraceCtx<'_>) {
    let n = (ctx.out.logical_len() as f64 * 0.08) as usize;
    for _ in 0..n {
        let h = ctx.local_client();
        let payload_len = ctx.rng.random_range(24..160usize);
        let mut p = Vec::with_capacity(48 + payload_len);
        // IPv6 header: version/class/flow, payload length, UDP, hop 64.
        p.extend_from_slice(&[0x60, 0, 0, 0]);
        p.extend_from_slice(&(payload_len as u16).to_be_bytes());
        p.push(17);
        p.push(64);
        let m = h.mac.0;
        p.extend_from_slice(&[0xfe, 0x80, 0, 0, 0, 0, 0, 0]);
        p.extend_from_slice(&[m[0], m[1], m[2], 0xff, 0xfe, m[3], m[4], m[5]]);
        p.extend_from_slice(&[0xff, 0x02, 0, 0, 0, 0, 0, 0]);
        p.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0, 1]);
        p.extend_from_slice(&vec![0u8; payload_len]);
        let frame = ethernet::emit(MacAddr::BROADCAST, h.mac, EtherType::Ipv6, &p);
        let t = ctx.start();
        ctx.push_frame(t, &frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{labeled, packets};
    use crate::build::build_site;
    use ent_wire::Packet;
    use std::collections::{BTreeSet, HashMap};

    fn tiny_config() -> GenConfig {
        GenConfig {
            scale: 0.006,
            seed: 17,
            hosts_per_subnet: Some(10),
        }
    }

    fn gen_pack(name: &str, subnet: u16) -> ent_pcap::PacketArena {
        let p = pack(name).unwrap_or_else(|| panic!("pack {name}"));
        let config = tiny_config();
        let (site, wan) = build_site(&p.spec, &config);
        let mut arena = ent_pcap::PacketArena::unbounded();
        generate_pack_trace_into(&p, &site, &wan, subnet, 1, &config, &mut arena);
        arena
    }

    #[test]
    fn all_packs_listed_and_unique() {
        let packs = all_packs();
        assert_eq!(packs.len(), PACK_NAMES.len());
        let names: BTreeSet<_> = packs.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), packs.len());
        assert!(pack("nope").is_none());
    }

    #[test]
    fn base_pack_matches_plain_dataset_bytes() {
        let p = pack("base").unwrap_or_else(|| panic!("base"));
        let config = tiny_config();
        let (site, wan) = build_site(&p.spec, &config);
        let mut with_pack = ent_pcap::PacketArena::unbounded();
        generate_pack_trace_into(&p, &site, &wan, 1, 1, &config, &mut with_pack);
        let mut plain = ent_pcap::PacketArena::unbounded();
        build::generate_trace_into(&site, &wan, &p.spec, 1, 1, &config, &mut plain);
        let a = packets(&mut with_pack);
        let b = packets(&mut plain);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.ts, y.ts);
            assert_eq!(x.frame, y.frame);
        }
    }

    #[test]
    fn sweep_pack_is_heuristic_detectable_and_scan_labeled() {
        let mut arena = gen_pack("sweep", 0);
        // Collect destination sequences per SCAN-labeled source.
        let mut dests: HashMap<u32, Vec<u32>> = HashMap::new();
        for (_, frame, _, lab) in labeled(&mut arena) {
            if lab != label::SCAN {
                continue;
            }
            if let Ok(pkt) = Packet::parse(&frame) {
                if let Some((src, dst)) = pkt.ipv4_addrs() {
                    let e = dests.entry(src.0).or_default();
                    if e.last() != Some(&dst.0) {
                        e.push(dst.0);
                    }
                }
            }
        }
        let rogue = ipv4::Addr::new(10, 100, 0, 250).0;
        let seq = dests.get(&rogue).map(Vec::as_slice).unwrap_or(&[]);
        let distinct: BTreeSet<_> = seq.iter().collect();
        assert!(distinct.len() > 50, "only {} distinct targets", distinct.len());
        let asc = seq.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(asc >= 45, "only {asc} ascending steps");
    }

    #[test]
    fn attack_labels_conserved_and_sourced_from_one_host() {
        for (name, lab) in [
            ("synflood", label::SYN_FLOOD),
            ("bruteforce", label::BRUTE_FORCE),
            ("exfil", label::EXFIL),
        ] {
            let mut arena = gen_pack(name, 0);
            let counts = arena.label_counts();
            let total: u64 = counts.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, arena.len() as u64, "{name}: labels conserved");
            let tagged: u64 = counts.iter().filter(|&&(l, _)| l == lab).map(|&(_, n)| n).sum();
            assert!(tagged > 0, "{name}: no {lab}-labeled packets");
            // All attack packets share one originator address.
            let mut sources = BTreeSet::new();
            for (_, frame, _, l) in labeled(&mut arena) {
                if l != lab {
                    continue;
                }
                if let Ok(pkt) = Packet::parse(&frame) {
                    if let Some((src, dst)) = pkt.ipv4_addrs() {
                        // Both directions appear; keep the non-target end.
                        sources.insert(src.0.min(dst.0));
                    }
                }
            }
            assert!(!sources.is_empty(), "{name}: no parsable attack packets");
        }
    }

    #[test]
    fn variant_packs_shift_the_mix() {
        let base = gen_pack("base", 0);
        let tls = gen_pack("tlsweb", 0);
        assert!(tls.len() > base.len(), "tlsweb adds sessions");
        let mut v6 = gen_pack("v6heavy", 0);
        let mut v6_frames = 0usize;
        let mut frames = v6.stream();
        while let Some((_, f, _, _)) = frames.next_frame() {
            v6_frames += usize::from(f.len() >= 14 && f[12] == 0x86 && f[13] == 0xDD);
        }
        assert!(
            v6_frames as f64 > v6.len() as f64 * 0.04,
            "only {v6_frames} of {} frames are IPv6",
            v6.len()
        );
    }
}
