//! Per-application session generators.
//!
//! Each submodule emits one application category's sessions for one
//! monitored-subnet trace, through the shared [`TraceCtx`]. Generators use
//! the `ent-proto` *encoders* so payload bytes are structurally real and
//! the analysis pipeline's parsers are exercised end-to-end.

pub mod backup;
pub mod bulk_interactive;
pub mod email;
pub mod mgmt;
pub mod name;
pub mod netfile;
pub mod nonip;
pub mod scanner;
pub mod streaming;
pub mod web;
pub mod windows;

use crate::dataset::DatasetSpec;
use crate::distr::{coin, LogNormal};
use crate::network::{Host, Site, WanPool};
use crate::synth::{self, Peer, TcpSessionSpec, UdpFlowSpec};
use ent_pcap::{Clip, PacketArena};
use ent_wire::ethernet::MacAddr;
use ent_wire::{build, ipv4, Timestamp};
use rand::rngs::StdRng;
use rand::RngExt;

/// Shared state for generating one trace (one monitored subnet, one pass).
pub struct TraceCtx<'a> {
    /// Deterministic RNG for this trace.
    pub rng: StdRng,
    /// Site model.
    pub site: &'a Site,
    /// WAN peer pool.
    pub wan: &'a WanPool,
    /// Dataset calibration.
    pub spec: &'a DatasetSpec,
    /// The monitored subnet.
    pub subnet: u16,
    /// Trace duration in microseconds.
    pub duration_us: u64,
    /// Count scale factor (see [`DatasetSpec`] docs).
    pub scale: f64,
    /// Accumulated packets, staged in one arena buffer.
    pub out: PacketArena,
    next_eph: u16,
}

impl<'a> TraceCtx<'a> {
    /// Create a context for one trace.
    pub fn new(
        rng: StdRng,
        site: &'a Site,
        wan: &'a WanPool,
        spec: &'a DatasetSpec,
        subnet: u16,
        scale: f64,
    ) -> TraceCtx<'a> {
        TraceCtx::with_arena(rng, site, wan, spec, subnet, scale, PacketArena::unbounded())
    }

    /// Create a context for one trace, reusing a caller-provided arena
    /// (its buffers keep their capacity; contents, window limit and
    /// snaplen are reset for this trace — one arena serves full-payload
    /// and header-only datasets in turn). The generator writes what the
    /// tap keeps: every frame is stored cut at the dataset's snaplen.
    pub fn with_arena(
        rng: StdRng,
        site: &'a Site,
        wan: &'a WanPool,
        spec: &'a DatasetSpec,
        subnet: u16,
        scale: f64,
        mut out: PacketArena,
    ) -> TraceCtx<'a> {
        let duration_us = spec.trace_secs * 1_000_000;
        out.clear();
        out.set_limit(Timestamp::from_micros(duration_us));
        out.set_snaplen(spec.snaplen as usize);
        TraceCtx {
            rng,
            site,
            wan,
            spec,
            subnet,
            duration_us,
            scale,
            out,
            next_eph: 32_768,
        }
    }

    /// Number of sessions to generate for a per-subnet-hour rate, scaled
    /// by trace duration and the run's scale factor, with probabilistic
    /// rounding so tiny rates still occur across many traces.
    pub fn count(&mut self, rate_per_hour: f64) -> usize {
        let expected = rate_per_hour * (self.duration_us as f64 / 3.6e9) * self.scale;
        let floor = expected.floor();
        let frac = expected - floor;
        floor as usize + usize::from(coin(&mut self.rng, frac))
    }

    /// Session count for *heavy-transfer* applications (backup, bulk,
    /// large copies): counts scale by sqrt(scale) and sizes by
    /// [`TraceCtx::heavy_size`]'s sqrt(scale), so total bytes stay
    /// proportional to the run scale without collapsing either the number
    /// of transfers or the per-transfer size tail.
    pub fn heavy_count(&mut self, rate_per_hour: f64) -> usize {
        let expected =
            rate_per_hour * (self.duration_us as f64 / 3.6e9) * self.scale.sqrt().min(1.0);
        let floor = expected.floor();
        let frac = expected - floor;
        floor as usize + usize::from(coin(&mut self.rng, frac))
    }

    /// Scale a heavy-transfer size (pairs with [`TraceCtx::heavy_count`]).
    pub fn heavy_size(&self, full_bytes: f64) -> usize {
        (full_bytes * self.scale.sqrt().min(1.0)).max(20_000.0) as usize
    }

    /// Uniform session start within the trace window.
    pub fn start(&mut self) -> Timestamp {
        Timestamp::from_micros(self.rng.random_range(0..self.duration_us.max(1)))
    }

    /// Uniform start within the first `frac` of the window (for sessions
    /// that need room to complete).
    pub fn early_start(&mut self, frac: f64) -> Timestamp {
        let span = ((self.duration_us as f64) * frac.clamp(0.05, 1.0)) as u64;
        Timestamp::from_micros(self.rng.random_range(0..span.max(1)))
    }

    /// Next ephemeral source port (wraps within the dynamic range).
    pub fn eph(&mut self) -> u16 {
        let p = self.next_eph;
        self.next_eph = if self.next_eph >= 60_999 { 32_768 } else { self.next_eph + 1 };
        p
    }

    /// Internal round-trip time, microseconds (median ≈ 0.4 ms).
    pub fn rtt_internal(&mut self) -> u64 {
        LogNormal::from_median(400.0, 0.5).sample_clamped(&mut self.rng, 120.0, 4_000.0) as u64
    }

    /// WAN round-trip time, microseconds (median ≈ 25 ms).
    pub fn rtt_wan(&mut self) -> u64 {
        LogNormal::from_median(25_000.0, 0.8).sample_clamped(&mut self.rng, 4_000.0, 300_000.0)
            as u64
    }

    /// A workstation on the monitored subnet.
    pub fn local_client(&mut self) -> Host {
        *self.site.random_workstation(&mut self.rng, self.subnet)
    }

    /// A workstation from the ~third of hosts that ever talk to the WAN.
    /// Concentrating external activity this way reproduces the paper's
    /// finding that more than half of hosts have only internal peers.
    pub fn local_wan_client(&mut self) -> Host {
        for _ in 0..16 {
            let h = self.local_client();
            if h.addr.octets()[3].is_multiple_of(3) {
                return h;
            }
        }
        self.local_client()
    }

    /// A host on some other subnet (internal peer).
    pub fn remote_internal(&mut self) -> Host {
        *self.site.random_other_subnet_host(&mut self.rng, self.subnet)
    }

    /// A workstation on some other *monitored-router* subnet.
    pub fn internal_peer_client(&mut self) -> Host {
        let subnet = loop {
            let s = self.rng.random_range(0..self.site.subnets);
            if s != self.subnet {
                break s;
            }
        };
        *self.site.random_workstation(&mut self.rng, subnet)
    }

    /// A WAN peer endpoint on `port`.
    pub fn wan_peer(&mut self, port: u16) -> Peer {
        let addr = self.wan.sample(&mut self.rng);
        Peer::wan(addr, self.wan.router_mac(), port)
    }

    /// A uniformly random WAN peer (long tail / scanners).
    pub fn wan_peer_uniform(&mut self, port: u16) -> Peer {
        let addr = self.wan.sample_uniform(&mut self.rng);
        Peer::wan(addr, self.wan.router_mac(), port)
    }

    /// Peer for an internal host as seen at this vantage: on-subnet hosts
    /// keep their own MAC; off-subnet hosts arrive via the router.
    pub fn peer_of(&self, host: &Host, port: u16) -> Peer {
        if host.subnet == self.subnet {
            Peer::internal(host, port)
        } else {
            Peer {
                addr: host.addr,
                mac: self.wan.router_mac(),
                port,
                ttl: 63,
            }
        }
    }

    /// Peer for a host using a fresh ephemeral port.
    pub fn peer_eph(&mut self, host: &Host) -> Peer {
        let port = self.eph();
        self.peer_of(host, port)
    }

    /// True if this vantage (monitored subnet) hosts a server of `role`.
    pub fn hosts_role(&self, role: crate::network::Role) -> bool {
        self.site
            .with_role(role)
            .iter()
            .any(|h| h.subnet == self.subnet)
    }

    /// The preferred server of `role` from this vantage.
    pub fn server(&mut self, role: crate::network::Role) -> Option<Host> {
        self.site.server_for(role, self.subnet).copied()
    }

    /// Emit a TCP session. Out-of-window packets are tallied as logical
    /// emissions (the legacy pipeline pushed then `retain`ed them).
    pub fn tcp(&mut self, spec: &TcpSessionSpec) {
        synth::emit_tcp(spec, &mut self.rng, &mut self.out, Clip::Counted);
    }

    /// Emit a TCP session, silently discarding out-of-window packets
    /// (for sites that used to filter before pushing).
    pub fn tcp_trimmed(&mut self, spec: &TcpSessionSpec) {
        synth::emit_tcp(spec, &mut self.rng, &mut self.out, Clip::Silent);
    }

    /// Emit a UDP flow (see [`TraceCtx::tcp`] for the window contract).
    pub fn udp(&mut self, spec: &UdpFlowSpec) {
        synth::emit_udp(spec, &mut self.out, Clip::Counted);
    }

    /// Emit a UDP flow, silently discarding out-of-window packets.
    pub fn udp_trimmed(&mut self, spec: &UdpFlowSpec) {
        synth::emit_udp(spec, &mut self.out, Clip::Silent);
    }

    /// Emit an ICMP echo exchange.
    #[allow(clippy::too_many_arguments)]
    pub fn icmp_echo(
        &mut self,
        start: Timestamp,
        client: Peer,
        server: Peer,
        rtt_us: u64,
        ident: u16,
        count: u16,
        answered: bool,
    ) {
        synth::emit_icmp_echo(
            start, client, server, rtt_us, ident, count, answered, &mut self.out, Clip::Counted,
        );
    }

    /// Emit an ICMP echo exchange, silently discarding out-of-window
    /// packets.
    #[allow(clippy::too_many_arguments)]
    pub fn icmp_echo_trimmed(
        &mut self,
        start: Timestamp,
        client: Peer,
        server: Peer,
        rtt_us: u64,
        ident: u16,
        count: u16,
        answered: bool,
    ) {
        synth::emit_icmp_echo(
            start, client, server, rtt_us, ident, count, answered, &mut self.out, Clip::Silent,
        );
    }

    /// Write one IPv4 frame carrying a transport the synthesizer does not
    /// model (IGMP, PIM, ESP, GRE, ...) at `ts`, straight into the arena.
    #[allow(clippy::too_many_arguments)]
    pub fn push_raw_ip(
        &mut self,
        ts: Timestamp,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src: ipv4::Addr,
        dst: ipv4::Addr,
        protocol: u8,
        payload: &[u8],
    ) {
        let wire = build::NET_HDR_LEN + payload.len();
        if self.out.admit(ts, Clip::Counted, wire as u64) {
            build::raw_ip_frame_into(src_mac, dst_mac, src, dst, protocol, payload, self.out.frame_buf());
            self.out.commit(ts, wire);
        }
    }

    /// Append one prebuilt frame at `ts`.
    pub fn push_frame(&mut self, ts: Timestamp, frame: &[u8]) {
        self.out.push_frame(ts, Clip::Counted, frame);
    }
}

/// Run every application generator for this trace.
pub fn generate_all(ctx: &mut TraceCtx<'_>) {
    name::generate(ctx);
    web::generate(ctx);
    email::generate(ctx);
    windows::generate(ctx);
    netfile::generate(ctx);
    backup::generate(ctx);
    bulk_interactive::generate(ctx);
    streaming::generate(ctx);
    mgmt::generate(ctx);
    scanner::generate(ctx);
    // These two run last: they size themselves from the volume above.
    streaming::multicast_background(ctx);
    nonip::generate(ctx);
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use ent_pcap::{TimedPacket, TraceMeta};
    use rand::SeedableRng;

    /// A small context for generator unit tests.
    pub fn ctx<'a>(
        site: &'a Site,
        wan: &'a WanPool,
        spec: &'a DatasetSpec,
        subnet: u16,
    ) -> TraceCtx<'a> {
        TraceCtx::new(StdRng::seed_from_u64(99), site, wan, spec, subnet, 0.02)
    }

    pub fn small_site() -> (Site, WanPool) {
        let mut rng = StdRng::seed_from_u64(5);
        (
            Site::build(&mut rng, crate::network::TOTAL_SUBNETS, 12),
            WanPool::new(2_000),
        )
    }

    /// The arena's frames in record order, read off its stream and owned:
    /// `(timestamp, frame, wire length, label)`.
    pub fn labeled(arena: &mut PacketArena) -> Vec<(Timestamp, Vec<u8>, u32, u32)> {
        let mut out = Vec::with_capacity(arena.len());
        let mut frames = arena.stream();
        while let Some((ts, frame, orig_len, label)) = frames.next_frame() {
            out.push((ts, frame.to_vec(), orig_len, label));
        }
        out
    }

    /// The arena's frames in record order as owned packets.
    pub fn packets(arena: &mut PacketArena) -> Vec<TimedPacket> {
        let packet = |(ts, frame, orig_len, _)| TimedPacket { ts, frame, orig_len };
        labeled(arena).into_iter().map(packet).collect()
    }

    /// One generated trace as owned packets.
    pub fn owned_trace(
        site: &Site,
        wan: &WanPool,
        spec: &DatasetSpec,
        subnet: u16,
        pass: u8,
        config: &crate::GenConfig,
    ) -> (TraceMeta, Vec<TimedPacket>) {
        let mut arena = PacketArena::unbounded();
        let (meta, _) =
            crate::build::generate_trace_into(site, wan, spec, subnet, pass, config, &mut arena);
        (meta, packets(&mut arena))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;

    #[test]
    fn count_scales_with_rate_and_duration() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 0); // 1-hour trace, scale .02
        let n: usize = (0..50).map(|_| c.count(1_000.0)).sum();
        // E[n per call] = 1000 * 1h * 0.02 = 20.
        assert!((800..1200).contains(&n), "n = {n}");
        let mut c0 = ctx(&site, &wan, &specs[0], 0); // 10-minute trace
        let n0: usize = (0..50).map(|_| c0.count(1_000.0)).sum();
        assert!(n0 < n / 3, "10-minute trace must generate ~1/6 the sessions");
    }

    #[test]
    fn rtts_in_expected_bands() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[0], 0);
        let int: Vec<u64> = (0..200).map(|_| c.rtt_internal()).collect();
        let wan_rtts: Vec<u64> = (0..200).map(|_| c.rtt_wan()).collect();
        let med_int = int[int.len() / 2];
        assert!(int.iter().all(|&r| r < 5_000));
        assert!(wan_rtts.iter().sum::<u64>() / 200 > 20 * med_int);
    }

    #[test]
    fn eph_ports_unique_until_wrap() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[0], 0);
        let a = c.eph();
        let b = c.eph();
        assert_ne!(a, b);
        assert!(a >= 32_768);
    }

    #[test]
    fn vantage_helpers() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let c = ctx(&site, &wan, &specs[0], 0);
        assert!(c.hosts_role(crate::network::Role::SmtpServer));
        assert!(!c.hosts_role(crate::network::Role::PrintServer));
        let smtp = site.server_for(crate::network::Role::SmtpServer, 0).unwrap();
        let p = c.peer_of(smtp, 25);
        assert_eq!(p.mac, smtp.mac, "on-subnet server keeps own MAC");
        let print = site.server_for(crate::network::Role::PrintServer, 0).unwrap();
        let p = c.peer_of(print, 515);
        assert_eq!(p.mac, wan.router_mac(), "off-subnet host arrives via router");
    }

    #[test]
    fn generate_all_produces_sorted_window_bounded_traffic() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[0], 0);
        generate_all(&mut c);
        assert!(c.out.len() > 500, "only {} packets", c.out.len());
        // Starts all inside the window (tails may exceed; build trims).
    }
}
