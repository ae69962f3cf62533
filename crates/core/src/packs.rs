//! Scenario-pack evaluation: scored scanner removal and trace
//! complexity.
//!
//! `ent_gen::packs` generates labeled scenario traffic; this module
//! closes the loop. [`run_pack`] generates every trace of a pack,
//! analyzes it through the normal pipeline, and produces a
//! [`PackReport`] with two measured properties:
//!
//! * **Scored scanner removal.** The paper's §3 pre-step removes
//!   sources contacting >50 distinct hosts in monotone order; the
//!   ground-truth labels say which sources *are* sweep-shaped scanners
//!   ([`ent_gen::packs::label::SCAN`]). [`score_scanner_removal`]
//!   compares the removal decisions to that truth at flow granularity:
//!   a removed connection originated by a true scan source is a true
//!   positive, a removed connection from anyone else a false positive,
//!   and a *kept* connection from a scan source a false negative —
//!   precision/recall/F1 instead of bare removal counts. The
//!   non-sweep attack classes (SYN flood, brute force, exfil) exist to
//!   pressure precision: the heuristic must leave them alone.
//! * **Trace complexity** after Avin et al. ("Measuring the Complexity
//!   of Packet Traces"): each packet maps to a header-field symbol, and
//!   [`Complexity`] reports the non-temporal entropy of the symbol
//!   distribution plus the temporal (order-1 conditional) entropy of
//!   consecutive symbol pairs. Packs claiming to differ from the base
//!   mix must *measure* differently.
//!
//! Everything that feeds the report is integer-counted and merged in
//! deterministic order (`BTreeMap`s keyed by symbol, work-index-sorted
//! partials), so reports are byte-identical across thread and shard
//! counts — the scenario-pack differential suite pins this.

use crate::metrics::PipelineMetrics;
use crate::records::TraceAnalysis;
use crate::run::{analyze_generated, run_queue, StudyConfig};
use ent_gen::build::build_site;
use ent_gen::packs::{self, label, ScenarioPack};
use ent_wire::{ethernet, icmp, NetLayer, Packet, Transport};
use std::collections::{BTreeMap, BTreeSet};

/// Flow-level confusion counts of scanner removal against ground truth.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PackScore {
    /// Removed connections originated by a true scan source.
    pub true_pos: u64,
    /// Removed connections originated by anything else.
    pub false_pos: u64,
    /// Kept connections originated by a true scan source.
    pub false_neg: u64,
}

impl PackScore {
    /// Fold another score's counts into this one.
    pub fn absorb(&mut self, other: &PackScore) {
        self.true_pos += other.true_pos;
        self.false_pos += other.false_pos;
        self.false_neg += other.false_neg;
    }

    /// Precision of removal decisions (1.0 when nothing was removed —
    /// no decision was wrong).
    pub fn precision(&self) -> f64 {
        let denom = self.true_pos + self.false_pos;
        if denom == 0 {
            1.0
        } else {
            self.true_pos as f64 / denom as f64
        }
    }

    /// Recall of removal decisions (1.0 when there was nothing to
    /// remove).
    pub fn recall(&self) -> f64 {
        let denom = self.true_pos + self.false_neg;
        if denom == 0 {
            1.0
        } else {
            self.true_pos as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Ground truth extracted from one trace's labeled arena records.
#[derive(Debug, Default, Clone)]
pub struct PackTruth {
    /// Captured packets per ground-truth label.
    pub label_packets: BTreeMap<u32, u64>,
    /// Attack-source addresses per nonzero label. Sources are taken
    /// from flow-*originating* frames only (TCP SYNs without ACK, ICMP
    /// echo requests), so responders to attack traffic are never
    /// counted as attackers.
    pub label_sources: BTreeMap<u32, BTreeSet<u32>>,
}

impl PackTruth {
    /// Account one captured frame carrying ground-truth label `lab`.
    pub fn observe(&mut self, frame: &[u8], lab: u32) {
        *self.label_packets.entry(lab).or_insert(0) += 1;
        if lab == label::BENIGN {
            return;
        }
        if let Some(src) = originator_src(frame) {
            self.label_sources.entry(lab).or_default().insert(src);
        }
    }

    /// Fold another trace's truth into this one.
    pub fn absorb(&mut self, other: &PackTruth) {
        for (&l, &n) in &other.label_packets {
            *self.label_packets.entry(l).or_insert(0) += n;
        }
        for (&l, srcs) in &other.label_sources {
            self.label_sources.entry(l).or_default().extend(srcs);
        }
    }

    /// Sources the removal heuristic *should* flag (the scan class).
    pub fn scan_sources(&self) -> BTreeSet<u32> {
        self.label_sources.get(&label::SCAN).cloned().unwrap_or_default()
    }

    /// Captured packets carrying any nonzero (attack-class or
    /// radiation) label.
    pub fn attack_packets(&self) -> u64 {
        self.label_packets
            .iter()
            .filter(|&(&l, _)| l != label::BENIGN)
            .map(|(_, &n)| n)
            .sum()
    }
}

/// The source address of a flow-originating frame: TCP SYN (no ACK) or
/// ICMP echo request. Responses and mid-flow frames return `None`.
fn originator_src(frame: &[u8]) -> Option<u32> {
    let packet = Packet::parse(frame).ok()?;
    let (src, _) = packet.ipv4_addrs()?;
    let opens_flow = match packet.transport {
        Transport::Tcp { flags, .. } => flags.syn() && !flags.ack(),
        Transport::Icmp { mtype, .. } => mtype == icmp::MessageType::EchoRequest,
        _ => false,
    };
    opens_flow.then_some(src.0)
}

/// Score one trace's scanner-removal decisions against the scan-class
/// truth sources. Truth is source-granular (the heuristic removes
/// *hosts*), scoring is flow-granular: every removed or kept connection
/// is one decision.
pub fn score_scanner_removal(analysis: &TraceAnalysis, scan_sources: &BTreeSet<u32>) -> PackScore {
    let mut s = PackScore::default();
    for c in &analysis.scanner_conns {
        if scan_sources.contains(&c.orig_addr().0) {
            s.true_pos += 1;
        } else {
            s.false_pos += 1;
        }
    }
    for c in &analysis.conns {
        if scan_sources.contains(&c.orig_addr().0) {
            s.false_neg += 1;
        }
    }
    s
}

/// Trace-complexity accumulator after Avin et al.: packets map to
/// header-field symbols; entropy of the symbol distribution is the
/// non-temporal complexity, conditional entropy of consecutive pairs
/// the temporal complexity. All counts live in `BTreeMap`s so the
/// floating-point folds run in one deterministic order regardless of
/// how partials were produced or merged.
#[derive(Debug, Default, Clone)]
pub struct Complexity {
    symbols: BTreeMap<u64, u64>,
    firsts: BTreeMap<u64, u64>,
    pairs: BTreeMap<(u64, u64), u64>,
    prev: Option<u64>,
}

impl Complexity {
    /// Account one captured frame.
    pub fn observe(&mut self, frame: &[u8]) {
        let sym = header_symbol(frame);
        *self.symbols.entry(sym).or_insert(0) += 1;
        if let Some(p) = self.prev {
            *self.firsts.entry(p).or_insert(0) += 1;
            *self.pairs.entry((p, sym)).or_insert(0) += 1;
        }
        self.prev = Some(sym);
    }

    /// End the current trace: consecutive-pair chains never bridge
    /// trace boundaries.
    pub fn end_trace(&mut self) {
        self.prev = None;
    }

    /// Fold another accumulator's counts into this one (commutative:
    /// merge order cannot affect the final counts).
    pub fn absorb(&mut self, other: &Complexity) {
        for (&k, &n) in &other.symbols {
            *self.symbols.entry(k).or_insert(0) += n;
        }
        for (&k, &n) in &other.firsts {
            *self.firsts.entry(k).or_insert(0) += n;
        }
        for (&k, &n) in &other.pairs {
            *self.pairs.entry(k).or_insert(0) += n;
        }
    }

    /// Non-temporal complexity: Shannon entropy (bits/packet) of the
    /// header-symbol distribution.
    pub fn nontemporal_entropy(&self) -> f64 {
        shannon(self.symbols.values())
    }

    /// Temporal complexity: order-1 conditional entropy
    /// `H(X_t | X_{t-1}) = H(pairs) − H(prefixes)` in bits/packet.
    pub fn temporal_entropy(&self) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        shannon(self.pairs.values()) - shannon(self.firsts.values())
    }

    /// Distinct header symbols observed.
    pub fn distinct_symbols(&self) -> u64 {
        self.symbols.len() as u64
    }
}

/// Shannon entropy in bits of a count distribution, folded in the
/// iterator's order (callers pass `BTreeMap` iterators for determinism).
fn shannon<'a, I: Iterator<Item = &'a u64> + Clone>(counts: I) -> f64 {
    let n: u64 = counts.clone().sum();
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / nf;
            h -= p * p.log2();
        }
    }
    h
}

/// Map a frame to its header-field symbol. IPv4 packets fold
/// `(src, dst, proto, sport, dport)`; anything else (undissectable frames
/// included) folds the EtherType, so link-mix shifts (IPv6-heavy, IPX)
/// register too.
fn header_symbol(frame: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(PRIME);
    match Packet::parse(frame) {
        Ok(Packet { net: NetLayer::Ipv4 { src, dst, protocol, .. }, transport, .. }) => {
            mix(2);
            mix(u64::from(src.0));
            mix(u64::from(dst.0));
            mix(u64::from(protocol.to_u8()));
            if let Transport::Tcp { src_port, dst_port, .. } | Transport::Udp { src_port, dst_port, .. } = transport {
                mix(u64::from(src_port));
                mix(u64::from(dst_port));
            }
        }
        _ => {
            let ethertype = ethernet::Frame::parse(frame).map_or(0, |eth| eth.ethertype.to_u16());
            mix(1);
            mix(u64::from(ethertype));
        }
    }
    h
}

/// The measured outcome of one pack run.
#[derive(Debug, Clone)]
pub struct PackReport {
    /// Pack name.
    pub name: String,
    /// Traces generated and analyzed.
    pub traces: u64,
    /// Captured packets across all traces.
    pub packets: u64,
    /// Captured packets carrying a nonzero ground-truth label.
    pub attack_packets: u64,
    /// Distinct ground-truth scan sources (union across traces).
    pub scan_sources: u64,
    /// Distinct sources the heuristic flagged (union across traces).
    pub flagged: u64,
    /// Flow-level removal confusion counts.
    pub score: PackScore,
    /// Non-temporal header-symbol entropy, bits/packet.
    pub entropy_nontemporal: f64,
    /// Temporal (order-1 conditional) entropy, bits/packet.
    pub entropy_temporal: f64,
    /// Aggregated pipeline metrics (thread/shard-invariant signature).
    pub metrics: PipelineMetrics,
}

/// Generate, analyze and score every trace of one pack.
///
/// Per-trace truth is extracted from the arena's stream of labeled frames
/// and scored against that same trace's removal decisions (removal is a
/// per-trace step); partial results come off the shared work queue in
/// work order, so the report is identical for any thread count. Every
/// trace ingests inline ([`crate::analyze_arena`]).
pub fn run_pack(pack: &ScenarioPack, config: &StudyConfig) -> PackReport {
    let (site, wan) = build_site(&pack.spec, &config.gen);
    let slots: Vec<_> = pack.spec.slots().collect();

    struct Partial {
        packets: u64,
        truth: PackTruth,
        complexity: Complexity,
        score: PackScore,
        flagged: Vec<u32>,
        metrics: PipelineMetrics,
    }

    let partials = run_queue(&slots, config, |&(subnet, pass), arena| {
        let analysis = analyze_generated(arena, &config.pipeline, |arena| {
            packs::generate_pack_trace_into(pack, &site, &wan, subnet, pass, &config.gen, arena)
        });
        let mut truth = PackTruth::default();
        let mut complexity = Complexity::default();
        let mut frames = arena.stream();
        while let Some((_, frame, _, lab)) = frames.next_frame() {
            truth.observe(frame, lab);
            complexity.observe(frame);
        }
        complexity.end_trace();
        let score = score_scanner_removal(&analysis, &truth.scan_sources());
        Partial {
            packets: analysis.packets,
            truth,
            complexity,
            score,
            flagged: analysis.scanners_removed.iter().map(|a| a.0).collect(),
            metrics: analysis.metrics,
        }
    });

    let mut truth = PackTruth::default();
    let mut complexity = Complexity::default();
    let mut score = PackScore::default();
    let mut metrics = PipelineMetrics::default();
    let mut flagged = BTreeSet::new();
    let mut packets = 0u64;
    for p in &partials {
        truth.absorb(&p.truth);
        complexity.absorb(&p.complexity);
        score.absorb(&p.score);
        metrics.absorb(&p.metrics);
        flagged.extend(p.flagged.iter().copied());
        packets += p.packets;
    }
    PackReport {
        name: pack.name.to_string(),
        traces: partials.len() as u64,
        packets,
        attack_packets: truth.attack_packets(),
        scan_sources: truth.scan_sources().len() as u64,
        flagged: flagged.len() as u64,
        score,
        entropy_nontemporal: complexity.nontemporal_entropy(),
        entropy_temporal: complexity.temporal_entropy(),
        metrics,
    }
}

/// Run every pack in report order.
pub fn run_all_packs(config: &StudyConfig) -> Vec<PackReport> {
    packs::all_packs().iter().map(|p| run_pack(p, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::ConnRecord;
    use ent_flow::{
        ConnSummary, DirStats, Endpoint, FlowKey, Proto, TcpOutcome, TcpState,
    };
    use ent_wire::{ipv4, Timestamp};

    fn conn(orig: ipv4::Addr, resp: ipv4::Addr) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(orig, 40_000),
                    resp: Endpoint::new(resp, 80),
                },
                start: Timestamp::ZERO,
                end: Timestamp::from_secs(1),
                orig: DirStats::default(),
                resp: DirStats::default(),
                outcome: TcpOutcome::Successful,
                tcp_state: TcpState::Closed,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: None,
            category: ent_proto::Category::OtherTcp,
        }
    }

    #[test]
    fn score_counts_tp_fp_fn_and_derives_rates() {
        let scanner = ipv4::Addr::new(10, 100, 0, 250);
        let benign = ipv4::Addr::new(10, 100, 0, 31);
        let target = ipv4::Addr::new(10, 100, 0, 40);
        let mut analysis = TraceAnalysis::default();
        // Removed: 3 true scanner conns + 1 wrongly removed benign conn.
        for _ in 0..3 {
            analysis.scanner_conns.push(conn(scanner, target));
        }
        analysis.scanner_conns.push(conn(benign, target));
        // Kept: 2 missed scanner conns + benign bulk.
        for _ in 0..2 {
            analysis.conns.push(conn(scanner, target));
        }
        for _ in 0..5 {
            analysis.conns.push(conn(benign, target));
        }
        let truth: std::collections::BTreeSet<u32> = [scanner.0].into();
        let s = score_scanner_removal(&analysis, &truth);
        assert_eq!((s.true_pos, s.false_pos, s.false_neg), (3, 1, 2));
        assert!((s.precision() - 0.75).abs() < 1e-12);
        assert!((s.recall() - 0.6).abs() < 1e-12);
        assert!(s.f1() > 0.0 && s.f1() < 1.0);
    }

    #[test]
    fn empty_score_is_vacuously_perfect() {
        let s = PackScore::default();
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
    }

    #[test]
    fn complexity_entropy_of_uniform_and_constant_streams() {
        // Constant stream: zero entropy both ways.
        let mut c = Complexity::default();
        let frame_a = tcp_syn_frame([10, 0, 0, 1], [10, 0, 0, 2], 1000, 80);
        for _ in 0..64 {
            c.observe(&frame_a);
        }
        assert_eq!(c.nontemporal_entropy(), 0.0);
        assert_eq!(c.temporal_entropy(), 0.0);
        // Alternating two symbols: 1 bit non-temporal, ~0 temporal
        // (each symbol fully determines the next).
        let mut c = Complexity::default();
        let frame_b = tcp_syn_frame([10, 0, 0, 3], [10, 0, 0, 4], 1001, 443);
        for _ in 0..64 {
            c.observe(&frame_a);
            c.observe(&frame_b);
        }
        assert!((c.nontemporal_entropy() - 1.0).abs() < 1e-9);
        assert!(c.temporal_entropy() < 0.05, "t = {}", c.temporal_entropy());
        assert_eq!(c.distinct_symbols(), 2);
        // Same counts random-ordered would be ~1 bit temporal; verify
        // the conditional entropy responds to order by interleaving
        // unpredictably (period-3 vs period-2 mix).
        let mut c3 = Complexity::default();
        for i in 0..300u32 {
            if (i * i + i / 3) % 3 == 0 {
                c3.observe(&frame_a);
            } else {
                c3.observe(&frame_b);
            }
        }
        assert!(c3.temporal_entropy() > 0.2);
    }

    #[test]
    fn complexity_merge_is_order_insensitive() {
        let f1 = tcp_syn_frame([10, 0, 0, 1], [10, 0, 0, 2], 1000, 80);
        let f2 = tcp_syn_frame([10, 0, 0, 3], [10, 0, 0, 4], 1001, 443);
        let mut a = Complexity::default();
        let mut b = Complexity::default();
        for i in 0..50 {
            a.observe(if i % 2 == 0 { &f1 } else { &f2 });
            b.observe(if i % 3 == 0 { &f1 } else { &f2 });
        }
        a.end_trace();
        b.end_trace();
        let mut ab = Complexity::default();
        ab.absorb(&a);
        ab.absorb(&b);
        let mut ba = Complexity::default();
        ba.absorb(&b);
        ba.absorb(&a);
        assert_eq!(
            ab.nontemporal_entropy().to_bits(),
            ba.nontemporal_entropy().to_bits()
        );
        assert_eq!(ab.temporal_entropy().to_bits(), ba.temporal_entropy().to_bits());
    }

    /// `originator_src` as it was when it indexed the frame by hand.
    fn parent_originator_src(frame: &[u8]) -> Option<u32> {
        if frame.len() < 34 || frame[12] != 0x08 || frame[13] != 0x00 {
            return None;
        }
        let ihl = usize::from(frame[14] & 0x0f) * 4;
        let proto = frame[23];
        let src = u32::from_be_bytes([frame[26], frame[27], frame[28], frame[29]]);
        match proto {
            6 => {
                let flags = *frame.get(14 + ihl + 13)?;
                // SYN set, ACK clear: the connection-opening segment.
                (flags & 0x12 == 0x02).then_some(src)
            }
            1 => {
                let icmp_type = *frame.get(14 + ihl)?;
                (icmp_type == 8).then_some(src)
            }
            _ => None,
        }
    }

    /// `header_symbol` as it was when it indexed the frame by hand.
    fn parent_header_symbol(frame: &[u8]) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(PRIME);
        if frame.len() < 34 || frame[12] != 0x08 || frame[13] != 0x00 {
            let ethertype = if frame.len() >= 14 {
                u64::from(frame[12]) << 8 | u64::from(frame[13])
            } else {
                0
            };
            mix(1);
            mix(ethertype);
            return h;
        }
        let ihl = usize::from(frame[14] & 0x0f) * 4;
        let proto = frame[23];
        mix(2);
        mix(u64::from(u32::from_be_bytes([frame[26], frame[27], frame[28], frame[29]])));
        mix(u64::from(u32::from_be_bytes([frame[30], frame[31], frame[32], frame[33]])));
        mix(u64::from(proto));
        if matches!(proto, 6 | 17) {
            if let (Some(&a), Some(&b), Some(&c), Some(&d)) = (
                frame.get(14 + ihl),
                frame.get(14 + ihl + 1),
                frame.get(14 + ihl + 2),
                frame.get(14 + ihl + 3),
            ) {
                mix(u64::from(a) << 8 | u64::from(b));
                mix(u64::from(c) << 8 | u64::from(d));
            }
        }
        h
    }

    /// The dissector-backed `header_symbol` / `originator_src` against the
    /// hand-indexed originals, on every frame of `arena`: the symbols must
    /// split the frames into the same classes, the sources must be equal.
    fn assert_matches_parent(arena: &mut ent_pcap::PacketArena) {
        let (mut fwd, mut back) = (BTreeMap::new(), BTreeMap::new());
        assert!(arena.len() > 1_000, "trace too small to mean anything");
        let mut frames = arena.stream();
        while let Some((_, frame, _, _)) = frames.next_frame() {
            let (new, old) = (header_symbol(frame), parent_header_symbol(frame));
            assert_eq!(*fwd.entry(new).or_insert(old), old, "one new symbol, two old");
            assert_eq!(*back.entry(old).or_insert(new), new, "one old symbol, two new");
            assert_eq!(originator_src(frame), parent_originator_src(frame));
        }
        assert!(fwd.len() > 100, "only {} distinct symbols", fwd.len());
    }

    #[test]
    fn symbols_and_sources_match_the_hand_indexed_originals() {
        let gen = ent_gen::GenConfig { scale: 0.01, seed: 2005, hosts_per_subnet: None };
        let mut arena = ent_pcap::PacketArena::unbounded();

        let d0 = ent_gen::dataset::all_datasets().into_iter().find(|d| d.name == "D0").unwrap();
        let (site, wan) = build_site(&d0, &gen);
        let (subnet, pass) = d0.slots().next().unwrap();
        ent_gen::build::generate_trace_into(&site, &wan, &d0, subnet, pass, &gen, &mut arena);
        assert_matches_parent(&mut arena);

        let v6 = packs::pack("v6heavy").unwrap();
        let (site, wan) = build_site(&v6.spec, &gen);
        let (subnet, pass) = v6.spec.slots().next().unwrap();
        arena.clear();
        packs::generate_pack_trace_into(&v6, &site, &wan, subnet, pass, &gen, &mut arena);
        assert_matches_parent(&mut arena);
    }

    #[test]
    fn originator_src_takes_syns_and_echo_requests_only() {
        let syn = tcp_syn_frame([10, 100, 0, 250], [10, 100, 0, 5], 40_000, 80);
        assert_eq!(
            originator_src(&syn),
            Some(u32::from_be_bytes([10, 100, 0, 250]))
        );
        let mut synack = syn.clone();
        synack[14 + 20 + 13] = 0x12;
        assert_eq!(originator_src(&synack), None, "SYN|ACK is the responder");
        let mut nonip = syn;
        nonip[12] = 0x86;
        nonip[13] = 0xDD;
        assert_eq!(originator_src(&nonip), None);
    }

    /// Ethernet+IPv4+TCP SYN frame for unit tests.
    fn tcp_syn_frame(src: [u8; 4], dst: [u8; 4], sport: u16, dport: u16) -> Vec<u8> {
        let spec = ent_wire::build::TcpFrameSpec {
            src_mac: ethernet::MacAddr::from_host_id(1),
            dst_mac: ethernet::MacAddr::from_host_id(2),
            src_ip: ipv4::Addr(u32::from_be_bytes(src)),
            dst_ip: ipv4::Addr(u32::from_be_bytes(dst)),
            src_port: sport,
            dst_port: dport,
            seq: 1,
            ack: 0,
            flags: ent_wire::tcp::Flags::SYN,
            window: 8_192,
            ttl: 64,
        };
        ent_wire::build::tcp_frame(&spec, &[])
    }

    #[test]
    fn run_pack_scores_the_sweep_and_spares_the_flood() {
        let config = StudyConfig {
            gen: ent_gen::GenConfig {
                scale: 0.006,
                seed: 17,
                hosts_per_subnet: Some(10),
            },
            ..Default::default()
        };
        let sweep = ent_gen::packs::pack("sweep").unwrap();
        let r = run_pack(&sweep, &config);
        assert_eq!(r.traces, 2);
        assert!(r.packets > 0);
        assert!(r.attack_packets > 0);
        assert!(r.scan_sources >= 2, "one rogue per monitored subnet");
        assert!(r.score.true_pos > 0, "sweep flows must be removed");
        assert!(r.score.recall() > 0.9, "recall {}", r.score.recall());
        assert!(r.score.precision() > 0.9, "precision {}", r.score.precision());
        let flood = ent_gen::packs::pack("synflood").unwrap();
        let f = run_pack(&flood, &config);
        assert!(f.attack_packets > 0);
        assert_eq!(
            f.score.false_pos, 0,
            "single-target flood must not be flagged"
        );
        // The complexity metrics distinguish the packs from each other.
        assert_ne!(
            r.entropy_nontemporal.to_bits(),
            f.entropy_nontemporal.to_bits()
        );
    }
}
