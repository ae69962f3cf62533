//! Characterization of the scanning traffic removed in §3 — the paper
//! explicitly defers this: "a more in-depth study of characteristics that
//! the scanning traffic exposes is a fruitful area for future work."

use super::DatasetTraces;
use crate::records::is_internal;
use crate::report::Table;
use crate::stats::pct;
use ent_flow::{Proto, TcpOutcome};
use std::collections::{HashMap, HashSet};

/// Profile of one scanner source.
#[derive(Debug, Clone)]
pub struct ScannerProfile {
    /// Source address.
    pub source: ent_wire::ipv4::Addr,
    /// The source is inside the enterprise (the site's own scanners).
    pub internal: bool,
    /// Probe connections attributed to this source.
    pub probes: u64,
    /// Distinct targets probed.
    pub targets: u64,
    /// Distinct destination ports touched (0 for pure ICMP sweeps).
    pub ports: u64,
    /// Probe transport mix: (tcp, udp, icmp) fractions (%).
    pub transport_mix: (f64, f64, f64),
    /// Probes that drew any answer (%): services the scan *engaged* — the
    /// paper's caveat that scanners activate otherwise-idle services.
    pub answered_pct: f64,
    /// Median gap between successive probes, milliseconds.
    pub median_gap_ms: Option<f64>,
}

/// The scan study for one dataset.
#[derive(Debug, Clone, Default)]
pub struct ScanStudy {
    /// Per-source profiles, busiest first.
    pub profiles: Vec<ScannerProfile>,
    /// Share of all connections that was scanner traffic (%), the paper's
    /// 4–18% removal band.
    pub removed_conn_pct: f64,
}

/// Characterize the scanning traffic of a dataset.
pub fn scan_study(traces: &DatasetTraces) -> ScanStudy {
    let mut by_src: HashMap<u32, Vec<&crate::records::ConnRecord>> = HashMap::new();
    let (mut removed, mut kept) = (0u64, 0u64);
    for t in traces {
        kept += t.conns.len() as u64;
        removed += t.scanner_conns.len() as u64;
        for c in &t.scanner_conns {
            by_src.entry(c.orig_addr().0).or_default().push(c);
        }
    }
    let mut profiles: Vec<ScannerProfile> = by_src
        .into_iter()
        .map(|(src, conns)| {
            let source = ent_wire::ipv4::Addr(src);
            let targets: HashSet<u32> = conns.iter().map(|c| c.resp_addr().0).collect();
            let ports: HashSet<u16> = conns
                .iter()
                .filter(|c| c.proto() != Proto::Icmp)
                .map(|c| c.summary.key.resp.port)
                .collect();
            let n = conns.len() as u64;
            let count = |p: Proto| conns.iter().filter(|c| c.proto() == p).count() as u64;
            let answered = conns
                .iter()
                .filter(|c| {
                    c.summary.outcome == TcpOutcome::Successful && c.summary.resp.packets > 0
                })
                .count() as u64;
            let mut starts: Vec<u64> = conns.iter().map(|c| c.summary.start.micros()).collect();
            starts.sort_unstable();
            let gaps: Vec<f64> = starts
                .windows(2)
                .map(|w| (w[1] - w[0]) as f64 / 1_000.0)
                .collect();
            let median_gap_ms = crate::stats::Ecdf::new(gaps).median();
            ScannerProfile {
                source,
                internal: is_internal(source),
                probes: n,
                targets: targets.len() as u64,
                ports: ports.len() as u64,
                transport_mix: (
                    pct(count(Proto::Tcp), n),
                    pct(count(Proto::Udp), n),
                    pct(count(Proto::Icmp), n),
                ),
                answered_pct: pct(answered, n),
                median_gap_ms,
            }
        })
        .collect();
    // Busiest first; equal counts by address, so the top-N cut of the
    // table does not depend on the map's iteration order.
    profiles.sort_by_key(|p| (std::cmp::Reverse(p.probes), p.source.0));
    ScanStudy {
        removed_conn_pct: pct(removed, removed + kept),
        profiles,
    }
}

/// Render the scan study (top `max_sources` sources).
pub fn scan_table(studies: &[(&str, ScanStudy)], max_sources: usize) -> Table {
    let mut t = Table::new(
        "Scan study (future-work extension of paper sec. 3)",
        &["dataset/source", "where", "probes", "targets", "ports", "tcp/udp/icmp", "answered", "gap(ms)"],
    );
    for (name, s) in studies {
        t.row(vec![
            format!("{name}: removed {:.1}% of conns", s.removed_conn_pct),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        for p in s.profiles.iter().take(max_sources) {
            t.row(vec![
                format!("  {}", p.source),
                if p.internal { "internal".into() } else { "external".into() },
                p.probes.to_string(),
                p.targets.to_string(),
                p.ports.to_string(),
                format!(
                    "{:.0}/{:.0}/{:.0}%",
                    p.transport_mix.0, p.transport_mix.1, p.transport_mix.2
                ),
                format!("{:.0}%", p.answered_pct),
                p.median_gap_ms
                    .map(|g| format!("{g:.0}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{ConnRecord, TraceAnalysis};
    use ent_flow::{ConnSummary, DirStats, Endpoint, FlowKey, TcpState};
    use ent_proto::Category;
    use ent_wire::{ipv4, Timestamp};

    fn probe(src: ipv4::Addr, dst: ipv4::Addr, port: u16, t_ms: u64, answered: bool) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(src, 40_000),
                    resp: Endpoint::new(dst, port),
                },
                start: Timestamp::from_millis(t_ms),
                end: Timestamp::from_millis(t_ms + 1),
                orig: DirStats {
                    packets: 1,
                    ..Default::default()
                },
                resp: DirStats {
                    packets: u64::from(answered),
                    ..Default::default()
                },
                outcome: if answered {
                    TcpOutcome::Successful
                } else {
                    TcpOutcome::Unanswered
                },
                tcp_state: TcpState::SynSent,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: None,
            category: Category::OtherTcp,
        }
    }

    #[test]
    fn profiles_computed() {
        let scanner = ipv4::Addr::new(10, 100, 9, 10);
        let mut t = TraceAnalysis::default();
        for i in 0..60u8 {
            t.scanner_conns.push(probe(
                scanner,
                ipv4::Addr::new(10, 100, 3, 100 + (i % 100)),
                if i % 2 == 0 { 80 } else { 445 },
                i as u64 * 20,
                i % 10 == 0,
            ));
        }
        t.conns.push(probe(
            ipv4::Addr::new(10, 100, 1, 31),
            ipv4::Addr::new(10, 100, 2, 10),
            80,
            0,
            true,
        ));
        let s = scan_study(&[t]);
        assert_eq!(s.profiles.len(), 1);
        let p = &s.profiles[0];
        assert_eq!(p.probes, 60);
        assert_eq!(p.targets, 60);
        assert_eq!(p.ports, 2);
        assert!(p.internal);
        assert!((p.transport_mix.0 - 100.0).abs() < 1e-9);
        assert!((p.answered_pct - 10.0).abs() < 1e-9);
        assert_eq!(p.median_gap_ms, Some(20.0));
        assert!((s.removed_conn_pct - 60.0 / 61.0 * 100.0).abs() < 1e-6);
        let table = scan_table(&[("D0", s)], 5);
        assert!(table.render().contains("internal"));
    }

    #[test]
    fn equal_probe_counts_order_by_source_address() {
        let sources = [(9, 12), (9, 10), (200, 7), (9, 11)].map(|(c, d)| ipv4::Addr::new(10, 100, c, d));
        let mut t = TraceAnalysis::default();
        for i in 0..30u8 {
            for src in sources {
                let dst = ipv4::Addr::new(10, 100, 3, 100 + i);
                t.scanner_conns.push(probe(src, dst, 80, u64::from(i) * 20, false));
            }
        }
        // Every construction builds a freshly keyed map; the order of
        // equally busy sources must not follow it.
        for _ in 0..20 {
            let order: Vec<_> = scan_study(std::slice::from_ref(&t)).profiles.iter().map(|p| p.source).collect();
            assert_eq!(order, [sources[1], sources[3], sources[0], sources[2]]);
        }
    }

    #[test]
    fn empty_traces() {
        let s = scan_study(&[TraceAnalysis::default()]);
        assert!(s.profiles.is_empty());
        assert_eq!(s.removed_conn_pct, 0.0);
    }
}
