//! §5.1.3 name-service analyses: DNS latency/types/return codes and
//! NetBIOS-NS request types, name types and failure rates.

use super::DatasetTraces;
use crate::report::Table;
use crate::stats::{pct, Ecdf};
use ent_proto::dns::{QType, RCode};
use ent_proto::netbios::NsOpcode;
use std::collections::BTreeMap;

/// DNS characteristics for one dataset.
#[derive(Debug, Clone, Default)]
pub struct DnsCharacteristics {
    /// Median query latency to internal servers, milliseconds.
    pub latency_ent_ms: Option<f64>,
    /// Median query latency to external servers, milliseconds.
    pub latency_wan_ms: Option<f64>,
    /// Request-type shares (%): A, AAAA, PTR, MX, other.
    pub qtype_pct: [f64; 5],
    /// NOERROR share of answered queries (%).
    pub noerror_pct: f64,
    /// NXDOMAIN share (%).
    pub nxdomain_pct: f64,
    /// Share of requests issued by the top two clients (%): the paper
    /// finds the two main SMTP servers lead.
    pub top2_client_pct: f64,
    /// Total transactions.
    pub total: u64,
}

/// DNS query latency CDFs (internal vs external servers), the
/// distribution behind the paper's §5.1.3 median-latency claim.
pub fn dns_latency_figure(rows: &[(&str, &DatasetTraces)]) -> crate::report::Figure {
    let mut f = crate::report::Figure::new("DNS query latency (sec. 5.1.3)", "milliseconds");
    for (name, traces) in rows {
        let (mut ent, mut wan) = (Vec::new(), Vec::new());
        for t in traces.iter() {
            for d in &t.dns {
                if let Some(us) = d.latency_us {
                    let ms = us as f64 / 1_000.0;
                    if d.server_internal {
                        ent.push(ms);
                    } else {
                        wan.push(ms);
                    }
                }
            }
        }
        f.series(format!("ent:{name}"), Ecdf::new(ent));
        f.series(format!("wan:{name}"), Ecdf::new(wan));
    }
    f
}

/// Compute DNS characteristics.
pub fn dns_characteristics(traces: &DatasetTraces) -> DnsCharacteristics {
    let mut lat_ent = Vec::new();
    let mut lat_wan = Vec::new();
    let mut qtypes = [0u64; 5];
    let (mut noerr, mut nx, mut answered) = (0u64, 0u64, 0u64);
    let mut per_client: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total = 0u64;
    for t in traces {
        for d in &t.dns {
            total += 1;
            *per_client.entry(d.client.0).or_default() += 1;
            let qi = match d.qtype {
                QType::A => 0,
                QType::Aaaa => 1,
                QType::Ptr => 2,
                QType::Mx => 3,
                _ => 4,
            };
            if let Some(q) = qtypes.get_mut(qi) {
                *q += 1;
            }
            if let Some(rc) = d.rcode {
                answered += 1;
                match rc {
                    RCode::NoError => noerr += 1,
                    RCode::NxDomain => nx += 1,
                    _ => {}
                }
            }
            if let Some(us) = d.latency_us {
                let ms = us as f64 / 1_000.0;
                if d.server_internal {
                    lat_ent.push(ms);
                } else {
                    lat_wan.push(ms);
                }
            }
        }
    }
    let mut counts: Vec<u64> = per_client.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top2: u64 = counts.iter().take(2).sum();
    DnsCharacteristics {
        latency_ent_ms: Ecdf::new(lat_ent).median(),
        latency_wan_ms: Ecdf::new(lat_wan).median(),
        qtype_pct: qtypes.map(|c| pct(c, total)),
        noerror_pct: pct(noerr, answered),
        nxdomain_pct: pct(nx, answered),
        top2_client_pct: pct(top2, total),
        total,
    }
}

/// NetBIOS-NS characteristics for one dataset.
#[derive(Debug, Clone, Default)]
pub struct NbnsCharacteristics {
    /// Query share of requests (%) — paper: 81–85%.
    pub query_pct: f64,
    /// Refresh share (%) — paper: 12–15%.
    pub refresh_pct: f64,
    /// Other opcodes (%).
    pub other_pct: f64,
    /// Workstation/server name-type share of queries (%) — 63–71%.
    pub host_name_pct: f64,
    /// Domain/browser name-type share (%) — 22–32%.
    pub domain_browser_pct: f64,
    /// Share of *distinct* query names that yield a name error (%) —
    /// the paper's 36–50% staleness observation.
    pub distinct_query_failure_pct: f64,
    /// Top-10 client share of requests (%) — paper: < 40%.
    pub top10_client_pct: f64,
    /// Total requests.
    pub total: u64,
}

/// Compute NBNS characteristics.
pub fn nbns_characteristics(traces: &DatasetTraces) -> NbnsCharacteristics {
    let (mut query, mut refresh, mut other) = (0u64, 0u64, 0u64);
    let (mut host_t, mut dom_t, mut typed) = (0u64, 0u64, 0u64);
    let mut per_name_fail: BTreeMap<String, (bool, bool)> = BTreeMap::new(); // (ok seen, fail seen)
    let mut per_client: BTreeMap<u32, u64> = BTreeMap::new();
    let mut total = 0u64;
    for t in traces {
        for n in &t.nbns {
            total += 1;
            *per_client.entry(n.client.0).or_default() += 1;
            match n.opcode {
                NsOpcode::Query => {
                    query += 1;
                    typed += 1;
                    if n.name_type.is_host() {
                        host_t += 1;
                    } else if n.name_type.is_domain_browser() {
                        dom_t += 1;
                    }
                    let e = per_name_fail.entry(n.name.clone()).or_default();
                    match n.rcode {
                        Some(0) => e.0 = true,
                        Some(3) => e.1 = true,
                        _ => {}
                    }
                }
                NsOpcode::Refresh => refresh += 1,
                _ => other += 1,
            }
        }
    }
    let answered_names = per_name_fail.values().filter(|(ok, fail)| *ok || *fail).count() as u64;
    let failed_names = per_name_fail
        .values()
        .filter(|(ok, fail)| *fail && !*ok)
        .count() as u64;
    let mut counts: Vec<u64> = per_client.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top10: u64 = counts.iter().take(10).sum();
    NbnsCharacteristics {
        query_pct: pct(query, total),
        refresh_pct: pct(refresh, total),
        other_pct: pct(other, total),
        host_name_pct: pct(host_t, typed),
        domain_browser_pct: pct(dom_t, typed),
        distinct_query_failure_pct: pct(failed_names, answered_names),
        top10_client_pct: pct(top10, total),
        total,
    }
}

/// Render the §5.1.3 characteristics across datasets.
pub fn name_services_table(rows: &[(&str, DnsCharacteristics, NbnsCharacteristics)]) -> Table {
    let headers: Vec<&str> = std::iter::once("").chain(rows.iter().map(|(n, _, _)| *n)).collect();
    let mut t = Table::new("Name services (paper sec. 5.1.3)", &headers);
    let f = |v: Option<f64>| v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into());
    macro_rules! push {
        ($label:expr, $get:expr) => {{
            let mut row = vec![$label.to_string()];
            #[allow(clippy::redundant_closure_call)]
            {
                row.extend(rows.iter().map($get));
            }
            t.row(row);
        }};
    }
    push!("DNS med lat ent (ms)", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| f(r.1.latency_ent_ms));
    push!("DNS med lat wan (ms)", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| f(r.1.latency_wan_ms));
    push!("DNS A%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.1.qtype_pct[0]));
    push!("DNS AAAA%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.1.qtype_pct[1]));
    push!("DNS PTR%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.1.qtype_pct[2]));
    push!("DNS MX%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.1.qtype_pct[3]));
    push!("DNS NOERROR%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.1.noerror_pct));
    push!("DNS NXDOMAIN%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.1.nxdomain_pct));
    push!("NBNS query%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.2.query_pct));
    push!("NBNS refresh%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.2.refresh_pct));
    push!("NBNS host-name%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.2.host_name_pct));
    push!("NBNS dom/browser%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.2.domain_browser_pct));
    push!("NBNS name-fail%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.2.distinct_query_failure_pct));
    push!("NBNS top10-client%", |r: &(&str, DnsCharacteristics, NbnsCharacteristics)| format!("{:.0}%", r.2.top10_client_pct));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{DnsRecord, NbnsRecord, TraceAnalysis};
    use ent_proto::netbios::NameType;
    use ent_wire::ipv4;

    #[test]
    fn dns_latency_and_types() {
        let mut t = TraceAnalysis::default();
        for i in 0..10 {
            t.dns.push(DnsRecord {
                qtype: if i < 6 { QType::A } else { QType::Aaaa },
                rcode: Some(if i == 0 { RCode::NxDomain } else { RCode::NoError }),
                latency_us: Some(if i % 2 == 0 { 400 } else { 20_000 }),
                client: ipv4::Addr::new(10, 100, 0, 10),
                server: if i % 2 == 0 {
                    ipv4::Addr::new(10, 100, 24, 10)
                } else {
                    ipv4::Addr::new(64, 0, 0, 1)
                },
                server_internal: i % 2 == 0,
            });
        }
        let d = dns_characteristics(&[t]);
        assert_eq!(d.total, 10);
        assert_eq!(d.latency_ent_ms, Some(0.4));
        assert_eq!(d.latency_wan_ms, Some(20.0));
        assert_eq!(d.qtype_pct[0], 60.0);
        assert_eq!(d.qtype_pct[1], 40.0);
        assert_eq!(d.nxdomain_pct, 10.0);
        assert_eq!(d.top2_client_pct, 100.0);
    }

    #[test]
    fn nbns_staleness_by_distinct_name() {
        let mut t = TraceAnalysis::default();
        // "GOOD" queried 3 times, succeeds; "STALE" twice, fails.
        for _ in 0..3 {
            t.nbns.push(NbnsRecord {
                opcode: NsOpcode::Query,
                name: "GOOD".into(),
                name_type: NameType::Workstation,
                rcode: Some(0),
                client: ipv4::Addr::new(10, 100, 1, 30),
            });
        }
        for _ in 0..2 {
            t.nbns.push(NbnsRecord {
                opcode: NsOpcode::Query,
                name: "STALE".into(),
                name_type: NameType::Server,
                rcode: Some(3),
                client: ipv4::Addr::new(10, 100, 1, 31),
            });
        }
        t.nbns.push(NbnsRecord {
            opcode: NsOpcode::Refresh,
            name: "GOOD".into(),
            name_type: NameType::Workstation,
            rcode: Some(0),
            client: ipv4::Addr::new(10, 100, 1, 30),
        });
        let n = nbns_characteristics(&[t]);
        assert!((n.query_pct - 5.0 / 6.0 * 100.0).abs() < 1e-6);
        assert!((n.refresh_pct - 1.0 / 6.0 * 100.0).abs() < 1e-6);
        // 1 of 2 distinct names consistently fails.
        assert_eq!(n.distinct_query_failure_pct, 50.0);
        assert_eq!(n.host_name_pct, 100.0);
        let table = name_services_table(&[("D0", dns_characteristics(&[]), n)]);
        assert!(table.render().contains("NBNS name-fail%"));
    }
}
