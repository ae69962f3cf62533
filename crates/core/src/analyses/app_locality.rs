//! Per-application locality — the drill-down the paper's §4 defers:
//! "future work on assessing particular applications and examining
//! locality within the enterprise is needed." For each application
//! category: how many distinct peers a client touches, and what share of
//! the category's flows stay inside the enterprise.

use super::DatasetTraces;
use crate::report::Table;
use crate::stats::{pct, Ecdf};
use ent_proto::Category;
use std::collections::{BTreeMap, BTreeSet};

/// Locality profile of one application category.
#[derive(Debug, Clone, Default)]
pub struct CategoryLocality {
    /// Flows staying inside the enterprise (%).
    pub enterprise_pct: f64,
    /// Median distinct servers per client.
    pub median_fanout: Option<f64>,
    /// 99th-percentile fan-out (tail).
    pub p99_fanout: Option<f64>,
    /// Flows observed.
    pub flows: u64,
}

/// Compute per-category locality.
pub fn app_locality(traces: &DatasetTraces) -> Vec<(Category, CategoryLocality)> {
    let mut ent: BTreeMap<Category, u64> = BTreeMap::new();
    let mut total: BTreeMap<Category, u64> = BTreeMap::new();
    let mut fanout: BTreeMap<Category, BTreeMap<u32, BTreeSet<u32>>> = BTreeMap::new();
    for t in traces {
        for c in &t.conns {
            if c.summary.multicast {
                continue;
            }
            *total.entry(c.category).or_default() += 1;
            if c.is_enterprise_only() {
                *ent.entry(c.category).or_default() += 1;
            }
            fanout
                .entry(c.category)
                .or_default()
                .entry(c.orig_addr().0)
                .or_default()
                .insert(c.resp_addr().0);
        }
    }
    Category::ALL
        .iter()
        .map(|&cat| {
            let flows = total.get(&cat).copied().unwrap_or(0);
            let e = Ecdf::new(
                fanout
                    .get(&cat)
                    .map(|m| m.values().map(|s| s.len() as f64).collect())
                    .unwrap_or_default(),
            );
            (
                cat,
                CategoryLocality {
                    enterprise_pct: pct(ent.get(&cat).copied().unwrap_or(0), flows),
                    median_fanout: e.median(),
                    p99_fanout: e.quantile(0.99),
                    flows,
                },
            )
        })
        .collect()
}

/// Render per-category locality across datasets.
pub fn app_locality_table(rows: &[(&str, Vec<(Category, CategoryLocality)>)]) -> Table {
    let mut headers = vec!["category".to_string()];
    for (n, _) in rows {
        headers.push(format!("{n}/ent%"));
        headers.push(format!("{n}/fanout"));
    }
    let mut t = Table::new(
        "Per-application locality (future-work extension of paper sec. 4)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (i, &cat) in Category::ALL.iter().enumerate() {
        let mut row = vec![cat.label().to_string()];
        for (_, locs) in rows {
            let Some(l) = locs.get(i).map(|x| &x.1) else {
                row.push("-".into());
                row.push("-".into());
                continue;
            };
            if l.flows == 0 {
                row.push("-".into());
                row.push("-".into());
            } else {
                row.push(format!("{:.0}%", l.enterprise_pct));
                row.push(
                    l.median_fanout
                        .map(|m| format!("{m:.0}"))
                        .unwrap_or_else(|| "-".into()),
                );
            }
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{ConnRecord, TraceAnalysis};
    use ent_flow::{ConnSummary, DirStats, Endpoint, FlowKey, Proto, TcpOutcome, TcpState};
    use ent_proto::AppProtocol;
    use ent_wire::{ipv4, Timestamp};

    fn conn(cat: Category, client_n: u8, server: ipv4::Addr) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(ipv4::Addr::new(10, 100, 1, client_n), 40_000),
                    resp: Endpoint::new(server, 80),
                },
                start: Timestamp::ZERO,
                end: Timestamp::ZERO,
                orig: DirStats {
                    packets: 1,
                    ..Default::default()
                },
                resp: DirStats {
                    packets: 1,
                    ..Default::default()
                },
                outcome: TcpOutcome::Successful,
                tcp_state: TcpState::Closed,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: Some(AppProtocol::Http),
            category: cat,
        }
    }

    #[test]
    fn locality_profile_per_category() {
        let mut t = TraceAnalysis::default();
        // Web: one client, 4 external servers + 1 internal.
        for i in 0..4u8 {
            t.conns.push(conn(Category::Web, 30, ipv4::Addr::new(64, 0, 0, 1 + i)));
        }
        t.conns.push(conn(Category::Web, 30, ipv4::Addr::new(10, 100, 6, 10)));
        // Name: three clients each to the one internal DNS server.
        for i in 0..3u8 {
            t.conns.push(conn(Category::Name, 40 + i, ipv4::Addr::new(10, 100, 24, 10)));
        }
        let locs = app_locality(&[t]);
        let web = &locs.iter().find(|(c, _)| *c == Category::Web).unwrap().1;
        assert_eq!(web.flows, 5);
        assert!((web.enterprise_pct - 20.0).abs() < 1e-9);
        assert_eq!(web.median_fanout, Some(5.0));
        let name = &locs.iter().find(|(c, _)| *c == Category::Name).unwrap().1;
        assert_eq!(name.enterprise_pct, 100.0);
        assert_eq!(name.median_fanout, Some(1.0));
        let table = app_locality_table(&[("D0", locs)]);
        let out = table.render();
        assert!(out.contains("net-file"));
        assert!(out.contains("100%"));
    }
}
