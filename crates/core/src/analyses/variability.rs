//! Traffic-profile variability across traces — the paper notes "the plot
//! highlights the differences in traffic profile across time and area of
//! the network monitored … clearly a fruitful area for future work"
//! (§3). This module quantifies that variability: for each application
//! category, the spread of its per-trace byte share.

use super::DatasetTraces;
use crate::report::Table;
use crate::stats::{pct, Ecdf};
use ent_proto::Category;

/// Variability of one category's byte share across a dataset's traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct CategoryVariability {
    /// Mean per-trace byte share (%).
    pub mean_pct: f64,
    /// Minimum per-trace share (%).
    pub min_pct: f64,
    /// Maximum per-trace share (%).
    pub max_pct: f64,
    /// Coefficient of variation (stddev / mean) of the share, the
    /// stability metric (net-mgnt/misc should be low; backup high).
    pub cv: f64,
}

/// Compute per-category share variability across traces.
pub fn variability(traces: &DatasetTraces) -> Vec<(Category, CategoryVariability)> {
    // Per trace, per category byte shares.
    let mut shares: std::collections::BTreeMap<Category, Vec<f64>> = Default::default();
    for t in traces {
        let mut by_cat: std::collections::BTreeMap<Category, u64> = Default::default();
        let mut total = 0u64;
        for c in &t.conns {
            let b = c.payload_bytes();
            *by_cat.entry(c.category).or_default() += b;
            total += b;
        }
        if total == 0 {
            continue;
        }
        for &cat in Category::ALL.iter() {
            shares
                .entry(cat)
                .or_default()
                .push(pct(by_cat.get(&cat).copied().unwrap_or(0), total));
        }
    }
    Category::ALL
        .iter()
        .map(|&cat| {
            let vals = shares.get(&cat).cloned().unwrap_or_default();
            let e = Ecdf::new(vals.clone());
            let mean = e.mean().unwrap_or(0.0);
            let var = if vals.len() > 1 {
                vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (vals.len() - 1) as f64
            } else {
                0.0
            };
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            (
                cat,
                CategoryVariability {
                    mean_pct: mean,
                    min_pct: e.quantile(0.0).unwrap_or(0.0),
                    max_pct: e.quantile(1.0).unwrap_or(0.0),
                    cv,
                },
            )
        })
        .collect()
}

/// Render the variability table across datasets.
pub fn variability_table(rows: &[(&str, Vec<(Category, CategoryVariability)>)]) -> Table {
    let mut headers = vec!["category".to_string()];
    for (n, _) in rows {
        headers.push(format!("{n}/mean%"));
        headers.push(format!("{n}/cv"));
    }
    let mut t = Table::new(
        "Per-trace byte-share variability (future-work extension of paper sec. 3)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for (i, &cat) in Category::ALL.iter().enumerate() {
        let mut row = vec![cat.label().to_string()];
        for (_, v) in rows {
            let Some(cv) = v.get(i).map(|x| x.1) else {
                continue;
            };
            row.push(format!("{:.1}", cv.mean_pct));
            row.push(format!("{:.1}", cv.cv));
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
    use ent_wire::{ipv4, Timestamp};

    fn conn(cat: Category, bytes: u64) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(ipv4::Addr::new(10, 100, 1, 30), 40_000),
                    resp: Endpoint::new(ipv4::Addr::new(10, 100, 2, 10), 80),
                },
                start: Timestamp::ZERO,
                end: Timestamp::ZERO,
                orig: DirStats {
                    packets: 1,
                    payload_bytes: bytes,
                    ..Default::default()
                },
                resp: DirStats::default(),
                outcome: TcpOutcome::Successful,
                tcp_state: TcpState::Closed,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: None,
            category: cat,
        }
    }

    #[test]
    fn stable_category_has_low_cv() {
        // net-mgnt steady at 10% in each trace; backup swings 0..50%.
        let mut traces = Vec::new();
        for i in 0..6u64 {
            let mut t = TraceAnalysis::default();
            t.conns.push(conn(Category::NetMgnt, 100));
            t.conns.push(conn(Category::Backup, i * 200));
            t.conns.push(conn(Category::Web, 900 - i * 100));
            traces.push(t);
        }
        let v = variability(&traces);
        let get = |c: Category| v.iter().find(|(k, _)| *k == c).unwrap().1;
        assert!(get(Category::Backup).cv > get(Category::NetMgnt).cv);
        assert!(get(Category::Backup).max_pct > get(Category::Backup).min_pct);
        let table = variability_table(&[("D1", v)]);
        assert!(table.render().contains("net-mgnt"));
    }

    #[test]
    fn empty_dataset_safe() {
        let v = variability(&[]);
        assert_eq!(v.len(), Category::ALL.len());
        assert!(v.iter().all(|(_, c)| c.mean_pct == 0.0));
    }
}
