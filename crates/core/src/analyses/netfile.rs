//! §5.2.2 network-file-system analyses: sizes (Table 12), request
//! breakdowns (Tables 13–14), requests per host-pair (Figure 7),
//! request/reply sizes (Figure 8), plus keep-alive, transport-mix and
//! heavy-hitter findings.

use super::DatasetTraces;
use crate::records::TraceAnalysis;
use crate::report::{fmt_bytes, Figure, Table};
use crate::stats::{pct, Ecdf};
use ent_proto::nfs::NfsOp;
use ent_proto::ncp::NcpOp;
use ent_proto::AppProtocol;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Table 12: NFS/NCP connections and bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetFileSizes {
    /// NFS flows ("connections" including UDP flows, as the paper).
    pub nfs_conns: u64,
    /// NFS payload bytes.
    pub nfs_bytes: u64,
    /// NCP connections.
    pub ncp_conns: u64,
    /// NCP payload bytes.
    pub ncp_bytes: u64,
}

/// Compute Table 12.
pub fn netfile_sizes(traces: &DatasetTraces) -> NetFileSizes {
    let mut s = NetFileSizes::default();
    for t in traces {
        for c in &t.conns {
            match c.app {
                Some(AppProtocol::Nfs) => {
                    s.nfs_conns += 1;
                    s.nfs_bytes += c.payload_bytes();
                }
                Some(AppProtocol::Ncp) => {
                    s.ncp_conns += 1;
                    s.ncp_bytes += c.payload_bytes();
                }
                _ => {}
            }
        }
    }
    s
}

/// Render Table 12.
pub fn table12(rows: &[(&str, NetFileSizes)]) -> Table {
    let mut headers = vec!["".to_string()];
    for (n, _) in rows {
        headers.push(format!("{n}/conns"));
        headers.push(format!("{n}/bytes"));
    }
    let mut t = Table::new(
        "Table 12: NFS/NCP size",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    type Get = fn(&NetFileSizes) -> u64;
    let rows_spec: [(&str, Get, Get); 2] = [
        ("NFS", |s| s.nfs_conns, |s| s.nfs_bytes),
        ("NCP", |s| s.ncp_conns, |s| s.ncp_bytes),
    ];
    for (label, conns, bytes) in rows_spec {
        let mut row = vec![label.to_string()];
        for (_, s) in rows {
            row.push(conns(s).to_string());
            row.push(fmt_bytes(bytes(s)));
        }
        t.row(row);
    }
    t
}

/// A request-type breakdown: (label, request %, data %).
pub type OpBreakdown = Vec<(String, f64, f64)>;

/// Break `(op, request+reply bytes)` calls down by request type, one row
/// per entry of `all` in its order: total requests, total bytes, rows.
fn op_breakdown<Op: Copy + Eq + Hash>(
    all: &[Op],
    label: fn(Op) -> &'static str,
    calls: impl Iterator<Item = (Op, u64)>,
) -> (u64, u64, OpBreakdown) {
    let mut per_op: HashMap<Op, (u64, u64)> = HashMap::new();
    let (mut tr, mut tb) = (0u64, 0u64);
    for (op, b) in calls {
        let (req, bytes) = per_op.entry(op).or_default();
        *req += 1;
        *bytes += b;
        tr += 1;
        tb += b;
    }
    let rows = all
        .iter()
        .map(|&o| {
            let (req, bytes) = per_op.get(&o).copied().unwrap_or_default();
            (label(o).to_string(), pct(req, tr), pct(bytes, tb))
        })
        .collect();
    (tr, tb, rows)
}

/// Table 13: NFS request breakdown. "Data" counts request+reply bytes.
pub fn nfs_breakdown<T: Borrow<TraceAnalysis>>(traces: &[T]) -> (u64, u64, OpBreakdown) {
    let calls = traces.iter().flat_map(|t| &t.borrow().nfs);
    op_breakdown(
        NfsOp::ALL,
        NfsOp::label,
        calls.map(|r| (r.op, (r.request_bytes + r.reply_bytes) as u64)),
    )
}

/// Table 14: NCP request breakdown.
pub fn ncp_breakdown(traces: &DatasetTraces) -> (u64, u64, OpBreakdown) {
    let calls = traces.iter().flat_map(|t| &t.ncp);
    op_breakdown(
        NcpOp::ALL,
        NcpOp::label,
        calls.map(|r| (r.op, (r.request_bytes + r.reply_bytes) as u64)),
    )
}

/// Render Tables 13/14 (same layout).
pub fn op_table(title: &str, rows: &[(&str, (u64, u64, OpBreakdown))]) -> Table {
    let mut headers = vec!["".to_string()];
    for (n, _) in rows {
        headers.push(format!("{n}/req"));
        headers.push(format!("{n}/data"));
    }
    let mut t = Table::new(title, &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let mut total = vec!["Total".to_string()];
    for (_, (tr, tb, _)) in rows {
        total.push(tr.to_string());
        total.push(fmt_bytes(*tb));
    }
    t.row(total);
    let n_ops = rows.first().map(|(_, (_, _, b))| b.len()).unwrap_or(0);
    for i in 0..n_ops {
        let label = rows
            .first()
            .and_then(|(_, (_, _, b))| b.get(i))
            .map(|op| op.0.clone())
            .unwrap_or_default();
        let mut row = vec![label];
        for (_, (_, _, b)) in rows {
            let Some(op) = b.get(i) else {
                continue;
            };
            row.push(format!("{:.0}%", op.1));
            row.push(format!("{:.0}%", op.2));
        }
        t.row(row);
    }
    t
}

/// Figure 7: requests per host-pair; Figure 8: request/reply sizes.
#[derive(Debug, Clone, Default)]
pub struct NetFileDistributions {
    /// NFS requests per host-pair.
    pub nfs_reqs_per_pair: Ecdf,
    /// NCP requests per host-pair.
    pub ncp_reqs_per_pair: Ecdf,
    /// NFS request sizes.
    pub nfs_req_sizes: Ecdf,
    /// NFS reply sizes.
    pub nfs_reply_sizes: Ecdf,
    /// NCP request sizes.
    pub ncp_req_sizes: Ecdf,
    /// NCP reply sizes.
    pub ncp_reply_sizes: Ecdf,
}

/// Compute Figures 7–8.
pub fn netfile_distributions(traces: &DatasetTraces) -> NetFileDistributions {
    let mut nfs_pairs: HashMap<(u32, u32), u64> = HashMap::new();
    let mut ncp_pairs: HashMap<(u32, u32), u64> = HashMap::new();
    let (mut nfs_req, mut nfs_rep, mut ncp_req, mut ncp_rep) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for t in traces {
        for r in &t.nfs {
            *nfs_pairs.entry((r.pair.0 .0, r.pair.1 .0)).or_default() += 1;
            nfs_req.push(r.request_bytes as f64);
            if r.reply_bytes > 0 {
                nfs_rep.push(r.reply_bytes as f64);
            }
        }
        for r in &t.ncp {
            *ncp_pairs.entry((r.pair.0 .0, r.pair.1 .0)).or_default() += 1;
            ncp_req.push(r.request_bytes as f64);
            if r.reply_bytes > 0 {
                ncp_rep.push(r.reply_bytes as f64);
            }
        }
    }
    NetFileDistributions {
        nfs_reqs_per_pair: Ecdf::new(nfs_pairs.values().map(|&v| v as f64).collect()),
        ncp_reqs_per_pair: Ecdf::new(ncp_pairs.values().map(|&v| v as f64).collect()),
        nfs_req_sizes: Ecdf::new(nfs_req),
        nfs_reply_sizes: Ecdf::new(nfs_rep),
        ncp_req_sizes: Ecdf::new(ncp_req),
        ncp_reply_sizes: Ecdf::new(ncp_rep),
    }
}

/// Render Figures 7 and 8.
pub fn figures78(rows: &[(&str, NetFileDistributions)]) -> (Figure, Figure) {
    let mut f7 = Figure::new("Figure 7: requests per host-pair", "requests");
    let mut f8 = Figure::new("Figure 8: request/reply sizes", "bytes");
    for (name, d) in rows {
        f7.series(format!("nfs:{name}"), d.nfs_reqs_per_pair.clone());
        f7.series(format!("ncp:{name}"), d.ncp_reqs_per_pair.clone());
        f8.series(format!("nfs-req:{name}"), d.nfs_req_sizes.clone());
        f8.series(format!("nfs-rep:{name}"), d.nfs_reply_sizes.clone());
        f8.series(format!("ncp-req:{name}"), d.ncp_req_sizes.clone());
        f8.series(format!("ncp-rep:{name}"), d.ncp_reply_sizes.clone());
    }
    (f7, f8)
}

/// §5.2.2 text findings.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetFileFindings {
    /// Keep-alive-only share of NCP connections (%) — paper: 40–80%.
    pub ncp_keepalive_only_pct: f64,
    /// UDP share of NFS payload bytes (%).
    pub nfs_udp_bytes_pct: f64,
    /// Share of NFS host-pairs using UDP (%).
    pub nfs_udp_pairs_pct: f64,
    /// Top-3 host-pairs' share of NFS bytes (%) — paper: 89–94%.
    pub nfs_top3_bytes_pct: f64,
    /// Top-3 host-pairs' share of NCP bytes (%) — paper: 35–62%.
    pub ncp_top3_bytes_pct: f64,
    /// NFS request success (%).
    pub nfs_request_success_pct: f64,
    /// NCP request success (%).
    pub ncp_request_success_pct: f64,
    /// NCP connection success (%).
    pub ncp_conn_success_pct: f64,
}

/// Compute the §5.2.2 findings.
pub fn netfile_findings<T: Borrow<TraceAnalysis>>(traces: &[T]) -> NetFileFindings {
    let (mut ncp_ka, mut ncp_conns, mut ncp_ok_conns, mut ncp_tcp_conns) = (0u64, 0u64, 0u64, 0u64);
    let (mut nfs_udp_b, mut nfs_b) = (0u64, 0u64);
    let mut nfs_pair_bytes: HashMap<(u32, u32), u64> = HashMap::new();
    let mut ncp_pair_bytes: HashMap<(u32, u32), u64> = HashMap::new();
    let mut nfs_pair_udp: HashMap<(u32, u32), bool> = HashMap::new();
    let (mut nfs_ok, mut nfs_tot, mut ncp_rok, mut ncp_rtot) = (0u64, 0u64, 0u64, 0u64);
    for t in traces.iter().map(Borrow::borrow) {
        for c in &t.conns {
            match c.app {
                Some(AppProtocol::Ncp) => {
                    if c.summary.tcp_state != ent_flow::TcpState::RejectedState {
                        ncp_conns += 1;
                        ncp_ka += u64::from(c.summary.keepalive_only());
                    }
                    ncp_tcp_conns += 1;
                    ncp_ok_conns += u64::from(c.successful());
                    let hp = c.summary.key.host_pair();
                    *ncp_pair_bytes.entry((hp.0 .0, hp.1 .0)).or_default() +=
                        c.payload_bytes();
                }
                Some(AppProtocol::Nfs) => {
                    let b = c.payload_bytes();
                    nfs_b += b;
                    let hp = c.summary.key.host_pair();
                    *nfs_pair_bytes.entry((hp.0 .0, hp.1 .0)).or_default() += b;
                    if c.proto() == ent_flow::Proto::Udp {
                        nfs_udp_b += b;
                        nfs_pair_udp.insert((hp.0 .0, hp.1 .0), true);
                    } else {
                        nfs_pair_udp.entry((hp.0 .0, hp.1 .0)).or_insert(false);
                    }
                }
                _ => {}
            }
        }
        for r in &t.nfs {
            nfs_tot += 1;
            nfs_ok += u64::from(r.ok);
        }
        for r in &t.ncp {
            ncp_rtot += 1;
            ncp_rok += u64::from(r.ok);
        }
    }
    let top3 = |m: &HashMap<(u32, u32), u64>| {
        let total: u64 = m.values().sum();
        let mut v: Vec<u64> = m.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        pct(v.iter().take(3).sum::<u64>(), total)
    };
    NetFileFindings {
        ncp_keepalive_only_pct: pct(ncp_ka, ncp_conns),
        nfs_udp_bytes_pct: pct(nfs_udp_b, nfs_b),
        nfs_udp_pairs_pct: pct(
            nfs_pair_udp.values().filter(|&&u| u).count() as u64,
            nfs_pair_udp.len() as u64,
        ),
        nfs_top3_bytes_pct: top3(&nfs_pair_bytes),
        ncp_top3_bytes_pct: top3(&ncp_pair_bytes),
        nfs_request_success_pct: pct(nfs_ok, nfs_tot),
        ncp_request_success_pct: pct(ncp_rok, ncp_rtot),
        ncp_conn_success_pct: pct(ncp_ok_conns, ncp_tcp_conns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{NcpRecord, NfsRecord, TraceAnalysis};
    use ent_wire::ipv4;

    fn pair(a: u8) -> (ipv4::Addr, ipv4::Addr) {
        (ipv4::Addr::new(10, 100, 1, a), ipv4::Addr::new(10, 100, 3, 10))
    }

    #[test]
    fn breakdowns_and_distributions() {
        let mut t = TraceAnalysis::default();
        for i in 0..70 {
            t.nfs.push(NfsRecord {
                op: NfsOp::Read,
                request_bytes: 100,
                reply_bytes: 8_192,
                ok: true,
                pair: pair(1),
                udp: true,
            });
            let _ = i;
        }
        for _ in 0..30 {
            t.nfs.push(NfsRecord {
                op: NfsOp::GetAttr,
                request_bytes: 100,
                reply_bytes: 120,
                ok: true,
                pair: pair(2),
                udp: true,
            });
        }
        let (tr, _tb, rows) = nfs_breakdown(&[t.clone_nfs()]);
        assert_eq!(tr, 100);
        let read = rows.iter().find(|r| r.0 == "Read").unwrap();
        assert_eq!(read.1, 70.0);
        assert!(read.2 > 95.0, "read bytes dominate");
        let d = netfile_distributions(&[t]);
        assert_eq!(d.nfs_reqs_per_pair.n(), 2);
        assert_eq!(d.nfs_reqs_per_pair.quantile(1.0), Some(70.0));
        // Dual-mode sizes visible: p25 small, p90 8KB-ish.
        assert!(d.nfs_reply_sizes.quantile(0.9).unwrap() > 8_000.0);
        assert!(d.nfs_req_sizes.quantile(0.5).unwrap() < 200.0);
        let (f7, f8) = figures78(&[("D0", d)]);
        assert!(f7.render().contains("Figure 7"));
        assert!(f7.render().contains("nfs:D0"));
        assert!(f8.render().contains("Figure 8"));
        assert!(f8.render().contains("ncp-rep:D0"));
    }

    #[test]
    fn ncp_breakdown_table() {
        let mut t = TraceAnalysis::default();
        for op in [NcpOp::Read, NcpOp::Read, NcpOp::FileDirInfo, NcpOp::Write] {
            t.ncp.push(NcpRecord {
                op,
                request_bytes: 14,
                reply_bytes: 260,
                ok: op != NcpOp::FileDirInfo,
                pair: pair(1),
            });
        }
        let (tr, _, rows) = ncp_breakdown(&[t.clone_ncp()]);
        assert_eq!(tr, 4);
        assert_eq!(rows.iter().find(|r| r.0 == "Read").unwrap().1, 50.0);
        let f = netfile_findings(&[t]);
        assert_eq!(f.ncp_request_success_pct, 75.0);
        let table = op_table("Table 14: NCP requests", &[("D0", (tr, 0, rows))]);
        assert!(table.render().contains("Directory Service"));
    }

    impl TraceAnalysis {
        fn clone_nfs(&self) -> TraceAnalysis {
            TraceAnalysis {
                nfs: self.nfs.clone(),
                ..Default::default()
            }
        }
        fn clone_ncp(&self) -> TraceAnalysis {
            TraceAnalysis {
                ncp: self.ncp.clone(),
                ..Default::default()
            }
        }
    }
}
