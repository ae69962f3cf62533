//! §5.2.1 Windows-service analyses: connection success by service
//! (Table 9), CIFS command breakdown (Table 10) and DCE/RPC function
//! breakdown (Table 11).

use super::DatasetTraces;
use crate::records::{is_internal, TraceAnalysis};
use crate::report::{fmt_bytes, Table};
use crate::stats::pct;
use ent_flow::Proto;
use ent_proto::cifs::CifsClass;
use ent_proto::dcerpc::RpcFunction;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Table 9: per-service host-pair connection outcomes (internal only).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceSuccess {
    /// Distinct host-pairs.
    pub pairs: u64,
    /// Pairs with at least one successful connection (%).
    pub successful_pct: f64,
    /// Pairs whose connections were all rejected (%).
    pub rejected_pct: f64,
    /// Pairs whose connections all went unanswered (%).
    pub unanswered_pct: f64,
}

/// Compute Table 9 for ports 139 (NetBIOS-SSN), 445 (CIFS), 135 (EPM).
pub fn windows_success(traces: &DatasetTraces) -> [(u16, ServiceSuccess); 3] {
    [139u16, 445, 135].map(|port| {
        #[derive(Default)]
        struct PairState {
            ok: bool,
            rejected: bool,
            unanswered: bool,
        }
        let mut pairs: BTreeMap<(u32, u32), PairState> = BTreeMap::new();
        for t in traces {
            for c in &t.conns {
                if c.summary.key.proto != Proto::Tcp
                    || c.summary.key.resp.port != port
                    || !is_internal(c.orig_addr())
                    || !is_internal(c.resp_addr())
                {
                    continue;
                }
                let hp = c.summary.key.host_pair();
                let e = pairs.entry((hp.0 .0, hp.1 .0)).or_default();
                match c.summary.outcome {
                    ent_flow::TcpOutcome::Successful => e.ok = true,
                    ent_flow::TcpOutcome::Rejected => e.rejected = true,
                    ent_flow::TcpOutcome::Unanswered => e.unanswered = true,
                    _ => {}
                }
            }
        }
        let total = pairs.len() as u64;
        let ok = pairs.values().filter(|p| p.ok).count() as u64;
        let rej = pairs.values().filter(|p| !p.ok && p.rejected).count() as u64;
        let un = pairs
            .values()
            .filter(|p| !p.ok && !p.rejected && p.unanswered)
            .count() as u64;
        (
            port,
            ServiceSuccess {
                pairs: total,
                successful_pct: pct(ok, total),
                rejected_pct: pct(rej, total),
                unanswered_pct: pct(un, total),
            },
        )
    })
}

/// NetBIOS-SSN application-handshake success rate (%), by host pair.
pub fn ssn_handshake_success(traces: &DatasetTraces) -> f64 {
    let (mut ok, mut total) = (0u64, 0u64);
    for t in traces {
        for c in &t.cifs {
            if c.ssn_requested {
                total += 1;
                ok += u64::from(c.ssn_positive);
            }
        }
    }
    pct(ok, total)
}

/// Render Table 9 across datasets.
pub fn table9(rows: &[(&str, [(u16, ServiceSuccess); 3])]) -> Table {
    let mut headers = vec!["".to_string()];
    for (n, _) in rows {
        headers.push(format!("{n}/NBSSN"));
        headers.push(format!("{n}/CIFS"));
        headers.push(format!("{n}/EPM"));
    }
    let mut t = Table::new(
        "Table 9: Windows connection success (by internal host-pairs)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let fields: [(&str, fn(&ServiceSuccess) -> String); 4] = [
        ("Total pairs", |s| s.pairs.to_string()),
        ("Successful", |s| format!("{:.0}%", s.successful_pct)),
        ("Rejected", |s| format!("{:.0}%", s.rejected_pct)),
        ("Unanswered", |s| format!("{:.0}%", s.unanswered_pct)),
    ];
    for (label, f) in fields {
        let mut row = vec![label.to_string()];
        for (_, svc) in rows {
            for (_, s) in svc {
                row.push(f(s));
            }
        }
        t.row(row);
    }
    t
}

/// Table 10: CIFS command-class breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CifsBreakdown {
    /// Total request messages.
    pub requests: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Per class: (requests %, bytes %).
    pub per_class: Vec<(CifsClass, f64, f64)>,
}

/// Compute Table 10.
pub fn cifs_breakdown<T: Borrow<TraceAnalysis>>(traces: &[T]) -> CifsBreakdown {
    let mut req: BTreeMap<CifsClass, u64> = BTreeMap::new();
    let mut bytes: BTreeMap<CifsClass, u64> = BTreeMap::new();
    let (mut tr, mut tb) = (0u64, 0u64);
    for t in traces.iter().map(Borrow::borrow) {
        for c in &t.cifs {
            for (class, r, _resp, b) in &c.per_class {
                *req.entry(*class).or_default() += r;
                *bytes.entry(*class).or_default() += b;
                tr += r;
                tb += b;
            }
        }
    }
    CifsBreakdown {
        requests: tr,
        bytes: tb,
        per_class: CifsClass::ALL
            .iter()
            .map(|c| {
                (
                    *c,
                    pct(req.get(c).copied().unwrap_or(0), tr),
                    pct(bytes.get(c).copied().unwrap_or(0), tb),
                )
            })
            .collect(),
    }
}

/// Render Table 10 across datasets.
pub fn table10(rows: &[(&str, CifsBreakdown)]) -> Table {
    let mut headers = vec!["".to_string()];
    for (n, _) in rows {
        headers.push(format!("{n}/req"));
        headers.push(format!("{n}/data"));
    }
    let mut t = Table::new(
        "Table 10: CIFS command breakdown",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let mut total = vec!["Total".to_string()];
    for (_, b) in rows {
        total.push(b.requests.to_string());
        total.push(fmt_bytes(b.bytes));
    }
    t.row(total);
    for i in 0..5 {
        let label = rows
            .first()
            .and_then(|(_, b)| b.per_class.get(i))
            .map(|c| c.0.label().to_string())
            .unwrap_or_default();
        let mut row = vec![label];
        for (_, b) in rows {
            let Some(c) = b.per_class.get(i) else {
                continue;
            };
            row.push(format!("{:.0}%", c.1));
            row.push(format!("{:.0}%", c.2));
        }
        t.row(row);
    }
    t
}

/// Table 11: DCE/RPC function breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RpcBreakdown {
    /// Total calls.
    pub calls: u64,
    /// Total stub bytes.
    pub bytes: u64,
    /// Per function: (requests %, bytes %).
    pub per_function: Vec<(RpcFunction, f64, f64)>,
}

/// Compute Table 11. Endpoint-mapper calls fold into Other, matching the
/// paper's row set.
pub fn rpc_breakdown(traces: &DatasetTraces) -> RpcBreakdown {
    let mut calls: BTreeMap<RpcFunction, u64> = BTreeMap::new();
    let mut bytes: BTreeMap<RpcFunction, u64> = BTreeMap::new();
    let (mut tc, mut tb) = (0u64, 0u64);
    for t in traces {
        for r in &t.rpc {
            let f = if r.function == RpcFunction::EpmMap {
                RpcFunction::Other
            } else {
                r.function
            };
            let b = r.request_bytes + r.response_bytes;
            *calls.entry(f).or_default() += 1;
            *bytes.entry(f).or_default() += b;
            tc += 1;
            tb += b;
        }
    }
    let order = [
        RpcFunction::NetLogon,
        RpcFunction::LsaRpc,
        RpcFunction::SpoolssWritePrinter,
        RpcFunction::SpoolssOther,
        RpcFunction::Other,
    ];
    RpcBreakdown {
        calls: tc,
        bytes: tb,
        per_function: order
            .iter()
            .map(|f| {
                (
                    *f,
                    pct(calls.get(f).copied().unwrap_or(0), tc),
                    pct(bytes.get(f).copied().unwrap_or(0), tb),
                )
            })
            .collect(),
    }
}

/// Render Table 11 across datasets.
pub fn table11(rows: &[(&str, RpcBreakdown)]) -> Table {
    let mut headers = vec!["".to_string()];
    for (n, _) in rows {
        headers.push(format!("{n}/req"));
        headers.push(format!("{n}/data"));
    }
    let mut t = Table::new(
        "Table 11: DCE/RPC function breakdown",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let mut total = vec!["Total".to_string()];
    for (_, b) in rows {
        total.push(b.calls.to_string());
        total.push(fmt_bytes(b.bytes));
    }
    t.row(total);
    for i in 0..5 {
        let label = rows
            .first()
            .and_then(|(_, b)| b.per_function.get(i))
            .map(|f| f.0.label().to_string())
            .unwrap_or_default();
        let mut row = vec![label];
        for (_, b) in rows {
            let Some(f) = b.per_function.get(i) else {
                continue;
            };
            row.push(format!("{:.1}%", f.1));
            row.push(format!("{:.1}%", f.2));
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CifsConnRecord, ConnRecord, RpcRecord, TraceAnalysis};
    use ent_flow::{ConnSummary, DirStats, Endpoint, FlowKey, TcpOutcome, TcpState};
    use ent_proto::Category;
    use ent_wire::{ipv4, Timestamp};

    fn conn(port: u16, client_n: u8, outcome: TcpOutcome) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(ipv4::Addr::new(10, 100, 1, client_n), 40_000),
                    resp: Endpoint::new(ipv4::Addr::new(10, 100, 4, 10), port),
                },
                start: Timestamp::ZERO,
                end: Timestamp::ZERO,
                orig: DirStats::default(),
                resp: DirStats::default(),
                outcome,
                tcp_state: TcpState::Closed,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: None,
            category: Category::Windows,
        }
    }

    #[test]
    fn table9_parallel_dial_pattern() {
        let mut t = TraceAnalysis::default();
        // 4 clients dial 139 (all succeed) and 445 (half rejected).
        for i in 0..4u8 {
            t.conns.push(conn(139, 30 + i, TcpOutcome::Successful));
            t.conns.push(conn(
                445,
                30 + i,
                if i < 2 {
                    TcpOutcome::Successful
                } else {
                    TcpOutcome::Rejected
                },
            ));
        }
        let svc = windows_success(&[t]);
        assert_eq!(svc[0].0, 139);
        assert_eq!(svc[0].1.successful_pct, 100.0);
        assert_eq!(svc[1].1.successful_pct, 50.0);
        assert_eq!(svc[1].1.rejected_pct, 50.0);
        assert_eq!(svc[2].1.pairs, 0);
        assert!(table9(&[("D0", svc)]).render().contains("Rejected"));
    }

    #[test]
    fn cifs_and_rpc_breakdowns() {
        let mut t = TraceAnalysis::default();
        let mut c = CifsConnRecord {
            ssn_requested: true,
            ssn_positive: true,
            ..Default::default()
        };
        c.count(CifsClass::SmbBasic, false, 600);
        c.count(CifsClass::RpcPipes, false, 8_000);
        c.count(CifsClass::FileSharing, false, 1_400);
        t.cifs.push(c);
        t.rpc.push(RpcRecord {
            function: RpcFunction::SpoolssWritePrinter,
            request_bytes: 4_096,
            response_bytes: 16,
        });
        t.rpc.push(RpcRecord {
            function: RpcFunction::NetLogon,
            request_bytes: 180,
            response_bytes: 120,
        });
        t.rpc.push(RpcRecord {
            function: RpcFunction::EpmMap,
            request_bytes: 80,
            response_bytes: 26,
        });
        let cb = cifs_breakdown(&[t.clone_for_test()]);
        assert_eq!(cb.requests, 3);
        let rpc_row = cb.per_class.iter().find(|e| e.0 == CifsClass::RpcPipes).unwrap();
        assert!(rpc_row.2 > 50.0, "RPC pipes should dominate bytes");
        let rb = rpc_breakdown(&[t]);
        assert_eq!(rb.calls, 3);
        let wp = rb
            .per_function
            .iter()
            .find(|e| e.0 == RpcFunction::SpoolssWritePrinter)
            .unwrap();
        assert!(wp.2 > 80.0);
        // EpmMap folded into Other.
        let other = rb.per_function.iter().find(|e| e.0 == RpcFunction::Other).unwrap();
        assert!(other.1 > 0.0);
        assert!(table10(&[("D0", cb)]).render().contains("LANMAN"));
        assert!(table11(&[("D0", rb)]).render().contains("Spoolss/WritePrinter"));
        assert_eq!(ssn_handshake_success(&[TraceAnalysis::default()]), 0.0);
    }

    impl TraceAnalysis {
        fn clone_for_test(&self) -> TraceAnalysis {
            TraceAnalysis {
                cifs: self.cifs.clone(),
                rpc: self.rpc.clone(),
                ..Default::default()
            }
        }
    }
}
