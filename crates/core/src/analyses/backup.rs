//! §5.2.3 backup analysis: Table 15 plus the directionality findings.

use crate::records::TraceAnalysis;
use crate::report::{fmt_bytes, Table};
use ent_proto::AppProtocol;
use std::borrow::Borrow;

/// Table 15 plus directionality findings, aggregated across datasets as
/// the paper does.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackupAnalysis {
    /// Veritas control: (connections, bytes).
    pub veritas_ctrl: (u64, u64),
    /// Veritas data: (connections, bytes).
    pub veritas_data: (u64, u64),
    /// Dantz: (connections, bytes).
    pub dantz: (u64, u64),
    /// Connected (off-site): (connections, bytes).
    pub connected: (u64, u64),
    /// Veritas data connections that are essentially one-way
    /// client→server (the paper: all of them).
    pub veritas_one_way: u64,
    /// Dantz connections with substantial flow in *both* directions
    /// (each direction ≥ 10 KB and ≥ 5% of the other).
    pub dantz_bidirectional: u64,
}

/// Compute the backup analysis.
pub fn backup_analysis<T: Borrow<TraceAnalysis>>(traces: &[T]) -> BackupAnalysis {
    let mut a = BackupAnalysis::default();
    for t in traces.iter().map(Borrow::borrow) {
        for c in &t.conns {
            let b = c.payload_bytes();
            match c.app {
                Some(AppProtocol::VeritasBackupCtrl) => {
                    a.veritas_ctrl.0 += 1;
                    a.veritas_ctrl.1 += b;
                }
                Some(AppProtocol::VeritasBackupData) => {
                    a.veritas_data.0 += 1;
                    a.veritas_data.1 += b;
                    if c.summary.resp.payload_bytes * 50 < c.summary.orig.payload_bytes.max(1) {
                        a.veritas_one_way += 1;
                    }
                }
                Some(AppProtocol::DantzRetrospect) => {
                    a.dantz.0 += 1;
                    a.dantz.1 += b;
                    let (up, down) = (c.summary.orig.payload_bytes, c.summary.resp.payload_bytes);
                    if up.min(down) > 10_000 && up.min(down) * 20 > up.max(down) {
                        a.dantz_bidirectional += 1;
                    }
                }
                Some(AppProtocol::ConnectedBackup) => {
                    a.connected.0 += 1;
                    a.connected.1 += b;
                }
                _ => {}
            }
        }
    }
    a
}

/// Render Table 15.
pub fn table15(a: &BackupAnalysis) -> Table {
    let mut t = Table::new(
        "Table 15: Backup applications",
        &["", "Connections", "Bytes"],
    );
    for (label, (c, b)) in [
        ("VERITAS-BACKUP-CTRL", a.veritas_ctrl),
        ("VERITAS-BACKUP-DATA", a.veritas_data),
        ("DANTZ", a.dantz),
        ("CONNECTED-BACKUP", a.connected),
    ] {
        t.row(vec![label.to_string(), c.to_string(), fmt_bytes(b)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{ConnRecord, TraceAnalysis};
    use ent_flow::{ConnSummary, DirStats, Endpoint, FlowKey, Proto, TcpOutcome, TcpState};
    use ent_proto::Category;
    use ent_wire::{ipv4, Timestamp};

    fn conn(app: AppProtocol, port: u16, up: u64, down: u64) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(ipv4::Addr::new(10, 100, 1, 1), 40_000),
                    resp: Endpoint::new(ipv4::Addr::new(10, 100, 5, 10), port),
                },
                start: Timestamp::ZERO,
                end: Timestamp::ZERO,
                orig: DirStats {
                    payload_bytes: up,
                    ..Default::default()
                },
                resp: DirStats {
                    payload_bytes: down,
                    ..Default::default()
                },
                outcome: TcpOutcome::Successful,
                tcp_state: TcpState::Closed,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: Some(app),
            category: Category::Backup,
        }
    }

    #[test]
    fn directionality_findings() {
        let mut t = TraceAnalysis::default();
        t.conns.push(conn(AppProtocol::VeritasBackupCtrl, 13_720, 500, 300));
        t.conns.push(conn(AppProtocol::VeritasBackupData, 13_724, 20_000_000, 100));
        t.conns.push(conn(AppProtocol::DantzRetrospect, 497, 15_000_000, 8_000_000));
        t.conns.push(conn(AppProtocol::DantzRetrospect, 497, 5_000_000, 2_000));
        t.conns.push(conn(AppProtocol::DantzRetrospect, 497, 5_000_000, 400_000));
        t.conns.push(conn(AppProtocol::ConnectedBackup, 16_384, 2_000_000, 10_000));
        let a = backup_analysis(&[t]);
        assert_eq!(a.veritas_data.0, 1);
        assert_eq!(a.veritas_one_way, 1);
        assert_eq!(a.dantz.0, 3);
        assert_eq!(a.dantz_bidirectional, 2);
        assert_eq!(a.connected.0, 1);
        let out = table15(&a).render();
        assert!(out.contains("DANTZ"));
        assert!(out.contains("20.0MB"));
    }
}
