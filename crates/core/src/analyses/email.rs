//! §5.1.2 email analyses: Table 8 (volumes), Figure 5 (durations),
//! Figure 6 (flow sizes) and connection success rates.

use super::DatasetTraces;
use crate::records::ConnRecord;
use crate::report::{fmt_bytes, Figure, Table};
use crate::stats::{share, Ecdf};
use ent_proto::AppProtocol;

/// Table 8: email byte volumes by protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EmailVolumes {
    /// SMTP bytes.
    pub smtp: u64,
    /// IMAP-over-SSL bytes.
    pub simap: u64,
    /// Cleartext IMAP4 bytes.
    pub imap4: u64,
    /// POP/LDAP/other email bytes.
    pub other: u64,
}

fn email_app(c: &ConnRecord) -> Option<AppProtocol> {
    match c.app {
        Some(
            a @ (AppProtocol::Smtp
            | AppProtocol::ImapS
            | AppProtocol::Imap4
            | AppProtocol::Pop3
            | AppProtocol::PopS
            | AppProtocol::Ldap),
        ) => Some(a),
        _ => None,
    }
}

/// Compute Table 8 for one dataset.
pub fn email_volumes(traces: &DatasetTraces) -> EmailVolumes {
    let mut v = EmailVolumes::default();
    for t in traces {
        for c in &t.conns {
            let Some(app) = email_app(c) else { continue };
            let b = c.payload_bytes();
            match app {
                AppProtocol::Smtp => v.smtp += b,
                AppProtocol::ImapS => v.simap += b,
                AppProtocol::Imap4 => v.imap4 += b,
                _ => v.other += b,
            }
        }
    }
    v
}

/// Render Table 8 across datasets.
pub fn table8(rows: &[(&str, EmailVolumes)]) -> Table {
    let headers: Vec<&str> = std::iter::once("").chain(rows.iter().map(|(n, _)| *n)).collect();
    let mut t = Table::new("Table 8: Email traffic size (bytes)", &headers);
    let fields: [(&str, fn(&EmailVolumes) -> u64); 4] = [
        ("SMTP", |v| v.smtp),
        ("SIMAP", |v| v.simap),
        ("IMAP4", |v| v.imap4),
        ("Other", |v| v.other),
    ];
    for (label, f) in fields {
        let mut row = vec![label.to_string()];
        row.extend(rows.iter().map(|(_, v)| fmt_bytes(f(v))));
        t.row(row);
    }
    t
}

/// Durations and flow sizes split by locality for one protocol.
#[derive(Debug, Clone, Default)]
pub struct DurationsAndSizes {
    /// Internal connection durations (seconds).
    pub dur_ent: Ecdf,
    /// WAN connection durations (seconds).
    pub dur_wan: Ecdf,
    /// Internal flow sizes (bytes, in the paper's plotted direction).
    pub size_ent: Ecdf,
    /// WAN flow sizes.
    pub size_wan: Ecdf,
}

/// Figures 5–6 data for SMTP (`from_client` = true: plots bytes *to* the
/// server) or IMAP/S (`from_client` = false: bytes to the client).
pub fn durations_and_sizes(
    traces: &DatasetTraces,
    app: AppProtocol,
    from_client: bool,
) -> DurationsAndSizes {
    let (mut de, mut dw, mut se, mut sw) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for t in traces {
        for c in &t.conns {
            if c.app != Some(app) || !c.successful() {
                continue;
            }
            let dur = c.summary.duration_secs();
            let size = if from_client {
                c.summary.orig.payload_bytes
            } else {
                c.summary.resp.payload_bytes
            } as f64;
            if c.is_enterprise_only() {
                de.push(dur);
                se.push(size);
            } else if c.crosses_wan() {
                dw.push(dur);
                sw.push(size);
            }
        }
    }
    DurationsAndSizes {
        dur_ent: Ecdf::new(de),
        dur_wan: Ecdf::new(dw),
        size_ent: Ecdf::new(se),
        size_wan: Ecdf::new(sw),
    }
}

/// Success rates (%) for one email protocol, internal and WAN; `None`
/// where the dataset has no such connection.
pub fn email_success(traces: &DatasetTraces, app: AppProtocol) -> (Option<f64>, Option<f64>) {
    let (mut oe, mut te, mut ow, mut tw) = (0u64, 0u64, 0u64, 0u64);
    for t in traces {
        for c in &t.conns {
            if c.app != Some(app) || c.summary.key.proto != ent_flow::Proto::Tcp {
                continue;
            }
            if c.is_enterprise_only() {
                te += 1;
                oe += u64::from(c.successful());
            } else if c.crosses_wan() {
                tw += 1;
                ow += u64::from(c.successful());
            }
        }
    }
    (share(oe, te), share(ow, tw))
}

/// Render Figures 5 and 6 across datasets for one protocol.
pub fn figures56(
    title5: &str,
    title6: &str,
    rows: &[(&str, DurationsAndSizes)],
) -> (Figure, Figure) {
    let mut f5 = Figure::new(title5, "seconds");
    let mut f6 = Figure::new(title6, "bytes");
    for (name, d) in rows {
        f5.series(format!("ent:{name}"), d.dur_ent.clone());
        f5.series(format!("wan:{name}"), d.dur_wan.clone());
        f6.series(format!("ent:{name}"), d.size_ent.clone());
        f6.series(format!("wan:{name}"), d.size_wan.clone());
    }
    (f5, f6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::TraceAnalysis;
    use ent_flow::{ConnSummary, DirStats, Endpoint, FlowKey, Proto, TcpOutcome, TcpState};
    use ent_proto::Category;
    use ent_wire::{ipv4, Timestamp};

    fn conn(app: AppProtocol, wan: bool, dur_ms: u64, orig_b: u64, resp_b: u64, ok: bool) -> ConnRecord {
        let resp_addr = if wan {
            ipv4::Addr::new(64, 0, 0, 1)
        } else {
            ipv4::Addr::new(10, 100, 0, 10)
        };
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(ipv4::Addr::new(10, 100, 1, 1), 40_000),
                    resp: Endpoint::new(resp_addr, 25),
                },
                start: Timestamp::ZERO,
                end: Timestamp::from_millis(dur_ms),
                orig: DirStats {
                    payload_bytes: orig_b,
                    ..Default::default()
                },
                resp: DirStats {
                    payload_bytes: resp_b,
                    ..Default::default()
                },
                outcome: if ok {
                    TcpOutcome::Successful
                } else {
                    TcpOutcome::Rejected
                },
                tcp_state: TcpState::Closed,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: Some(app),
            category: Category::Email,
        }
    }

    #[test]
    fn volumes_by_protocol() {
        let mut t = TraceAnalysis::default();
        t.conns.push(conn(AppProtocol::Smtp, false, 300, 5_000, 100, true));
        t.conns.push(conn(AppProtocol::ImapS, false, 1_000, 100, 20_000, true));
        t.conns.push(conn(AppProtocol::Imap4, false, 1_000, 100, 9_000, true));
        t.conns.push(conn(AppProtocol::Pop3, false, 100, 50, 400, true));
        let v = email_volumes(&[t]);
        assert_eq!(v.smtp, 5_100);
        assert_eq!(v.simap, 20_100);
        assert_eq!(v.imap4, 9_100);
        assert_eq!(v.other, 450);
        assert!(table8(&[("D1", v)]).render().contains("SIMAP"));
    }

    #[test]
    fn durations_split_by_locality() {
        let mut t = TraceAnalysis::default();
        t.conns.push(conn(AppProtocol::Smtp, false, 300, 5_000, 100, true));
        t.conns.push(conn(AppProtocol::Smtp, true, 3_000, 5_000, 100, true));
        t.conns.push(conn(AppProtocol::Smtp, true, 2_000, 1_000, 50, false)); // rejected: excluded
        let d = durations_and_sizes(&[t], AppProtocol::Smtp, true);
        assert_eq!(d.dur_ent.n(), 1);
        assert_eq!(d.dur_wan.n(), 1);
        assert_eq!(d.dur_wan.median(), Some(3.0));
        assert_eq!(d.size_ent.median(), Some(5_000.0));
        let (f5, f6) = figures56("F5", "F6", &[("D1", d)]);
        assert!(f5.render().contains("ent:D1"));
        assert!(f6.render().contains("wan:D1"));
    }

    #[test]
    fn success_rates() {
        let mut t = TraceAnalysis::default();
        for ok in [true, true, true, false] {
            t.conns.push(conn(AppProtocol::Smtp, true, 100, 10, 10, ok));
        }
        t.conns.push(conn(AppProtocol::Smtp, false, 100, 10, 10, true));
        let (ent, wan) = email_success(&[t], AppProtocol::Smtp);
        assert_eq!(ent, Some(100.0));
        assert_eq!(wan, Some(75.0));
    }

    #[test]
    fn success_without_connections_is_no_sample() {
        // SMTP only, as at D0's vantage: IMAP/S success is unmeasured, not 0%.
        let mut t = TraceAnalysis::default();
        t.conns.push(conn(AppProtocol::Smtp, true, 100, 10, 10, true));
        assert_eq!(email_success(&[t], AppProtocol::ImapS), (None, None));
    }
}
