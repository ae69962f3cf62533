//! Figure 1: application-category mix — payload bytes and connections per
//! category, split enterprise-internal vs WAN-crossing; plus the
//! multicast shares the paper calls out in §3.

use super::DatasetTraces;
use crate::report::Table;
use crate::stats::pct;
use ent_proto::{AppProtocol, Category};

/// One category's share of the dataset's unicast traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategoryShare {
    /// Enterprise-internal byte share (%).
    pub bytes_ent_pct: f64,
    /// WAN-crossing byte share (%).
    pub bytes_wan_pct: f64,
    /// Enterprise-internal connection share (%).
    pub conns_ent_pct: f64,
    /// WAN-crossing connection share (%).
    pub conns_wan_pct: f64,
}

impl CategoryShare {
    /// Total byte share (%).
    pub fn bytes_pct(&self) -> f64 {
        self.bytes_ent_pct + self.bytes_wan_pct
    }

    /// Total connection share (%).
    pub fn conns_pct(&self) -> f64 {
        self.conns_ent_pct + self.conns_wan_pct
    }
}

/// Figure 1 for one dataset.
#[derive(Debug, Clone, Default)]
pub struct AppMix {
    /// Per-category shares, in [`Category::ALL`] order.
    pub shares: Vec<(Category, CategoryShare)>,
    /// Multicast streaming bytes as % of *all* payload bytes (§3: 5–10%).
    pub multicast_streaming_bytes_pct: f64,
    /// Multicast name+mgnt (SrvLoc, SAP) connections as % of all
    /// connections (§3: each 5–10%).
    pub multicast_name_mgnt_conns_pct: f64,
}

/// Compute Figure 1's data for one dataset.
pub fn appmix(traces: &DatasetTraces) -> AppMix {
    use std::collections::BTreeMap;
    let mut bytes_ent: BTreeMap<Category, u64> = BTreeMap::new();
    let mut bytes_wan: BTreeMap<Category, u64> = BTreeMap::new();
    let mut conns_ent: BTreeMap<Category, u64> = BTreeMap::new();
    let mut conns_wan: BTreeMap<Category, u64> = BTreeMap::new();
    let (mut ub, mut uc) = (0u64, 0u64); // unicast totals
    let (mut all_bytes, mut all_conns) = (0u64, 0u64);
    let mut mcast_stream_bytes = 0u64;
    let mut mcast_name_mgnt_conns = 0u64;
    for t in traces {
        for c in &t.conns {
            let b = c.payload_bytes();
            all_bytes += b;
            all_conns += 1;
            if c.summary.multicast {
                if c.category == Category::Streaming {
                    mcast_stream_bytes += b;
                }
                if matches!(c.app, Some(AppProtocol::SrvLoc | AppProtocol::Sap)) {
                    mcast_name_mgnt_conns += 1;
                }
                continue; // Figure 1 plots unicast only
            }
            ub += b;
            uc += 1;
            if c.is_enterprise_only() {
                *bytes_ent.entry(c.category).or_default() += b;
                *conns_ent.entry(c.category).or_default() += 1;
            } else {
                *bytes_wan.entry(c.category).or_default() += b;
                *conns_wan.entry(c.category).or_default() += 1;
            }
        }
    }
    let shares = Category::ALL
        .iter()
        .map(|&cat| {
            (
                cat,
                CategoryShare {
                    bytes_ent_pct: pct(bytes_ent.get(&cat).copied().unwrap_or(0), ub),
                    bytes_wan_pct: pct(bytes_wan.get(&cat).copied().unwrap_or(0), ub),
                    conns_ent_pct: pct(conns_ent.get(&cat).copied().unwrap_or(0), uc),
                    conns_wan_pct: pct(conns_wan.get(&cat).copied().unwrap_or(0), uc),
                },
            )
        })
        .collect();
    AppMix {
        shares,
        multicast_streaming_bytes_pct: pct(mcast_stream_bytes, all_bytes),
        multicast_name_mgnt_conns_pct: pct(mcast_name_mgnt_conns, all_conns),
    }
}

/// Packet-share of each category (the paper notes it omitted this plot
/// but that interactive traffic's packet share is about twice its byte
/// share — small keystroke packets).
pub fn packet_shares(traces: &DatasetTraces) -> Vec<(Category, f64)> {
    use std::collections::BTreeMap;
    let mut pkts: BTreeMap<Category, u64> = BTreeMap::new();
    let mut total = 0u64;
    for t in traces {
        for c in &t.conns {
            if c.summary.multicast {
                continue;
            }
            let n = c.summary.total_packets();
            *pkts.entry(c.category).or_default() += n;
            total += n;
        }
    }
    Category::ALL
        .iter()
        .map(|&cat| (cat, pct(pkts.get(&cat).copied().unwrap_or(0), total)))
        .collect()
}

/// Render Figure 1 as two tables (bytes and connections), one column pair
/// (ent, wan) per dataset.
pub fn figure1(rows: &[(&str, AppMix)], bytes: bool) -> Table {
    let mut headers = vec!["category".to_string()];
    for (name, _) in rows {
        headers.push(format!("{name}/ent"));
        headers.push(format!("{name}/wan"));
    }
    let title = if bytes {
        "Figure 1(a): % payload bytes per application category"
    } else {
        "Figure 1(b): % connections per application category"
    };
    let mut t = Table::new(title, &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    for (i, &cat) in Category::ALL.iter().enumerate() {
        let mut row = vec![cat.label().to_string()];
        for (_, mix) in rows {
            let Some(s) = mix.shares.get(i).map(|x| x.1) else {
                continue;
            };
            if bytes {
                row.push(format!("{:.1}", s.bytes_ent_pct));
                row.push(format!("{:.1}", s.bytes_wan_pct));
            } else {
                row.push(format!("{:.1}", s.conns_ent_pct));
                row.push(format!("{:.1}", s.conns_wan_pct));
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
    use ent_wire::{ipv4, Timestamp};

    fn conn(cat: Category, app: Option<AppProtocol>, bytes: u64, wan: bool, mcast: bool) -> ConnRecord {
        let resp = if mcast {
            ipv4::Addr::new(239, 1, 1, 1)
        } else if wan {
            ipv4::Addr::new(64, 0, 0, 1)
        } else {
            ipv4::Addr::new(10, 100, 2, 2)
        };
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Udp,
                    orig: Endpoint::new(ipv4::Addr::new(10, 100, 1, 1), 1),
                    resp: Endpoint::new(resp, 2),
                },
                start: Timestamp::ZERO,
                end: Timestamp::ZERO,
                orig: DirStats {
                    payload_bytes: bytes,
                    ..Default::default()
                },
                resp: DirStats::default(),
                outcome: TcpOutcome::Successful,
                tcp_state: TcpState::NotTcp,
                multicast: mcast,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app,
            category: cat,
        }
    }

    #[test]
    fn shares_split_by_locality_and_multicast_separated() {
        let mut t = TraceAnalysis::default();
        t.conns.push(conn(Category::Web, Some(AppProtocol::Http), 600, true, false));
        t.conns.push(conn(Category::Web, Some(AppProtocol::Http), 200, false, false));
        t.conns.push(conn(Category::Name, Some(AppProtocol::Dns), 200, false, false));
        t.conns.push(conn(Category::Streaming, Some(AppProtocol::IpVideo), 1_000, false, true));
        t.conns.push(conn(Category::Name, Some(AppProtocol::SrvLoc), 50, false, true));
        let mix = appmix(&[t]);
        let web = mix.shares.iter().find(|(c, _)| *c == Category::Web).unwrap().1;
        assert!((web.bytes_wan_pct - 60.0).abs() < 1e-9);
        assert!((web.bytes_ent_pct - 20.0).abs() < 1e-9);
        assert!((web.conns_pct() - 200.0 / 3.0).abs() < 1e-6);
        // Multicast excluded from unicast shares but counted separately.
        assert!((mix.multicast_streaming_bytes_pct - 1_000.0 / 2_050.0 * 100.0).abs() < 1e-6);
        assert!((mix.multicast_name_mgnt_conns_pct - 20.0).abs() < 1e-9);
        let table = figure1(&[("D0", mix)], true);
        assert!(table.render().contains("net-file"));
    }

    #[test]
    fn packet_shares_reflect_small_packet_categories() {
        let mut t = TraceAnalysis::default();
        // Interactive: many packets, few bytes. Bulk: few packets, many bytes.
        let mut ssh = conn(Category::Interactive, Some(AppProtocol::Ssh), 5_000, false, false);
        ssh.summary.orig.packets = 400;
        t.conns.push(ssh);
        let mut bulk = conn(Category::Bulk, Some(AppProtocol::Ftp), 1_000_000, false, false);
        bulk.summary.orig.packets = 100;
        t.conns.push(bulk);
        let shares = packet_shares(&[t.clone()]);
        let mix = appmix(&[t]);
        let pkt = |c: Category| shares.iter().find(|(k, _)| *k == c).unwrap().1;
        let byte = |c: Category| {
            mix.shares
                .iter()
                .find(|(k, _)| *k == c)
                .unwrap()
                .1
                .bytes_pct()
        };
        assert!(pkt(Category::Interactive) > byte(Category::Interactive) * 2.0);
        assert!(byte(Category::Bulk) > pkt(Category::Bulk));
    }
}
