//! Figure 2: fan-in and fan-out of monitored hosts, enterprise vs WAN.

use super::DatasetTraces;
use crate::records::is_internal;
use crate::report::Figure;
use crate::stats::Ecdf;
use std::collections::{BTreeMap, BTreeSet};

/// Fan-in/fan-out distributions for one dataset.
#[derive(Debug, Clone, Default)]
pub struct Locality {
    /// Fan-in over enterprise peers.
    pub fan_in_ent: Ecdf,
    /// Fan-in over WAN peers.
    pub fan_in_wan: Ecdf,
    /// Fan-out over enterprise peers.
    pub fan_out_ent: Ecdf,
    /// Fan-out over WAN peers.
    pub fan_out_wan: Ecdf,
    /// Fraction of hosts whose fan-in is internal-only (the paper finds
    /// one-third to one-half).
    pub only_internal_fan_in: f64,
    /// Fraction of hosts whose fan-out is internal-only (more than half).
    pub only_internal_fan_out: f64,
}

/// Compute Figure 2's distributions. A "monitored host" is an internal
/// host on the trace's monitored subnet.
pub fn locality(traces: &DatasetTraces) -> Locality {
    // host -> sets of distinct peers.
    let mut fan_in_ent: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut fan_in_wan: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut fan_out_ent: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut fan_out_wan: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut hosts: BTreeSet<u32> = BTreeSet::new();
    for t in traces {
        for c in &t.conns {
            if c.summary.multicast {
                continue;
            }
            let orig = c.orig_addr();
            let resp = c.resp_addr();
            let monitored = |a: ent_wire::ipv4::Addr| {
                is_internal(a) && a.octets()[2] as u16 == t.subnet
            };
            if monitored(orig) {
                hosts.insert(orig.0);
                if is_internal(resp) {
                    fan_out_ent.entry(orig.0).or_default().insert(resp.0);
                } else {
                    fan_out_wan.entry(orig.0).or_default().insert(resp.0);
                }
            }
            // Fan-in counts only hosts that exist (responded at some
            // point); unanswered probe targets are addresses, not hosts.
            if monitored(resp) && c.summary.resp.packets > 0 {
                hosts.insert(resp.0);
                if is_internal(orig) {
                    fan_in_ent.entry(resp.0).or_default().insert(orig.0);
                } else {
                    fan_in_wan.entry(resp.0).or_default().insert(orig.0);
                }
            }
        }
    }
    let collect = |m: &BTreeMap<u32, BTreeSet<u32>>| -> Ecdf {
        Ecdf::new(m.values().map(|s| s.len() as f64).filter(|&n| n > 0.0).collect())
    };
    let only_internal = |ent: &BTreeMap<u32, BTreeSet<u32>>, wan: &BTreeMap<u32, BTreeSet<u32>>| {
        let with_any: BTreeSet<&u32> = ent.keys().chain(wan.keys()).collect();
        if with_any.is_empty() {
            return 0.0;
        }
        let only = ent
            .keys()
            .filter(|h| !wan.contains_key(*h))
            .count();
        only as f64 / with_any.len() as f64
    };
    Locality {
        only_internal_fan_in: only_internal(&fan_in_ent, &fan_in_wan),
        only_internal_fan_out: only_internal(&fan_out_ent, &fan_out_wan),
        fan_in_ent: collect(&fan_in_ent),
        fan_in_wan: collect(&fan_in_wan),
        fan_out_ent: collect(&fan_out_ent),
        fan_out_wan: collect(&fan_out_wan),
    }
}

/// Render Figure 2 (both panels) for selected datasets.
pub fn figure2(rows: &[(&str, &Locality)]) -> (Figure, Figure) {
    let mut fan_in = Figure::new("Figure 2(a): Fan-in", "distinct peers");
    let mut fan_out = Figure::new("Figure 2(b): Fan-out", "distinct peers");
    for (name, l) in rows {
        fan_in.series(format!("{name}-enterprise"), l.fan_in_ent.clone());
        fan_in.series(format!("{name}-WAN"), l.fan_in_wan.clone());
        fan_out.series(format!("{name}-enterprise"), l.fan_out_ent.clone());
        fan_out.series(format!("{name}-WAN"), l.fan_out_wan.clone());
    }
    (fan_in, fan_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{ConnRecord, TraceAnalysis};
    use ent_flow::{ConnSummary, DirStats, Endpoint, FlowKey, Proto, TcpOutcome, TcpState};
    use ent_proto::Category;
    use ent_wire::{ipv4, Timestamp};

    fn conn(orig: ipv4::Addr, resp: ipv4::Addr) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(orig, 1),
                    resp: Endpoint::new(resp, 80),
                },
                start: Timestamp::ZERO,
                end: Timestamp::ZERO,
                orig: DirStats {
                    packets: 2,
                    ..Default::default()
                },
                resp: DirStats {
                    packets: 2,
                    ..Default::default()
                },
                outcome: TcpOutcome::Successful,
                tcp_state: TcpState::Closed,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: None,
            category: Category::Web,
        }
    }

    #[test]
    fn fan_in_out_counted_for_monitored_hosts() {
        let mut t = TraceAnalysis {
            subnet: 3,
            ..Default::default()
        };
        let host = ipv4::Addr::new(10, 100, 3, 40);
        // Host contacts 3 distinct internal + 2 distinct WAN peers.
        for i in 0..3 {
            t.conns.push(conn(host, ipv4::Addr::new(10, 100, 5, 10 + i)));
        }
        for i in 0..2 {
            t.conns.push(conn(host, ipv4::Addr::new(64, 0, 0, 1 + i)));
        }
        // Two internal peers contact the host.
        t.conns.push(conn(ipv4::Addr::new(10, 100, 7, 1), host));
        t.conns.push(conn(ipv4::Addr::new(10, 100, 7, 2), host));
        // An internal-only host.
        let quiet = ipv4::Addr::new(10, 100, 3, 41);
        t.conns.push(conn(quiet, ipv4::Addr::new(10, 100, 5, 10)));
        let l = locality(&[t]);
        assert_eq!(l.fan_out_ent.quantile(1.0), Some(3.0));
        assert_eq!(l.fan_out_wan.quantile(1.0), Some(2.0));
        assert_eq!(l.fan_in_ent.quantile(1.0), Some(2.0));
        assert!(l.fan_in_wan.is_empty());
        // quiet has only-internal fan-out; host has WAN too => 1/2.
        assert!((l.only_internal_fan_out - 0.5).abs() < 1e-9);
        let (a, b) = figure2(&[("D2", &l)]);
        assert!(a.render().contains("Figure 2(a)"));
        assert!(a.render().contains("D2-enterprise"));
        assert!(b.render().contains("Figure 2(b)"));
        assert!(b.render().contains("D2-WAN"));
    }
}
