//! Table 1: dataset characteristics.

use super::DatasetTraces;
use crate::records::is_internal;
use crate::report::Table;
use std::collections::BTreeSet;

/// One dataset's Table 1 row set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Dataset label.
    pub name: String,
    /// Number of traces (subnet × pass).
    pub traces: usize,
    /// Duration of each trace, seconds.
    pub trace_secs: u64,
    /// Monitored subnets.
    pub subnets: usize,
    /// Maximum monitoring passes per subnet (the paper's "Per Tap" row).
    pub passes: u8,
    /// Total packets.
    pub packets: u64,
    /// Snaplen.
    pub snaplen: u32,
    /// Hosts on the monitored subnets seen in the traffic.
    pub monitored_hosts: usize,
    /// All internal hosts seen.
    pub internal_hosts: usize,
    /// External hosts seen.
    pub remote_hosts: usize,
}

/// Compute Table 1 for one dataset. `snaplen` comes from trace metadata
/// via the pipeline caller.
pub fn dataset_summary(name: &str, traces: &DatasetTraces, snaplen: u32) -> DatasetSummary {
    let mut monitored: BTreeSet<u32> = BTreeSet::new();
    let mut internal: BTreeSet<u32> = BTreeSet::new();
    let mut remote: BTreeSet<u32> = BTreeSet::new();
    let mut subnets: BTreeSet<u16> = BTreeSet::new();
    let mut packets = 0u64;
    let mut passes = 0u8;
    for t in traces {
        packets += t.packets;
        subnets.insert(t.subnet);
        passes = passes.max(t.pass);
        for c in &t.conns {
            // A host exists only if it *sent* something: the target of an
            // unanswered background probe is an address, not a host.
            let mut addrs = Vec::with_capacity(2);
            if c.summary.orig.packets > 0 {
                addrs.push(c.orig_addr());
            }
            if c.summary.resp.packets > 0 {
                addrs.push(c.resp_addr());
            }
            for addr in addrs {
                if addr.is_multicast() || addr.is_broadcast() {
                    continue;
                }
                if is_internal(addr) {
                    internal.insert(addr.0);
                    if addr.octets()[2] as u16 == t.subnet {
                        monitored.insert(addr.0);
                    }
                } else {
                    remote.insert(addr.0);
                }
            }
        }
    }
    DatasetSummary {
        name: name.to_string(),
        traces: traces.len(),
        trace_secs: traces.first().map(|t| t.duration_secs).unwrap_or(0),
        subnets: subnets.len(),
        passes,
        packets,
        snaplen,
        monitored_hosts: monitored.len(),
        internal_hosts: internal.len(),
        remote_hosts: remote.len(),
    }
}

/// Render Table 1 across datasets.
pub fn table1(summaries: &[DatasetSummary]) -> Table {
    let mut t = Table::new(
        "Table 1: Dataset characteristics",
        [""]
            .into_iter()
            .chain(summaries.iter().map(|s| s.name.as_str()))
            .collect::<Vec<_>>()
            .as_slice(),
    );
    let rows: Vec<(&str, Box<dyn Fn(&DatasetSummary) -> String>)> = vec![
        (
            "Duration",
            Box::new(|s| {
                if s.trace_secs >= 3_600 {
                    format!("{} hr", s.trace_secs / 3_600)
                } else {
                    format!("{} min", s.trace_secs / 60)
                }
            }),
        ),
        ("Per Tap", Box::new(|s| s.passes.to_string())),
        ("# Traces", Box::new(|s| s.traces.to_string())),
        ("# Subnets", Box::new(|s| s.subnets.to_string())),
        (
            "# Packets",
            Box::new(|s| {
                if s.packets >= 1_000_000 {
                    format!("{:.1}M", s.packets as f64 / 1e6)
                } else {
                    format!("{:.1}K", s.packets as f64 / 1e3)
                }
            }),
        ),
        ("Snaplen", Box::new(|s| s.snaplen.to_string())),
        ("Mon. Hosts", Box::new(|s| s.monitored_hosts.to_string())),
        ("LBNL Hosts", Box::new(|s| s.internal_hosts.to_string())),
        ("Remote Hosts", Box::new(|s| s.remote_hosts.to_string())),
    ];
    for (label, f) in rows {
        let mut row = vec![label.to_string()];
        row.extend(summaries.iter().map(f));
        t.row(row);
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

    fn conn(orig: ipv4::Addr, resp: ipv4::Addr) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Tcp,
                    orig: Endpoint::new(orig, 1),
                    resp: Endpoint::new(resp, 2),
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
            category: Category::OtherTcp,
        }
    }

    #[test]
    fn host_sets_partitioned_correctly() {
        let mut t = TraceAnalysis {
            dataset: "D0".into(),
            subnet: 3,
            packets: 100,
            duration_secs: 600,
            ..Default::default()
        };
        t.conns.push(conn(
            ipv4::Addr::new(10, 100, 3, 40), // monitored
            ipv4::Addr::new(10, 100, 7, 10), // internal, other subnet
        ));
        t.conns.push(conn(
            ipv4::Addr::new(64, 4, 4, 4), // remote
            ipv4::Addr::new(10, 100, 3, 41),
        ));
        t.conns.push(conn(
            ipv4::Addr::new(10, 100, 3, 40),
            ipv4::Addr::new(239, 1, 1, 1), // multicast: not a host
        ));
        let s = dataset_summary("D0", &[t], 1500);
        assert_eq!(s.monitored_hosts, 2);
        assert_eq!(s.internal_hosts, 3);
        assert_eq!(s.remote_hosts, 1);
        assert_eq!(s.packets, 100);
        assert_eq!(s.subnets, 1);
    }

    #[test]
    fn table_renders_all_datasets() {
        let s = DatasetSummary {
            name: "D0".into(),
            traces: 22,
            trace_secs: 600,
            subnets: 22,
            passes: 1,
            packets: 17_800_000,
            snaplen: 1500,
            monitored_hosts: 2531,
            internal_hosts: 4767,
            remote_hosts: 4342,
        };
        let t = table1(&[s]);
        let out = t.render();
        assert!(out.contains("10 min"));
        assert!(out.contains("17.8M"));
        assert!(out.contains("2531"));
    }
}
