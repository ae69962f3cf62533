//! Scanner identification and removal (paper §3).
//!
//! Heuristic, as described in the paper: flag any source that contacts
//! more than 50 distinct hosts where at least 45 of the successively
//! contacted addresses are in ascending or descending order; remove the
//! flagged sources' traffic (plus the site's known internal scanners)
//! before the protocol-mix analyses.

use crate::records::ConnRecord;
use ent_wire::ipv4;
use std::collections::{HashMap, HashSet};

/// Configuration for scanner removal.
#[derive(Debug, Clone, Default)]
pub struct ScannerConfig {
    /// Known internal scanner addresses, always removed (the paper's "2
    /// internal scanners").
    pub known: Vec<ipv4::Addr>,
}

/// Identify scanner sources among connection originators.
///
/// `conns` must be in trace (start-time) order for the monotone-sequence
/// test to be meaningful.
pub fn identify_scanners(conns: &[ConnRecord]) -> Vec<ipv4::Addr> {
    let mut sequences: HashMap<ipv4::Addr, Vec<u32>> = HashMap::new();
    for c in conns {
        let seq = sequences.entry(c.orig_addr()).or_default();
        let dst = c.resp_addr().0;
        if seq.last() != Some(&dst) {
            seq.push(dst);
        }
    }
    let mut out = Vec::new();
    #[expect(clippy::iter_over_hash_type, reason = "the flagged sources are sorted before return")]
    for (src, seq) in sequences {
        let distinct: HashSet<u32> = seq.iter().copied().collect();
        if distinct.len() <= 50 {
            continue;
        }
        let mut ascending = 0usize;
        let mut descending = 0usize;
        let steps = seq.len().saturating_sub(1).max(1);
        for [a, b] in seq.array_windows() {
            if b > a {
                ascending += 1;
            } else if b < a {
                descending += 1;
            }
        }
        // "At least 45 in ascending or descending order": an absolute
        // floor of 45 monotone steps plus a dominance requirement (a
        // random-order busy server has ~50% ascending steps; a sweep has
        // nearly all).
        let dominant = ascending.max(descending);
        if dominant >= 45 && dominant as f64 / steps as f64 >= 0.8 {
            out.push(src);
        }
    }
    out.sort();
    out
}

/// Remove traffic from flagged and known scanners; returns the flagged
/// source list and the removed connections (retained for the scan study).
pub fn remove_scanners(
    conns: &mut Vec<ConnRecord>,
    config: &ScannerConfig,
) -> (Vec<ipv4::Addr>, Vec<ConnRecord>) {
    let mut flagged = identify_scanners(conns);
    for k in &config.known {
        if !flagged.contains(k) {
            flagged.push(*k);
        }
    }
    let set: HashSet<u32> = flagged.iter().map(|a| a.0).collect();
    let mut removed = Vec::new();
    conns.retain(|c| {
        if set.contains(&c.orig_addr().0) {
            removed.push(c.clone());
            false
        } else {
            true
        }
    });
    (flagged, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::ConnRecord;
    use ent_flow::{ConnSummary, DirStats, Endpoint, FlowKey, Proto, TcpOutcome, TcpState};
    use ent_proto::Category;
    use ent_wire::Timestamp;

    fn conn(src: ipv4::Addr, dst: ipv4::Addr) -> ConnRecord {
        ConnRecord {
            summary: ConnSummary {
                key: FlowKey {
                    proto: Proto::Icmp,
                    orig: Endpoint::new(src, 0),
                    resp: Endpoint::new(dst, 0),
                },
                start: Timestamp::ZERO,
                end: Timestamp::ZERO,
                orig: DirStats::default(),
                resp: DirStats::default(),
                outcome: TcpOutcome::NotApplicable,
                tcp_state: TcpState::NotTcp,
                multicast: false,
                acked_unseen_data: false,
                icmp_answered: false,
            },
            app: None,
            category: Category::OtherUdp,
        }
    }

    #[test]
    fn ascending_sweeper_flagged() {
        let scanner = ipv4::Addr::new(64, 1, 1, 1);
        let mut conns: Vec<ConnRecord> = (1..=80u32)
            .map(|i| conn(scanner, ipv4::Addr(ipv4::Addr::new(10, 100, 3, 0).0 + i)))
            .collect();
        // Normal host talking to a few peers.
        let normal = ipv4::Addr::new(10, 100, 5, 30);
        for i in 0..30 {
            conns.push(conn(normal, ipv4::Addr::new(10, 100, 6, 10 + (i % 5) as u8)));
        }
        let flagged = identify_scanners(&conns);
        assert_eq!(flagged, vec![scanner]);
    }

    #[test]
    fn descending_sweeper_flagged() {
        let scanner = ipv4::Addr::new(32, 9, 9, 9);
        let conns: Vec<ConnRecord> = (1..=80u32)
            .rev()
            .map(|i| conn(scanner, ipv4::Addr(ipv4::Addr::new(10, 100, 3, 0).0 + i)))
            .collect();
        assert_eq!(identify_scanners(&conns), vec![scanner]);
    }

    #[test]
    fn busy_but_random_source_not_flagged() {
        // A mail server contacting many hosts in arbitrary order.
        let server = ipv4::Addr::new(10, 100, 0, 10);
        let conns: Vec<ConnRecord> = (0..200u32)
            .map(|i| {
                let shuffled = (i * 73) % 251; // no monotone runs
                conn(server, ipv4::Addr(ipv4::Addr::new(16, 0, 0, 0).0 + shuffled + 1))
            })
            .collect();
        assert!(identify_scanners(&conns).is_empty());
    }

    #[test]
    fn below_host_threshold_not_flagged() {
        let src = ipv4::Addr::new(64, 1, 1, 2);
        let conns: Vec<ConnRecord> = (1..=50u32)
            .map(|i| conn(src, ipv4::Addr(ipv4::Addr::new(10, 100, 3, 0).0 + i)))
            .collect();
        assert!(identify_scanners(&conns).is_empty());
    }

    #[test]
    fn removal_includes_known_scanners() {
        let known = ipv4::Addr::new(10, 100, 9, 10);
        let mut conns: Vec<ConnRecord> = (0..10)
            .map(|i| conn(known, ipv4::Addr::new(10, 100, 1, 30 + i)))
            .collect();
        conns.push(conn(
            ipv4::Addr::new(10, 100, 2, 40),
            ipv4::Addr::new(10, 100, 1, 10),
        ));
        let (flagged, removed) = remove_scanners(
            &mut conns,
            &ScannerConfig {
                known: vec![known],
            },
        );
        assert!(flagged.contains(&known));
        assert_eq!(removed.len(), 10);
        assert!(removed.iter().all(|c| c.orig_addr() == known));
        assert_eq!(conns.len(), 1);
    }
}
