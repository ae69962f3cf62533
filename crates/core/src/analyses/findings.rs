//! Table 5: the paper's example findings, regenerated as checked
//! statements from the measured results.

use super::{name, netfile, web, windows};
use crate::records::TraceAnalysis;
use std::borrow::Borrow;

/// One finding: the paper's claim, the measured value, and whether the
/// measurement supports the claim.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Paper section.
    pub section: &'static str,
    /// The claim as stated in Table 5.
    pub claim: &'static str,
    /// What we measured.
    pub measured: String,
    /// Whether the reproduction supports the claim.
    pub holds: bool,
}

/// Regenerate Table 5's findings from full-payload traces.
pub fn findings<T: Borrow<TraceAnalysis>>(traces: &[T]) -> Vec<Finding> {
    let mut out = Vec::new();
    // §5.1.1 — automated clients dominate internal HTTP.
    let auto = web::automated_clients(traces);
    out.push(Finding {
        section: "5.1.1",
        claim: "Automated HTTP clients constitute a significant fraction of internal HTTP traffic",
        measured: format!(
            "{:.0}% of internal requests, {:.0}% of internal bytes",
            auto.all.0, auto.all.1
        ),
        holds: auto.all.0 > 25.0,
    });
    // §5.1.3 — NBNS queries fail nearly half the time.
    let nbns = name::nbns_characteristics(traces);
    out.push(Finding {
        section: "5.1.3",
        claim: "Netbios/NS queries fail nearly 50% of the time (stale names)",
        measured: format!("{:.0}% of distinct names fail", nbns.distinct_query_failure_pct),
        holds: (25.0..=60.0).contains(&nbns.distinct_query_failure_pct),
    });
    // §5.2.1 — DCE/RPC is the most active CIFS component.
    let cifs = windows::cifs_breakdown(traces);
    let rpc_bytes = cifs
        .per_class
        .iter()
        .find(|e| e.0 == ent_proto::cifs::CifsClass::RpcPipes)
        .map(|e| e.2)
        .unwrap_or(0.0);
    out.push(Finding {
        section: "5.2.1",
        claim: "DCE/RPC over named pipes is the most active component of CIFS traffic",
        measured: format!("RPC pipes carry {rpc_bytes:.0}% of CIFS bytes"),
        holds: rpc_bytes > 25.0,
    });
    // §5.2.2 — reads/writes/attributes dominate NFS and NCP.
    let (nfs_total, _, nfs_rows) = netfile::nfs_breakdown(traces);
    let rw_attr: f64 = nfs_rows
        .iter()
        .filter(|r| ["Read", "Write", "GetAttr", "LookUp"].contains(&r.0.as_str()))
        .map(|r| r.1)
        .sum();
    out.push(Finding {
        section: "5.2.2",
        claim: "Most NFS requests read, write, or obtain file attributes",
        measured: format!("{rw_attr:.0}% of {nfs_total} NFS requests"),
        holds: rw_attr > 80.0,
    });
    // §5.2.2 — NCP keep-alive-only connections.
    let nf = netfile::netfile_findings(traces);
    out.push(Finding {
        section: "5.2.2",
        claim: "40-80% of NCP connections carry only periodic 1-byte keep-alives",
        measured: format!("{:.0}%", nf.ncp_keepalive_only_pct),
        holds: (30.0..=85.0).contains(&nf.ncp_keepalive_only_pct),
    });
    out
}

/// Render the findings as text.
pub fn render(findings: &[Finding]) -> String {
    let mut s = String::from("== Table 5: Example application traffic findings ==\n");
    for f in findings {
        s.push_str(&format!(
            "[{}] sec {} — {}\n       measured: {}\n",
            if f.holds { "OK " } else { "??? " },
            f.section,
            f.claim,
            f.measured
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::TraceAnalysis;

    #[test]
    fn empty_traces_yield_unconfirmed_findings() {
        let f = findings(&[TraceAnalysis::default()]);
        assert_eq!(f.len(), 5);
        // With no data nothing should hold.
        assert!(f.iter().all(|x| !x.holds));
        let text = render(&f);
        assert!(text.contains("sec 5.2.2"));
    }
}
