//! End-to-end integration: generation → capture → flow tracking →
//! protocol analysis → paper tables, across crates.

// Test helpers may abort on setup failure, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used)]

use ent_core::study::build_report;
use ent_integration::small_dataset;

#[test]
fn full_report_from_two_datasets() {
    let d0 = small_dataset("D0", 8);
    let d4 = small_dataset("D4", 10);
    let report = build_report(&[d0, d4]);
    let text = report.render();
    for needle in [
        "Table 1: Dataset characteristics",
        "Table 2: Network-layer protocol mix",
        "Table 3: Transport breakdown",
        "Figure 1(a)",
        "Figure 1(b)",
        "Origins of flows",
        "Table 6: Automated clients",
        "Table 7: HTTP reply content types",
        "Table 8: Email traffic size",
        "Figure 5(a)",
        "Figure 6(b)",
        "Name services",
        "Table 9: Windows connection success",
        "Table 10: CIFS command breakdown",
        "Table 11: DCE/RPC function breakdown",
        "Table 12: NFS/NCP size",
        "Table 13: NFS requests",
        "Table 14: NCP requests",
        "Table 15: Backup applications",
        "Figure 9(a)",
        "Figure 9(b)",
        "Figure 10",
        "Table 5: Example application traffic findings",
    ] {
        assert!(text.contains(needle), "report missing {needle}");
    }
}

#[test]
fn headline_shapes_hold_end_to_end() {
    use ent_core::analyses::{appmix, email, locality, netlayer, transport};
    // D1 (hour-long traces) rather than D0: D0's ten-minute slices are
    // legitimately swingable by a single UDP-NFS heavy hitter, exactly as
    // the paper's own D0 shows the highest UDP byte share.
    let d0 = small_dataset("D1", 10);
    // Table 2: IP dominates the packets and IPX leads the non-IP mix.
    let l3 = netlayer::netlayer(&d0.traces);
    assert!(l3.ip_pct > 90.0 && l3.ipx_pct > l3.arp_pct, "network layer: {l3:?}");
    // The paper's signature §3 finding: most bytes TCP, most conns UDP.
    let t = transport::transport(&d0.traces);
    assert!(
        t.tcp_bytes_pct > t.udp_bytes_pct,
        "TCP must dominate bytes: {t:?}"
    );
    assert!(
        t.udp_conns_pct > t.tcp_conns_pct * 2.0,
        "UDP must dominate connections: {t:?}"
    );
    // Name services: huge connection share, negligible byte share.
    let mix = appmix::appmix(&d0.traces);
    let name = mix
        .shares
        .iter()
        .find(|(c, _)| *c == ent_proto::Category::Name)
        .expect("name category present")
        .1;
    assert!(
        name.conns_pct() > 30.0,
        "name conns {:.1}% too small",
        name.conns_pct()
    );
    assert!(
        name.bytes_pct() < 3.0,
        "name bytes {:.1}% too large",
        name.bytes_pct()
    );
    // Figure 2: the body of the hosts has a modest enterprise fan-out.
    let fan_out = locality::locality(&d0.traces).fan_out_ent.quantile(0.9);
    assert!(fan_out.is_some_and(|p90| p90 < 60.0), "fan-out p90 {fan_out:?}");
    // Figure 5: WAN SMTP is RTT-bound and lasts far longer than internal.
    let smtp = email::durations_and_sizes(&d0.traces, ent_proto::AppProtocol::Smtp, true);
    let ent = smtp.dur_ent.median().expect("internal SMTP present");
    let wan = smtp.dur_wan.median().expect("WAN SMTP present");
    assert!(wan > ent * 2.0, "WAN SMTP {wan}s must far outlast internal {ent}s");
}

#[test]
fn scanner_removal_reported() {
    // Sweeps are probabilistic per trace; D1's two passes over 12 subnets
    // give ~24 chances.
    let d1 = small_dataset("D1", 12);
    let removed: u64 = d1.traces.iter().map(|t| t.scanner_conns_removed).sum();
    assert!(removed > 0, "no scanner traffic removed");
    let flagged: usize = d1.traces.iter().map(|t| t.scanners_removed.len()).sum();
    assert!(flagged > 0);
}

#[test]
fn vantage_point_changes_what_you_see() {
    // The paper's recurring theme: the monitored subnet determines the
    // traffic profile. D0 (router A) sees the mail servers; D4 (router B)
    // sees the print server.
    use ent_core::analyses::{backup, email, load, netfile, transport, web, windows};
    use ent_proto::dcerpc::RpcFunction;
    let d0 = small_dataset("D0", 10);
    let d4 = small_dataset("D4", 10);
    // What does not change with the vantage point, on both payload datasets:
    for d in [&d0, &d4] {
        let name = d.spec.name;
        // Table 3: UDP leads the connection count.
        let t = transport::transport(&d.traces);
        assert!(t.udp_conns_pct > t.tcp_conns_pct, "{name}: UDP must lead connections: {t:?}");
        // Table 9: clients dial 139 and 445 in parallel and 445 is often
        // refused, so NBSSN succeeds for more host pairs than CIFS.
        let svc = windows::windows_success(&d.traces);
        let (nbssn, cifs) = (svc[0].1.successful_pct, svc[1].1.successful_pct);
        assert!(nbssn > cifs, "{name}: NBSSN ({nbssn:.0}%) must beat CIFS ({cifs:.0}%)");
        // Figure 3: a client's HTTP fan-out is wider to the WAN than inside.
        let (ent, wan) = web::http_fanout(&d.traces);
        let (ent, wan) = (ent.quantile(0.9).expect("ent HTTP"), wan.quantile(0.9).expect("WAN HTTP"));
        assert!(wan > ent, "{name}: WAN fan-out {wan} must exceed enterprise {ent}");
        // Figure 9: peak utilization shrinks as the averaging window grows.
        for u in &load::utilization(&d.traces).per_trace {
            assert!(u.peak_1s >= u.peak_10s && u.peak_10s >= u.peak_60s, "{name}: {u:?}");
        }
    }
    // Figures 7-8: NFS is dual-mode — small requests, replies up to ~8 KB.
    let nfs = netfile::netfile_distributions(&d0.traces);
    assert!(nfs.nfs_reply_sizes.n() > 50, "D0 sees the NFS server");
    assert!(nfs.nfs_reply_sizes.quantile(0.95).is_some_and(|p95| p95 > 4_000.0));
    assert!(nfs.nfs_req_sizes.quantile(0.5).is_some_and(|p50| p50 < 500.0));
    // Table 15: Veritas control connections outnumber its data connections,
    // whose bytes dwarf theirs.
    let bk = backup::backup_analysis(&d4.traces);
    assert!(bk.veritas_data.0 > 0 && bk.veritas_ctrl.0 >= bk.veritas_data.0, "{bk:?}");
    assert!(bk.veritas_data.1 > bk.veritas_ctrl.1 * 20, "{bk:?}");
    let vol0 = email::email_volumes(&d0.traces);
    let vol4 = email::email_volumes(&d4.traces);
    // D0 carries cleartext IMAP4; D4 does not (the IMAP/S policy change).
    assert!(vol0.imap4 > 0, "D0 must show cleartext IMAP");
    assert_eq!(vol4.imap4, 0, "IMAP4 must be gone after the policy change");
    // WritePrinter dominates D4's RPC mix but is absent from D0's.
    let rpc0 = windows::rpc_breakdown(&d0.traces);
    let rpc4 = windows::rpc_breakdown(&d4.traces);
    let wp = |b: &windows::RpcBreakdown| {
        b.per_function
            .iter()
            .find(|e| e.0 == RpcFunction::SpoolssWritePrinter)
            .map(|e| e.1)
            .unwrap_or(0.0)
    };
    assert_eq!(wp(&rpc0), 0.0, "no printing at the D0 vantage");
    assert!(wp(&rpc4) > 30.0, "WritePrinter must dominate D4: {:?}", rpc4);
    let nl = |b: &windows::RpcBreakdown| {
        b.per_function
            .iter()
            .find(|e| e.0 == RpcFunction::NetLogon)
            .map(|e| e.1)
            .unwrap_or(0.0)
    };
    assert!(nl(&rpc0) > 20.0, "NetLogon must dominate D0: {:?}", rpc0);
}
