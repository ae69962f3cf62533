//! Whole-study assembly: every table and figure of the paper, rendered
//! from a set of analyzed datasets.

use crate::analyses::*;
use crate::report::{Figure, Table};
use crate::run::DatasetAnalysis;
use ent_proto::AppProtocol;

/// Full-payload datasets (snaplen 1500): the only ones usable for
/// payload-level analyses, as in the paper (D1/D2 are header-only).
pub fn payload_sets(studies: &[DatasetAnalysis]) -> Vec<&DatasetAnalysis> {
    studies.iter().filter(|d| d.spec.snaplen >= 1500).collect()
}

/// The complete rendered study.
#[derive(Debug, Default)]
pub struct StudyReport {
    /// Tables in paper order.
    pub tables: Vec<Table>,
    /// Figures in paper order.
    pub figures: Vec<Figure>,
    /// Free-text findings and characteristics.
    pub notes: Vec<String>,
}

impl StudyReport {
    /// Render everything as one text document.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for t in &self.tables {
            s.push_str(&t.render());
            s.push('\n');
        }
        for f in &self.figures {
            s.push_str(&f.render());
            s.push('\n');
        }
        for n in &self.notes {
            s.push_str(n);
            s.push('\n');
        }
        s
    }
}

/// Build every table and figure from the analyzed datasets.
pub fn build_report(studies: &[DatasetAnalysis]) -> StudyReport {
    let mut rep = StudyReport::default();

    // Table 1.
    let summaries: Vec<_> = studies
        .iter()
        .map(|d| summary::dataset_summary(d.spec.name, &d.traces, d.spec.snaplen))
        .collect();
    rep.tables.push(summary::table1(&summaries));

    // Ingest health: per-stage damage tallies (methodology, not a paper
    // table — real captures arrive damaged and the analyses' credibility
    // rests on knowing how much was salvaged vs. skipped).
    {
        let mut t = Table::new(
            "Ingest health (damage absorbed per dataset)",
            &[
                "dataset",
                "records",
                "malformed",
                "repaired",
                "skipped B",
                "bad frames",
                "clock regr",
                "evicted",
                "pend drop",
                "demoted",
            ],
        );
        for d in studies {
            let h = d.ingest_health();
            t.row(vec![
                d.spec.name.to_string(),
                h.capture.records.to_string(),
                h.capture.malformed_records.to_string(),
                h.capture.repaired_records.to_string(),
                h.capture.bytes_skipped.to_string(),
                h.malformed_frames.to_string(),
                (h.capture.clock_regressions + h.clock_regressions).to_string(),
                h.evicted_conns.to_string(),
                h.pending_dropped.to_string(),
                h.demoted_conns.to_string(),
            ]);
            if !h.is_clean() {
                rep.notes
                    .push(format!("[{}] degraded ingest: {h}", d.spec.name));
            }
        }
        rep.tables.push(t);
    }

    // Table 2.
    let nl: Vec<_> = studies
        .iter()
        .map(|d| (d.spec.name, netlayer::netlayer(&d.traces)))
        .collect();
    rep.tables.push(netlayer::table2(&nl));

    // Table 3.
    let tr: Vec<_> = studies
        .iter()
        .map(|d| (d.spec.name, transport::transport(&d.traces)))
        .collect();
    rep.tables.push(transport::table3(&tr));

    // Figure 1 + multicast notes.
    let mixes: Vec<_> = studies
        .iter()
        .map(|d| (d.spec.name, appmix::appmix(&d.traces)))
        .collect();
    rep.tables.push(appmix::figure1(&mixes, true));
    rep.tables.push(appmix::figure1(&mixes, false));
    for (n, m) in &mixes {
        rep.notes.push(format!(
            "[{n}] multicast streaming: {:.1}% of payload bytes; multicast SrvLoc/SAP: {:.1}% of connections",
            m.multicast_streaming_bytes_pct, m.multicast_name_mgnt_conns_pct
        ));
    }
    for (d, (_, mix)) in studies.iter().zip(&mixes) {
        // The paper's packets-vs-bytes remark: interactive traffic's
        // packet share is roughly twice its byte share.
        let pkt = appmix::packet_shares(&d.traces);
        let byte_share = mix
            .shares
            .iter()
            .find(|(c, _)| *c == ent_proto::Category::Interactive)
            .map(|(_, s)| s.bytes_pct())
            .unwrap_or(0.0);
        let pkt_share = pkt
            .iter()
            .find(|(c, _)| *c == ent_proto::Category::Interactive)
            .map(|(_, p)| *p)
            .unwrap_or(0.0);
        rep.notes.push(format!(
            "[{}] interactive: {:.1}% of packets vs {:.1}% of bytes (paper: packets ≈ 2x bytes)",
            d.spec.name, pkt_share, byte_share
        ));
    }

    // Origins (§4) + Figure 2 (paper plots D2 and D3).
    let orig: Vec<_> = studies
        .iter()
        .map(|d| (d.spec.name, origins::origins(&d.traces)))
        .collect();
    rep.tables.push(origins::origins_table(&orig));
    let loc: Vec<(&str, locality::Locality)> = studies
        .iter()
        .filter(|d| d.spec.name == "D2" || d.spec.name == "D3")
        .map(|d| (d.spec.name, locality::locality(&d.traces)))
        .collect();
    if !loc.is_empty() {
        let refs: Vec<(&str, &locality::Locality)> =
            loc.iter().map(|(n, l)| (*n, l)).collect();
        let (f2a, f2b) = locality::figure2(&refs);
        rep.figures.push(f2a);
        rep.figures.push(f2b);
        for (n, l) in &loc {
            rep.notes.push(format!(
                "[{n}] hosts with only-internal fan-in: {:.0}%, only-internal fan-out: {:.0}%",
                l.only_internal_fan_in * 100.0,
                l.only_internal_fan_out * 100.0
            ));
        }
    }

    // Web (payload datasets only).
    let psets = payload_sets(studies);
    // Every payload trace, borrowed, for the analyses that aggregate
    // across datasets (Tables 5 and 7).
    let ptraces: Vec<_> = psets.iter().flat_map(|d| d.traces.iter()).collect();
    let auto: Vec<_> = psets
        .iter()
        .map(|d| (d.spec.name, web::automated_clients(&d.traces)))
        .collect();
    rep.tables.push(web::table6(&auto));
    let fan_sizes: Vec<_> = psets
        .iter()
        .map(|d| {
            (
                d.spec.name,
                web::http_fanout(&d.traces),
                web::reply_sizes(&d.traces),
            )
        })
        .collect();
    let (f3, f4) = web::figures34(&fan_sizes);
    rep.figures.push(f3);
    rep.figures.push(f4);
    for d in &psets {
        let w = web::web_characteristics(&d.traces);
        rep.notes.push(format!(
            "[{}] HTTP conn success ent {:.0}% / wan {:.0}%; conditional GET ent {:.0}% wan {:.0}% (bytes {:.0}%/{:.0}%); GET {:.0}%; request success {:.0}%",
            d.spec.name,
            w.success_ent_pct,
            w.success_wan_pct,
            w.conditional_ent_pct,
            w.conditional_wan_pct,
            w.conditional_ent_bytes_pct,
            w.conditional_wan_bytes_pct,
            w.get_pct,
            w.request_success_pct
        ));
    }
    // Table 7, aggregated over payload datasets.
    rep.tables.push(web::table7(&web::content_types(&ptraces)));

    // Email.
    let vols: Vec<_> = studies
        .iter()
        .map(|d| (d.spec.name, email::email_volumes(&d.traces)))
        .collect();
    rep.tables.push(email::table8(&vols));
    let smtp_ds: Vec<_> = studies
        .iter()
        .map(|d| {
            (
                d.spec.name,
                email::durations_and_sizes(&d.traces, AppProtocol::Smtp, true),
            )
        })
        .collect();
    let (f5a, f6a) = email::figures56(
        "Figure 5(a): SMTP connection durations",
        "Figure 6(a): SMTP flow size (from client)",
        &smtp_ds,
    );
    let imaps_ds: Vec<_> = studies
        .iter()
        .filter(|d| d.spec.name != "D0")
        .map(|d| {
            (
                d.spec.name,
                email::durations_and_sizes(&d.traces, AppProtocol::ImapS, false),
            )
        })
        .collect();
    let (f5b, f6b) = email::figures56(
        "Figure 5(b): IMAP/S connection durations",
        "Figure 6(b): IMAP/S flow size (from server)",
        &imaps_ds,
    );
    rep.figures.extend([f5a, f5b, f6a, f6b]);
    for d in studies {
        let (se, sw) = email::email_success(&d.traces, AppProtocol::Smtp);
        let (ie, iw) = email::email_success(&d.traces, AppProtocol::ImapS);
        rep.notes.push(format!(
            "[{}] SMTP success ent {se:.0}% / wan {sw:.0}%; IMAP/S success ent {ie:.0}% / wan {iw:.0}%",
            d.spec.name
        ));
    }

    // HTTPS / TLS (sec. 5.1.1's encrypted-traffic observations).
    for d in &psets {
        let total: usize = d.traces.iter().map(|t| t.tls.len()).sum();
        if total == 0 {
            continue;
        }
        let complete: usize = d
            .traces
            .iter()
            .flat_map(|t| t.tls.iter())
            .filter(|t| t.handshake_complete)
            .count();
        // The paper's D4 observation: hundreds of short handshake-then-
        // close connections between a single host pair.
        let mut pairs: std::collections::HashMap<(u32, u32), usize> = Default::default();
        for t in d.traces.iter().flat_map(|t| t.tls.iter()) {
            if t.port == 443 {
                *pairs.entry((t.pair.0 .0, t.pair.1 .0)).or_default() += 1;
            }
        }
        let max_pair = pairs.values().max().copied().unwrap_or(0);
        rep.notes.push(format!(
            "[{}] TLS: {total} connections, {:.0}% complete the handshake; busiest HTTPS host-pair opened {max_pair} connections",
            d.spec.name,
            complete as f64 / total as f64 * 100.0
        ));
    }

    // Name services (payload datasets).
    let ns: Vec<_> = psets
        .iter()
        .map(|d| {
            (
                d.spec.name,
                name::dns_characteristics(&d.traces),
                name::nbns_characteristics(&d.traces),
            )
        })
        .collect();
    rep.tables.push(name::name_services_table(&ns));
    {
        let rows: Vec<(&str, &crate::analyses::DatasetTraces)> = psets
            .iter()
            .map(|d| (d.spec.name, d.traces.as_slice() as &crate::analyses::DatasetTraces))
            .collect();
        rep.figures.push(name::dns_latency_figure(&rows));
    }

    // Windows.
    let winsucc: Vec<_> = psets
        .iter()
        .map(|d| (d.spec.name, windows::windows_success(&d.traces)))
        .collect();
    rep.tables.push(windows::table9(&winsucc));
    for d in &psets {
        rep.notes.push(format!(
            "[{}] NetBIOS-SSN handshake success: {:.0}%",
            d.spec.name,
            windows::ssn_handshake_success(&d.traces)
        ));
    }
    let cifs: Vec<_> = psets
        .iter()
        .map(|d| (d.spec.name, windows::cifs_breakdown(&d.traces)))
        .collect();
    rep.tables.push(windows::table10(&cifs));
    let rpc: Vec<_> = psets
        .iter()
        .map(|d| (d.spec.name, windows::rpc_breakdown(&d.traces)))
        .collect();
    rep.tables.push(windows::table11(&rpc));

    // Network file systems.
    let nf: Vec<_> = studies
        .iter()
        .map(|d| (d.spec.name, netfile::netfile_sizes(&d.traces)))
        .collect();
    rep.tables.push(netfile::table12(&nf));
    let nfs_bd: Vec<_> = psets
        .iter()
        .map(|d| (d.spec.name, netfile::nfs_breakdown(&d.traces)))
        .collect();
    rep.tables.push(netfile::op_table("Table 13: NFS requests", &nfs_bd));
    let ncp_bd: Vec<_> = psets
        .iter()
        .map(|d| (d.spec.name, netfile::ncp_breakdown(&d.traces)))
        .collect();
    rep.tables.push(netfile::op_table("Table 14: NCP requests", &ncp_bd));
    let dists: Vec<_> = psets
        .iter()
        .map(|d| (d.spec.name, netfile::netfile_distributions(&d.traces)))
        .collect();
    let (f7, f8) = netfile::figures78(&dists);
    rep.figures.push(f7);
    rep.figures.push(f8);
    for d in &psets {
        let f = netfile::netfile_findings(&d.traces);
        rep.notes.push(format!(
            "[{}] NCP keep-alive-only {:.0}%; NFS UDP bytes {:.0}% (pairs {:.0}%); NFS top-3 pairs {:.0}% of bytes, NCP top-3 {:.0}%; NFS req success {:.0}%; NCP req success {:.0}%, conn success {:.0}%",
            d.spec.name,
            f.ncp_keepalive_only_pct,
            f.nfs_udp_bytes_pct,
            f.nfs_udp_pairs_pct,
            f.nfs_top3_bytes_pct,
            f.ncp_top3_bytes_pct,
            f.nfs_request_success_pct,
            f.ncp_request_success_pct,
            f.ncp_conn_success_pct
        ));
    }

    // Backup (aggregate across datasets, as Table 15).
    {
        let traces: Vec<_> = studies.iter().flat_map(|d| d.traces.iter()).collect();
        let b = backup::backup_analysis(&traces);
        rep.tables.push(backup::table15(&b));
        rep.notes.push(format!(
            "[all] Veritas one-way data conns: {}/{}; Dantz bidirectional (>1MB both ways): {}/{}",
            b.veritas_one_way, b.veritas_data.0, b.dantz_bidirectional, b.dantz.0
        ));
    }

    // Load (Figure 9 on D4, as the paper; Figure 10 across all).
    if let Some(d4) = studies.iter().find(|d| d.spec.name == "D4") {
        let u = load::utilization(&d4.traces);
        rep.figures.push(u.figure9a());
        rep.figures.push(u.figure9b());
    }
    let retx: Vec<_> = studies
        .iter()
        .map(|d| (d.spec.name, load::retx_rates(&d.traces, 1_000)))
        .collect();
    rep.figures.push(load::figure10(&retx));

    // Future-work extensions the paper calls out explicitly.
    {
        // Scan-traffic characterization (sec. 3).
        let scans: Vec<_> = studies
            .iter()
            .map(|d| (d.spec.name, scan_study::scan_study(&d.traces)))
            .collect();
        rep.tables.push(scan_study::scan_table(&scans, 4));
        // Per-application locality (sec. 4).
        let locs: Vec<_> = studies
            .iter()
            .map(|d| (d.spec.name, app_locality::app_locality(&d.traces)))
            .collect();
        rep.tables.push(app_locality::app_locality_table(&locs));
        // Cross-trace variability (sec. 3).
        let vars: Vec<_> = studies
            .iter()
            .map(|d| (d.spec.name, variability::variability(&d.traces)))
            .collect();
        rep.tables.push(variability::variability_table(&vars));
        // Web objects per session (sec. 5.1.1 text).
        let sess: Vec<_> = psets
            .iter()
            .map(|d| (d.spec.name, websessions::web_sessions(&d.traces)))
            .collect();
        for (n, s) in &sess {
            rep.notes.push(format!(
                "[{n}] web sessions: {:.0}% single-object, {:.0}% with 10+ objects (paper: ~50% / 10-20%)",
                s.single_object_frac() * 100.0,
                s.ten_plus_frac() * 100.0
            ));
        }
        rep.figures.push(websessions::sessions_figure(&sess));
    }

    // Table 5 findings (payload datasets).
    rep.notes.push(findings::render(&findings::findings(&ptraces)));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_dataset, StudyConfig};
    use ent_gen::dataset::all_datasets;
    use ent_gen::GenConfig;

    #[test]
    fn small_study_builds_full_report() {
        let config = StudyConfig {
            gen: GenConfig {
                scale: 0.004,
                seed: 3,
                hosts_per_subnet: Some(8),
            },
            ..Default::default()
        };
        let specs = all_datasets();
        // Two datasets, few subnets each, to keep the test fast.
        let mut d0 = specs[0];
        d0.monitored = (0..6).into();
        let mut d4 = specs[4];
        d4.monitored = (24..31).into();
        let studies = vec![run_dataset(&d0, &config), run_dataset(&d4, &config)];
        let report = build_report(&studies);
        assert!(report.tables.len() >= 12, "tables: {}", report.tables.len());
        assert!(report.figures.len() >= 9, "figures: {}", report.figures.len());
        let text = report.render();
        for needle in [
            "Table 1",
            "Ingest health",
            "Table 2",
            "Table 3",
            "Figure 1(a)",
            "Table 6",
            "Figure 4",
            "Table 8",
            "Figure 5(a)",
            "Table 9",
            "Table 10",
            "Table 11",
            "Table 12",
            "Table 13",
            "Table 14",
            "Table 15",
            "Figure 9(a)",
            "Figure 10",
            "Table 5",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
