//! Whole-study assembly: every table and figure of the paper, rendered
//! from a set of analyzed datasets.

// Report bytes must not follow hash iteration order (clippy.toml).
#![deny(clippy::disallowed_types)]

use crate::analyses::*;
use crate::report::{Figure, Table};
use crate::run::DatasetAnalysis;
use crate::stats::{share, Ecdf};
use ent_proto::AppProtocol;

/// Full-payload datasets ([`ent_pcap::keeps_payload`]): the only ones
/// usable for payload-level analyses, as in the paper (D1/D2 are
/// header-only).
pub fn payload_sets(studies: &[DatasetAnalysis]) -> Vec<&DatasetAnalysis> {
    studies.iter().filter(|d| ent_pcap::keeps_payload(d.spec.snaplen)).collect()
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

/// One value per dataset, in study order.
pub(crate) type Per<T> = Vec<(&'static str, T)>;

/// Every analysis the report reads, computed once by [`build_report`]:
/// the tables and figures are rendered from it, and the paper's claims
/// ([`crate::claims`]) are judged on it.
#[derive(Default)]
pub(crate) struct Measured {
    pub scale: f64,
    pub t1: Vec<summary::DatasetSummary>,
    pub nl: Per<netlayer::NetLayerBreakdown>,
    pub tr: Per<transport::TransportBreakdown>,
    pub mix: Per<appmix::AppMix>,
    pub pkts: Per<Vec<(ent_proto::Category, f64)>>,
    pub orig: Per<origins::Origins>,
    pub loc: Per<locality::Locality>,
    pub auto: Per<web::AutomatedClients>,
    pub fan_sizes: Vec<(&'static str, (Ecdf, Ecdf), (Ecdf, Ecdf))>,
    pub web: Per<web::WebCharacteristics>,
    pub content: web::ContentTypes,
    pub vols: Per<email::EmailVolumes>,
    pub smtp: Per<email::DurationsAndSizes>,
    pub imaps: Per<email::DurationsAndSizes>,
    /// SMTP ent, SMTP wan, IMAP/S ent, IMAP/S wan success (%).
    pub mail_ok: Per<[Option<f64>; 4]>,
    /// HTTPS handshake completion (%) and the busiest port-443 host pair's
    /// connection count.
    pub tls: Per<(Option<f64>, f64)>,
    pub ns: Vec<(&'static str, name::DnsCharacteristics, name::NbnsCharacteristics)>,
    pub win: Per<[(u16, windows::ServiceSuccess); 3]>,
    pub ssn: Per<f64>,
    pub cifs: Per<windows::CifsBreakdown>,
    pub rpc: Per<windows::RpcBreakdown>,
    pub nf: Per<netfile::NetFileSizes>,
    pub nfs_ops: Per<(u64, u64, netfile::OpBreakdown)>,
    pub ncp_ops: Per<(u64, u64, netfile::OpBreakdown)>,
    pub dists: Per<netfile::NetFileDistributions>,
    pub nff: Per<netfile::NetFileFindings>,
    pub backup: backup::BackupAnalysis,
    pub util: Option<load::UtilizationStudy>,
    pub retx: Per<(Vec<f64>, Vec<f64>)>,
    pub scans: Per<scan_study::ScanStudy>,
    pub sess: Per<websessions::WebSessions>,
}

/// `f` over each of `sets`, labelled by dataset.
fn per<T>(sets: &[&DatasetAnalysis], f: impl Fn(&DatasetTraces) -> T) -> Per<T> {
    sets.iter().map(|d| (d.spec.name, f(&d.traces))).collect()
}

/// HTTPS handshake completion and the busiest port-443 host pair (the
/// paper's D4 observation: hundreds of short handshake-then-close
/// connections between one pair); `None` without TLS.
fn tls(traces: &DatasetTraces) -> Option<(Option<f64>, f64)> {
    let tls: Vec<_> = traces.iter().flat_map(|t| t.tls.iter()).collect();
    let complete = tls.iter().filter(|t| t.handshake_complete).count();
    let mut pairs: std::collections::BTreeMap<(u32, u32), usize> = Default::default();
    for t in tls.iter().filter(|t| t.port == 443) {
        *pairs.entry((t.pair.0 .0, t.pair.1 .0)).or_default() += 1;
    }
    let busiest = pairs.values().max().copied().unwrap_or(0) as f64;
    (!tls.is_empty()).then(|| (share(complete as u64, tls.len() as u64), busiest))
}

/// Build every table and figure from the analyzed datasets.
pub fn build_report(studies: &[DatasetAnalysis]) -> StudyReport {
    let mut rep = StudyReport::default();
    let all: Vec<&DatasetAnalysis> = studies.iter().collect();
    let psets = payload_sets(studies);
    let d2d3: Vec<_> = all.iter().copied().filter(|d| matches!(d.spec.name, "D2" | "D3")).collect();
    // Every payload trace, borrowed, for Table 7; every trace for Table 15.
    let ptraces: Vec<_> = psets.iter().flat_map(|d| d.traces.iter()).collect();
    let traces: Vec<_> = studies.iter().flat_map(|d| d.traces.iter()).collect();
    let m = Measured {
        scale: studies.first().map_or(0.0, |d| d.scale),
        t1: studies
            .iter()
            .map(|d| summary::dataset_summary(d.spec.name, &d.traces, d.spec.snaplen))
            .collect(),
        nl: per(&all, netlayer::netlayer),
        tr: per(&all, transport::transport),
        mix: per(&all, appmix::appmix),
        pkts: per(&all, appmix::packet_shares),
        orig: per(&all, origins::origins),
        loc: per(&d2d3, locality::locality),
        auto: per(&psets, web::automated_clients),
        fan_sizes: psets
            .iter()
            .map(|d| (d.spec.name, web::http_fanout(&d.traces), web::reply_sizes(&d.traces)))
            .collect(),
        web: per(&psets, web::web_characteristics),
        content: web::content_types(&ptraces),
        vols: per(&all, email::email_volumes),
        smtp: per(&all, |t| email::durations_and_sizes(t, AppProtocol::Smtp, true)),
        imaps: per(
            &all.iter().copied().filter(|d| d.spec.name != "D0").collect::<Vec<_>>(),
            |t| email::durations_and_sizes(t, AppProtocol::ImapS, false),
        ),
        mail_ok: per(&all, |t| {
            let (se, sw) = email::email_success(t, AppProtocol::Smtp);
            let (ie, iw) = email::email_success(t, AppProtocol::ImapS);
            [se, sw, ie, iw]
        }),
        tls: per(&psets, tls).into_iter().filter_map(|(n, t)| Some((n, t?))).collect(),
        ns: psets
            .iter()
            .map(|d| {
                let t = &d.traces;
                (d.spec.name, name::dns_characteristics(t), name::nbns_characteristics(t))
            })
            .collect(),
        win: per(&psets, windows::windows_success),
        ssn: per(&psets, windows::ssn_handshake_success),
        cifs: per(&psets, windows::cifs_breakdown),
        rpc: per(&psets, windows::rpc_breakdown),
        nf: per(&all, netfile::netfile_sizes),
        nfs_ops: per(&psets, netfile::nfs_breakdown),
        ncp_ops: per(&psets, netfile::ncp_breakdown),
        dists: per(&psets, netfile::netfile_distributions),
        nff: per(&psets, netfile::netfile_findings),
        backup: backup::backup_analysis(&traces),
        util: studies.iter().find(|d| d.spec.name == "D4").map(|d| load::utilization(&d.traces)),
        retx: per(&all, |t| load::retx_rates(t, 1_000)),
        scans: per(&all, scan_study::scan_study),
        sess: per(&psets, websessions::web_sessions),
    };

    rep.tables.push(summary::table1(&m.t1));

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

    rep.tables.push(netlayer::table2(&m.nl));
    rep.tables.push(transport::table3(&m.tr));
    rep.tables.push(appmix::figure1(&m.mix, true));
    rep.tables.push(appmix::figure1(&m.mix, false));

    // Origins (§4) + Figure 2 (paper plots D2 and D3).
    rep.tables.push(origins::origins_table(&m.orig));
    if !m.loc.is_empty() {
        let refs: Vec<(&str, &locality::Locality)> = m.loc.iter().map(|(n, l)| (*n, l)).collect();
        let (f2a, f2b) = locality::figure2(&refs);
        rep.figures.push(f2a);
        rep.figures.push(f2b);
    }

    // Web (payload datasets only); Table 7 aggregated over them.
    rep.tables.push(web::table6(&m.auto));
    let (f3, f4) = web::figures34(&m.fan_sizes);
    rep.figures.push(f3);
    rep.figures.push(f4);
    rep.tables.push(web::table7(&m.content));

    // Email.
    rep.tables.push(email::table8(&m.vols));
    let (f5a, f6a) = email::figures56(
        "Figure 5(a): SMTP connection durations",
        "Figure 6(a): SMTP flow size (from client)",
        &m.smtp,
    );
    let (f5b, f6b) = email::figures56(
        "Figure 5(b): IMAP/S connection durations",
        "Figure 6(b): IMAP/S flow size (from server)",
        &m.imaps,
    );
    rep.figures.extend([f5a, f5b, f6a, f6b]);

    // Name services (payload datasets).
    rep.tables.push(name::name_services_table(&m.ns));
    let rows: Vec<(&str, &DatasetTraces)> =
        psets.iter().map(|d| (d.spec.name, d.traces.as_slice())).collect();
    rep.figures.push(name::dns_latency_figure(&rows));

    // Windows.
    rep.tables.push(windows::table9(&m.win));
    rep.tables.push(windows::table10(&m.cifs));
    rep.tables.push(windows::table11(&m.rpc));

    // Network file systems.
    rep.tables.push(netfile::table12(&m.nf));
    rep.tables.push(netfile::op_table("Table 13: NFS requests", &m.nfs_ops));
    rep.tables.push(netfile::op_table("Table 14: NCP requests", &m.ncp_ops));
    let (f7, f8) = netfile::figures78(&m.dists);
    rep.figures.push(f7);
    rep.figures.push(f8);

    // Backup (aggregate across datasets, as Table 15).
    rep.tables.push(backup::table15(&m.backup));

    // Load (Figure 9 on D4, as the paper; Figure 10 across all).
    if let Some(u) = &m.util {
        rep.figures.push(u.figure9a());
        rep.figures.push(u.figure9b());
    }
    rep.figures.push(load::figure10(&m.retx));

    // Future-work extensions the paper calls out explicitly: scan traffic
    // (sec. 3), per-application locality (sec. 4), cross-trace variability
    // (sec. 3) and web objects per session (sec. 5.1.1 text).
    rep.tables.push(scan_study::scan_table(&m.scans, 4));
    rep.tables.push(app_locality::app_locality_table(&per(&all, app_locality::app_locality)));
    rep.tables.push(variability::variability_table(&per(&all, variability::variability)));
    rep.figures.push(websessions::sessions_figure(&m.sess));

    // The paper's claims, judged on the values above.
    rep.tables.push(crate::claims::table(&m, &mut rep.notes));
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
        // The claims table closes the tables; without D2/D3 Figure 2's
        // rows have no sample.
        let claims = report.tables.last().expect("claims table");
        assert_eq!(claims.title, crate::claims::TITLE);
        assert_eq!(claims.rows.len(), crate::claims::CLAIMS.len());
        let f2 = claims.rows.iter().find(|r| r[0] == "F2.fanout").expect("F2 row");
        assert_eq!((f2[3].as_str(), f2[4].as_str()), ("", "not judged"));
    }
}
