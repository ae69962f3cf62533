//! The paper's claims as data: one row per verdict, with the paper's band,
//! an extractor over the values [`crate::study::build_report`] computed, and
//! a class. Every study report renders them judged, as its [`TITLE`] table.

// Report bytes must not follow hash iteration order (clippy.toml).
#![deny(clippy::disallowed_types)]

use crate::analyses::{appmix::AppMix, netfile::OpBreakdown, summary::DatasetSummary};
use crate::report::Table;
use crate::stats::Ecdf;
use crate::study::Measured;
use ent_proto::{cifs::CifsClass, dcerpc::RpcFunction, Category::{self, *}};
use Class::{Absolute as A, KnownDeviation as K, Match as M, Shape as S};

/// Title of the claims table in every study report.
pub const TITLE: &str = "Paper claims";
/// Verdicts that contradict a row's class.
pub const SURPRISES: [&str; 2] = ["MISS", "NOW IN BAND"];

#[derive(Clone, Copy)]
enum Class {
    /// ✓ inside the paper's band.
    Match,
    /// A `Match` on an absolute count or volume: judged only at scale 1.0.
    Absolute,
    /// ≈ the paper's numbers are missed; the ordering the band encodes holds.
    Shape,
    /// ✗ outside the paper's band, for the reason given.
    KnownDeviation(&'static str),
}

/// Measured values labelled by dataset; `None` is "no sample".
type Values<'a> = Vec<(&'a str, Option<f64>)>;

/// One claim: id (`T3.conns.udp`: Table, Figure or text section `S511` for
/// sec. 5.1.1, then the quantity), the paper's words, the band (low, high)
/// every value is judged in as rendered, the class, and the extractor.
#[derive(Clone, Copy)]
pub struct Claim(&'static str, &'static str, f64, f64, Class, for<'a> fn(&'a Measured) -> Values<'a>);

impl Claim {
    /// The title of the section the claim's artifact is rendered under.
    /// Table 4 is the taxonomy of Figure 1; Table 5, a list of claims.
    fn section(&self) -> String {
        let (kind, n) = self.0.split('.').next().and_then(|a| a.split_at_checked(1)).unwrap_or_default();
        match (kind, n) {
            ("T", "4") => "Figure 1".into(),
            ("T", "5") => TITLE.into(),
            ("T", _) => format!("Table {n}"),
            ("F", _) => format!("Figure {n}"),
            _ => format!("sec. {}", n.chars().map(String::from).collect::<Vec<_>>().join(".")),
        }
    }

    /// `[id, datasets, paper, measured, verdict]` on `m`.
    fn judge(&self, m: &Measured) -> Vec<String> {
        let values = (self.5)(m);
        let judged: Vec<f64> = values.iter().filter_map(|v| Some(shown(v.1?).1)).collect();
        let holds = judged.iter().all(|v| (self.2..=self.3).contains(v));
        let verdict = match (self.4, holds) {
            (A, _) if (m.scale - 1.0).abs() > 1e-9 => "not judged",
            _ if judged.is_empty() => "not judged",
            (M | A, true) => "✓",
            (S, true) => "≈",
            (K(_), false) => "✗",
            (K(_), true) => SURPRISES[1],
            _ => SURPRISES[0],
        };
        let cells = |sep, f: fn(&(&str, Option<f64>)) -> String| values.iter().map(f).collect::<Vec<_>>().join(sep);
        let measured = cells(" / ", |v| v.1.map_or("–".into(), |v| shown(v).0));
        vec![self.0.into(), cells("/", |v| v.0.into()), self.1.into(), measured, verdict.into()]
    }
}

/// A value as rendered and judged: 0 decimals from 10 (and at 0), 1 from 1, else 2.
fn shown(v: f64) -> (String, f64) {
    let decimals = if v.abs() >= 10.0 || v == 0.0 { 0 } else if v.abs() >= 1.0 { 1 } else { 2 };
    let text = format!("{v:.decimals$}");
    (text.clone(), text.parse().unwrap_or(v))
}

/// The claims table judged on `m`; each known deviation's reason goes to `notes`.
pub(crate) fn table(m: &Measured, notes: &mut Vec<String>) -> Table {
    let mut t = Table::new(TITLE, &["claim", "datasets", "paper", "measured", "verdict"]);
    for claim in CLAIMS {
        t.row(claim.judge(m));
        if let K(why) = claim.4 {
            notes.push(format!("[{}] known deviation: {why}", claim.0));
        }
    }
    t
}

/// The claims table as Markdown, then the known deviations.
pub fn markdown(t: &Table) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let rows: String = t.rows.iter().map(|r| line(r)).collect();
    let why: String = CLAIMS.iter().filter_map(|c| if let K(why) = c.4 { Some(format!("- **{}**: {why}\n", c.0)) } else { None }).collect();
    line(&t.headers) + &line(&vec!["---".into(); t.headers.len()]) + &rows + "\nKnown deviations:\n\n" + &why
}

/// The coverage check over `claims` and a report's section `titles`: each
/// paper Table 1–15 and Figure 1–10 without a row, and each row whose
/// artifact has no titled section (`Figure 1` does not title Figure 10).
pub fn uncovered(claims: &[Claim], titles: &[&str]) -> Vec<String> {
    let titled = |name: &str| titles.iter().any(|t| t.match_indices(name).any(|(at, _)| {
        !t.get(at + name.len()..).unwrap_or_default().starts_with(|c: char| c.is_ascii_digit() || c == '.')
    }));
    let artifacts = (1..=15).map(|n| format!("T{n}")).chain((1..=10).map(|n| format!("F{n}")));
    let rowless = artifacts.filter(|a| !claims.iter().any(|c| c.0.split('.').next() == Some(a)));
    let untitled = claims.iter().filter(|c| !titled(&c.section())).map(|c| format!("{}: no report section titled \"{}\"", c.0, c.section()));
    rowless.map(|a| format!("{a} has no claim")).chain(untitled).collect()
}

/// One value per dataset.
fn each<'a, T, V: Into<Option<f64>>>(rows: &'a [(&'static str, T)], f: impl Fn(&'a T) -> V) -> Values<'a> {
    rows.iter().map(|(n, t)| (*n, f(t).into())).collect()
}
fn t1(m: &Measured, f: impl Fn(&DatasetSummary) -> Option<f64>) -> Values<'_> {
    m.t1.iter().map(|s| (s.name.as_str(), f(s))).collect()
}
/// The values of the datasets named.
fn on<'a>(names: &[&str], values: Values<'a>) -> Values<'a> {
    values.into_iter().filter(|v| names.contains(&v.0)).collect()
}
/// `a / b`, no sample when `b` is 0 or either has none.
fn div(a: impl Into<Option<f64>>, b: impl Into<Option<f64>>) -> Option<f64> {
    let (a, b) = (a.into()?, b.into()?);
    (b != 0.0).then(|| a / b)
}
/// The paper's figure for dataset `name` out of D0–D4.
fn paper(name: &str, v: [f64; 5]) -> Option<f64> {
    v.get(name.strip_prefix('D')?.parse::<usize>().ok()?).copied()
}
/// The most points any of `shares` is off the paper's D0–D4 figures.
fn off(name: &str, shares: &[(Option<f64>, [f64; 5])]) -> Option<f64> {
    let points = shares.iter().map(|(v, p)| Some((v.as_ref()? - paper(name, *p)?).abs()));
    points.collect::<Option<Vec<f64>>>()?.into_iter().reduce(f64::max)
}
fn cat(mix: &AppMix, c: Category) -> crate::analyses::appmix::CategoryShare {
    mix.shares.iter().find(|s| s.0 == c).map(|s| s.1).unwrap_or_default()
}
/// (% of messages, % of bytes) of `k` in a breakdown.
fn part<K: PartialEq>(rows: &[(K, f64, f64)], k: K) -> (f64, f64) {
    rows.iter().find(|r| r.0 == k).map_or((0.0, 0.0), |r| (r.1, r.2))
}
/// (% of requests, % of bytes) of the operations `ops`; none without requests.
fn ops(bd: &(u64, u64, OpBreakdown), ops: &[&str]) -> (Option<f64>, Option<f64>) {
    let (req, bytes) = bd.2.iter().filter(|r| ops.contains(&r.0.as_str())).fold((0.0, 0.0), |(q, b), r| (q + r.1, b + r.2));
    if bd.0 > 0 { (Some(req), Some(bytes)) } else { (None, None) }
}
const INF: f64 = f64::INFINITY;

/// The paper's claims, in paper order.
#[rustfmt::skip]
pub static CLAIMS: &[Claim] = &[
    Claim("T1.duration", "D0 10 min, D1–D4 1 h (measured/paper)", 1.0, 1.0, M, |m| t1(m, |s| div(s.trace_secs as f64, paper(&s.name, [600.0, 3600.0, 3600.0, 3600.0, 3600.0])))),
    Claim("T1.subnets", "22/22/22/18/18 subnets (measured/paper)", 1.0, 1.0, M, |m| t1(m, |s| div(s.subnets as f64, paper(&s.name, [22.0, 22.0, 22.0, 18.0, 18.0])))),
    Claim("T1.per_tap", "1/2/1/1/1–2 traces per tap (measured/paper max)", 1.0, 1.0, M, |m| t1(m, |s| div(f64::from(s.passes), paper(&s.name, [1.0, 2.0, 1.0, 1.0, 2.0])))),
    Claim("T1.packets", "17.8M/64.7M/28.1M/21.6M/27.7M (measured/paper)", 0.5, 2.0, A, |m| t1(m, |s| div(s.packets as f64, paper(&s.name, [17.8e6, 64.7e6, 28.1e6, 21.6e6, 27.7e6])))),
    Claim("T1.hosts.mon", "1.5–2.5K monitored hosts", 1500.0, 2500.0, A, |m| t1(m, |s| Some(s.monitored_hosts as f64))),
    Claim("T1.hosts.lbnl", "4.8–5.8K LBNL hosts", 4800.0, 5800.0, A, |m| t1(m, |s| Some(s.internal_hosts as f64))),
    Claim("T1.hosts.remote", "4.3–23K remote hosts", 4300.0, 23_000.0, A, |m| t1(m, |s| Some(s.remote_hosts as f64))),
    Claim("T1.hosts.growth", "remote hosts grow D3–D4 (remote/monitored)", 2.0, INF, S, |m| on(&["D3", "D4"], t1(m, |s| div(s.remote_hosts as f64, s.monitored_hosts as f64)))),
    Claim("T2.ip", "IP 96–99% of packets", 96.0, 99.0, M, |m| each(&m.nl, |n| n.ip_pct)),
    Claim("T2.nonip", "ARP/IPX/other 10/80/10, 6/77/17, 5/65/29, 27/57/16, 16/32/52 (points off)", 0.0, 5.0, M, |m| m.nl.iter().map(|(d, n)| (*d, off(d, &[(Some(n.arp_pct), [10.0, 6.0, 5.0, 27.0, 16.0]), (Some(n.ipx_pct), [80.0, 77.0, 65.0, 57.0, 32.0]), (Some(n.other_pct), [10.0, 17.0, 29.0, 16.0, 52.0])]))).collect()),
    Claim("T3.bytes", "TCP 66–95% of bytes (TCP/UDP)", 1.0, INF, S, |m| each(&m.tr, |t| div(t.tcp_bytes_pct, t.udp_bytes_pct))),
    Claim("T3.conns.tcp", "TCP 8–26% of conns", 8.0, 26.0, M, |m| each(&m.tr, |t| t.tcp_conns_pct)),
    Claim("T3.conns.udp", "UDP 68–87% of conns", 68.0, 87.0, M, |m| each(&m.tr, |t| t.udp_conns_pct)),
    Claim("T3.conns.icmp", "ICMP 5–8% of conns", 5.0, 8.0, M, |m| each(&m.tr, |t| t.icmp_conns_pct)),
    Claim("T4.categories", "11 categories + other-tcp/udp, each seen (categories with conns)", 13.0, 13.0, M, |m| each(&m.mix, |x| x.shares.iter().filter(|s| s.1.conns_pct() > 0.0).count() as f64)),
    Claim("F1.bytes.bulk", "bulk + net-file + backup the majority of bytes", 50.0, 100.0, K("bulk + net-file + backup carry 23–72% of bytes: above half in D0 only"), |m| each(&m.mix, |x| cat(x, Bulk).bytes_pct() + cat(x, NetFile).bytes_pct() + cat(x, Backup).bytes_pct())),
    Claim("F1.bytes.minor", "windows/streaming/interactive 5–10% of bytes in some sets (max)", 5.0, 10.0, M, |m| vec![("all", m.mix.iter().flat_map(|(_, x)| [Windows, Streaming, Interactive].map(|k| cat(x, k).bytes_pct())).reduce(f64::max))]),
    Claim("F1.bytes.backup", "backup bytes vary ~5× across sets (max/min)", 2.5, 10.0, K("backup carries 0.8% of D2's bytes against up to 24% elsewhere: ~30× rather than ~5×"), |m| { let b = m.mix.iter().map(|(_, x)| cat(x, Backup).bytes_pct()); vec![("all", div(b.clone().reduce(f64::max), b.reduce(f64::min)))] }),
    Claim("F1.conns.name", "name 45–65% of conns, the largest category (name / next)", 1.0, INF, S, |m| each(&m.mix, |x| div(cat(x, Name).conns_pct(), x.shares.iter().filter(|s| s.0 != Name).map(|s| s.1.conns_pct()).reduce(f64::max)))),
    Claim("F1.bytes.name", "name < 1% of bytes", 0.0, 1.0, M, |m| each(&m.mix, |x| cat(x, Name).bytes_pct())),
    Claim("F1.conns.stable", "net-mgnt and misc conn shares stable (max spread, points)", 0.0, 2.0, M, |m| vec![("all", [NetMgnt, Misc].map(|k| { let v = m.mix.iter().map(|(_, x)| cat(x, k).conns_pct()); v.clone().fold(0.0, f64::max) - v.fold(INF, f64::min) }).into_iter().reduce(f64::max))]),
    Claim("F1.local", "most traffic local (% of bytes internal)", 50.0, 100.0, M, |m| each(&m.mix, |x| x.shares.iter().map(|s| s.1.bytes_ent_pct).sum::<f64>())),
    Claim("S3.mcast.bytes", "multicast streaming 5–10% of bytes", 5.0, 10.0, M, |m| each(&m.mix, |x| x.multicast_streaming_bytes_pct)),
    Claim("S3.mcast.conns", "SrvLoc + SAP multicast 5–10% of conns", 5.0, 10.0, K("SrvLoc/SAP announcements reach 11–13% of conns in D1–D4"), |m| each(&m.mix, |x| x.multicast_name_mgnt_conns_pct)),
    Claim("S3.scanners", "4–18% of conns removed as scanning (shape: removed in every set, under 18%)", 0.1, 18.0, S, |m| each(&m.scans, |s| s.removed_conn_pct)),
    Claim("S3.interactive", "interactive packet share ≈ 2× its byte share (ratio)", 1.5, 2.5, K("the ratio is 1.9–12× at 0.01 and ≈1.1 at 1.0 (ROADMAP items 14 and 22)"), |m| m.mix.iter().zip(&m.pkts).map(|((d, x), (_, p))| (*d, div(p.iter().find(|s| s.0 == Interactive).map(|s| s.1), cat(x, Interactive).bytes_pct()))).collect()),
    Claim("S4.ent_ent", "ent↔ent 71–79% of flows", 71.0, 79.0, M, |m| each(&m.orig, |o| o.ent_to_ent_pct)),
    Claim("S4.ent_wan", "ent→wan 2–3% of flows", 2.0, 3.0, K("calibrated to Figure 1(b)'s web/WAN connection share (7–10%), which the paper's own 2–3% cannot meet"), |m| each(&m.orig, |o| o.ent_to_wan_pct)),
    Claim("S4.wan_ent", "wan→ent 6–11% of flows", 6.0, 11.0, K("inbound WAN flows run at 4–5%, about half the paper's share"), |m| each(&m.orig, |o| o.wan_to_ent_pct)),
    Claim("S4.mcast.int", "multicast, internal source 5–10% of flows", 5.0, 10.0, M, |m| each(&m.orig, |o| o.mcast_internal_pct)),
    Claim("S4.mcast.ext", "multicast, external source 4–7% of flows", 4.0, 7.0, M, |m| each(&m.orig, |o| o.mcast_external_pct)),
    Claim("F2.fanout", "> 90% of hosts reach a couple dozen internal peers at most (p90)", 0.0, 24.0, M, |m| each(&m.loc, |l| l.fan_out_ent.quantile(0.9))),
    Claim("F2.tail", "servers and SrvLoc agents reach ~100+ internal peers (max)", 100.0, INF, M, |m| each(&m.loc, |l| l.fan_out_ent.quantile(1.0))),
    Claim("F2.only_internal.in", "1/3–1/2 of hosts have only internal fan-in (%)", 33.0, 50.0, K("69–75% at 0.01; the share falls with scale (36% at 1.0, ROADMAP item 14)"), |m| each(&m.loc, |l| l.only_internal_fan_in * 100.0)),
    Claim("F2.only_internal.out", "> 1/2 of hosts have only internal fan-out (%)", 50.0, 100.0, K("43–46% at 0.01 and 6–8% at 1.0 (ROADMAP items 14 and 22)"), |m| each(&m.loc, |l| l.only_internal_fan_out * 100.0)),
    Claim("T6.auto.req", "automated clients 34–58% of internal HTTP requests", 34.0, 58.0, K("D4's automated share runs low (26–27%), and D0's at seed 2005"), |m| each(&m.auto, |a| a.all.0)),
    Claim("T6.auto.bytes", "automated clients 59–96% of internal HTTP bytes", 59.0, 96.0, K("D4's automated clients carry 30–53% of internal bytes"), |m| each(&m.auto, |a| a.all.1)),
    Claim("T6.google2", "google2 45–69% of internal HTTP bytes", 45.0, 69.0, K("google2 carries 74–82% of D3's internal bytes and 23–40% of D4's"), |m| each(&m.auto, |a| a.rows.iter().find(|r| r.0 == "google2").map(|r| r.2))),
    Claim("T6.ifolder", "iFolder ≈ 10% of D4's internal requests", 5.0, 15.0, M, |m| on(&["D4"], each(&m.auto, |a| a.rows.iter().find(|r| r.0 == "ifolder").map(|r| r.1)))),
    Claim("F3.fanout", "WAN fan-out ≈ 10× internal (WAN/ent p90)", 1.0, INF, S, |m| m.fan_sizes.iter().map(|(d, f, _)| (*d, div(f.1.quantile(0.9), f.0.quantile(0.9)))).collect()),
    Claim("F4.median", "reply median a few KB (WAN p50, bytes)", 1000.0, 10_000.0, M, |m| m.fan_sizes.iter().map(|(d, _, s)| (*d, s.1.median())).collect()),
    Claim("F4.ent_wan", "no ent/wan reply-size difference (ent/WAN p50)", 0.5, 2.0, K("D3's internal replies are small (p50 ≈ 900 B) against WAN ≈ 3.4 KB"), |m| m.fan_sizes.iter().map(|(d, _, s)| (*d, div(s.0.median(), s.1.median()))).collect()),
    Claim("F4.tail", "reply sizes tail past 10⁶ bytes (max)", 1e6, INF, M, |m| m.fan_sizes.iter().map(|(d, _, s)| (*d, s.0.quantile(1.0).into_iter().chain(s.1.quantile(1.0)).reduce(f64::max))).collect()),
    Claim("T7.image", "image the most requests, 44–76% (ent/WAN)", 44.0, 76.0, M, |m| vec![("ent", Some(m.content.image.0)), ("wan", Some(m.content.image.1))]),
    Claim("T7.application", "application the most bytes, 33–73% (application / next class, ent and WAN)", 1.0, INF, S, |m| { let c = &m.content; [("ent", c.application.2, [c.text.2, c.image.2, c.other.2]), ("wan", c.application.3, [c.text.3, c.image.3, c.other.3])].map(|(d, a, o)| (d, div(a, o.into_iter().reduce(f64::max)))).into() }),
    Claim("S511.http_ok.ent", "HTTP host-pair success, ent 72–92%", 72.0, 92.0, K("D0's few internal HTTP pairs succeed 93–100%"), |m| each(&m.web, |w| w.success_ent_pct)),
    Claim("S511.http_ok.wan", "HTTP host-pair success, WAN 95–99%", 95.0, 99.0, M, |m| each(&m.web, |w| w.success_wan_pct)),
    Claim("S511.cond.ent", "conditional GETs 29–53% of ent requests", 29.0, 53.0, M, |m| each(&m.web, |w| w.conditional_ent_pct)),
    Claim("S511.cond.wan", "conditional GETs 12–21% of WAN requests", 12.0, 21.0, M, |m| each(&m.web, |w| w.conditional_wan_pct)),
    Claim("S511.cond_bytes.ent", "conditional GETs 1–9% of ent bytes", 1.0, 9.0, K("conditional GETs carry 11–30% of D0's internal bytes"), |m| each(&m.web, |w| w.conditional_ent_bytes_pct)),
    Claim("S511.cond_bytes.wan", "conditional GETs 1–7% of WAN bytes", 1.0, 7.0, K("WAN 304 replies are bodiless: 0.3–1.3% of WAN bytes"), |m| each(&m.web, |w| w.conditional_wan_bytes_pct)),
    Claim("S511.get", "GET 95–99% of requests", 95.0, 99.0, M, |m| each(&m.web, |w| w.get_pct)),
    Claim("S511.req_ok", "> 90% of requests succeed", 90.0, 100.0, M, |m| each(&m.web, |w| w.request_success_pct)),
    Claim("S511.sessions.single", "~50% of web sessions fetch one object (single / 10+)", 1.0, INF, S, |m| each(&m.sess, |s| div(s.single_object_frac(), s.ten_plus_frac()))),
    Claim("S511.sessions.ten", "10–20% of web sessions fetch 10+ objects", 10.0, 20.0, K("14–29% of sessions fetch 10+ objects at 0.01; the session mix converges by 0.1 (ROADMAP item 14)"), |m| each(&m.sess, |s| s.ten_plus_frac() * 100.0)),
    Claim("S511.tls.complete", "HTTPS connections complete the handshake, then close (%)", 90.0, 100.0, M, |m| each(&m.tls, |t| t.0)),
    Claim("S511.tls.pair", "795 HTTPS conns/hour between one D4 host pair", 400.0, 1600.0, A, |m| on(&["D4"], each(&m.tls, |t| t.1))),
    Claim("T8.share", "SMTP + IMAP ≥ 94% of email bytes", 94.0, 100.0, K("at D3/D4 other email protocols carry 4–10% of the bytes"), |m| each(&m.vols, |v| div(100.0 * (v.smtp + v.simap + v.imap4) as f64, (v.smtp + v.simap + v.imap4 + v.other) as f64))),
    Claim("T8.imap4.d0", "cleartext IMAP4 in D0 (bytes)", 1.0, INF, M, |m| on(&["D0"], each(&m.vols, |v| v.imap4 as f64))),
    Claim("T8.imap4.after", "no IMAP4 after D0: IMAP/S replaced it (bytes)", 0.0, 0.0, M, |m| each(&m.vols, |v| v.imap4 as f64).into_iter().filter(|v| v.0 != "D0").collect()),
    Claim("T8.vantage", "email bytes concentrate at the mail vantage (D1/D3)", 2.0, INF, S, |m| { let b = |d: &str| m.vols.iter().find(|v| v.0 == d).map(|(_, v)| (v.smtp + v.simap + v.imap4 + v.other) as f64); vec![("D1/D3", div(b("D1"), b("D3")))] }),
    Claim("T8.volume", "D1 ≈ 3.5 GB, D3 ≈ 0.26 GB of email (measured/paper)", 0.5, 2.0, A, |m| on(&["D1", "D3"], m.vols.iter().map(|(d, v)| (*d, div((v.smtp + v.simap + v.imap4 + v.other) as f64, paper(d, [0.0, 3.5e9, 0.0, 0.26e9, 0.0])))).collect())),
    Claim("F5.smtp.ent", "SMTP internal median 0.2–0.4 s", 0.2, 0.4, M, |m| each(&m.smtp, |e| e.dur_ent.median())),
    Claim("F5.smtp.wan", "SMTP WAN median 1.5–6 s, ~10× internal (WAN/ent p50)", 2.0, INF, S, |m| each(&m.smtp, |e| div(e.dur_wan.median(), e.dur_ent.median()))),
    Claim("F5.imaps.ratio", "IMAP/S internal 1–2 orders longer than WAN (ent/WAN p50)", 10.0, INF, S, |m| each(&m.imaps, |e| div(e.dur_ent.median(), e.dur_wan.median()))),
    Claim("F5.imaps.max", "IMAP/S connections last up to ≈ 50 min (max, min)", 25.0, 100.0, M, |m| each(&m.imaps, |e| e.dur_ent.quantile(1.0).map(|s| s / 60.0))),
    Claim("F5.imaps.wan", "little WAN IMAP/S at D3/D4 (WAN conns)", 0.0, 0.0, M, |m| on(&["D3", "D4"], each(&m.imaps, |e| e.dur_wan.n() as f64))),
    Claim("F5.smtp_ok.ent", "SMTP success, internal 95–98%", 95.0, 98.0, K("internal SMTP succeeds 96–100%"), |m| each(&m.mail_ok, |s| s[0])),
    Claim("F5.smtp_ok.wan", "SMTP WAN success 71–93% at the mail vantage, 99–100% at D3/D4 (D3–D4 mean − D0–D2 mean, points)", 1.0, INF, S, |m| { let mean = |ds: &[&str]| { let v: Vec<f64> = m.mail_ok.iter().filter(|s| ds.contains(&s.0)).filter_map(|s| s.1[1]).collect(); div(v.iter().sum::<f64>(), v.len() as f64) }; vec![("all", mean(&["D3", "D4"]).zip(mean(&["D0", "D1", "D2"])).map(|(a, b)| a - b))] }),
    Claim("F5.smtp_ok.wan_d34", "SMTP success, WAN 99–100% at D3/D4", 99.0, 100.0, M, |m| on(&["D3", "D4"], each(&m.mail_ok, |s| s[1]))),
    Claim("F5.imaps_ok", "IMAP/S success 99–100%", 99.0, 100.0, M, |m| each(&m.mail_ok, |s| s[2].into_iter().chain(s[3]).reduce(f64::min))),
    Claim("F6.size", "> 95% of SMTP and IMAP/S flows under 1 MB", 95.0, 100.0, M, |m| m.smtp.iter().map(|(d, s)| { let i = m.imaps.iter().find(|i| i.0 == *d).map(|i| [&i.1.size_ent, &i.1.size_wan]); let e: Vec<&Ecdf> = [&s.size_ent, &s.size_wan].into_iter().chain(i.into_iter().flatten()).collect(); (*d, div(e.iter().map(|e| e.fraction_le(1e6) * e.n() as f64).sum::<f64>() * 100.0, e.iter().map(|e| e.n() as f64).sum::<f64>())) }).collect()),
    Claim("S513.dns.lat.ent", "DNS median latency ~0.4 ms internal", 0.2, 0.8, M, |m| m.ns.iter().map(|(d, n, _)| (*d, n.latency_ent_ms)).collect()),
    Claim("S513.dns.lat.wan", "DNS median latency ~20 ms WAN", 10.0, 40.0, M, |m| m.ns.iter().map(|(d, n, _)| (*d, n.latency_wan_ms)).collect()),
    Claim("S513.dns.a", "A 50–66% of DNS requests", 50.0, 66.0, M, |m| m.ns.iter().map(|(d, n, _)| (*d, Some(n.qtype_pct[0]))).collect()),
    Claim("S513.dns.aaaa", "AAAA 17–25% (parallel A+AAAA clients)", 17.0, 25.0, M, |m| m.ns.iter().map(|(d, n, _)| (*d, Some(n.qtype_pct[1]))).collect()),
    Claim("S513.dns.ptr", "PTR 10–18%", 10.0, 18.0, M, |m| m.ns.iter().map(|(d, n, _)| (*d, Some(n.qtype_pct[2]))).collect()),
    Claim("S513.dns.mx", "MX 4–7%", 4.0, 7.0, M, |m| m.ns.iter().map(|(d, n, _)| (*d, Some(n.qtype_pct[3]))).collect()),
    Claim("S513.dns.noerror", "NOERROR 77–86% of answers", 77.0, 86.0, M, |m| m.ns.iter().map(|(d, n, _)| (*d, Some(n.noerror_pct))).collect()),
    Claim("S513.dns.nxdomain", "NXDOMAIN 11–21% of answers", 11.0, 21.0, M, |m| m.ns.iter().map(|(d, n, _)| (*d, Some(n.nxdomain_pct))).collect()),
    Claim("S513.dns.top2", "two SMTP relays issue most lookups at the mail vantage (top-2 %)", 30.0, 100.0, K("the top two clients issue ≈5% of D0's lookups"), |m| on(&["D0"], m.ns.iter().map(|(d, n, _)| (*d, Some(n.top2_client_pct))).collect())),
    Claim("S513.nbns.query", "NBNS queries 81–85%", 81.0, 85.0, M, |m| m.ns.iter().map(|(d, _, b)| (*d, Some(b.query_pct))).collect()),
    Claim("S513.nbns.refresh", "NBNS refreshes 12–15%", 12.0, 15.0, K("refreshes run a point above the band on one set (16%)"), |m| m.ns.iter().map(|(d, _, b)| (*d, Some(b.refresh_pct))).collect()),
    Claim("S513.nbns.host", "host names 63–71% of NBNS names", 63.0, 71.0, M, |m| m.ns.iter().map(|(d, _, b)| (*d, Some(b.host_name_pct))).collect()),
    Claim("S513.nbns.domain", "domain/browser names 22–32%", 22.0, 32.0, M, |m| m.ns.iter().map(|(d, _, b)| (*d, Some(b.domain_browser_pct))).collect()),
    Claim("S513.nbns.fail", "36–50% of distinct NBNS names fail (stale names)", 36.0, 50.0, M, |m| m.ns.iter().map(|(d, _, b)| (*d, Some(b.distinct_query_failure_pct))).collect()),
    Claim("S513.nbns.spread", "failures spread: top-10 clients < 40% of queries", 0.0, 40.0, M, |m| m.ns.iter().map(|(d, _, b)| (*d, Some(b.top10_client_pct))).collect()),
    Claim("T5.auto", "automated HTTP clients a significant share of internal requests (%)", 25.0, 100.0, M, |m| each(&m.auto, |a| a.all.0)),
    Claim("T5.nbns", "NBNS queries fail nearly 50% of the time (% of names)", 25.0, 60.0, M, |m| m.ns.iter().map(|(d, _, b)| (*d, Some(b.distinct_query_failure_pct))).collect()),
    Claim("T5.rpc", "DCE/RPC pipes the most active CIFS component (% of CIFS bytes)", 25.0, 100.0, M, |m| { let (w, b) = m.cifs.iter().fold((0.0, 0.0), |(w, b), (_, x)| (w + part(&x.per_class, CifsClass::RpcPipes).1 * x.bytes as f64, b + x.bytes as f64)); vec![("all", div(w, b))] }),
    Claim("T5.nfs", "most NFS requests read, write or get attributes (%)", 80.0, 100.0, M, |m| each(&m.nfs_ops, |o| ops(o, &["Read", "Write", "GetAttr", "LookUp"]).0)),
    Claim("T5.ncp", "40–80% of NCP conns carry only keep-alives (sets with NCP requests)", 40.0, 80.0, M, |m| m.nff.iter().zip(&m.ncp_ops).filter(|(_, o)| o.1 .0 > 0).map(|((d, f), _)| (*d, f.ncp_keepalive_only_pct)).collect()),
    Claim("T9.nbssn", "NBSSN host-pair success 82–92%", 82.0, 92.0, K("NBSSN pairs succeed 92–100%"), |m| each(&m.win, |w| (w[0].1.pairs > 0).then_some(w[0].1.successful_pct))),
    Claim("T9.cifs", "CIFS host-pair success 46–68%", 46.0, 68.0, M, |m| each(&m.win, |w| (w[1].1.pairs > 0).then_some(w[1].1.successful_pct))),
    Claim("T9.cifs.rejected", "CIFS rejected 26–37% by parallel 139 + 445 dialing (CIFS − NBSSN rejected, points)", 1.0, INF, S, |m| each(&m.win, |w| (w[1].1.pairs > 0).then_some(w[1].1.rejected_pct - w[0].1.rejected_pct))),
    Claim("T9.epm", "Endpoint Mapper success 99–100%", 99.0, 100.0, M, |m| each(&m.win, |w| (w[2].1.pairs > 0).then_some(w[2].1.successful_pct))),
    Claim("T9.order", "NBSSN beats CIFS, 445 often refused (NBSSN/CIFS)", 1.0, INF, M, |m| each(&m.win, |w| div(w[0].1.successful_pct, w[1].1.successful_pct))),
    Claim("T9.ssn_handshake", "NBSSN session handshakes succeed 89–99%", 89.0, 99.0, K("D0's handful of NBSSN pairs all complete the handshake"), |m| each(&m.ssn, |s| *s)),
    Claim("T10.rpc", "RPC pipes 33–48% of CIFS messages in print-era sets", 33.0, 48.0, K("D4's print server makes RPC pipes 58–61% of its CIFS messages"), |m| on(&["D3", "D4"], each(&m.cifs, |x| part(&x.per_class, CifsClass::RpcPipes).0))),
    Claim("T10.basic.msgs", "SMB Basic 24–52% of CIFS messages", 24.0, 52.0, M, |m| each(&m.cifs, |x| part(&x.per_class, CifsClass::SmbBasic).0)),
    Claim("T10.basic.bytes", "SMB Basic 3–15% of CIFS bytes", 3.0, 15.0, K("SMB Basic carries 1–3% of CIFS bytes"), |m| each(&m.cifs, |x| part(&x.per_class, CifsClass::SmbBasic).1)),
    Claim("T10.lanman", "LANMAN 1–3% of CIFS messages", 1.0, 3.0, K("LANMAN messages run 0.5–5% by set"), |m| each(&m.cifs, |x| part(&x.per_class, CifsClass::Lanman).0)),
    Claim("T10.fileshare", "file sharing ≤ 43% of CIFS bytes", 0.0, 43.0, K("D0 (92%) and D3 (74–77%) CIFS sessions carry more read/write volume relative to RPC than LBNL's"), |m| each(&m.cifs, |x| part(&x.per_class, CifsClass::FileSharing).1)),
    Claim("T11.auth.calls", "D0 NetLogon + LsaRPC 68% of RPC calls", 63.0, 73.0, K("NetLogon alone makes 87–89% of D0's RPC calls"), |m| on(&["D0"], each(&m.rpc, |r| part(&r.per_function, RpcFunction::NetLogon).0 + part(&r.per_function, RpcFunction::LsaRpc).0))),
    Claim("T11.auth.bytes", "D0 NetLogon + LsaRPC 52% of RPC bytes", 47.0, 57.0, K("NetLogon carries 95% of D0's RPC bytes"), |m| on(&["D0"], each(&m.rpc, |r| part(&r.per_function, RpcFunction::NetLogon).1 + part(&r.per_function, RpcFunction::LsaRpc).1))),
    Claim("T11.wp.d0", "no printing at the D0 vantage (WritePrinter %)", 0.0, 0.0, M, |m| on(&["D0"], each(&m.rpc, |r| part(&r.per_function, RpcFunction::SpoolssWritePrinter).0))),
    Claim("T11.netlogon.d0", "NetLogon leads D0's RPC calls (NetLogon / next function)", 1.0, INF, S, |m| on(&["D0"], each(&m.rpc, |r| div(part(&r.per_function, RpcFunction::NetLogon).0, r.per_function.iter().filter(|f| f.0 != RpcFunction::NetLogon).map(|f| f.1).reduce(f64::max))))),
    Claim("T11.wp.d4", "WritePrinter 81% of D4's calls, the largest function (WritePrinter / next)", 1.0, INF, S, |m| on(&["D4"], each(&m.rpc, |r| div(part(&r.per_function, RpcFunction::SpoolssWritePrinter).0, r.per_function.iter().filter(|f| f.0 != RpcFunction::SpoolssWritePrinter).map(|f| f.1).reduce(f64::max))))),
    Claim("T11.wp.d3", "WritePrinter 29% of D3 calls", 24.0, 34.0, K("D3 print jobs write more relative to status polling: 60–62% of calls (byte share matches)"), |m| on(&["D3"], each(&m.rpc, |r| part(&r.per_function, RpcFunction::SpoolssWritePrinter).0))),
    Claim("T11.wp.order", "WritePrinter 29% (D3) → 81% (D4) of calls (D4/D3)", 1.0, INF, S, |m| { let wp = |d: &str| m.rpc.iter().find(|r| r.0 == d).map(|r| part(&r.1.per_function, RpcFunction::SpoolssWritePrinter).0); vec![("D4/D3", div(wp("D4"), wp("D3")))] }),
    Claim("T11.wp.bytes", "WritePrinter 94–99% of RPC bytes (D3, D4)", 94.0, 99.0, M, |m| on(&["D3", "D4"], each(&m.rpc, |r| part(&r.per_function, RpcFunction::SpoolssWritePrinter).1))),
    Claim("T12.order", "NFS bytes ≫ NCP bytes (NFS/NCP)", 1.0, INF, M, |m| each(&m.nf, |n| div(n.nfs_bytes as f64, n.ncp_bytes as f64))),
    Claim("T12.volume", "D0 NFS 6.3 GB (measured/paper)", 0.5, 2.0, A, |m| on(&["D0"], each(&m.nf, |n| n.nfs_bytes as f64 / 6.3e9))),
    Claim("T12.nfs_udp", "NFS UDP byte share 66/16/31/94/7% (points off)", 0.0, 10.0, M, |m| m.nff.iter().map(|(d, f)| (*d, off(d, &[(f.nfs_udp_bytes_pct, [66.0, 16.0, 31.0, 94.0, 7.0])]))).collect()),
    Claim("T12.nfs_udp_pairs", "~90% of NFS host pairs use UDP", 80.0, 100.0, K("33–86% of NFS pairs use UDP: few pairs per set"), |m| each(&m.nff, |f| f.nfs_udp_pairs_pct)),
    Claim("T12.top3.nfs", "top-3 pairs 89–94% of NFS bytes", 89.0, 94.0, K("a few NFS heavy hitters hold 72–100% of the bytes: ordinary pairs scale down faster than the hitters"), |m| each(&m.nff, |f| f.nfs_top3_bytes_pct)),
    Claim("T12.top3.ncp", "top-3 pairs 35–62% of NCP bytes", 35.0, 62.0, K("two to four NCP pairs per set hold 66–100% of the bytes"), |m| each(&m.nff, |f| f.ncp_top3_bytes_pct)),
    Claim("T13.nfs_ok", "NFS request success 84–95%", 84.0, 95.0, K("D0's NFS server answers 96% of requests"), |m| each(&m.nff, |f| f.nfs_request_success_pct)),
    Claim("T13.d0.read", "D0 Read 70% of NFS requests", 65.0, 75.0, M, |m| on(&["D0"], each(&m.nfs_ops, |o| ops(o, &["Read"]).0))),
    Claim("T13.d0.read_bytes", "D0 Read 64% of NFS bytes", 59.0, 69.0, K("D0 reads carry 80–82% of NFS bytes"), |m| on(&["D0"], each(&m.nfs_ops, |o| ops(o, &["Read"]).1))),
    Claim("T13.d3.getattr", "D3 GetAttr 53% of NFS requests", 48.0, 58.0, M, |m| on(&["D3"], each(&m.nfs_ops, |o| ops(o, &["GetAttr"]).0))),
    Claim("T13.d4.write", "D4 Write 83% of NFS bytes", 78.0, 88.0, M, |m| on(&["D4"], each(&m.nfs_ops, |o| ops(o, &["Write"]).1))),
    Claim("T14.read", "NCP Read 41–44% of requests", 41.0, 44.0, M, |m| each(&m.ncp_ops, |o| ops(o, &["Read"]).0)),
    Claim("T14.read_bytes", "NCP Read 70–82% of bytes", 70.0, 82.0, K("NCP reads carry 26–75% of bytes by set"), |m| each(&m.ncp_ops, |o| ops(o, &["Read"]).1)),
    Claim("T14.nds", "Directory Service ≤ 2% of NCP requests, file sharing dominates (Read / Directory Service)", 10.0, INF, S, |m| each(&m.ncp_ops, |o| div(ops(o, &["Read"]).0, ops(o, &["Directory Service"]).0))),
    Claim("T14.ncp_ok", "NCP request success ~95%", 90.0, 100.0, M, |m| each(&m.nff, |f| f.ncp_request_success_pct)),
    Claim("T14.ncp_conn_ok", "NCP connection success 88–98%", 88.0, 98.0, K("three to thirteen NCP conns per set: 67–100% succeed"), |m| each(&m.nff, |f| f.ncp_conn_success_pct)),
    Claim("F7.tail", "requests per host pair reach 10⁵–10⁶ (max)", 1e5, 1e6, A, |m| each(&m.dists, |d| d.nfs_reqs_per_pair.quantile(1.0).into_iter().chain(d.ncp_reqs_per_pair.quantile(1.0)).reduce(f64::max))),
    Claim("F8.nfs.req", "NFS requests ~100 B (p50)", 50.0, 200.0, M, |m| each(&m.dists, |d| d.nfs_req_sizes.median())),
    Claim("F8.nfs.reply", "NFS replies up to ~8 KB (max)", 4000.0, 16_000.0, M, |m| each(&m.dists, |d| d.nfs_reply_sizes.quantile(1.0))),
    Claim("F8.ncp.req", "NCP requests of 14 B (p50)", 7.0, 28.0, M, |m| each(&m.dists, |d| d.ncp_req_sizes.median())),
    Claim("T15.order", "ctrl : data : dantz : connected = 1271 : 352 : 1013 : 105 (ordering: least adjacent ratio)", 1.0, INF, S, |m| { let b = &m.backup; vec![("all", [div(b.veritas_ctrl.0 as f64, b.dantz.0 as f64), div(b.dantz.0 as f64, b.veritas_data.0 as f64), div(b.veritas_data.0 as f64, b.connected.0 as f64)].into_iter().reduce(|a, b| a.zip(b).map(|(a, b)| a.min(b))).flatten())] }),
    Claim("T15.sizes", "Veritas control 0.1 MB vs data 6.8 GB (data/control bytes)", 100.0, INF, M, |m| vec![("all", div(m.backup.veritas_data.1 as f64, m.backup.veritas_ctrl.1 as f64))]),
    Claim("T15.one_way", "every Veritas data conn one-way, client → server (%)", 100.0, 100.0, M, |m| vec![("all", div(100.0 * m.backup.veritas_one_way as f64, m.backup.veritas_data.0 as f64))]),
    Claim("T15.dantz", "Dantz conns heavily bidirectional (% > 1 MB both ways)", 1.0, 100.0, M, |m| vec![("all", div(100.0 * m.backup.dantz_bidirectional as f64, m.backup.dantz.0 as f64))]),
    Claim("F9.peaks", "peaks shrink with the window: 1 s ≥ 10 s ≥ 60 s (% of D4 traces)", 100.0, 100.0, M, |m| vec![("D4", m.util.as_ref().and_then(|u| div(100.0 * u.per_trace.iter().filter(|t| t.peak_1s >= t.peak_10s && t.peak_10s >= t.peak_60s).count() as f64, u.per_trace.len() as f64)))]),
    Claim("F9.typical", "typical load 1–2 orders below the peak (median peak/average)", 10.0, INF, S, |m| vec![("D4", m.util.as_ref().and_then(|u| Ecdf::new(u.per_trace.iter().filter_map(|t| div(t.peak_1s, t.avg)).collect()).median()))]),
    Claim("F10.low", "retransmission mostly < 1% (% of trace rates)", 50.0, 100.0, M, |m| each(&m.retx, |(e, w)| div(100.0 * e.iter().chain(w).filter(|r| **r < 1.0).count() as f64, (e.len() + w.len()) as f64))),
    Claim("F10.order", "internal below WAN (ENT/WAN median)", 0.0, 1.0, M, |m| each(&m.retx, |(e, w)| div(Ecdf::new(e.clone()).median(), Ecdf::new(w.clone()).median()))),
    Claim("F10.flaky", "ENT rates occasionally > 2%, ~5% on one D4 trace (max)", 2.0, 10.0, K("no D4 trace's internal retransmission rate passes 0.4% at 0.01"), |m| on(&["D4"], each(&m.retx, |(e, _)| e.iter().copied().reduce(f64::max)))),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_flags_a_seeded_table_99_and_a_table_without_rows() {
        let titles: Vec<String> = CLAIMS.iter().map(Claim::section).collect();
        let titles: Vec<&str> = titles.iter().map(String::as_str).collect();
        assert_eq!(uncovered(CLAIMS, &titles), Vec::<String>::new());
        let mut claims = CLAIMS.to_vec();
        let mut seeded = CLAIMS[0];
        seeded.0 = "T99.seeded";
        claims.push(seeded);
        assert_eq!(uncovered(&claims, &titles), ["T99.seeded: no report section titled \"Table 99\""]);
        claims.retain(|c| !c.0.starts_with("T2."));
        assert_eq!(uncovered(&claims, &titles)[0], "T2 has no claim");
    }

    #[test]
    fn no_sample_is_rendered_as_a_dash_and_not_judged() {
        let imaps = CLAIMS.iter().find(|c| c.0 == "F5.imaps_ok").expect("IMAP/S success row");
        let mut m = Measured {
            mail_ok: vec![("D0", [Some(100.0), Some(100.0), None, None])],
            ..Measured::default()
        };
        let row = imaps.judge(&m);
        assert_eq!((row[3].as_str(), row[4].as_str()), ("–", "not judged"));
        m.mail_ok[0].1[2] = Some(99.6);
        assert_eq!(imaps.judge(&m)[4], "✓");
    }
}
