//! §5.1.1 web analyses: automated clients (Table 6), content types
//! (Table 7), fan-out (Figure 3), reply sizes (Figure 4), connection
//! success rates and conditional-GET usage.

use super::{is_http_port, DatasetTraces};
use crate::records::{is_internal, TraceAnalysis};
use crate::report::{Figure, Table};
use crate::stats::{pct, Ecdf};
use ent_proto::http::{ClientKind, ContentClass};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Table 6: automated clients' share of internal HTTP traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AutomatedClients {
    /// Total internal requests.
    pub total_requests: u64,
    /// Total internal HTTP body bytes.
    pub total_bytes: u64,
    /// (client kind label, request %, data %).
    pub rows: Vec<(String, f64, f64)>,
    /// All automated clients combined: (request %, data %).
    pub all: (f64, f64),
}

/// Compute Table 6 over internal HTTP transactions.
pub fn automated_clients<T: Borrow<TraceAnalysis>>(traces: &[T]) -> AutomatedClients {
    let mut req: HashMap<ClientKind, u64> = HashMap::new();
    let mut data: HashMap<ClientKind, u64> = HashMap::new();
    let (mut total_req, mut total_data) = (0u64, 0u64);
    for t in traces.iter().map(Borrow::borrow) {
        for h in t.http.iter().filter(|h| h.server_internal) {
            total_req += 1;
            let bytes = h.tx.response_body_len + h.tx.request_body_len;
            total_data += bytes;
            *req.entry(h.tx.client).or_default() += 1;
            *data.entry(h.tx.client).or_default() += bytes;
        }
    }
    let kinds = [
        (ClientKind::Scanner, "scan1"),
        (ClientKind::GoogleBot1, "google1"),
        (ClientKind::GoogleBot2, "google2"),
        (ClientKind::IFolder, "ifolder"),
    ];
    let mut rows = Vec::new();
    let (mut auto_req, mut auto_data) = (0u64, 0u64);
    for (kind, label) in kinds {
        let r = req.get(&kind).copied().unwrap_or(0);
        let d = data.get(&kind).copied().unwrap_or(0);
        rows.push((label.to_string(), pct(r, total_req), pct(d, total_data)));
    }
    for (kind, r) in &req {
        if kind.is_automated() {
            auto_req += r;
        }
    }
    for (kind, d) in &data {
        if kind.is_automated() {
            auto_data += d;
        }
    }
    AutomatedClients {
        total_requests: total_req,
        total_bytes: total_data,
        rows,
        all: (pct(auto_req, total_req), pct(auto_data, total_data)),
    }
}

/// Render Table 6 across datasets.
pub fn table6(rows: &[(&str, AutomatedClients)]) -> Table {
    let mut headers = vec!["".to_string()];
    for (n, _) in rows {
        headers.push(format!("{n}/req"));
        headers.push(format!("{n}/data"));
    }
    let mut t = Table::new(
        "Table 6: Automated clients' share of internal HTTP traffic",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let mut total_row = vec!["Total".to_string()];
    for (_, a) in rows {
        total_row.push(a.total_requests.to_string());
        total_row.push(crate::report::fmt_bytes(a.total_bytes));
    }
    t.row(total_row);
    for i in 0..4 {
        let label = rows
            .first()
            .and_then(|(_, a)| a.rows.get(i))
            .map(|r| r.0.clone())
            .unwrap_or_default();
        let mut row = vec![label];
        for (_, a) in rows {
            let Some(r) = a.rows.get(i) else {
                continue;
            };
            row.push(format!("{:.1}%", r.1));
            row.push(format!("{:.1}%", r.2));
        }
        t.row(row);
    }
    let mut all = vec!["All".to_string()];
    for (_, a) in rows {
        all.push(format!("{:.0}%", a.all.0));
        all.push(format!("{:.0}%", a.all.1));
    }
    t.row(all);
    t
}

/// §5.1.1 connection-level and request-level characteristics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WebCharacteristics {
    /// Connection success rate by host-pair, internal servers (%).
    pub success_ent_pct: f64,
    /// Connection success rate by host-pair, WAN servers (%).
    pub success_wan_pct: f64,
    /// Conditional-GET share of internal browser requests (%).
    pub conditional_ent_pct: f64,
    /// Conditional-GET share of WAN browser requests (%).
    pub conditional_wan_pct: f64,
    /// Conditional requests' share of internal data bytes (%).
    pub conditional_ent_bytes_pct: f64,
    /// Conditional requests' share of WAN data bytes (%).
    pub conditional_wan_bytes_pct: f64,
    /// GET share of requests (%).
    pub get_pct: f64,
    /// Requests answered successfully (2xx or 304) (%).
    pub request_success_pct: f64,
}

/// Compute the success/conditional characteristics. Automated clients are
/// excluded from request-level numbers, as in the paper.
pub fn web_characteristics(traces: &DatasetTraces) -> WebCharacteristics {
    // Host-pair success from connection records.
    let mut pair_ok: HashMap<(u32, u32, bool), bool> = HashMap::new();
    for t in traces {
        for c in &t.conns {
            if !is_http_port(c.summary.key.resp.port) || c.summary.key.proto != ent_flow::Proto::Tcp
            {
                continue;
            }
            let internal = is_internal(c.resp_addr());
            let pair = c.summary.key.host_pair();
            let e = pair_ok.entry((pair.0 .0, pair.1 .0, internal)).or_insert(false);
            *e = *e || c.successful();
        }
    }
    let rate = |internal: bool| {
        let total = pair_ok.keys().filter(|k| k.2 == internal).count() as u64;
        let ok = pair_ok
            .iter()
            .filter(|(k, v)| k.2 == internal && **v)
            .count() as u64;
        pct(ok, total)
    };
    // Request-level stats, browsers only.
    let (mut req_e, mut req_w, mut cond_e, mut cond_w) = (0u64, 0u64, 0u64, 0u64);
    let (mut bytes_e, mut bytes_w, mut cbytes_e, mut cbytes_w) = (0u64, 0u64, 0u64, 0u64);
    let (mut gets, mut reqs, mut ok_req) = (0u64, 0u64, 0u64);
    for t in traces {
        for h in &t.http {
            if h.tx.client.is_automated() {
                continue;
            }
            reqs += 1;
            if h.tx.method == "GET" {
                gets += 1;
            }
            if h.tx.is_successful() {
                ok_req += 1;
            }
            let bytes = h.tx.response_body_len;
            if h.server_internal {
                req_e += 1;
                bytes_e += bytes;
                if h.tx.conditional {
                    cond_e += 1;
                    cbytes_e += bytes;
                }
            } else {
                req_w += 1;
                bytes_w += bytes;
                if h.tx.conditional {
                    cond_w += 1;
                    cbytes_w += bytes;
                }
            }
        }
    }
    WebCharacteristics {
        success_ent_pct: rate(true),
        success_wan_pct: rate(false),
        conditional_ent_pct: pct(cond_e, req_e),
        conditional_wan_pct: pct(cond_w, req_w),
        conditional_ent_bytes_pct: pct(cbytes_e, bytes_e),
        conditional_wan_bytes_pct: pct(cbytes_w, bytes_w),
        get_pct: pct(gets, reqs),
        request_success_pct: pct(ok_req, reqs),
    }
}

/// Figure 3: per-client fan-out to HTTP servers (automated excluded).
pub fn http_fanout(traces: &DatasetTraces) -> (Ecdf, Ecdf) {
    let mut ent: HashMap<u32, HashSet<u32>> = HashMap::new();
    let mut wan: HashMap<u32, HashSet<u32>> = HashMap::new();
    for t in traces {
        for h in &t.http {
            if h.tx.client.is_automated() {
                continue;
            }
            let m = if h.server_internal { &mut ent } else { &mut wan };
            m.entry(h.client.0).or_default().insert(h.server.0);
        }
    }
    (
        Ecdf::new(ent.values().map(|s| s.len() as f64).collect()),
        Ecdf::new(wan.values().map(|s| s.len() as f64).collect()),
    )
}

/// Table 7: content-type breakdown, (requests %, bytes %) per class, for
/// internal and WAN servers. Counts successful GET bodies, as the paper.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentTypes {
    /// text: (req% ent, req% wan, bytes% ent, bytes% wan)
    pub text: (f64, f64, f64, f64),
    /// image row.
    pub image: (f64, f64, f64, f64),
    /// application row.
    pub application: (f64, f64, f64, f64),
    /// other row.
    pub other: (f64, f64, f64, f64),
}

/// Compute Table 7.
pub fn content_types<T: Borrow<TraceAnalysis>>(traces: &[T]) -> ContentTypes {
    let mut req = [[0u64; 2]; 4]; // [class][ent/wan]
    let mut bytes = [[0u64; 2]; 4];
    for t in traces.iter().map(Borrow::borrow) {
        for h in &t.http {
            if h.tx.client.is_automated() || !(200..300).contains(&h.tx.status) {
                continue;
            }
            let class = match h.tx.content {
                ContentClass::Text => 0,
                ContentClass::Image => 1,
                ContentClass::Application => 2,
                ContentClass::Other => 3,
                ContentClass::None => continue,
            };
            let loc = usize::from(!h.server_internal);
            if let Some(cell) = req.get_mut(class).and_then(|r| r.get_mut(loc)) {
                *cell += 1;
            }
            if let Some(cell) = bytes.get_mut(class).and_then(|r| r.get_mut(loc)) {
                *cell += h.tx.response_body_len;
            }
        }
    }
    let req_tot = [0usize, 1].map(|l| req.iter().map(|r| r.get(l).copied().unwrap_or(0)).sum::<u64>());
    let byte_tot = [0usize, 1].map(|l| bytes.iter().map(|r| r.get(l).copied().unwrap_or(0)).sum::<u64>());
    let row = |i: usize| {
        let r = req.get(i).copied().unwrap_or([0; 2]);
        let b = bytes.get(i).copied().unwrap_or([0; 2]);
        (
            pct(r[0], req_tot[0]),
            pct(r[1], req_tot[1]),
            pct(b[0], byte_tot[0]),
            pct(b[1], byte_tot[1]),
        )
    };
    ContentTypes {
        text: row(0),
        image: row(1),
        application: row(2),
        other: row(3),
    }
}

/// Render Table 7 (aggregated across the given datasets).
pub fn table7(ct: &ContentTypes) -> Table {
    let mut t = Table::new(
        "Table 7: HTTP reply content types (ent / wan)",
        &["", "req ent", "req wan", "bytes ent", "bytes wan"],
    );
    for (label, r) in [
        ("text", ct.text),
        ("image", ct.image),
        ("application", ct.application),
        ("Other", ct.other),
    ] {
        t.row(vec![
            label.to_string(),
            format!("{:.0}%", r.0),
            format!("{:.0}%", r.1),
            format!("{:.0}%", r.2),
            format!("{:.0}%", r.3),
        ]);
    }
    t
}

/// Figure 4: HTTP reply body sizes (when present), ent vs wan.
pub fn reply_sizes(traces: &DatasetTraces) -> (Ecdf, Ecdf) {
    let mut ent = Vec::new();
    let mut wan = Vec::new();
    for t in traces {
        for h in &t.http {
            if h.tx.response_body_len == 0 {
                continue;
            }
            if h.server_internal {
                ent.push(h.tx.response_body_len as f64);
            } else {
                wan.push(h.tx.response_body_len as f64);
            }
        }
    }
    (Ecdf::new(ent), Ecdf::new(wan))
}

/// Render Figures 3 and 4 for a set of datasets.
pub fn figures34(rows: &[(&str, (Ecdf, Ecdf), (Ecdf, Ecdf))]) -> (Figure, Figure) {
    let mut f3 = Figure::new("Figure 3: HTTP fan-out", "servers per client");
    let mut f4 = Figure::new("Figure 4: HTTP reply size", "bytes");
    for (name, fanout, sizes) in rows {
        f3.series(format!("ent:{name}"), fanout.0.clone());
        f3.series(format!("wan:{name}"), fanout.1.clone());
        f4.series(format!("ent:{name}"), sizes.0.clone());
        f4.series(format!("wan:{name}"), sizes.1.clone());
    }
    (f3, f4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{HttpRecord, TraceAnalysis};
    use ent_proto::http::HttpTransaction;
    use ent_wire::ipv4;

    fn tx(client: ClientKind, status: u16, len: u64, cond: bool) -> HttpTransaction {
        HttpTransaction {
            method: "GET".into(),
            uri: "/".into(),
            host: None,
            client,
            conditional: cond,
            request_body_len: 0,
            status,
            content: ContentClass::Text,
            response_body_len: len,
        }
    }

    fn rec(client_n: u8, server_internal: bool, tx: HttpTransaction) -> HttpRecord {
        HttpRecord {
            tx,
            client: ipv4::Addr::new(10, 100, 1, client_n),
            server: if server_internal {
                ipv4::Addr::new(10, 100, 6, 10)
            } else {
                ipv4::Addr::new(64, 0, 0, 1)
            },
            server_internal,
        }
    }

    #[test]
    fn automated_share() {
        let mut t = TraceAnalysis::default();
        t.http.push(rec(1, true, tx(ClientKind::Scanner, 404, 100, false)));
        t.http.push(rec(2, true, tx(ClientKind::GoogleBot2, 200, 900, false)));
        t.http.push(rec(3, true, tx(ClientKind::Browser, 200, 1_000, false)));
        t.http.push(rec(3, false, tx(ClientKind::Browser, 200, 5_000, false)));
        let a = automated_clients(&[t]);
        assert_eq!(a.total_requests, 3); // internal only
        assert!((a.all.0 - 2.0 / 3.0 * 100.0).abs() < 1e-6);
        assert!((a.all.1 - 1_000.0 / 2_000.0 * 100.0).abs() < 1e-6);
        assert!(table6(&[("D0", a)]).render().contains("google2"));
    }

    #[test]
    fn conditional_get_split() {
        let mut t = TraceAnalysis::default();
        t.http.push(rec(1, true, tx(ClientKind::Browser, 304, 0, true)));
        t.http.push(rec(1, true, tx(ClientKind::Browser, 200, 100, false)));
        t.http.push(rec(1, false, tx(ClientKind::Browser, 200, 100, false)));
        // Scanner ignored.
        t.http.push(rec(2, true, tx(ClientKind::Scanner, 404, 0, false)));
        let w = web_characteristics(&[t]);
        assert!((w.conditional_ent_pct - 50.0).abs() < 1e-9);
        assert_eq!(w.conditional_wan_pct, 0.0);
        assert_eq!(w.get_pct, 100.0);
        assert_eq!(w.request_success_pct, 100.0);
    }

    #[test]
    fn fanout_excludes_automated() {
        let mut t = TraceAnalysis::default();
        for i in 0..5u8 {
            let mut r = rec(1, false, tx(ClientKind::Browser, 200, 10, false));
            r.server = ipv4::Addr::new(64, 0, 0, 1 + i);
            t.http.push(r);
        }
        let mut bot = rec(2, true, tx(ClientKind::GoogleBot1, 200, 10, false));
        bot.server = ipv4::Addr::new(10, 100, 6, 20);
        t.http.push(bot);
        let (ent, wan) = http_fanout(&[t]);
        assert_eq!(wan.quantile(1.0), Some(5.0));
        assert!(ent.is_empty());
        let (f3, _f4) = figures34(&[(
            "D0",
            (ent, wan),
            (Ecdf::new(Vec::new()), Ecdf::new(Vec::new())),
        )]);
        assert!(f3.render().contains("Figure 3"));
        assert!(f3.render().contains("wan:D0"));
    }

    #[test]
    fn content_table_rows() {
        let mut t = TraceAnalysis::default();
        let mut img = tx(ClientKind::Browser, 200, 3_000, false);
        img.content = ContentClass::Image;
        t.http.push(rec(1, true, img));
        t.http.push(rec(1, true, tx(ClientKind::Browser, 200, 1_000, false)));
        let ct = content_types(&[t]);
        assert!((ct.image.0 - 50.0).abs() < 1e-9);
        assert!((ct.image.2 - 75.0).abs() < 1e-9);
        assert!(table7(&ct).render().contains("application"));
    }
}
