//! Web traffic: HTTP and HTTPS (§5.1.1, Tables 6–7, Figures 3–4).
//!
//! Calibration targets:
//! * more WAN than internal HTTP; client fan-out to external servers ~an
//!   order of magnitude larger than to internal ones (Figure 3);
//! * automated clients (vuln scanner, two Google appliance bots, iFolder,
//!   NetMeeting) dominate *internal* HTTP: 34–58% of requests, 59–96% of
//!   bytes (Table 6);
//! * conditional GETs 29–53% of internal browser requests vs 12–21% of
//!   WAN requests, contributing only 1–9% of bytes;
//! * internal connection success 72–92% (failures mostly server RSTs) vs
//!   95–99% across the WAN;
//! * content mix per Table 7 (images dominate requests, application bytes
//!   dominate volume); reply sizes Figure 4 (median ~several KB, heavy
//!   tail; D0/WAN shows repeated fixed-size javascript downloads);
//! * HTTPS: complete TLS handshakes; in D4 one host-pair opens hundreds of
//!   short handshake-then-close connections in an hour.

use super::TraceCtx;
use crate::distr::{coin, weighted_choice, LogNormal};
use crate::network::Role;
use crate::synth::{Close, Exchange, Outcome, Payload, Peer, TcpSessionSpec};
use ent_proto::http;
use ent_proto::ssl;
use ent_wire::Timestamp;
use rand::RngExt;

/// Generate all web traffic for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.web; ctx.count(rate) };
    // A modest pool of *active browsers* per trace: web activity is
    // concentrated on a fraction of hosts, which is what gives clients
    // their order-of-magnitude WAN fan-out (Figure 3) and keeps most
    // hosts free of any external peers (sec. 4).
    let pool_size = ctx.scaling.browser_pool(n);
    let browsers: Vec<crate::network::Host> =
        (0..pool_size).map(|_| ctx.local_wan_client()).collect();
    let mut wan_servers: Vec<Peer> = Vec::with_capacity(8);
    for _ in 0..n {
        let wan = coin(&mut ctx.rng, ctx.spec.web_wan_frac);
        let client = browsers[ctx.rng.random_range(0..browsers.len())];
        browser_connection(ctx, client, wan, &mut wan_servers);
    }
    automated_clients(ctx);
    https_traffic(ctx);
}

fn body_for_content(ctx: &mut TraceCtx<'_>, content: &str) -> usize {
    let ln = match content {
        c if c.starts_with("image/") => LogNormal::from_median(3_200.0, 1.1),
        c if c.starts_with("text/") => LogNormal::from_median(4_500.0, 1.4),
        c if c.starts_with("application/") => LogNormal::from_median(38_000.0, 1.9),
        _ => LogNormal::from_median(60_000.0, 1.6),
    };
    ln.sample_clamped(&mut ctx.rng, 120.0, 60e6) as usize
}

fn sample_content(ctx: &mut TraceCtx<'_>) -> &'static str {
    weighted_choice(
        &mut ctx.rng,
        &[
            ("image/gif", 36.0),
            ("image/jpeg", 28.0),
            ("text/html", 18.0),
            ("text/css", 4.0),
            ("application/javascript", 5.0),
            ("application/octet-stream", 3.0),
            ("application/pdf", 2.5),
            ("application/zip", 1.5),
            ("video/mpeg", 1.0),
            ("audio/mpeg", 1.0),
        ],
    )
}

/// A response with a body: template head plus a symbolic filler run.
fn response_payload(status: u16, content_type: &str, body_len: usize) -> Payload {
    Payload::head_fill(
        http::encode_response_head(status, content_type, body_len),
        http::RESPONSE_FILL,
        body_len,
    )
}

/// One browser HTTP connection carrying 1–6 transactions.
fn browser_connection(
    ctx: &mut TraceCtx<'_>,
    client_host: crate::network::Host,
    wan: bool,
    wan_servers: &mut Vec<Peer>,
) {
    let client = ctx.peer_eph(&client_host);
    let (server, rtt) = if wan {
        // High chance of a fresh server: large fan-out to WAN.
        let reuse = !wan_servers.is_empty() && coin(&mut ctx.rng, 0.18);
        let s = if reuse {
            wan_servers[ctx.rng.random_range(0..wan_servers.len())]
        } else {
            let s = ctx.wan_peer(80);
            wan_servers.push(s);
            s
        };
        (s, ctx.rtt_wan())
    } else {
        let Some(srv) = ctx.server(Role::WebServer) else {
            return;
        };
        (ctx.peer_of(&srv, 80), ctx.rtt_internal())
    };
    // Connection failure. The paper's methodology note (sec. 5) observes
    // that a given host-pair either nearly always succeeds or nearly
    // always fails, so failure is a deterministic property of the pair —
    // and internal pairs fail much more often (sec. 5.1.1's 72-92% vs
    // 95-99% host-pair success).
    let pair_hash = client.addr.0
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(server.addr.0.wrapping_mul(0x85EB_CA6B));
    let fail = if wan {
        pair_hash % 100 < 2
    } else {
        pair_hash % 100 < 14
    };
    if fail {
        let mut spec = TcpSessionSpec::bare(ctx.start(), client, server, rtt);
        spec.outcome = if coin(&mut ctx.rng, 0.75) {
            Outcome::Rejected // "terminated with TCP RSTs by the servers"
        } else {
            Outcome::Unanswered
        };
        ctx.tcp(&spec);
        return;
    }
    // About half of page fetches are a single object; the rest pull in
    // embedded objects, 10-20% of sessions reaching 10+ (paper sec. 5.1.1).
    let transactions = if coin(&mut ctx.rng, 0.5) {
        1
    } else {
        2 + ctx.rng.random_range(0..13usize)
    };
    let cond_p = if wan { 0.16 } else { 0.42 };
    let mut exchanges = Vec::with_capacity(2 * transactions);
    for i in 0..transactions {
        let conditional = coin(&mut ctx.rng, cond_p);
        let method = if coin(&mut ctx.rng, 0.03) { "POST" } else { "GET" };
        let page = u64::from(ctx.rng.random_range(0..500u32));
        let body_len = if method == "POST" {
            ctx.rng.random_range(64..2_048)
        } else {
            0
        };
        let req = Payload::head_fill(
            http::encode_request_head(
                method,
                &["/page", "/obj", ".html"],
                &[page, i as u64],
                "www.server.example",
                "Mozilla/5.0 (X11; U)",
                conditional,
                body_len,
            ),
            b'p',
            body_len,
        );
        exchanges.push(Exchange::client(req, if i == 0 { 0 } else { ctx.rng.random_range(10_000..400_000) }));
        // Response: conditional GETs usually yield 304 (the byte saving).
        let resp = if conditional {
            if coin(&mut ctx.rng, 0.85) {
                Payload::from(http::encode_response_head(304, "", 0))
            } else {
                // Revalidation missed: the refreshed object is a typical
                // page asset, not a bulk download — this is what keeps
                // conditional requests at only 1-9% of data bytes.
                let content = sample_content(ctx);
                let len = body_for_content(ctx, content).min(90_000);
                response_payload(200, content, len)
            }
        } else if coin(&mut ctx.rng, 0.06) {
            response_payload(404, "text/html", 220)
        } else {
            let content = sample_content(ctx);
            let len = body_for_content(ctx, content);
            response_payload(200, content, len)
        };
        exchanges.push(Exchange::server(resp, ctx.rng.random_range(2_000..60_000)));
    }
    let mut spec = TcpSessionSpec::success(ctx.start(), client, server, rtt, exchanges);
    if wan {
        // Wide-area paths lose a little; internal ones almost never (§6).
        spec.retx_rate = 0.004;
    }
    ctx.tcp(&spec);
}

/// The automated internal clients of Table 6. These all target internal
/// web servers, so they are visible (and generated) only when the
/// monitored subnet hosts one — matching the vantage-point reality.
fn automated_clients(ctx: &mut TraceCtx<'_>) {
    if !ctx.hosts_role(Role::WebServer) {
        return;
    }
    let Some(web) = ctx.server(Role::WebServer) else {
        return;
    };
    // Intensities per dataset (requests relative to browser traffic are
    // tuned to land in Table 6's bands; bytes dominated by google2).
    let (scan_r, g1_r, g2_r, ifolder_r) = match ctx.spec.name {
        "D0" => (0.24, 0.26, 0.16, 0.012),
        "D3" => (1.65, 0.0, 0.30, 0.009),
        "D4" => (0.72, 0.036, 0.15, 0.36),
        _ => (0.3, 0.1, 0.1, 0.02),
    };
    // The bots hammer the few main web servers, so their request volume
    // rivals the browser requests of the *whole site* (Table 6's 34-58%).
    let base = ctx.spec.rates.web * (1.0 - ctx.spec.web_wan_frac) * 16.0;
    // Site vulnerability scanner: many requests, mostly 404s, tiny bodies.
    let n = ctx.count(base * scan_r * 2.0);
    // scan1 is a dedicated HTTP security scanner, distinct from the two
    // address-sweeping hosts removed by the paper's sec-3 heuristic (it
    // contacts few servers, so it survives that removal and is instead
    // excluded in the HTTP analysis, as in the paper).
    let scanner_host = ctx
        .site
        .by_subnet[9]
        .iter()
        .map(|&id| ctx.site.host(id))
        .find(|h| h.role == Role::Workstation)
        .copied();
    let scanner_host = scanner_host.unwrap_or_else(|| ctx.local_client());
    for _ in 0..n {
        let client = ctx.peer_eph(&scanner_host);
        let server = ctx.peer_of(&web, 80);
        let probe = u64::from(ctx.rng.random_range(0..10_000u32));
        let req = http::encode_request_head(
            "GET",
            &["/cgi-bin/test", ".cgi"],
            &[probe],
            "target",
            "VulnScan/3.1 (security-scanner)",
            false,
            0,
        );
        let resp = if coin(&mut ctx.rng, 0.7) {
            response_payload(404, "text/html", 180)
        } else {
            response_payload(200, "text/html", 900)
        };
        let rtt = ctx.rtt_internal();
        let spec = TcpSessionSpec::success(
            ctx.start(),
            client,
            server,
            rtt,
            Vec::from([Exchange::client(req, 0), Exchange::server(resp, 1_500)]),
        );
        ctx.tcp(&spec);
    }
    // Google appliance bots: crawl with large-object fetches (bytes-heavy).
    for (rate, ua, med) in [
        (g1_r, "Googlebot-1/2.1 (enterprise appliance)", 60_000.0),
        (g2_r, "Googlebot/2.1 (enterprise appliance)", 220_000.0),
    ] {
        let n = ctx.count(base * rate * 1.6);
        if n == 0 {
            continue;
        }
        let bot_host = ctx.remote_internal();
        let size = LogNormal::from_median(med, 1.2);
        for _ in 0..n {
            let client = ctx.peer_eph(&bot_host);
            let server = ctx.peer_of(&web, 80);
            let doc = u64::from(ctx.rng.random_range(0..100_000u32));
            let req = http::encode_request_head("GET", &["/docs/", ".html"], &[doc], "crawl", ua, false, 0);
            let len = size.sample_clamped(&mut ctx.rng, 2_000.0, 20e6) as usize;
            let resp = response_payload(200, "application/octet-stream", len);
            let rtt = ctx.rtt_internal();
            let spec = TcpSessionSpec::success(
                ctx.start(),
                client,
                server,
                rtt,
                Vec::from([Exchange::client(req, 0), Exchange::server(resp, 3_000)]),
            );
            ctx.tcp(&spec);
        }
    }
    // iFolder: POST-heavy sync with uniform 32,780-byte replies.
    let n = ctx.count(base * ifolder_r * 2.0);
    for _ in 0..n {
        let client_host = ctx.local_client();
        let client = ctx.peer_eph(&client_host);
        let server = ctx.peer_of(&web, 80);
        let body_len = ctx.rng.random_range(256..4_096);
        let req = Payload::head_fill(
            http::encode_request_head("POST", &["/ifolder/sync"], &[], "ifolder", "iFolderClient/2.0", false, body_len),
            b'i',
            body_len,
        );
        let resp = response_payload(200, "application/octet-stream", 32_780);
        let rtt = ctx.rtt_internal();
        let spec = TcpSessionSpec::success(
            ctx.start(),
            client,
            server,
            rtt,
            Vec::from([Exchange::client(req, 0), Exchange::server(resp, 2_000)]),
        );
        ctx.tcp(&spec);
    }
}

/// HTTPS: TLS-handshake connections, internal and WAN, plus the D4
/// pathological short-connection host-pair.
fn https_traffic(ctx: &mut TraceCtx<'_>) {
    let n = ctx.count(ctx.spec.rates.web * 0.12);
    for _ in 0..n {
        let client_host = ctx.local_client();
        let client = ctx.peer_eph(&client_host);
        let (server, rtt) = if coin(&mut ctx.rng, 0.6) {
            (ctx.wan_peer(443), ctx.rtt_wan())
        } else {
            let Some(srv) = ctx.server(Role::WebServer) else {
                continue;
            };
            (ctx.peer_of(&srv, 443), ctx.rtt_internal())
        };
        let records = ctx.rng.random_range(2..12);
        tls_session(ctx, client, server, rtt, records);
    }
    // The buggy pair: ~800 short handshake-then-close connections/hour.
    if ctx.spec.name == "D4" && ctx.hosts_role(Role::WebServer) {
        let client_host = ctx.local_client();
        let srv = ctx.server(Role::WebServer).unwrap_or_else(|| ctx.remote_internal());
        let n = ctx.count(795.0);
        for _ in 0..n {
            let client = ctx.peer_eph(&client_host);
            let server = ctx.peer_of(&srv, 443);
            let rtt = ctx.rtt_internal();
            tls_session(ctx, client, server, rtt, 2);
        }
    }
}

fn tls_session(ctx: &mut TraceCtx<'_>, client: Peer, server: Peer, rtt: u64, app_records: u32) {
    let (ch, sf, ccc, scc) = ssl::encode_handshake();
    let mut exchanges = Vec::from([
        Exchange::client(ch, 0),
        Exchange::server(sf, 1_000),
        Exchange::client(ccc, 500),
        Exchange::server(scc, 500),
    ]);
    for i in 0..app_records {
        let len = ctx.rng.random_range(100..2_000);
        let rec = Payload::head_fill(
            ssl::record_head(ssl::RecordType::ApplicationData, len),
            0u8,
            len,
        );
        if i % 2 == 0 {
            exchanges.push(Exchange::client(rec, 1_000));
        } else {
            exchanges.push(Exchange::server(rec, 1_000));
        }
    }
    let mut spec = TcpSessionSpec::success(ctx.start(), client, server, rtt, exchanges);
    spec.close = Close::Fin;
    let start_latest = ctx.duration_us.saturating_sub(2_000_000);
    spec.start = Timestamp::from_micros(spec.start.micros().min(start_latest.max(1)));
    ctx.tcp(&spec);
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_flow::{CollectSummaries, ConnTable, TableConfig, TcpOutcome};
    use ent_wire::Packet;

    fn summaries(pkts: &[ent_pcap::TimedPacket]) -> Vec<ent_flow::ConnSummary> {
        let mut sorted = pkts.to_vec();
        sorted.sort_by_key(|p| p.ts);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        for p in &sorted {
            t.ingest(&Packet::parse(&p.frame).unwrap(), p.ts, &mut h);
        }
        t.finish(Timestamp::from_secs(4_000), &mut h);
        h.summaries
    }

    #[test]
    fn internal_failure_rate_higher_than_wan() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[4], 28); // D4, web-server subnet
        for _ in 0..150 {
            let client = c.local_client();
            let mut pool = Vec::new();
            browser_connection(&mut c, client, false, &mut pool);
            let mut pool = Vec::new();
            browser_connection(&mut c, client, true, &mut pool);
        }
        let sums = summaries(&packets(&mut c.out));
        let (mut int_ok, mut int_all, mut wan_ok, mut wan_all) = (0.0, 0.0, 0.0, 0.0);
        for s in sums.iter().filter(|s| s.key.resp.port == 80) {
            let internal = crate::network::is_internal(s.key.resp.addr);
            let ok = s.outcome == TcpOutcome::Successful;
            if internal {
                int_all += 1.0;
                int_ok += f64::from(ok);
            } else {
                wan_all += 1.0;
                wan_ok += f64::from(ok);
            }
        }
        assert!(int_all > 50.0 && wan_all > 50.0);
        let int_rate = int_ok / int_all;
        let wan_rate = wan_ok / wan_all;
        assert!(int_rate < wan_rate, "int {int_rate} !< wan {wan_rate}");
        assert!((0.70..=0.95).contains(&int_rate), "int rate {int_rate}");
        assert!(wan_rate >= 0.93, "wan rate {wan_rate}");
    }

    #[test]
    fn automated_clients_have_distinct_user_agents() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[4], 28); // D4 web subnet (iFolder-heavy)
        for _ in 0..30 {
            automated_clients(&mut c);
        }
        let mut kinds = std::collections::HashSet::new();
        for p in &packets(&mut c.out) {
            let pkt = Packet::parse(&p.frame).unwrap();
            let payload = pkt.payload();
            if payload.starts_with(b"GET") || payload.starts_with(b"POST") {
                let text = String::from_utf8_lossy(payload);
                for line in text.lines() {
                    if let Some(ua) = line.strip_prefix("User-Agent: ") {
                        kinds.insert(http::ClientKind::from_user_agent(ua).as_str());
                    }
                }
            }
        }
        assert!(kinds.contains("Scanner"), "kinds: {kinds:?}");
        assert!(kinds.contains("GoogleBot1") || kinds.contains("GoogleBot2"));
        assert!(kinds.contains("IFolder"));
    }

    #[test]
    fn d4_https_pathological_pair_present() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[4], 28);
        https_traffic(&mut c);
        let sums = summaries(&packets(&mut c.out));
        use std::collections::HashMap;
        let mut pairs: HashMap<_, usize> = HashMap::new();
        for s in sums.iter().filter(|s| s.key.resp.port == 443) {
            *pairs.entry(s.key.host_pair()).or_default() += 1;
        }
        let max = pairs.values().max().copied().unwrap_or(0);
        // 795/hour at scale 0.02 ≈ 16.
        assert!(max >= 8, "no dominant HTTPS host-pair (max {max})");
    }
}
