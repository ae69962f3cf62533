//! Web sessions: objects downloaded per client/server session.
//!
//! The paper (§5.1.1) reports that about half the web sessions consist of
//! a single object while 10–20% include 10 or more, with no significant
//! internal/WAN or cross-dataset difference. We approximate a "session"
//! as all of one client's transactions against one server within a trace
//! (browsing a site within an hour-long window).

use super::DatasetTraces;
use crate::report::Figure;
use crate::stats::Ecdf;
use std::collections::BTreeMap;

/// Objects-per-session distributions, internal vs WAN servers.
#[derive(Debug, Clone, Default)]
pub struct WebSessions {
    /// Objects per session against internal servers.
    pub ent: Ecdf,
    /// Objects per session against WAN servers.
    pub wan: Ecdf,
}

impl WebSessions {
    /// Fraction of sessions with exactly one object.
    pub fn single_object_frac(&self) -> f64 {
        let n = self.ent.n() + self.wan.n();
        if n == 0 {
            return 0.0;
        }
        let singles = self.ent.fraction_le(1.0) * self.ent.n() as f64
            + self.wan.fraction_le(1.0) * self.wan.n() as f64;
        singles / n as f64
    }

    /// Fraction of sessions with ten or more objects.
    pub fn ten_plus_frac(&self) -> f64 {
        let n = self.ent.n() + self.wan.n();
        if n == 0 {
            return 0.0;
        }
        let le9 = self.ent.fraction_le(9.0) * self.ent.n() as f64
            + self.wan.fraction_le(9.0) * self.wan.n() as f64;
        1.0 - le9 / n as f64
    }
}

/// Compute objects-per-session distributions (automated clients excluded,
/// as in the paper).
pub fn web_sessions(traces: &DatasetTraces) -> WebSessions {
    let mut ent: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut wan: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for t in traces {
        for h in &t.http {
            if h.tx.client.is_automated() {
                continue;
            }
            // An object = a transaction that returned content (or a 304).
            if !h.tx.is_successful() {
                continue;
            }
            let key = (h.client.0, h.server.0);
            *if h.server_internal {
                ent.entry(key).or_default()
            } else {
                wan.entry(key).or_default()
            } += 1;
        }
    }
    WebSessions {
        ent: Ecdf::new(ent.values().map(|&v| v as f64).collect()),
        wan: Ecdf::new(wan.values().map(|&v| v as f64).collect()),
    }
}

/// Render the objects-per-session figure across datasets.
pub fn sessions_figure(rows: &[(&str, WebSessions)]) -> Figure {
    let mut f = Figure::new(
        "Web sessions: objects per session (paper sec. 5.1.1 text)",
        "objects",
    );
    for (name, s) in rows {
        f.series(format!("ent:{name}"), s.ent.clone());
        f.series(format!("wan:{name}"), s.wan.clone());
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{HttpRecord, TraceAnalysis};
    use ent_proto::http::{ClientKind, ContentClass, HttpTransaction};
    use ent_wire::ipv4;

    fn tx(status: u16, client: ClientKind) -> HttpTransaction {
        HttpTransaction {
            method: "GET".into(),
            uri: "/".into(),
            host: None,
            client,
            conditional: false,
            request_body_len: 0,
            status,
            content: ContentClass::Text,
            response_body_len: 100,
        }
    }

    #[test]
    fn sessions_grouped_by_pair() {
        let mut t = TraceAnalysis::default();
        let c1 = ipv4::Addr::new(10, 100, 1, 30);
        let srv = ipv4::Addr::new(64, 0, 0, 1);
        // c1 fetches 12 objects from srv; c2 fetches 1.
        for _ in 0..12 {
            t.http.push(HttpRecord {
                tx: tx(200, ClientKind::Browser),
                client: c1,
                server: srv,
                server_internal: false,
            });
        }
        t.http.push(HttpRecord {
            tx: tx(200, ClientKind::Browser),
            client: ipv4::Addr::new(10, 100, 1, 31),
            server: srv,
            server_internal: false,
        });
        // Bot traffic excluded.
        t.http.push(HttpRecord {
            tx: tx(200, ClientKind::GoogleBot2),
            client: ipv4::Addr::new(10, 100, 1, 32),
            server: srv,
            server_internal: false,
        });
        // Failed request: not an object.
        t.http.push(HttpRecord {
            tx: tx(404, ClientKind::Browser),
            client: ipv4::Addr::new(10, 100, 1, 33),
            server: srv,
            server_internal: false,
        });
        let s = web_sessions(&[t]);
        assert_eq!(s.wan.n(), 2);
        assert_eq!(s.wan.quantile(1.0), Some(12.0));
        assert!((s.single_object_frac() - 0.5).abs() < 1e-9);
        assert!((s.ten_plus_frac() - 0.5).abs() < 1e-9);
        assert!(sessions_figure(&[("D0", s)]).render().contains("wan:D0"));
    }
}
