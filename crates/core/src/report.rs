//! Rendering: ASCII tables in the paper's layout, CDF "figures" as
//! quantile series, and CSV export for external plotting.

// Report bytes must not follow hash iteration order (clippy.toml).
#![deny(clippy::disallowed_types)]

use crate::stats::Ecdf;
use std::fmt::Write as _;

/// A rendered table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Caption, e.g. "Table 3: transport breakdown".
    pub title: String,
    /// Column headers; the first column is the row label.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        self.rows.push(cells);
        self
    }

    /// Render as aligned ASCII.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            if let Some(w) = widths.get_mut(i) {
                *w = (*w).max(h.chars().count());
            }
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                if let Some(w) = widths.get_mut(i) {
                    *w = (*w).max(c.chars().count());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(0);
                if i == 0 {
                    let _ = write!(s, "{c:<w$}");
                } else {
                    let _ = write!(s, "  {c:>w$}");
                }
            }
            s
        };
        if !self.headers.is_empty() {
            let _ = writeln!(out, "{}", line(&self.headers, &widths));
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for r in &self.rows {
            let _ = writeln!(out, "{}", line(r, &widths));
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for r in &self.rows {
            let _ = writeln!(out, "{}", r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// A figure: one or more labelled CDF series.
#[derive(Debug, Clone, Default)]
pub struct Figure {
    /// Caption, e.g. "Figure 4: HTTP reply sizes".
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// (series label, CDF) pairs.
    pub series: Vec<(String, Ecdf)>,
}

impl Figure {
    /// Start a figure.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>) -> Figure {
        Figure {
            title: title.into(),
            x_label: x_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series with its sample count in the label (as the paper's
    /// figure keys do: "ent:D0:N=1411").
    pub fn series(&mut self, label: impl Into<String>, ecdf: Ecdf) -> &mut Figure {
        let label = label.into();
        let n = ecdf.n();
        self.series.push((format!("{label}:N={n}"), ecdf));
        self
    }

    /// Render key quantiles of each series as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let _ = writeln!(out, "   ({}; quantiles of each series)", self.x_label);
        let qs = [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        let mut header = format!("{:<28}", "series");
        for q in qs {
            header.push_str(&format!("  {:>10}", format!("p{:02.0}", q * 100.0)));
        }
        let _ = writeln!(out, "{header}");
        for (label, e) in &self.series {
            let mut row = format!("{label:<28}");
            for q in qs {
                match e.quantile(q) {
                    Some(v) => row.push_str(&format!("  {v:>10.3}")),
                    None => row.push_str(&format!("  {:>10}", "-")),
                }
            }
            let _ = writeln!(out, "{row}");
        }
        out
    }

    /// CSV of plot points (quantile curves) for external plotting.
    pub fn to_csv(&self, points: usize) -> String {
        let mut out = String::from("series,x,cdf\n");
        for (label, e) in &self.series {
            for (x, q) in e.plot_points(points) {
                let _ = writeln!(out, "{label},{x},{q}");
            }
        }
        out
    }
}

/// Format a byte count like the paper ("13.12 GB", "602MB", "0.1MB").
pub fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}KB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Test", &["", "D0", "D1"]);
        t.row(vec!["IP".into(), "99%".into(), "97%".into()]);
        t.row(vec!["ARP".into(), "10%".into(), "6%".into()]);
        let s = t.render();
        assert!(s.contains("== Test =="));
        assert!(s.contains("IP"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["a", "b,c"]);
        t.row(vec!["v\"1".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"b,c\""));
        assert!(csv.contains("\"v\"\"1\""));
    }

    #[test]
    fn figure_renders_quantiles() {
        let mut f = Figure::new("Fig", "bytes");
        f.series("ent:D0", Ecdf::new((1..=100).map(f64::from).collect()));
        let s = f.render();
        assert!(s.contains("ent:D0:N=100"));
        assert!(s.contains("p50"));
        let csv = f.to_csv(4);
        assert_eq!(csv.lines().count(), 1 + 5);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(500), "500B");
        assert_eq!(fmt_bytes(13_120_000_000), "13.12GB");
        assert_eq!(fmt_bytes(602_000_000), "602.0MB");
    }
}
