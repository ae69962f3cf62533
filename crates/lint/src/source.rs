//! Per-file analysis context: token stream plus the derived maps every
//! check consults — test regions, inline suppressions and enclosing-`fn`
//! spans.

use crate::lexer::{lex, Tok, TokKind};
use crate::report::Code;
use std::collections::HashMap;

/// A lexed source file with its derived lint context.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Name of the owning crate (`wire`, `pcap`, …), or the top-level
    /// member name (`tests`, `examples`) outside `crates/`.
    pub crate_name: String,
    /// Whole file is test context (integration tests, the top-level
    /// `tests` member).
    pub is_test_file: bool,
    /// Raw bytes.
    pub bytes: Vec<u8>,
    /// Token stream (comments included).
    pub toks: Vec<Tok>,
    test_lines: Vec<bool>,
    suppress: HashMap<u32, Vec<Code>>,
    fn_spans: Vec<FnSpan>,
    line_starts: Vec<usize>,
}

/// Span of one `fn` item body, used to scope hot-path checks.
#[derive(Debug, Clone)]
struct FnSpan {
    start_line: u32,
    end_line: u32,
    name: String,
}

impl SourceFile {
    /// Lex and analyze one file.
    pub fn new(rel: String, crate_name: String, is_test_file: bool, bytes: Vec<u8>) -> SourceFile {
        let toks = lex(&bytes);
        let mut line_starts = vec![0usize];
        for (i, b) in bytes.iter().enumerate() {
            if *b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut sf = SourceFile {
            rel,
            crate_name,
            is_test_file,
            bytes,
            toks,
            test_lines: Vec::new(),
            suppress: HashMap::new(),
            fn_spans: Vec::new(),
            line_starts,
        };
        sf.compute_test_lines();
        sf.compute_suppressions();
        sf.compute_fn_spans();
        sf
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> u32 {
        self.line_starts.len() as u32
    }

    /// Raw text of a 1-based line (without the newline).
    pub fn line_text(&self, line: u32) -> std::borrow::Cow<'_, str> {
        let idx = (line as usize).saturating_sub(1);
        let start = self.line_starts.get(idx).copied().unwrap_or(self.bytes.len());
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|e| e.saturating_sub(1))
            .unwrap_or(self.bytes.len());
        String::from_utf8_lossy(&self.bytes[start.min(end)..end])
    }

    /// Is this 1-based line inside a `#[cfg(test)]`/`#[test]` region (or is
    /// the whole file test context)?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.is_test_file || self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// Is `code` suppressed at `line` by an inline
    /// `// ent-lint: allow(CODE)` comment (same line or the line above)?
    pub fn suppressed(&self, line: u32, code: Code) -> bool {
        self.suppress.get(&line).is_some_and(|v| v.contains(&code))
    }

    /// Name of the innermost `fn` whose body contains `line`.
    pub fn enclosing_fn(&self, line: u32) -> Option<&str> {
        self.fn_spans
            .iter()
            .filter(|s| s.start_line <= line && line <= s.end_line)
            .max_by_key(|s| s.start_line)
            .map(|s| s.name.as_str())
    }

    /// Text of token `i`.
    pub fn text(&self, i: usize) -> std::borrow::Cow<'_, str> {
        self.toks[i].text(&self.bytes)
    }

    /// Index of the previous non-comment token before `i`.
    pub fn prev_sig(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| self.toks[j].kind != TokKind::Comment)
    }

    /// Index of the next non-comment token after `i`.
    pub fn next_sig(&self, i: usize) -> Option<usize> {
        (i + 1..self.toks.len()).find(|&j| self.toks[j].kind != TokKind::Comment)
    }

    /// Index of the bracket token that closes the opener at `open`
    /// (`(`/`)`, `[`/`]` or `{`/`}`), ignoring comments.
    pub fn matching_close(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.toks[open].kind {
            TokKind::Punct('(') => ('(', ')'),
            TokKind::Punct('[') => ('[', ']'),
            TokKind::Punct('{') => ('{', '}'),
            _ => return None,
        };
        let mut depth = 0i64;
        for j in open..self.toks.len() {
            match self.toks[j].kind {
                TokKind::Punct(p) if p == o => depth += 1,
                TokKind::Punct(p) if p == c => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
        None
    }

    fn is(&self, i: usize, kind: TokKind) -> bool {
        self.toks.get(i).map(|t| t.kind) == Some(kind)
    }

    fn ident_is(&self, i: usize, s: &str) -> bool {
        self.is(i, TokKind::Ident) && self.text(i) == s
    }

    /// Mark lines covered by `#[cfg(test)]`/`#[test]` item bodies.
    fn compute_test_lines(&mut self) {
        let mut marks: Vec<(u32, u32)> = Vec::new();
        let mut i = 0usize;
        while i < self.toks.len() {
            if self.is(i, TokKind::Punct('#')) {
                // Outer attribute `#[...]` (inner `#![...]` never marks a
                // region here; file-level cfg(test) does not occur in this
                // workspace and whole-file test context comes from paths).
                let open = if self.is(i + 1, TokKind::Punct('[')) { i + 1 } else { usize::MAX };
                if open == usize::MAX {
                    i += 1;
                    continue;
                }
                let Some(close) = self.matching_close(open) else {
                    break;
                };
                if self.attr_is_test(open + 1, close) {
                    if let Some((a, b)) = self.item_body_after(close + 1) {
                        marks.push((a, b));
                    }
                }
                i = close + 1;
            } else {
                i += 1;
            }
        }
        let mut lines = vec![false; self.line_count() as usize + 2];
        for (a, b) in marks {
            for l in a..=b.min(self.line_count()) {
                if let Some(slot) = lines.get_mut(l as usize) {
                    *slot = true;
                }
            }
        }
        self.test_lines = lines;
    }

    /// Do attribute tokens in `(from..to)` mark a test-only item:
    /// `#[test]`, or `#[cfg(...)]` whose condition mentions `test` outside
    /// a `not(...)`?
    fn attr_is_test(&self, from: usize, to: usize) -> bool {
        let sig: Vec<usize> = (from..to).filter(|&j| self.toks[j].kind != TokKind::Comment).collect();
        if sig.len() == 1 && self.ident_is(sig[0], "test") {
            return true;
        }
        if sig.first().is_some_and(|&j| self.ident_is(j, "cfg")) {
            for (k, &j) in sig.iter().enumerate() {
                if self.ident_is(j, "test") {
                    let negated = k >= 2
                        && self.is(sig[k - 1], TokKind::Punct('('))
                        && self.ident_is(sig[k - 2], "not");
                    if !negated {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Starting at token `i` (just past an attribute), skip any further
    /// attributes, then return the line span of the item body `{ … }`, or
    /// `None` for braceless items (`;`-terminated).
    fn item_body_after(&self, mut i: usize) -> Option<(u32, u32)> {
        // Skip stacked attributes and doc comments.
        loop {
            while self.is(i, TokKind::Comment) {
                i += 1;
            }
            if self.is(i, TokKind::Punct('#')) && self.is(i + 1, TokKind::Punct('[')) {
                i = self.matching_close(i + 1)? + 1;
            } else {
                break;
            }
        }
        // Find the body `{` (or `;`) at bracket depth 0.
        let mut depth = 0i64;
        while i < self.toks.len() {
            match self.toks[i].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct(';') if depth == 0 => return None,
                TokKind::Punct('{') if depth == 0 => {
                    let close = self.matching_close(i)?;
                    return Some((self.toks[i].line, self.toks[close].line));
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// Collect `// ent-lint: allow(CODE, …)` suppressions. A suppression
    /// applies to its own line and the line below it.
    fn compute_suppressions(&mut self) {
        let mut map: HashMap<u32, Vec<Code>> = HashMap::new();
        for t in &self.toks {
            if t.kind != TokKind::Comment {
                continue;
            }
            let text = t.text(&self.bytes);
            let Some(pos) = text.find("ent-lint:") else { continue };
            let rest = &text[pos + "ent-lint:".len()..];
            let Some(open) = rest.find("allow(") else { continue };
            let args = &rest[open + "allow(".len()..];
            let Some(end) = args.find(')') else { continue };
            for part in args[..end].split(',') {
                if let Some(code) = Code::parse(part.trim()) {
                    map.entry(t.line).or_default().push(code);
                    map.entry(t.line + 1).or_default().push(code);
                }
            }
        }
        self.suppress = map;
    }

    /// Record the body span of every named `fn`.
    fn compute_fn_spans(&mut self) {
        let mut spans = Vec::new();
        let mut i = 0usize;
        while i < self.toks.len() {
            if self.ident_is(i, "fn") {
                if let Some(ni) = self.next_sig(i) {
                    if self.is(ni, TokKind::Ident) {
                        let name = self.text(ni).into_owned();
                        if let Some((a, b)) = self.item_body_after(ni + 1) {
                            spans.push(FnSpan { start_line: a.min(self.toks[i].line), end_line: b, name });
                        }
                    }
                }
            }
            i += 1;
        }
        self.fn_spans = spans;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs".into(), "x".into(), false, src.as_bytes().to_vec())
    }

    #[test]
    fn cfg_test_mod_region() {
        let s = sf("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n");
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(3));
        assert!(s.is_test_line(4));
        assert!(s.is_test_line(5));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn test_fn_region_with_stacked_attrs() {
        let s = sf("#[test]\n#[ignore]\nfn t() {\n    body();\n}\nfn real() {}\n");
        assert!(s.is_test_line(4));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let s = sf("#[cfg(not(test))]\nfn gate() {\n    body();\n}\n");
        assert!(!s.is_test_line(3));
    }

    #[test]
    fn cfg_all_test_is_a_test_region() {
        let s = sf("#[cfg(all(test, feature = \"x\"))]\nmod m {\n    fn b() {}\n}\n");
        assert!(s.is_test_line(3));
    }

    #[test]
    fn suppression_covers_own_and_next_line() {
        let s = sf("// ent-lint: allow(E001, E002)\nlet x = v[i];\nlet y = v[j];\n");
        assert!(s.suppressed(2, Code::E001));
        assert!(s.suppressed(2, Code::E002));
        assert!(!s.suppressed(3, Code::E001));
        // Trailing form.
        let s2 = sf("let x = v[i]; // ent-lint: allow(E001)\n");
        assert!(s2.suppressed(1, Code::E001));
    }

    #[test]
    fn enclosing_fn_innermost_wins() {
        let s = sf("fn outer_parse() {\n    fn helper() {\n        x();\n    }\n    y();\n}\n");
        assert_eq!(s.enclosing_fn(3), Some("helper"));
        assert_eq!(s.enclosing_fn(5), Some("outer_parse"));
        assert_eq!(s.enclosing_fn(7), None);
    }

    #[test]
    fn fn_with_array_param_finds_body() {
        let s = sf("fn f(a: [u8; 4]) -> u8 {\n    a_body();\n}\n");
        assert_eq!(s.enclosing_fn(2), Some("f"));
    }

    #[test]
    fn line_text_roundtrip() {
        let s = sf("one\ntwo\nthree");
        assert_eq!(s.line_text(2), "two");
        assert_eq!(s.line_text(3), "three");
    }
}
