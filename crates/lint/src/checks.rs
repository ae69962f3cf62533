//! The lint rules E001, E002, E005 and E008.
//!
//! Each check walks the token streams produced by [`crate::lexer`] (E008
//! reads the fn signatures [`crate::symbols`] recovers from them) and
//! emits [`Finding`]s. Suppression filtering happens centrally in
//! [`crate::lint_sources`], so checks report everything they see.

use crate::lexer::TokKind;
use crate::report::{Code, Finding};
use crate::source::SourceFile;
use crate::symbols::{fn_items, generic_args, head_ident};
use std::collections::{BTreeMap, BTreeSet};

/// Crates on the ingest path, whose non-test code must not index with a
/// computed offset (E001): a panic here aborts trace analysis.
const INDEX_CRATES: [&str; 5] = ["wire", "pcap", "proto", "flow", "core"];
/// Crates whose parser hot paths are checked for unchecked offset
/// arithmetic and truncating casts (E002).
const ARITH_CRATES: [&str; 3] = ["wire", "pcap", "proto"];
/// Substrings identifying parser hot-path function names for E002.
const HOT_FN_MARKERS: [&str; 9] =
    ["parse", "read", "next", "decode", "feed", "recover", "resync", "merge", "ingest"];
/// Substrings identifying length/offset-carrying identifiers for E002.
const LENISH_MARKERS: [&str; 10] =
    ["len", "off", "size", "total", "ihl", "cap", "snap", "pos", "idx", "count"];
/// Crates whose public fallible API must use the typed error taxonomy
/// (E008).
const ERROR_CRATES: [&str; 4] = ["wire", "pcap", "flow", "core"];
/// Head identifiers of the approved error-taxonomy types for E008.
const TAXONOMY_ERRORS: [&str; 7] = [
    "AnalysisError", "PcapError", "CheckpointError", "BenchJsonError", "Error", "io::Error",
    "fmt::Error",
];
/// Fn-name segments that imply a fallible operation for E008's
/// `bool`/`Option` smuggling rule (predicates like `is_*` stay legal).
const FALLIBLE_FN_MARKERS: [&str; 8] =
    ["load", "open", "save", "persist", "restore", "resume", "flush", "commit"];
/// Truncating integer targets for E002's casts and E008's `as`-in-`Err`
/// rule.
const TRUNCATING_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

fn finding(code: Code, file: &SourceFile, line: u32, message: String) -> Finding {
    Finding { code, file: file.rel.clone(), line, message }
}

/// Keywords that can precede a `[` without making it an index expression
/// (`if let [a, b] = …`, `return [x]`, `in [..]`).
const KEYWORDS: [&str; 24] = [
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "break",
    "continue", "where", "use", "pub", "const", "static", "fn", "impl", "for", "while", "loop",
    "struct", "enum",
];

/// Is `name` const-like (SCREAMING_SNAKE_CASE)? Indexing with a named
/// constant is treated like a literal index: it is part of the audited
/// up-front-length-check idiom, not a computed offset.
fn const_like(name: &str) -> bool {
    name.chars().any(|c| c.is_ascii_uppercase())
        && name.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Is token `j` a segment of an enum-variant path (`Stage::FlowIngest`)?
/// Indexing by a variant goes through a typed `Index` impl over a table
/// sized to the enum, which is total by construction — not a slice
/// offset computed from input.
fn variant_path_segment(file: &SourceFile, j: usize) -> bool {
    let colon = |k: Option<usize>| k.is_some_and(|k| file.toks[k].kind == TokKind::Punct(':'));
    file.text(j).starts_with(|c: char| c.is_ascii_uppercase())
        && (colon(file.next_sig(j)) || colon(file.prev_sig(j)))
}

/// Does `name` look like it carries a wire length/offset?
fn lenish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    LENISH_MARKERS.iter().any(|m| lower.contains(m))
}

/// Is the `fn` named `name` a parser hot path?
fn hot_fn(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    HOT_FN_MARKERS.iter().any(|m| lower.contains(m))
}

/// E001: computed slice indexing in non-test code of the ingest crates.
/// A literal or const index behind an up-front length check is the
/// audited idiom and passes — the distinction clippy's `indexing_slicing`
/// cannot make. The `unwrap`/`expect`/`panic!` family is clippy's job
/// (`[workspace.lints.clippy]`).
pub fn e001(file: &SourceFile) -> Vec<Finding> {
    if !INDEX_CRATES.contains(&file.crate_name.as_str()) || file.is_test_file {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..file.toks.len() {
        let t = &file.toks[i];
        if t.kind != TokKind::Punct('[') || file.is_test_line(t.line) {
            continue;
        }
        // Indexing: `expr[...]` where expr ends with an ident, `)` or `]`.
        let Some(p) = file.prev_sig(i) else { continue };
        let is_index = match file.toks[p].kind {
            TokKind::Ident => !KEYWORDS.contains(&file.text(p).as_ref()),
            TokKind::Punct(')') | TokKind::Punct(']') => true,
            _ => false,
        };
        if !is_index {
            continue;
        }
        // `#[...]` attributes: previous significant token is `#` or `!`,
        // already excluded; `ident!` macro calls have `!` before `[`.
        let Some(close) = file.matching_close(i) else { continue };
        let computed = (i + 1..close).any(|j| match file.toks[j].kind {
            TokKind::Ident => !const_like(&file.text(j)) && !variant_path_segment(file, j),
            TokKind::Str => true,
            _ => false,
        });
        if computed {
            out.push(finding(
                Code::E001,
                file,
                t.line,
                "indexing with a computed offset can panic on truncated input; use `.get(..)` with a total fallback (or justify with an `ent-lint: allow(E001)` after auditing)".to_string(),
            ));
        }
    }
    out
}

/// E002: unchecked offset arithmetic and truncating casts of
/// length-derived values inside parser hot paths.
pub fn e002(file: &SourceFile) -> Vec<Finding> {
    if !ARITH_CRATES.contains(&file.crate_name.as_str()) || file.is_test_file {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..file.toks.len() {
        let t = &file.toks[i];
        if t.kind == TokKind::Comment || file.is_test_line(t.line) {
            continue;
        }
        let in_hot = file.enclosing_fn(t.line).is_some_and(hot_fn);
        if !in_hot {
            continue;
        }
        if t.kind == TokKind::Ident && file.text(i) == "as" {
            let Some(n) = file.next_sig(i) else { continue };
            let target = file.text(n);
            if TRUNCATING_INTS.contains(&target.as_ref()) && operand_is_lenish(file, i) {
                out.push(finding(
                    Code::E002,
                    file,
                    t.line,
                    format!("truncating `as {target}` cast of a length-derived value in a parser hot path; use `try_from` or an explicit clamp"),
                ));
            }
        } else if let TokKind::Punct(op @ ('+' | '-' | '*')) = t.kind {
            let Some(p) = file.prev_sig(i) else { continue };
            let Some(n) = file.next_sig(i) else { continue };
            // Binary only: previous token must be an operand end.
            let binary = matches!(file.toks[p].kind, TokKind::Ident | TokKind::Num | TokKind::Punct(')') | TokKind::Punct(']'));
            if !binary {
                continue;
            }
            // `->` arrow, `*=`-style compound handled: `+=`/`-=`/`*=` have
            // ident before them and `=` after — still arithmetic, keep them.
            if op == '-' && file.toks[n].kind == TokKind::Punct('>') {
                continue;
            }
            let prev_lenish = match file.toks[p].kind {
                TokKind::Ident => lenish(&file.text(p)),
                TokKind::Punct(')') => call_is_lenish(file, p),
                _ => false,
            };
            let next_lenish = file.toks[n].kind == TokKind::Ident && lenish(&file.text(n));
            if prev_lenish || next_lenish {
                let line_text = file.line_text(t.line);
                if line_text.contains("checked_")
                    || line_text.contains("saturating_")
                    || line_text.contains("wrapping_")
                {
                    continue;
                }
                out.push(finding(
                    Code::E002,
                    file,
                    t.line,
                    format!("unchecked `{op}` on a length-derived value in a parser hot path; use `checked_`/`saturating_` arithmetic"),
                ));
            }
        }
    }
    out
}

/// For `…) as u16` / `…) + off`: scan the parenthesized operand ending at
/// `close_idx` (a `)`) plus the callee ident before the `(` for a lenish
/// name (`buf.len()`, `(total_len + 4)`).
fn call_is_lenish(file: &SourceFile, close_idx: usize) -> bool {
    let mut depth = 0i64;
    let mut open = None;
    for j in (0..=close_idx).rev() {
        match file.toks[j].kind {
            TokKind::Punct(')') => depth += 1,
            TokKind::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    open = Some(j);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(open) = open else { return false };
    for j in open..close_idx {
        if file.toks[j].kind == TokKind::Ident && lenish(&file.text(j)) {
            return true;
        }
    }
    if let Some(callee) = file.prev_sig(open) {
        if file.toks[callee].kind == TokKind::Ident && lenish(&file.text(callee)) {
            return true;
        }
    }
    false
}

/// The operand of `… as uN` ending just before token `as_idx`.
fn operand_is_lenish(file: &SourceFile, as_idx: usize) -> bool {
    let Some(p) = file.prev_sig(as_idx) else { return false };
    match file.toks[p].kind {
        TokKind::Ident => lenish(&file.text(p)),
        TokKind::Punct(')') => call_is_lenish(file, p),
        _ => false,
    }
}

/// Extract `(kind, number)` paper-artifact IDs (`Table 7`, `Figure 10`)
/// from one line of text. Matching is case-insensitive and
/// word-boundary-exact on the number (a `Figure 1` claim is not covered by
/// a `Figure 10` reference).
fn artifact_ids(line: &str) -> Vec<(String, u32)> {
    let lower = line.to_ascii_lowercase();
    let bytes = lower.as_bytes();
    let mut out = Vec::new();
    for kind in ["table", "figure"] {
        let mut from = 0usize;
        while let Some(pos) = lower[from..].find(kind) {
            let at = from + pos;
            from = at + kind.len();
            // Word boundary on the left.
            if at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_') {
                continue;
            }
            let rest = &lower[at + kind.len()..];
            let rest_trim = rest.trim_start_matches([' ', '\t']);
            if rest_trim.len() == rest.len() && !rest.is_empty() {
                continue; // "tables", "figures", "table4" — not an ID claim
            }
            let digits: String = rest_trim.chars().take_while(|c| c.is_ascii_digit()).collect();
            if digits.is_empty() {
                continue;
            }
            // Word boundary on the right of the number.
            let after = rest_trim[digits.len()..].chars().next();
            if after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            if let Ok(n) = digits.parse::<u32>() {
                out.push((kind.to_string(), n));
            }
        }
    }
    out
}

/// E005: every paper artifact claimed in `crates/core/src/analyses` must be
/// referenced from test context (a file under `tests/`, or a
/// `#[cfg(test)]` region anywhere in the workspace).
pub fn e005(files: &[SourceFile]) -> Vec<Finding> {
    // Claims: first claiming site per artifact.
    let mut claims: BTreeMap<(String, u32), (usize, u32)> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        if !file.rel.starts_with("crates/core/src/analyses/") {
            continue;
        }
        for line in 1..=file.line_count() {
            for id in artifact_ids(&file.line_text(line)) {
                claims.entry(id).or_insert((fi, line));
            }
        }
    }
    if claims.is_empty() {
        return Vec::new();
    }
    // Coverage: IDs mentioned anywhere in test context.
    let mut covered: BTreeSet<(String, u32)> = BTreeSet::new();
    for file in files {
        for line in 1..=file.line_count() {
            if !file.is_test_line(line) {
                continue;
            }
            for id in artifact_ids(&file.line_text(line)) {
                covered.insert(id);
            }
        }
    }
    let mut out = Vec::new();
    for ((kind, n), (fi, line)) in &claims {
        if !covered.contains(&(kind.clone(), *n)) {
            let file = &files[*fi];
            let cap = {
                let mut c = kind.clone();
                if let Some(first) = c.get_mut(0..1) {
                    first.make_ascii_uppercase();
                }
                c
            };
            out.push(finding(
                Code::E005,
                file,
                *line,
                format!("{cap} {n} is claimed here but never referenced from any test; add a test that mentions `{cap} {n}`"),
            ));
        }
    }
    out
}

/// E008: error-taxonomy totality on the public fallible API of the
/// ingest crates. Reads each fn's signature only: its name, visibility,
/// line and return type.
pub fn e008(file: &SourceFile) -> Vec<Finding> {
    if !ERROR_CRATES.contains(&file.crate_name.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in fn_items(file) {
        if !f.is_pub || file.is_test_line(f.line) {
            continue;
        }
        let Some(ret) = &f.ret else { continue };
        // (a) `Result<T, E>`: E must come from the taxonomy.
        if head_ident(ret) == "Result" {
            let args = generic_args(ret);
            if let [_, err] = args.as_slice() {
                let eh = head_ident(err);
                let generic_param = eh.len() == 1 && eh.chars().all(|c| c.is_ascii_uppercase());
                let typed = TAXONOMY_ERRORS.iter().any(|t| *t == eh || err.contains(t));
                if !typed && !generic_param {
                    out.push(finding(
                        Code::E008,
                        file,
                        f.line,
                        format!("pub fn `{}` returns `Result<_, {eh}>`: error type is outside the crate taxonomy (expected one of {})", f.name, TAXONOMY_ERRORS.join("/")),
                    ));
                }
            }
        }
        // (b) bool/Option smuggling on fallible-verb names. The marker
        // must match a whole `_`-separated segment so `has_payload` does
        // not trip on `load`; predicate prefixes stay legal by
        // construction.
        let lower = f.name.to_ascii_lowercase();
        let fallible = lower.split('_').any(|seg| FALLIBLE_FN_MARKERS.contains(&seg));
        if fallible && (ret == "bool" || head_ident(ret) == "Option") {
            out.push(finding(
                Code::E008,
                file,
                f.line,
                format!("pub fn `{}` is a fallible operation but returns `{ret}`: failure detail is smuggled instead of typed — return a taxonomy `Result`", f.name),
            ));
        }
    }

    // (c) truncating `as` casts inside `Err(..)` construction.
    for j in 0..file.toks.len() {
        if file.toks[j].kind != TokKind::Ident || file.text(j) != "Err" {
            continue;
        }
        let Some(open) = file.next_sig(j) else { continue };
        if file.toks[open].kind != TokKind::Punct('(') {
            continue;
        }
        let Some(close) = file.matching_close(open) else { continue };
        for k in open + 1..close {
            if file.toks[k].kind != TokKind::Ident || file.text(k) != "as" {
                continue;
            }
            let Some(t) = file.next_sig(k) else { continue };
            if file.toks[t].kind == TokKind::Ident
                && TRUNCATING_INTS.contains(&file.text(t).as_ref())
            {
                let line = file.toks[k].line;
                if !file.is_test_line(line) {
                    out.push(finding(
                        Code::E008,
                        file,
                        line,
                        format!("truncating `as {}` inside `Err(..)`: error-path values must not silently lose width — use `try_into` or widen the field", file.text(t)),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire_file(src: &str) -> SourceFile {
        SourceFile::new("crates/wire/src/x.rs".into(), "wire".into(), false, src.as_bytes().to_vec())
    }

    #[test]
    fn e001_ignores_test_regions_and_literal_indexing() {
        let f = wire_file(
            "fn f(b: &[u8], t: &Table) -> u8 {\n    b[0] ^ b[4..8][0] ^ b[MIN_LEN] ^ t[Stage::FlowIngest]\n}\n#[cfg(test)]\nmod tests {\n    fn t() { x[i]; }\n}\n",
        );
        assert!(e001(&f).is_empty());
    }

    #[test]
    fn e001_flags_computed_indexing() {
        let f = wire_file("fn f(b: &[u8], off: usize) -> u8 {\n    b[off]\n}\n");
        let got = e001(&f);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn e001_out_of_scope_crate_is_ignored() {
        let f = SourceFile::new("crates/gen/src/x.rs".into(), "gen".into(), false, b"fn f(b: &[u8], i: usize) -> u8 { b[i] }".to_vec());
        assert!(e001(&f).is_empty());
    }

    #[test]
    fn e002_flags_hot_path_arith_and_casts() {
        let f = wire_file(
            "fn parse(b: &[u8], off: usize, total_len: usize) -> u16 {\n    let end = off + 4;\n    total_len as u16\n}\nfn helper(off: usize) -> usize {\n    off + 4\n}\n",
        );
        let got = e002(&f);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0].line, 2);
        assert_eq!(got[1].line, 3);
    }

    #[test]
    fn e002_checked_forms_pass() {
        let f = wire_file("fn parse(off: usize) -> Option<usize> {\n    off.checked_add(4)\n}\n");
        assert!(e002(&f).is_empty());
    }

    #[test]
    fn e002_len_call_cast() {
        let f = wire_file("fn read_rec(b: &[u8]) -> u32 {\n    b.len() as u32\n}\n");
        assert_eq!(e002(&f).len(), 1);
    }

    #[test]
    fn artifact_id_extraction() {
        assert_eq!(artifact_ids("reproduces Table 7 and Figure 10"), vec![("table".into(), 7), ("figure".into(), 10)]);
        assert_eq!(artifact_ids("tables and figures in general"), vec![]);
        assert_eq!(artifact_ids("Figure 1"), vec![("figure".into(), 1)]);
        // `Figure 10` must not cover `Figure 1`.
        assert_ne!(artifact_ids("Figure 10"), vec![("figure".into(), 1)]);
    }

    #[test]
    fn e005_claim_without_test_reference() {
        let claim = SourceFile::new(
            "crates/core/src/analyses/foo.rs".into(),
            "core".into(),
            false,
            b"//! Reproduces Table 99 of the paper.\npub fn t() {}\n".to_vec(),
        );
        let test = SourceFile::new(
            "tests/tests/t.rs".into(),
            "tests".into(),
            true,
            b"// checks Table 98 only\n".to_vec(),
        );
        let got = e005(&[claim, test]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("Table 99"));
    }

    #[test]
    fn e005_covered_by_cfg_test_region() {
        let claim = SourceFile::new(
            "crates/core/src/analyses/foo.rs".into(),
            "core".into(),
            false,
            b"//! Reproduces Table 99.\n#[cfg(test)]\nmod tests {\n    // asserts Table 99 shape\n}\n".to_vec(),
        );
        assert!(e005(&[claim]).is_empty());
    }

    #[test]
    fn e008_string_error_and_option_smuggling() {
        let f = SourceFile::new(
            "crates/core/src/io.rs".into(),
            "core".into(),
            false,
            b"pub fn parse_doc(s: &str) -> Result<u32, String> {\n    s.parse().map_err(|_| \"bad\".to_string())\n}\npub fn load_state(p: &str) -> Option<u32> {\n    let _ = p;\n    None\n}\npub fn open_typed(p: &str) -> Result<u32, AnalysisError> {\n    let _ = p;\n    Err(AnalysisError::bad(9999 as u16))\n}\n".to_vec(),
        );
        let e8: Vec<u32> = e008(&f).iter().map(|f| f.line).collect();
        assert_eq!(e8, vec![1, 4, 10]);
    }

    #[test]
    fn e008_generic_and_io_errors_pass() {
        let f = SourceFile::new(
            "crates/pcap/src/rdr.rs".into(),
            "pcap".into(),
            false,
            b"pub fn read_all(p: &str) -> Result<Vec<u8>, io::Error> {\n    std::fs::read(p)\n}\npub fn map_with<E>(f: fn() -> Result<u32, E>) -> Result<u32, E> {\n    f()\n}\n".to_vec(),
        );
        assert!(e008(&f).is_empty(), "{:#?}", e008(&f));
    }
}
