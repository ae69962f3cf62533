//! The lint rules E001, E002, E004 and E005.
//!
//! Each check walks the token streams produced by [`crate::lexer`] and
//! emits [`Finding`]s. Suppression filtering happens centrally in
//! [`crate::lint_sources`], so checks report everything they see.

use crate::lexer::TokKind;
use crate::report::{Code, Finding};
use crate::source::SourceFile;
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
/// Per-packet hot-path modules in which E002 also forbids constructing a
/// std-SipHash `HashMap` (`new` / `default` / `with_capacity`): these maps
/// were deliberately moved to the pre-sized fx-hash forms, and a
/// reintroduced default map is a silent perf regression the compiler will
/// not catch.
const HOT_MAP_FILES: [&str; 4] = [
    "crates/flow/src/table.rs",
    "crates/core/src/pipeline.rs",
    "crates/flow/src/shard.rs",
    "crates/core/src/shard.rs",
];
/// Per-packet emission modules in which E002 also forbids ad-hoc heap
/// allocation (`Vec::new()` / `vec![..]` / `.to_vec()`): these paths were
/// rebuilt around arena buffers, and a reintroduced per-packet `Vec` is a
/// silent throughput regression the compiler will not catch.
const HOT_ALLOC_FILES: [&str; 14] = [
    "crates/gen/src/synth.rs",
    "crates/wire/src/build.rs",
    "crates/gen/src/apps/mod.rs",
    "crates/gen/src/apps/backup.rs",
    "crates/gen/src/apps/bulk_interactive.rs",
    "crates/gen/src/apps/email.rs",
    "crates/gen/src/apps/mgmt.rs",
    "crates/gen/src/apps/name.rs",
    "crates/gen/src/apps/netfile.rs",
    "crates/gen/src/apps/nonip.rs",
    "crates/gen/src/apps/scanner.rs",
    "crates/gen/src/apps/streaming.rs",
    "crates/gen/src/apps/web.rs",
    "crates/gen/src/apps/windows.rs",
];

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
/// length-derived values inside parser hot paths; in the named hot-map
/// modules ([`HOT_MAP_FILES`]), also any construction of a std-SipHash
/// `HashMap` where the pre-sized fx-hash form is required; in the named
/// hot-allocation modules ([`HOT_ALLOC_FILES`]), also any ad-hoc `Vec`
/// allocation where the arena buffer is required.
pub fn e002(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !file.is_test_file && HOT_MAP_FILES.contains(&file.rel.as_str()) {
        hot_map_scan(file, &mut out);
    }
    if !file.is_test_file && HOT_ALLOC_FILES.contains(&file.rel.as_str()) {
        hot_alloc_scan(file, &mut out);
    }
    if !ARITH_CRATES.contains(&file.crate_name.as_str()) || file.is_test_file {
        return out;
    }
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
            let truncating = matches!(target.as_ref(), "u8" | "u16" | "u32" | "i8" | "i16" | "i32");
            if truncating && operand_is_lenish(file, i) {
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

/// The hot-map half of E002: flag `HashMap::new()` / `HashMap::default()`
/// / `HashMap::with_capacity(..)` — the constructors that silently pick
/// SipHash-`RandomState` — in modules on the per-packet path. The
/// hasher-explicit forms (`with_hasher`, `with_capacity_and_hasher`) and
/// the `FxHashMap` alias pass.
fn hot_map_scan(file: &SourceFile, out: &mut Vec<Finding>) {
    for i in 0..file.toks.len() {
        let t = &file.toks[i];
        if t.kind != TokKind::Ident || file.is_test_line(t.line) || file.text(i) != "HashMap" {
            continue;
        }
        let Some(c1) = file.next_sig(i) else { continue };
        let Some(c2) = file.next_sig(c1) else { continue };
        let Some(m) = file.next_sig(c2) else { continue };
        if file.toks[c1].kind != TokKind::Punct(':')
            || file.toks[c2].kind != TokKind::Punct(':')
            || file.toks[m].kind != TokKind::Ident
        {
            continue;
        }
        let method = file.text(m);
        if matches!(method.as_ref(), "new" | "default" | "with_capacity") {
            out.push(finding(
                Code::E002,
                file,
                t.line,
                format!("std-SipHash `HashMap::{method}` in a hot-path module; use the pre-sized fx-hash form (`fx_map_with_capacity` / `with_capacity_and_hasher`, see crates/flow/src/fasthash.rs)"),
            ));
        }
    }
}

/// The hot-allocation half of E002: flag `Vec::new()`, `vec![..]` and
/// `.to_vec()` — the forms that heap-allocate per call — in modules on the
/// per-packet emission path. Those paths write through a reused
/// [`PacketArena`] buffer (`frame_buf` / `extend_from_slice`), so a fresh
/// `Vec` per packet is exactly the allocation churn the arena rework
/// removed; reintroducing one compiles fine and silently costs ~2x.
fn hot_alloc_scan(file: &SourceFile, out: &mut Vec<Finding>) {
    let flag = |out: &mut Vec<Finding>, line: u32, what: &str| {
        out.push(finding(
            Code::E002,
            file,
            line,
            format!("per-call heap allocation (`{what}`) in a hot emission module; write through the reused arena buffer instead (see crates/pcap/src/arena.rs)"),
        ));
    };
    for i in 0..file.toks.len() {
        let t = &file.toks[i];
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        match file.text(i).as_ref() {
            // `vec![..]` — ident `vec` directly followed by `!`.
            "vec" if file.next_sig(i).is_some_and(|n| file.toks[n].kind == TokKind::Punct('!')) => {
                flag(out, t.line, "vec![..]");
            }
            // `Vec::new()` — the empty-growable constructor. The sized
            // forms (`with_capacity`) pass: one-time setup buffers are
            // fine, it is the per-call empty Vec that churns.
            "Vec" => {
                let Some(c1) = file.next_sig(i) else { continue };
                let Some(c2) = file.next_sig(c1) else { continue };
                let Some(m) = file.next_sig(c2) else { continue };
                if file.toks[c1].kind == TokKind::Punct(':')
                    && file.toks[c2].kind == TokKind::Punct(':')
                    && file.toks[m].kind == TokKind::Ident
                    && file.text(m) == "new"
                {
                    flag(out, t.line, "Vec::new()");
                }
            }
            // `.to_vec()` — method call only (ident preceded by `.`), so a
            // local named `to_vec` would not trip it.
            "to_vec" if file.prev_sig(i).is_some_and(|p| file.toks[p].kind == TokKind::Punct('.')) => {
                flag(out, t.line, ".to_vec()");
            }
            _ => {}
        }
    }
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

/// E004: every analyzer module under `crates/proto/src/` must appear in
/// `registry.rs`'s `ANALYZER_MODULES`, and every listed name must have a
/// module file.
pub fn e004(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut modules = BTreeSet::new();
    let mut registry: Option<&SourceFile> = None;
    for file in files {
        let Some(rest) = file.rel.strip_prefix("crates/proto/src/") else { continue };
        if rest.contains('/') {
            continue;
        }
        let Some(stem) = rest.strip_suffix(".rs") else { continue };
        match stem {
            "lib" | "mod" => {}
            "registry" => registry = Some(file),
            _ => {
                modules.insert(stem.to_string());
            }
        }
    }
    if modules.is_empty() && registry.is_none() {
        return out; // workspace has no proto crate (e.g. fixture trees)
    }
    let Some(reg) = registry else {
        if let Some(any) = files.iter().find(|f| f.rel.starts_with("crates/proto/src/")) {
            out.push(finding(
                Code::E004,
                any,
                1,
                "crates/proto/src/registry.rs not found; analyzer modules cannot be checked for registration".to_string(),
            ));
        }
        return out;
    };
    // Locate `ANALYZER_MODULES` and collect its string entries.
    let mut listed: BTreeMap<String, u32> = BTreeMap::new();
    let mut const_line = None;
    for i in 0..reg.toks.len() {
        if reg.toks[i].kind == TokKind::Ident && reg.text(i) == "ANALYZER_MODULES" {
            const_line = Some(reg.toks[i].line);
            for j in i + 1..reg.toks.len() {
                match reg.toks[j].kind {
                    TokKind::Str => {
                        let raw = reg.text(j);
                        let name = raw.trim_matches(|c| c == '"');
                        listed.insert(name.to_string(), reg.toks[j].line);
                    }
                    TokKind::Punct(';') => break,
                    _ => {}
                }
            }
            break;
        }
    }
    let Some(const_line) = const_line else {
        out.push(finding(
            Code::E004,
            reg,
            1,
            "registry.rs does not declare `ANALYZER_MODULES`; the protocol registry cannot be checked for totality".to_string(),
        ));
        return out;
    };
    for m in &modules {
        if !listed.contains_key(m) {
            out.push(finding(
                Code::E004,
                reg,
                const_line,
                format!("analyzer module `{m}.rs` is not listed in ANALYZER_MODULES; wire it into the registry"),
            ));
        }
    }
    for (m, line) in &listed {
        if !modules.contains(m) {
            out.push(finding(
                Code::E004,
                reg,
                *line,
                format!("ANALYZER_MODULES lists `{m}` but crates/proto/src/{m}.rs does not exist"),
            ));
        }
    }
    out
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
    fn e002_hot_alloc_flags_per_call_allocation() {
        let f = SourceFile::new(
            "crates/gen/src/synth.rs".into(),
            "gen".into(),
            false,
            b"fn emit() -> Vec<u8> {\n    let mut f = Vec::new();\n    f.extend_from_slice(&vec![0u8; 4]);\n    f[..2].to_vec()\n}\n".to_vec(),
        );
        let got = e002(&f);
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!(got[0].line, 2);
        assert_eq!(got[1].line, 3);
        assert_eq!(got[2].line, 4);
        assert!(got.iter().all(|f| f.code == Code::E002));
    }

    #[test]
    fn e002_hot_alloc_reused_and_sized_forms_pass() {
        // with_capacity setup, writing through a reused buffer, a local
        // *named* to_vec, and test-region allocation are all out of scope.
        let f = SourceFile::new(
            "crates/gen/src/synth.rs".into(),
            "gen".into(),
            false,
            b"fn setup(n: usize) -> Vec<u8> {\n    Vec::with_capacity(n)\n}\nfn emit(buf: &mut Vec<u8>, to_vec: u8) {\n    buf.push(to_vec);\n}\n#[cfg(test)]\nmod tests {\n    fn t() -> Vec<u8> { vec![1, 2].to_vec() }\n}\n".to_vec(),
        );
        assert!(e002(&f).is_empty(), "{:?}", e002(&f));
    }

    #[test]
    fn e002_hot_alloc_only_in_listed_files() {
        // Same patterns in a non-listed gen module stay quiet (gen is not
        // an arith crate either, so e002 has no other reason to look).
        // The app generators are all listed now, so the example is the
        // site-modeling layer, which runs per trace rather than per packet.
        let f = SourceFile::new(
            "crates/gen/src/network.rs".into(),
            "gen".into(),
            false,
            b"fn emit() -> Vec<u8> {\n    Vec::new()\n}\n".to_vec(),
        );
        assert!(e002(&f).is_empty());
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
}
