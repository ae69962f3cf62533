//! Symbol-aware determinism and taxonomy checks: E006, E008 and E009.
//!
//! All three lints consume the [`crate::symbols`] layer rather than raw
//! token patterns: E006 needs to know whether a receiver *is* a std
//! unordered map and whether the enclosing fn can reach a report sink;
//! E008 reads parsed return types; E009 reads struct fields and schema
//! `const` items. The approximations inherited from the symbol layer are
//! deliberately one-sided: an unresolved binding or missed call edge
//! silences a finding, it never invents one.

use crate::lexer::TokKind;
use crate::report::{Code, Finding};
use crate::source::SourceFile;
use crate::symbols::{generic_args, head_ident, FileSymbols, FnItem, WorkspaceSymbols};
use std::collections::BTreeSet;

/// Crates whose analysis output must be bit-reproducible (E006).
const DETERMINISM_CRATES: [&str; 3] = ["flow", "proto", "core"];
/// Substrings of fn names treated as determinism *sinks* for E006: anything
/// these fns (transitively) call must not leak unordered-map iteration
/// order.
const SINK_FN_MARKERS: [&str; 7] =
    ["report", "render", "signature", "finalize", "finish", "emit", "summar"];
/// Tokens whose presence in the same statement marks an unordered-map
/// iteration as order-insensitive (commutative reductions, set/sorted
/// collection targets) and therefore E006-clean.
const ORDER_INSENSITIVE_MARKERS: [&str; 24] = [
    "sort", "sort_unstable", "sort_by", "sort_by_key", "sum", "count", "len", "max", "min",
    "max_by_key", "min_by_key", "all", "any", "contains", "contains_key", "fold_commutative",
    "HashSet", "BTreeMap", "BTreeSet", "Ecdf", "extend", "insert", "saturating_add",
    "wrapping_add",
];
/// Files exempt from the E006 wall-clock rule: deliberate wall-clock
/// observability (stage timers) lives here and never feeds results.
const WALL_CLOCK_FILES: [&str; 1] = ["crates/core/src/metrics.rs"];
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
/// File and struct holding the checkpoint payload for E009: every field
/// must appear in test code somewhere in the workspace.
const CHECKPOINT_PAYLOAD: (&str, &str) = ("crates/core/src/checkpoint.rs", "Checkpoint");
/// Files holding the `ent-bench-*` schema tables key-checked by E009.
const BENCH_EMITTER_FILES: [&str; 1] = ["crates/core/src/metrics.rs"];
/// Type names that mark a `const` in those files as a schema table: every
/// identifier-shaped string literal in it is a declared key.
const BENCH_SCHEMA_TYPES: [&str; 2] = ["Schema", "Key"];

/// Methods whose results surface std-map iteration order.
const UNORDERED_ITER: [&str; 9] = [
    "iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "into_keys",
    "into_values",
];

/// Wall-clock / ambient-state reads flagged by E006 in analysis crates:
/// `Owner::method` pairs.
const CLOCK_READS: [(&str, &str); 5] = [
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("thread", "current"),
    ("env", "var"),
    ("env", "var_os"),
];

/// Truncating integer targets for E008's `as`-in-`Err` rule.
const TRUNCATING_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

fn finding(code: Code, file: &SourceFile, line: u32, message: String) -> Finding {
    Finding { code, file: file.rel.clone(), line, message }
}

/// Run every symbol-aware check over the loaded sources.
pub fn symbol_checks(sources: &[SourceFile]) -> Vec<Finding> {
    let ws = WorkspaceSymbols::build(sources);
    let mut out = e006(sources, &ws);
    out.extend(e008(sources, &ws));
    out.extend(e009(sources, &ws));
    out
}

/// Is `ty` a std-`RandomState` unordered map/set? Hasher-explicit forms
/// (three-parameter `HashMap`, two-parameter `HashSet`) and types whose
/// import resolves outside `std` are not.
fn is_std_unordered(ty: &str, syms: &FileSymbols) -> bool {
    let head = head_ident(ty);
    let args = generic_args(ty);
    let default_hasher = match head {
        "HashMap" => args.len() <= 2 || args.get(2).is_some_and(|a| a.contains("RandomState")),
        "HashSet" => args.len() <= 1 || args.get(1).is_some_and(|a| a.contains("RandomState")),
        _ => return false,
    };
    if !default_hasher {
        return false;
    }
    match syms.import_path(head) {
        Some(path) => path.starts_with("std::collections") || path.starts_with("collections"),
        None => true, // unresolved: the std prelude-adjacent default
    }
}

/// Resolve the receiver of a `.method(` call at token `mi` (the method
/// ident) to a binding type: handles `name.method(` and
/// `self.field.method(`.
fn receiver_type<'a>(
    file: &SourceFile,
    syms: &'a FileSymbols,
    f: &'a FnItem,
    mi: usize,
) -> Option<&'a str> {
    let dot = file.prev_sig(mi)?;
    if file.toks[dot].kind != TokKind::Punct('.') {
        return None;
    }
    let recv = file.prev_sig(dot)?;
    if file.toks[recv].kind != TokKind::Ident {
        return None;
    }
    let name = file.text(recv);
    if name == "self" {
        return None;
    }
    syms.binding_type(f, &name)
}

/// Does the statement containing token `i` (bounded by `;`/`{`/`}`)
/// mention an order-insensitive marker?
fn statement_is_order_insensitive(file: &SourceFile, i: usize) -> bool {
    let boundary = |k: TokKind| {
        matches!(k, TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}'))
    };
    let mut lo = i;
    while lo > 0 && !boundary(file.toks[lo - 1].kind) {
        lo -= 1;
    }
    let mut hi = i;
    while hi + 1 < file.toks.len() && !boundary(file.toks[hi].kind) {
        hi += 1;
    }
    (lo..=hi.min(file.toks.len() - 1)).any(|j| {
        file.toks[j].kind == TokKind::Ident
            && ORDER_INSENSITIVE_MARKERS.contains(&file.text(j).as_ref())
    })
}

/// Does fn `f` sort anything (its own iteration results included)?
fn fn_sorts(f: &FnItem) -> bool {
    f.calls.iter().any(|c| c.starts_with("sort"))
}

/// E006 — nondeterminism hazards in analysis crates.
fn e006(sources: &[SourceFile], ws: &WorkspaceSymbols) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut flagged: BTreeSet<(usize, u32)> = BTreeSet::new();

    // (a) std-map iteration inside sink-reachable fns.
    for crate_name in DETERMINISM_CRATES {
        for &(fi, gi) in &ws.reachable_from_markers(crate_name, &SINK_FN_MARKERS) {
            let file = &sources[fi];
            let syms = &ws.files[fi];
            let f = &syms.fns[gi];
            let Some((open, close)) = f.body else { continue };
            for j in open + 1..close {
                if file.toks[j].kind != TokKind::Ident {
                    continue;
                }
                let word = file.text(j);
                if !UNORDERED_ITER.contains(&word.as_ref()) {
                    continue;
                }
                if file.next_sig(j).map(|n| file.toks[n].kind) != Some(TokKind::Punct('(')) {
                    continue;
                }
                let Some(ty) = receiver_type(file, syms, f, j) else { continue };
                if !is_std_unordered(ty, syms) {
                    continue;
                }
                let line = file.toks[j].line;
                if file.is_test_line(line)
                    || fn_sorts(f)
                    || statement_is_order_insensitive(file, j)
                {
                    continue;
                }
                if flagged.insert((fi, line)) {
                    out.push(finding(
                        Code::E006,
                        file,
                        line,
                        format!(
                            "`.{word}()` over std `{}` in `{}`, which reaches a report/signature sink: iteration order is per-process random — sort first or use an order-insensitive reduction",
                            head_ident(ty),
                            f.name
                        ),
                    ));
                }
            }
        }
    }

    for (fi, file) in sources.iter().enumerate() {
        if !DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let syms = &ws.files[fi];

        // (b) wall-clock / ambient-state reads.
        if !WALL_CLOCK_FILES.contains(&file.rel.as_str()) {
            for j in 0..file.toks.len() {
                if file.toks[j].kind != TokKind::Ident {
                    continue;
                }
                let line = file.toks[j].line;
                if file.is_test_line(line) {
                    continue;
                }
                let method = file.text(j);
                for (owner, m) in CLOCK_READS {
                    if method != m {
                        continue;
                    }
                    // `Owner::method` — two `:` puncts then the owner ident.
                    let Some(c2) = file.prev_sig(j) else { continue };
                    let Some(c1) = file.prev_sig(c2) else { continue };
                    if file.toks[c2].kind != TokKind::Punct(':')
                        || file.toks[c1].kind != TokKind::Punct(':')
                    {
                        continue;
                    }
                    let Some(oi) = file.prev_sig(c1) else { continue };
                    if file.toks[oi].kind == TokKind::Ident && file.text(oi) == owner {
                        out.push(finding(
                            Code::E006,
                            file,
                            line,
                            format!(
                                "`{owner}::{m}` in analysis crate `{}`: wall-clock/ambient state must not influence analysis results",
                                file.crate_name
                            ),
                        ));
                        break;
                    }
                }
            }
        }

        // (c) float accumulation inside loops over unordered maps.
        for f in &syms.fns {
            let Some((open, close)) = f.body else { continue };
            let mut j = open + 1;
            while j < close {
                if file.toks[j].kind == TokKind::Ident && file.text(j) == "for" {
                    if let Some((body_open, body_close)) = for_loop_over_unordered(file, syms, f, j, close) {
                        for k in body_open + 1..body_close {
                            // `x += …` with a float-typed `x`.
                            if file.toks[k].kind != TokKind::Punct('+')
                                || file.toks.get(k + 1).map(|t| t.kind) != Some(TokKind::Punct('='))
                            {
                                continue;
                            }
                            let Some(lhs) = file.prev_sig(k) else { continue };
                            if file.toks[lhs].kind != TokKind::Ident {
                                continue;
                            }
                            let lhs_name = file.text(lhs);
                            let is_float = syms
                                .binding_type(f, &lhs_name)
                                .map(head_ident)
                                .is_some_and(|h| h == "f32" || h == "f64");
                            let line = file.toks[k].line;
                            if is_float && !file.is_test_line(line) {
                                out.push(finding(
                                    Code::E006,
                                    file,
                                    line,
                                    format!(
                                        "float `+=` on `{lhs_name}` inside iteration over a std unordered map in `{}`: summation order varies per process — sort keys first or accumulate integers",
                                        f.name
                                    ),
                                ));
                            }
                        }
                        j = body_close;
                        continue;
                    }
                }
                j += 1;
            }
        }
    }
    out
}

/// If token `fi` is a `for` whose `in`-expression involves a std unordered
/// map, return the loop body span.
fn for_loop_over_unordered(
    file: &SourceFile,
    syms: &FileSymbols,
    f: &FnItem,
    for_idx: usize,
    limit: usize,
) -> Option<(usize, usize)> {
    // Find the `in` keyword, then the body `{` at depth 0.
    let mut j = for_idx + 1;
    let mut in_idx = None;
    let mut depth = 0i64;
    while j < limit {
        match file.toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Ident if depth == 0 && file.text(j) == "in" => {
                in_idx = Some(j);
                break;
            }
            TokKind::Punct('{') => return None,
            _ => {}
        }
        j += 1;
    }
    let in_idx = in_idx?;
    let mut k = in_idx + 1;
    let mut depth = 0i64;
    let mut body_open = None;
    while k < limit {
        match file.toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => {
                body_open = Some(k);
                break;
            }
            _ => {}
        }
        k += 1;
    }
    let body_open = body_open?;
    let unordered = (in_idx + 1..body_open).any(|x| {
        file.toks[x].kind == TokKind::Ident
            && syms
                .binding_type(f, &file.text(x))
                .is_some_and(|ty| is_std_unordered(ty, syms))
    });
    if !unordered {
        return None;
    }
    let body_close = file.matching_close(body_open)?;
    Some((body_open, body_close))
}

/// E008 — error-taxonomy totality on public fallible APIs.
fn e008(sources: &[SourceFile], ws: &WorkspaceSymbols) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in sources.iter().enumerate() {
        if !ERROR_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        let syms = &ws.files[fi];
        for f in &syms.fns {
            if !f.is_pub || file.is_test_line(f.line) {
                continue;
            }
            if let Some(ret) = &f.ret {
                // (a) `Result<T, E>`: E must come from the taxonomy.
                if head_ident(ret) == "Result" {
                    let args = generic_args(ret);
                    if args.len() == 2 {
                        let err = &args[1];
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
                // (b) bool/Option smuggling on fallible-verb names. The
                // marker must match a whole `_`-separated segment so
                // `has_payload` does not trip on `load`; predicate
                // prefixes stay legal by construction.
                let lower = f.name.to_ascii_lowercase();
                let fallible = lower.split('_').any(|seg| FALLIBLE_FN_MARKERS.contains(&seg));
                if fallible {
                    let smuggled = ret == "bool" || head_ident(ret) == "Option";
                    if smuggled {
                        out.push(finding(
                            Code::E008,
                            file,
                            f.line,
                            format!("pub fn `{}` is a fallible operation but returns `{ret}`: failure detail is smuggled instead of typed — return a taxonomy `Result`", f.name),
                        ));
                    }
                }
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
    }
    out
}

/// E009 — checkpoint/bench schema hygiene: every payload field and every
/// emitted JSON key must be referenced from test code.
fn e009(sources: &[SourceFile], ws: &WorkspaceSymbols) -> Vec<Finding> {
    let mut out = Vec::new();
    let covered = test_reference_words(sources);

    // (a) checkpoint payload fields.
    let (ckpt_file, ckpt_struct) = CHECKPOINT_PAYLOAD;
    for (fi, file) in sources.iter().enumerate() {
        if file.rel != ckpt_file {
            continue;
        }
        if let Some(s) = ws.files[fi].structs.iter().find(|s| s.name == ckpt_struct) {
            for (fname, fline, _ty) in &s.fields {
                if !covered.contains(fname.as_str()) {
                    out.push(finding(
                        Code::E009,
                        file,
                        *fline,
                        format!("checkpoint payload field `{fname}` has no test reference: add it to a round-trip test before it silently rots"),
                    ));
                }
            }
        }
    }

    // (b) bench-document keys: every identifier-shaped string literal in
    // a schema-table `const` (one whose type names a schema type).
    for (fi, file) in sources.iter().enumerate() {
        if !BENCH_EMITTER_FILES.contains(&file.rel.as_str()) {
            continue;
        }
        let mut seen_keys: BTreeSet<String> = BTreeSet::new();
        for item in &ws.files[fi].statics {
            let mut ty_words = item.ty.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            let is_table = ty_words.any(|w| BENCH_SCHEMA_TYPES.contains(&w));
            if !is_table || file.is_test_line(item.line) {
                continue;
            }
            // The item runs from its line to the first `;` outside every bracket.
            let mut depth = 0i32;
            for k in (0..file.toks.len()).skip_while(|&k| file.toks[k].line < item.line) {
                match file.toks[k].kind {
                    TokKind::Punct('(' | '[' | '{') => depth += 1,
                    TokKind::Punct(')' | ']' | '}') => depth -= 1,
                    TokKind::Punct(';') if depth == 0 => break,
                    TokKind::Str => {
                        let text = file.text(k);
                        let key = text.trim_matches('"');
                        let ident_shaped = key.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                            && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                        if ident_shaped && seen_keys.insert(key.to_string()) && !covered.contains(key) {
                            out.push(finding(
                                Code::E009,
                                file,
                                file.toks[k].line,
                                format!("bench JSON key `{key}` is declared but never referenced from test code: extend the obs-check/round-trip coverage"),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Every identifier-shaped word visible from test context: idents on test
/// lines plus words inside string literals on test lines (tests reference
/// JSON keys as strings, struct fields as idents).
fn test_reference_words(sources: &[SourceFile]) -> BTreeSet<String> {
    let mut words = BTreeSet::new();
    for file in sources {
        for (j, t) in file.toks.iter().enumerate() {
            if !file.is_test_line(t.line) {
                continue;
            }
            match t.kind {
                TokKind::Ident => {
                    words.insert(file.text(j).into_owned());
                }
                TokKind::Str => {
                    let text = file.text(j).into_owned();
                    for w in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                        if !w.is_empty() {
                            words.insert(w.to_string());
                        }
                    }
                }
                _ => {}
            }
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(rel: &str, crate_name: &str, is_test: bool, text: &str) -> SourceFile {
        SourceFile::new(rel.into(), crate_name.into(), is_test, text.as_bytes().to_vec())
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        symbol_checks(&files)
    }

    #[test]
    fn e006_flags_sink_reachable_map_iteration() {
        let f = src(
            "crates/core/src/report.rs",
            "core",
            false,
            "use std::collections::HashMap;\npub fn render_report(m: &HashMap<u32, u64>) {\n    for (k, v) in m.iter() {\n        emit(k, v);\n    }\n}\nfn emit(_k: &u32, _v: &u64) {}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().any(|f| f.code == Code::E006 && f.line == 3), "{fs:#?}");
    }

    #[test]
    fn e006_respects_sort_and_order_insensitive_escapes() {
        let f = src(
            "crates/core/src/report.rs",
            "core",
            false,
            "use std::collections::HashMap;\npub fn render_sorted(m: &HashMap<u32, u64>) {\n    let mut ks: Vec<u32> = m.keys().copied().collect();\n    ks.sort_unstable();\n}\npub fn render_total(m: &HashMap<u32, u64>) -> u64 {\n    m.values().sum()\n}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().all(|f| f.code != Code::E006), "{fs:#?}");
    }

    #[test]
    fn e006_explicit_hasher_is_clean() {
        let f = src(
            "crates/core/src/report.rs",
            "core",
            false,
            "use std::collections::HashMap;\npub fn render_fx(m: &HashMap<u32, u64, FxBuildHasher>) {\n    for (k, v) in m.iter() {\n        let _ = (k, v);\n    }\n}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().all(|f| f.code != Code::E006), "{fs:#?}");
    }

    #[test]
    fn e006_wall_clock_flagged_and_exempt_file_quiet() {
        let hot = src(
            "crates/flow/src/clocky.rs",
            "flow",
            false,
            "use std::time::Instant;\npub fn tick() {\n    let _t = Instant::now();\n}\n",
        );
        let exempt = src(
            "crates/core/src/metrics.rs",
            "core",
            false,
            "use std::time::Instant;\npub fn stage() {\n    let _t = Instant::now();\n}\n",
        );
        let fs = run(vec![hot, exempt]);
        assert_eq!(fs.iter().filter(|f| f.code == Code::E006).count(), 1, "{fs:#?}");
        assert!(fs.iter().any(|f| f.file == "crates/flow/src/clocky.rs" && f.line == 3));
    }

    #[test]
    fn e006_float_accumulation_in_map_loop() {
        let f = src(
            "crates/proto/src/mix.rs",
            "proto",
            false,
            "use std::collections::HashMap;\npub fn mix(m: &HashMap<u32, f64>) -> f64 {\n    let mut total: f64 = 0.0;\n    for v in m.values() {\n        total += *v;\n    }\n    total\n}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().any(|f| f.code == Code::E006 && f.line == 5), "{fs:#?}");
    }

    #[test]
    fn e008_string_error_and_option_smuggling() {
        let f = src(
            "crates/core/src/io.rs",
            "core",
            false,
            "pub fn parse_doc(s: &str) -> Result<u32, String> {\n    s.parse().map_err(|_| \"bad\".to_string())\n}\npub fn load_state(p: &str) -> Option<u32> {\n    let _ = p;\n    None\n}\npub fn open_typed(p: &str) -> Result<u32, AnalysisError> {\n    let _ = p;\n    Err(AnalysisError::bad(9999 as u16))\n}\n",
        );
        let fs = run(vec![f]);
        let e8: Vec<u32> = fs.iter().filter(|f| f.code == Code::E008).map(|f| f.line).collect();
        assert_eq!(e8, vec![1, 4, 10], "{fs:#?}");
    }

    #[test]
    fn e008_generic_and_io_errors_pass() {
        let f = src(
            "crates/pcap/src/rdr.rs",
            "pcap",
            false,
            "pub fn read_all(p: &str) -> Result<Vec<u8>, io::Error> {\n    std::fs::read(p)\n}\npub fn map_with<E>(f: fn() -> Result<u32, E>) -> Result<u32, E> {\n    f()\n}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().all(|f| f.code != Code::E008), "{fs:#?}");
    }

    #[test]
    fn e009_uncovered_field_and_key() {
        let ckpt = src(
            "crates/core/src/checkpoint.rs",
            "core",
            false,
            "pub struct Checkpoint {\n    pub epoch_index: u64,\n    pub ghost_field: u64,\n}\n",
        );
        let table = src(
            "crates/core/src/metrics.rs",
            "core",
            false,
            "const NOT_A_TABLE: &str = \"free_text\";\npub const PIPELINE: Schema = Schema {\n    tag: \"ent-bench-pipeline/1\",\n    top: &[Key::new(\"ghost_key\", Exact)],\n    entries: &[Key::new(\"covered_key\", Info).from_metrics(|m| fmt(\"{:016x}\", m))],\n};\n",
        );
        let tests = src(
            "tests/tests/obs.rs",
            "tests",
            true,
            "fn check() {\n    let _ = \"schema covered_key\";\n    let c = Checkpoint { epoch_index: 1, ghost_field: 0 };\n    let _ = c.epoch_index;\n}\n",
        );
        // `ghost_field` appears in tests too — drop it from coverage by
        // renaming in the test source.
        let tests = {
            let _ = tests;
            src(
                "tests/tests/obs.rs",
                "tests",
                true,
                "fn check() {\n    let _ = \"schema covered_key\";\n    let _ = epoch_index;\n}\n",
            )
        };
        let fs = run(vec![ckpt, table, tests]);
        let e9: Vec<(String, u32)> = fs
            .iter()
            .filter(|f| f.code == Code::E009)
            .map(|f| (f.file.clone(), f.line))
            .collect();
        assert_eq!(
            e9,
            vec![
                ("crates/core/src/checkpoint.rs".to_string(), 3),
                ("crates/core/src/metrics.rs".to_string(), 4),
            ],
            "{fs:#?}"
        );
    }
}
