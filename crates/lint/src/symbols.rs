//! Symbol resolution over the token stream: items, bindings, imports and
//! an approximate intra-crate call graph.
//!
//! `ent-lint` has no type system — the workspace builds offline, so there
//! is no `syn`, no HIR, no trait resolution. This layer recovers just
//! enough structure for the determinism/taxonomy lints (E006, E008) to be
//! *symbol-aware* rather than purely textual:
//!
//! * **Items** per file: `fn` (with parameter and return types and body
//!   span), named `struct` fields, and `use` imports flattened to
//!   `local name → full path`.
//! * **Bindings**: `let` declarations inside each fn body, keeping the
//!   annotated type or, failing that, the head of a `Path::constructor()`
//!   initializer. Receiver lookup walks lets → params → struct fields, all
//!   within one file.
//! * **Call graph**: within each crate, `ident(` free-function calls and
//!   `.ident(` method calls are matched *by name* against the crate's fn
//!   items. Reachability is a plain BFS over those edges.
//!
//! ## Approximations (documented, deliberate)
//!
//! Name-based call matching over-approximates (two fns sharing a name
//! merge their edges) and under-approximates (calls through function
//! pointers, trait objects or macros are invisible). Binding resolution is
//! file-local: a field of a type imported from another crate resolves only
//! if a struct of that name exists in the same file. Both trade precision
//! for zero dependencies; the symbol-aware checks are designed so that a
//! missed edge degrades to a missed finding, never a phantom one, and the
//! seeded fixture corpus pins the cases that must be caught.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One `fn` item (free function or method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Declared with `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index span of the body `{ … }`, if the fn has one.
    pub body: Option<(usize, usize)>,
    /// `(name, canonical type text)` per typed parameter (`self` skipped).
    pub params: Vec<(String, String)>,
    /// Canonical return-type text after `->`, if any.
    pub ret: Option<String>,
    /// Names called from the body: `callee(` and `.method(` occurrences.
    pub calls: Vec<String>,
    /// `let` bindings in the body: `(name, canonical type text)`.
    pub lets: Vec<(String, String)>,
}

/// One flattened `use` import: `local` is the name visible in the file,
/// `path` the full `::`-joined path it stands for.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// Name the import binds locally (alias-aware).
    pub local: String,
    /// Full imported path, `::`-separated.
    pub path: String,
}

/// All symbols recovered from one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// Every `fn`, in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// `(name, canonical type text)` of every named `struct` field.
    pub fields: Vec<(String, String)>,
    /// Flattened imports.
    pub imports: Vec<UseItem>,
}

impl FileSymbols {
    /// Parse one lexed file.
    pub fn parse(file: &SourceFile) -> FileSymbols {
        let mut syms = FileSymbols::default();
        let toks = &file.toks;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let word = file.text(i);
            match word.as_ref() {
                "use" => i = parse_use(file, i, &mut syms.imports),
                "fn" => {
                    let (item, next) = parse_fn(file, i);
                    let resume = match item.as_ref().and_then(|f| f.body) {
                        Some((open, _)) => open + 1, // descend into the body
                        None => next,
                    };
                    if let Some(item) = item {
                        syms.fns.push(item);
                    }
                    i = resume;
                }
                "struct" => i = parse_struct(file, i, &mut syms.fields),
                _ => i += 1,
            }
        }
        syms
    }

    /// Resolve the type of `name` as seen from inside fn `f`: let bindings
    /// first, then parameters, then any struct field in the file.
    pub fn binding_type<'a>(&'a self, f: &'a FnItem, name: &str) -> Option<&'a str> {
        if let Some((_, ty)) = f.lets.iter().rev().find(|(n, _)| n == name) {
            return Some(ty);
        }
        if let Some((_, ty)) = f.params.iter().find(|(n, _)| n == name) {
            return Some(ty);
        }
        self.fields.iter().find(|(n, _)| n == name).map(|(_, ty)| ty.as_str())
    }

    /// The import path bound to `local`, if any.
    pub fn import_path(&self, local: &str) -> Option<&str> {
        self.imports.iter().find(|u| u.local == local).map(|u| u.path.as_str())
    }
}

/// Keywords that are never callee names.
const CALL_KEYWORDS: [&str; 12] = [
    "if", "match", "while", "for", "loop", "return", "fn", "let", "in", "move", "as", "else",
];

/// Canonical text of a token slice: comments dropped, punctuation joined
/// tight, a single space kept between adjacent word tokens so `&mut Vec`
/// does not collapse into `&mutVec`.
fn canon(file: &SourceFile, from: usize, to: usize) -> String {
    let mut s = String::new();
    for j in from..to {
        if file.toks[j].kind == TokKind::Comment {
            continue;
        }
        let txt = file.text(j);
        let word_start = txt.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_');
        if word_start && s.bytes().last().is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_') {
            s.push(' ');
        }
        s.push_str(&txt);
    }
    s
}

/// Head identifier of a canonical type/path text: the last `::` segment's
/// leading identifier (`std::collections::HashMap<K,V>` → `HashMap`).
pub fn head_ident(ty: &str) -> &str {
    let mut no_ref = ty.trim_start_matches(['&', ' ']);
    while let Some(rest) = no_ref.strip_prefix("mut ").or_else(|| no_ref.strip_prefix("mut&")) {
        no_ref = rest.trim_start_matches(['&', ' ']);
    }
    let base = match no_ref.find('<') {
        Some(lt) => &no_ref[..lt],
        None => no_ref,
    };
    match base.rfind("::") {
        Some(p) => &base[p + 2..],
        None => base,
    }
}

/// Split the top-level generic arguments of `ty` (text inside the first
/// `<…>` balanced at depth 0). `HashMap<FlowKey,ConnIndex>` →
/// `["FlowKey", "ConnIndex"]`; no generics → empty.
pub fn generic_args(ty: &str) -> Vec<String> {
    let Some(lt) = ty.find('<') else { return Vec::new() };
    let bytes = ty.as_bytes();
    let mut depth = 0i32;
    let mut out = Vec::new();
    let mut start = lt + 1;
    let mut end = ty.len();
    for (k, &b) in bytes.iter().enumerate().skip(lt) {
        match b {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            }
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b',' if depth == 1 => {
                out.push(ty[start..k].to_string());
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < end {
        out.push(ty[start..end].to_string());
    }
    out
}

/// Parse a `use` item starting at the `use` keyword; flattens nested
/// groups and honors `as` aliases. Returns the index past the `;`.
fn parse_use(file: &SourceFile, use_idx: usize, out: &mut Vec<UseItem>) -> usize {
    // Collect significant tokens up to `;`.
    let mut end = use_idx + 1;
    while end < file.toks.len() && file.toks[end].kind != TokKind::Punct(';') {
        end += 1;
    }
    fn walk(file: &SourceFile, mut j: usize, end: usize, prefix: &str, out: &mut Vec<UseItem>) -> usize {
        let mut path = prefix.to_string();
        let mut last_seg = String::new();
        while j < end {
            match file.toks[j].kind {
                TokKind::Comment => j += 1,
                TokKind::Ident => {
                    let seg = file.text(j).into_owned();
                    if seg == "as" {
                        // alias: next ident is the local name
                        if let Some(n) = file.next_sig(j) {
                            if n < end && file.toks[n].kind == TokKind::Ident {
                                out.push(UseItem { local: file.text(n).into_owned(), path: path.clone() });
                                return skip_to_group_end(file, n + 1, end);
                            }
                        }
                        return end;
                    }
                    if !path.is_empty() {
                        path.push_str("::");
                    }
                    path.push_str(&seg);
                    last_seg = seg;
                    j += 1;
                }
                TokKind::Punct('{') => {
                    // group: recurse per comma-separated element
                    let mut k = j + 1;
                    loop {
                        k = walk(file, k, end, &path, out);
                        if k >= end || file.toks[k].kind == TokKind::Punct('}') {
                            return k + 1;
                        }
                        k += 1; // skip comma
                    }
                }
                TokKind::Punct('}') | TokKind::Punct(',') => break,
                TokKind::Punct('*') => {
                    // glob: record under the wildcard name
                    out.push(UseItem { local: "*".into(), path: path.clone() });
                    return j + 1;
                }
                _ => j += 1, // `::`, visibility puncts
            }
        }
        if !last_seg.is_empty() {
            out.push(UseItem { local: last_seg, path });
        }
        j
    }
    fn skip_to_group_end(file: &SourceFile, mut j: usize, end: usize) -> usize {
        while j < end
            && file.toks[j].kind != TokKind::Punct(',')
            && file.toks[j].kind != TokKind::Punct('}')
        {
            j += 1;
        }
        j
    }
    walk(file, use_idx + 1, end, "", out);
    end + 1
}

/// Parse `fn name …` starting at the `fn` keyword. Returns the item and
/// the token index to resume at on failure to parse a body.
fn parse_fn(file: &SourceFile, fn_idx: usize) -> (Option<FnItem>, usize) {
    let Some(ni) = file.next_sig(fn_idx) else { return (None, fn_idx + 1) };
    if file.toks[ni].kind != TokKind::Ident {
        return (None, fn_idx + 1); // `fn(` pointer type
    }
    let name = file.text(ni).into_owned();
    let is_pub = file
        .prev_sig(fn_idx)
        .is_some_and(|p| file.toks[p].kind == TokKind::Ident && file.text(p) == "pub")
        || prev_is_pub_qualifier(file, fn_idx);
    // Skip generics.
    let mut j = ni + 1;
    if file.toks.get(j).map(|t| t.kind) == Some(TokKind::Punct('<')) {
        j = skip_angle(file, j);
    }
    // Parameters.
    let mut params = Vec::new();
    if file.toks.get(j).map(|t| t.kind) == Some(TokKind::Punct('(')) {
        if let Some(close) = file.matching_close(j) {
            parse_params(file, j + 1, close, &mut params);
            j = close + 1;
        } else {
            return (None, j + 1);
        }
    }
    // Return type: `-> …` up to `{`, `;` or `where` at depth 0.
    let mut ret = None;
    let mut k = j;
    let mut ret_start = None;
    let mut depth = 0i64;
    while k < file.toks.len() {
        match file.toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                // `->` arrow: the `>` right after `-`
                if k > 0 && file.toks[k - 1].kind == TokKind::Punct('-') {
                    if depth == 0 && ret_start.is_none() {
                        ret_start = Some(k + 1);
                    }
                } else {
                    depth -= 1;
                }
            }
            TokKind::Punct('{') | TokKind::Punct(';') if depth <= 0 => break,
            TokKind::Ident if depth <= 0 && file.text(k) == "where" => break,
            _ => {}
        }
        k += 1;
    }
    if let Some(rs) = ret_start {
        let txt = canon(file, rs, k);
        if !txt.is_empty() {
            ret = Some(txt);
        }
    }
    // Skip a where clause to the body `{` or `;`.
    while k < file.toks.len()
        && file.toks[k].kind != TokKind::Punct('{')
        && file.toks[k].kind != TokKind::Punct(';')
    {
        k += 1;
    }
    let mut body = None;
    let mut calls = Vec::new();
    let mut lets = Vec::new();
    if file.toks.get(k).map(|t| t.kind) == Some(TokKind::Punct('{')) {
        if let Some(close) = file.matching_close(k) {
            body = Some((k, close));
            scan_body(file, k + 1, close, &mut calls, &mut lets);
        }
    }
    (
        Some(FnItem {
            name,
            is_pub,
            line: file.toks[fn_idx].line,
            body,
            params,
            ret,
            calls,
            lets,
        }),
        k + 1,
    )
}

/// Does a `pub(crate)`-style qualifier precede token `idx`?
fn prev_is_pub_qualifier(file: &SourceFile, idx: usize) -> bool {
    // pattern: `pub ( … )` — previous sig is `)`, scan back to `(`, the
    // token before it must be `pub`.
    let Some(p) = file.prev_sig(idx) else { return false };
    if file.toks[p].kind != TokKind::Punct(')') {
        return false;
    }
    let mut depth = 0i64;
    for j in (0..=p).rev() {
        match file.toks[j].kind {
            TokKind::Punct(')') => depth += 1,
            TokKind::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    return file
                        .prev_sig(j)
                        .is_some_and(|q| file.toks[q].kind == TokKind::Ident && file.text(q) == "pub");
                }
            }
            _ => {}
        }
    }
    false
}

/// Skip a balanced `<…>` starting at `open` (token kind `<`).
fn skip_angle(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < file.toks.len() {
        match file.toks[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            TokKind::Punct('(') | TokKind::Punct('{') | TokKind::Punct(';') => return j, // bail: not generics
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parse `name: Type` parameters between `from..to` (inside the parens).
fn parse_params(file: &SourceFile, from: usize, to: usize, out: &mut Vec<(String, String)>) {
    let mut j = from;
    while j < to {
        // Element starts here; find its top-level `:` and terminating `,`.
        let mut colon = None;
        let mut depth = 0i64;
        let start = j;
        let mut k = j;
        while k < to {
            match file.toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') | TokKind::Punct('>') => depth -= 1,
                TokKind::Punct(':') if depth == 0 => {
                    // `::` is two adjacent `:` tokens — skip both.
                    if file.toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Punct(':')) {
                        k += 1;
                    } else if colon.is_none() {
                        colon = Some(k);
                    }
                }
                TokKind::Punct(',') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(c) = colon {
            // Name: last ident before the colon (skips `mut`, `&`, patterns).
            let name = (start..c)
                .rev()
                .find(|&x| file.toks[x].kind == TokKind::Ident && file.text(x) != "mut")
                .map(|x| file.text(x).into_owned());
            if let Some(name) = name {
                out.push((name, canon(file, c + 1, k)));
            }
        }
        j = k + 1;
    }
}

/// Scan a fn body for callee names and `let` bindings.
fn scan_body(
    file: &SourceFile,
    from: usize,
    to: usize,
    calls: &mut Vec<String>,
    lets: &mut Vec<(String, String)>,
) {
    let mut j = from;
    while j < to {
        let t = &file.toks[j];
        if t.kind == TokKind::Ident {
            let word = file.text(j);
            if word == "let" {
                j = parse_let(file, j, to, lets);
                continue;
            }
            if !CALL_KEYWORDS.contains(&word.as_ref()) {
                if let Some(n) = file.next_sig(j) {
                    if n < to && file.toks[n].kind == TokKind::Punct('(') {
                        calls.push(word.into_owned());
                    }
                }
            }
        }
        j += 1;
    }
}

/// Parse one `let [mut] name [: Type] [= init] ;` binding; returns resume
/// index. Only simple ident patterns are recorded.
fn parse_let(file: &SourceFile, let_idx: usize, to: usize, lets: &mut Vec<(String, String)>) -> usize {
    let Some(mut j) = file.next_sig(let_idx) else { return let_idx + 1 };
    if j < to && file.toks[j].kind == TokKind::Ident && file.text(j) == "mut" {
        j = match file.next_sig(j) {
            Some(x) => x,
            None => return j + 1,
        };
    }
    if j >= to || file.toks[j].kind != TokKind::Ident {
        return let_idx + 1; // destructuring / let-else — skip
    }
    let name = file.text(j).into_owned();
    let Some(after) = file.next_sig(j) else { return j + 1 };
    if after < to && file.toks[after].kind == TokKind::Punct(':') {
        // Annotated: type runs to `=` or `;` at depth 0.
        let mut depth = 0i64;
        let mut k = after + 1;
        while k < to {
            match file.toks[k].kind {
                TokKind::Punct('<') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct('>') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct('=') | TokKind::Punct(';') if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        lets.push((name, canon(file, after + 1, k)));
        return k;
    }
    if after < to && file.toks[after].kind == TokKind::Punct('=') {
        // Unannotated: record `Path::ctor` initializer heads only.
        if let Some(v) = file.next_sig(after) {
            if v < to && file.toks[v].kind == TokKind::Ident {
                let head = file.text(v).into_owned();
                let c1 = file.next_sig(v);
                let is_path = c1.is_some_and(|x| x < to && file.toks[x].kind == TokKind::Punct(':'));
                if is_path {
                    lets.push((name, head));
                }
            }
        }
    }
    j + 1
}

/// Parse `struct Name { fields }`, appending its named fields to `out`;
/// returns resume index.
fn parse_struct(file: &SourceFile, struct_idx: usize, out: &mut Vec<(String, String)>) -> usize {
    let Some(ni) = file.next_sig(struct_idx) else { return struct_idx + 1 };
    if file.toks[ni].kind != TokKind::Ident {
        return struct_idx + 1;
    }
    // Skip generics, find `{`, `(` (tuple) or `;` (unit).
    let mut j = ni + 1;
    if file.toks.get(j).map(|t| t.kind) == Some(TokKind::Punct('<')) {
        j = skip_angle(file, j);
    }
    while j < file.toks.len() {
        match file.toks[j].kind {
            TokKind::Punct('{') => {
                let Some(close) = file.matching_close(j) else { return j + 1 };
                parse_fields(file, j + 1, close, out);
                return j + 1; // descend (nested items are unlikely but harmless)
            }
            TokKind::Punct('(') | TokKind::Punct(';') => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Parse `name: Type,` fields between braces (visibility tolerated).
fn parse_fields(file: &SourceFile, from: usize, to: usize, out: &mut Vec<(String, String)>) {
    let mut j = from;
    while j < to {
        // Skip attributes on the field.
        if file.toks[j].kind == TokKind::Punct('#') {
            if let Some(n) = file.next_sig(j) {
                if file.toks[n].kind == TokKind::Punct('[') {
                    if let Some(close) = file.matching_close(n) {
                        j = close + 1;
                        continue;
                    }
                }
            }
        }
        if file.toks[j].kind == TokKind::Comment {
            j += 1;
            continue;
        }
        // Field: [pub[(…)]] name `:` Type  up to top-level `,` or end.
        let mut name_idx = None;
        let mut k = j;
        let mut depth = 0i64;
        let mut colon = None;
        while k < to {
            match file.toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') | TokKind::Punct('<') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') | TokKind::Punct('>') => depth -= 1,
                TokKind::Punct(':') if depth == 0 && colon.is_none() => {
                    if file.toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Punct(':')) {
                        k += 1;
                    } else {
                        colon = Some(k);
                        name_idx = (j..k)
                            .rev()
                            .find(|&x| file.toks[x].kind == TokKind::Ident && file.text(x) != "pub");
                    }
                }
                TokKind::Punct(',') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if let (Some(ni), Some(c)) = (name_idx, colon) {
            out.push((file.text(ni).into_owned(), canon(file, c + 1, k)));
        }
        j = k + 1;
    }
}

// ---------------------------------------------------------------------------
// Crate-level graphs.
// ---------------------------------------------------------------------------

/// A fn reference: index of the file in the analyzed set, index of the fn
/// within that file's symbols.
pub type FnRef = (usize, usize);

/// Symbols for a whole workspace: per-file items plus per-crate call
/// graphs.
pub struct WorkspaceSymbols {
    /// Parallel to the input `SourceFile` slice.
    pub files: Vec<FileSymbols>,
    /// Per crate: fn name → every fn with that name in the crate.
    pub crate_fns: BTreeMap<String, BTreeMap<String, Vec<FnRef>>>,
}

impl WorkspaceSymbols {
    /// Parse every file and assemble the graphs.
    pub fn build(sources: &[SourceFile]) -> WorkspaceSymbols {
        let files: Vec<FileSymbols> = sources.iter().map(FileSymbols::parse).collect();
        let mut crate_fns: BTreeMap<String, BTreeMap<String, Vec<FnRef>>> = BTreeMap::new();
        for (fi, (src, syms)) in sources.iter().zip(files.iter()).enumerate() {
            let by_name = crate_fns.entry(src.crate_name.clone()).or_default();
            for (gi, f) in syms.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
            }
        }
        WorkspaceSymbols { files, crate_fns }
    }

    /// All fns in `crate_name` reachable (by name-matched call edges) from
    /// fns whose names contain any of `root_markers`, roots included.
    pub fn reachable_from_markers(&self, crate_name: &str, root_markers: &[&str]) -> BTreeSet<FnRef> {
        let Some(by_name) = self.crate_fns.get(crate_name) else {
            return BTreeSet::new();
        };
        let mut queue: Vec<FnRef> = Vec::new();
        let mut seen: BTreeSet<FnRef> = BTreeSet::new();
        for (name, refs) in by_name {
            let lower = name.to_ascii_lowercase();
            if root_markers.iter().any(|m| lower.contains(m)) {
                for r in refs {
                    if seen.insert(*r) {
                        queue.push(*r);
                    }
                }
            }
        }
        while let Some((fi, gi)) = queue.pop() {
            for callee in &self.files[fi].fns[gi].calls {
                if let Some(refs) = by_name.get(callee) {
                    for r in refs {
                        if seen.insert(*r) {
                            queue.push(*r);
                        }
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs".into(), "x".into(), false, src.as_bytes().to_vec())
    }

    #[test]
    fn fn_items_with_params_ret_and_body() {
        let s = sf("pub fn parse(buf: &[u8], off: usize) -> Result<Frame, Error> {\n    helper(off);\n    let m: HashMap<u32, u64> = HashMap::new();\n    m.len();\n}\nfn helper(x: usize) {}\n");
        let syms = FileSymbols::parse(&s);
        assert_eq!(syms.fns.len(), 2);
        let f = &syms.fns[0];
        assert_eq!(f.name, "parse");
        assert!(f.is_pub);
        assert_eq!(f.params, vec![("buf".to_string(), "&[u8]".to_string()), ("off".to_string(), "usize".to_string())]);
        assert_eq!(f.ret.as_deref(), Some("Result<Frame,Error>"));
        assert!(f.calls.contains(&"helper".to_string()));
        assert!(f.calls.contains(&"len".to_string()));
        assert_eq!(f.lets, vec![("m".to_string(), "HashMap<u32,u64>".to_string())]);
        assert!(!syms.fns[1].is_pub);
    }

    #[test]
    fn pub_crate_visibility_and_impl_methods() {
        let s = sf("struct T { inner: HashMap<u32, u64> }\nimpl T {\n    pub(crate) fn finish(&mut self) {\n        self.inner.drain();\n    }\n}\nimpl Drop for T {\n    fn drop(&mut self) {}\n}\n");
        let syms = FileSymbols::parse(&s);
        assert_eq!(syms.fields, vec![("inner".to_string(), "HashMap<u32,u64>".to_string())]);
        let finish = syms.fns.iter().find(|f| f.name == "finish").unwrap();
        assert!(finish.is_pub);
        let drop_fn = syms.fns.iter().find(|f| f.name == "drop").unwrap();
        assert!(!drop_fn.is_pub);
        // Field type resolves from inside the method.
        assert_eq!(syms.binding_type(finish, "inner").map(head_ident), Some("HashMap"));
    }

    #[test]
    fn use_flattening_and_aliases() {
        let s = sf("use std::collections::{HashMap, HashSet};\nuse ent_flow::fasthash::FxHashMap as Fx;\nuse std::io;\n");
        let syms = FileSymbols::parse(&s);
        assert_eq!(syms.import_path("HashMap"), Some("std::collections::HashMap"));
        assert_eq!(syms.import_path("HashSet"), Some("std::collections::HashSet"));
        assert_eq!(syms.import_path("Fx"), Some("ent_flow::fasthash::FxHashMap"));
        assert_eq!(syms.import_path("io"), Some("std::io"));
    }

    #[test]
    fn type_text_helpers() {
        assert_eq!(head_ident("std::collections::HashMap<K,V>"), "HashMap");
        assert_eq!(head_ident("&mut Vec<u8>"), "Vec");
        assert_eq!(generic_args("HashMap<FlowKey,ConnIndex>"), vec!["FlowKey", "ConnIndex"]);
        assert_eq!(generic_args("HashMap<K,V,RandomState>").len(), 3);
        assert_eq!(generic_args("Result<Vec<(u32,u64)>,Error>"), vec!["Vec<(u32,u64)>", "Error"]);
        assert!(generic_args("usize").is_empty());
    }

    #[test]
    fn call_graph_reachability() {
        let render = SourceFile::new(
            "crates/x/src/report.rs".into(),
            "x".into(),
            false,
            b"pub fn render_report() { table_7(); }\n".to_vec(),
        );
        let table = SourceFile::new(
            "crates/x/src/analyses.rs".into(),
            "x".into(),
            false,
            b"pub fn table_7() { tally(); }\nfn tally() {}\nfn unrelated() {}\n".to_vec(),
        );
        let ws = WorkspaceSymbols::build(&[render, table]);
        let reach = ws.reachable_from_markers("x", &["report"]);
        let names: Vec<&str> = reach
            .iter()
            .map(|&(fi, gi)| ws.files[fi].fns[gi].name.as_str())
            .collect();
        assert!(names.contains(&"render_report"));
        assert!(names.contains(&"table_7"));
        assert!(names.contains(&"tally"));
        assert!(!names.contains(&"unrelated"));
    }

    #[test]
    fn let_initializer_head_and_shadowing() {
        let s = sf("fn f() {\n    let m = HashMap::new();\n    let m = Vec::new();\n    m.iter();\n}\n");
        let syms = FileSymbols::parse(&s);
        let f = &syms.fns[0];
        // Rev lookup: the latest binding wins.
        assert_eq!(syms.binding_type(f, "m"), Some("Vec"));
    }
}
