//! E008's signature reader: every `fn` item's name, visibility, line and
//! return type, read off the token stream.
//!
//! `ent-lint` has no type system — the workspace builds offline, so there
//! is no `syn`. E008 needs only a function's signature, never its body or
//! what it calls, so this layer reads `fn name<…>(…) -> Ret` and nothing
//! else. Nested fns and methods are items too; a body is skipped only to
//! reach the items inside it.

use crate::lexer::TokKind;
use crate::source::SourceFile;

/// One `fn` item's signature (free function or method).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Declared with `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Canonical return-type text after `->`, if any.
    pub ret: Option<String>,
}

/// Every `fn` signature in one lexed file, in source order.
pub fn fn_items(file: &SourceFile) -> Vec<FnItem> {
    (0..file.toks.len())
        .filter(|&i| file.toks[i].kind == TokKind::Ident && file.text(i) == "fn")
        .filter_map(|i| parse_fn(file, i))
        .collect()
}

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
/// `<…>` balanced at depth 0). `Result<Vec<u8>,Error>` →
/// `["Vec<u8>", "Error"]`; no generics → empty.
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

/// Parse `fn name …` starting at the `fn` keyword; `None` for a `fn(`
/// pointer type or an unbalanced parameter list.
fn parse_fn(file: &SourceFile, fn_idx: usize) -> Option<FnItem> {
    let ni = file.next_sig(fn_idx)?;
    if file.toks[ni].kind != TokKind::Ident {
        return None; // `fn(` pointer type
    }
    let is_pub = file
        .prev_sig(fn_idx)
        .is_some_and(|p| file.toks[p].kind == TokKind::Ident && file.text(p) == "pub")
        || prev_is_pub_qualifier(file, fn_idx);
    // Skip generics, then the parameter list.
    let mut j = ni + 1;
    if file.toks.get(j).map(|t| t.kind) == Some(TokKind::Punct('<')) {
        j = skip_angle(file, j);
    }
    if file.toks.get(j).map(|t| t.kind) == Some(TokKind::Punct('(')) {
        j = file.matching_close(j)? + 1;
    }
    // Return type: `-> …` up to `{`, `;` or `where` at depth 0.
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
    let ret = ret_start.map(|rs| canon(file, rs, k)).filter(|t| !t.is_empty());
    Some(FnItem {
        name: file.text(ni).into_owned(),
        is_pub,
        line: file.toks[fn_idx].line,
        ret,
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs".into(), "x".into(), false, src.as_bytes().to_vec())
    }

    #[test]
    fn fn_items_with_params_ret_and_body() {
        let s = sf("pub fn parse(buf: &[u8], off: usize) -> Result<Frame, Error> {\n    helper(off);\n    let m: HashMap<u32, u64> = HashMap::new();\n    m.len();\n}\nfn helper(x: usize) {}\n");
        let fns = fn_items(&s);
        assert_eq!(fns.len(), 2);
        let f = &fns[0];
        assert_eq!(f.name, "parse");
        assert!(f.is_pub);
        assert_eq!(f.line, 1);
        assert_eq!(f.ret.as_deref(), Some("Result<Frame,Error>"));
        assert_eq!(fns[1].name, "helper");
        assert!(!fns[1].is_pub);
        assert_eq!(fns[1].ret, None);
    }

    #[test]
    fn pub_crate_visibility_and_impl_methods() {
        let s = sf("struct T { inner: HashMap<u32, u64> }\nimpl T {\n    pub(crate) fn finish(&mut self) -> Option<u32> {\n        fn nested() {}\n        None\n    }\n}\nimpl Drop for T {\n    fn drop(&mut self) {}\n}\nfn takes(f: fn() -> u8) {}\n");
        let fns = fn_items(&s);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["finish", "nested", "drop", "takes"], "a `fn(` pointer type is no item");
        assert!(fns[0].is_pub);
        assert_eq!(fns[0].ret.as_deref(), Some("Option<u32>"));
        assert!(!fns[2].is_pub);
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
}
