//! Workspace policy no compiler states by itself (DESIGN §6a). Each check
//! reads the tree with `std::fs` and names whatever is missing:
//!
//! * every member opts into `[workspace.lints]`, and every source file is
//!   a module (an orphan `.rs` file is never compiled, so never linted);
//! * the determinism and parser-safety denies stay configured, so a
//!   dropped line cannot silently switch clippy's E001/E002 checks off;
//! * E005: every paper artifact claimed in `crates/core/src/analyses` is
//!   mentioned by a test;
//! * E008: the public fallible API of `wire`, `pcap`, `flow` and `core`
//!   returns typed errors.

// Test helpers may abort on an unreadable tree, but must say why: a bare
// `unwrap` outside a `#[test]` fn stays a clippy error.
#![allow(clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root above tests/")
        .to_path_buf()
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every `.rs` file under `dir` (workspace-relative, `/`-separated,
/// sorted), skipping build output and hidden directories.
fn rust_files(dir: &str) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                walk(root, &path, out);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under root");
                out.push(
                    rel.components()
                        .map(|c| c.as_os_str().to_string_lossy())
                        .collect::<Vec<_>>()
                        .join("/"),
                );
            }
        }
    }
    let root = root();
    let mut out = Vec::new();
    walk(&root, &root.join(dir), &mut out);
    out.sort();
    out
}

/// Per line of `text`: is it inside a `#[cfg(test)]` or `#[test]` item,
/// from the attribute through the item's closing brace (or the end of its
/// line, for a field or statement)? Braces in string and char literals
/// and comments are blanked first, as `scripts/loc.sh` does.
fn test_lines(text: &str) -> Vec<bool> {
    let (mut out, mut depth, mut armed) = (Vec::new(), 0i64, false);
    for line in text.lines() {
        let t = line.trim();
        let attribute = t.starts_with("#[") && t.ends_with(']');
        if depth == 0 {
            armed |= t.starts_with("#[test]")
                || (t.starts_with("#[cfg(") && t.contains("test") && !t.contains("not(test"));
        }
        out.push(armed || depth > 0);
        if depth > 0 || (armed && !attribute && !t.starts_with("//")) {
            let code = blank_literals(line);
            depth = (depth + code.matches('{').count() as i64 - code.matches('}').count() as i64)
                .max(0);
            armed = false;
        }
    }
    out
}

fn blank_literals(line: &str) -> String {
    let mut out = String::new();
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        _ => {}
                    }
                }
            }
            '\'' if chars.clone().nth(1) == Some('\'') => {
                chars.nth(1);
            }
            '/' if chars.peek() == Some(&'/') => break,
            c => out.push(c),
        }
    }
    out
}

/// The panic-surface, `unsafe_code` and `missing_docs` policy is
/// `[workspace.lints]`; a member whose manifest has no `[lints]` table
/// opts out of all of it without a word from cargo.
#[test]
fn every_member_opts_into_the_lint_policy() {
    let root = root();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ readable");
    let mut members: Vec<PathBuf> = crates.map(|e| e.expect("dir entry").path()).collect();
    members.extend([root.join("examples"), root.join("tests")]);
    for manifest in members.iter().map(|dir| dir.join("Cargo.toml")) {
        let text = std::fs::read_to_string(&manifest).expect("member manifest readable");
        assert!(
            text.lines().any(|l| l.starts_with("[lints")),
            "{} has no [lints] table",
            manifest.display()
        );
    }
}

/// Report determinism is clippy's (DESIGN §6a): std `HashMap`/`HashSet`
/// are denied in the three report modules, and clock, thread-id and
/// environment reads and a `for` over a hash collection everywhere. Each
/// piece is one line of configuration that could go without a word from
/// cargo or clippy, so this names whichever one is missing.
#[test]
fn determinism_lints_stay_configured() {
    // The uncommented lines of a TOML table or array, up to the next one.
    let section = |text: &str, head: &str| -> Vec<String> {
        text.lines()
            .map(str::trim)
            .skip_while(|l| !l.starts_with(head))
            .skip(1)
            .take_while(|l| !l.starts_with('[') && *l != "]")
            .filter(|l| !l.starts_with('#'))
            .map(String::from)
            .collect()
    };
    let mut missing = Vec::new();
    let clippy = read("clippy.toml");
    let lists: [(&str, &[&str]); 2] = [
        (
            "disallowed-types",
            &["std::collections::HashMap", "std::collections::HashSet"],
        ),
        (
            "disallowed-methods",
            &[
                "std::time::Instant::now",
                "std::time::SystemTime::now",
                "std::thread::current",
                "std::env::var",
                "std::env::var_os",
            ],
        ),
    ];
    for (list, paths) in lists {
        let entries = section(&clippy, &format!("{list} = ["));
        for path in paths {
            if !entries
                .iter()
                .any(|l| l.contains(&format!("path = \"{path}\"")))
            {
                missing.push(format!("clippy.toml {list}: {path}"));
            }
        }
    }
    for (manifest, table) in [
        ("Cargo.toml", "[workspace.lints.clippy]"),
        ("tests/Cargo.toml", "[lints.clippy]"),
    ] {
        let lints = section(&read(manifest), table);
        for lint in [
            "disallowed_methods = \"deny\"",
            "iter_over_hash_type = \"deny\"",
        ] {
            if !lints.iter().any(|l| l == lint) {
                missing.push(format!("{manifest} {table}: {lint}"));
            }
        }
    }
    for module in [
        "crates/core/src/analyses/mod.rs",
        "crates/core/src/study.rs",
        "crates/core/src/report.rs",
    ] {
        if !read(module)
            .lines()
            .any(|l| l.trim() == "#![deny(clippy::disallowed_types)]")
        {
            missing.push(format!("{module}: #![deny(clippy::disallowed_types)]"));
        }
    }
    assert!(
        missing.is_empty(),
        "determinism enforcers missing:\n{}",
        missing.join("\n")
    );
}

/// E001 and E002 are clippy's (DESIGN §6a): `indexing_slicing` is denied
/// in the five ingest crate roots, and `arithmetic_side_effects` with
/// `cast_possible_truncation` in every parser module (non-test code) and
/// on the few parser entry points outside one (the owned-capture
/// reference's `merge_streams*` and `read_pcap` keep theirs in
/// `tests/src`). Each deny is one line that
/// could go without a word from clippy, so this names whichever is
/// missing, and any `allow` of the three lints: an exemption is an
/// item-level `#[expect(.., reason = ..)]`.
#[test]
fn parser_safety_lints_stay_configured() {
    const INDEX: &str = "#![deny(clippy::indexing_slicing)]";
    const ARITH_MODULE: &str =
        "#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation))]";
    const ARITH_ITEM: &str =
        "#[deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]";
    // Attributes are compared with whitespace removed, so rustfmt may wrap them.
    let squeeze = |text: &str| text.split_whitespace().collect::<String>();
    let has = |rel: &str, want: &str| squeeze(&read(rel)).contains(&squeeze(want));
    let mut missing = Vec::new();
    for krate in ["wire", "pcap", "proto", "flow", "core"] {
        let lib = format!("crates/{krate}/src/lib.rs");
        if !has(&lib, INDEX) {
            missing.push(format!("{lib}: {INDEX}"));
        }
    }
    let wire = [
        "packet", "ethernet", "ipv4", "ipv6", "tcp", "udp", "icmp", "arp", "ipx",
    ];
    let mut modules: Vec<String> = wire
        .iter()
        .map(|m| format!("crates/wire/src/{m}.rs"))
        .collect();
    modules.extend([
        "crates/pcap/src/recover.rs".to_string(),
        "crates/pcap/src/format.rs".to_string(),
    ]);
    modules.extend(
        rust_files("crates/proto/src")
            .into_iter()
            .filter(|f| !f.ends_with("/lib.rs") && !f.ends_with("/registry.rs")),
    );
    for module in &modules {
        if !has(module, ARITH_MODULE) {
            missing.push(format!("{module}: {ARITH_MODULE}"));
        }
    }
    let items = [
        ("crates/pcap/src/arena.rs", "next_frame"),
        ("tests/src/merge.rs", "merge_streams"),
        ("tests/src/merge.rs", "merge_streams_with_stats"),
        ("tests/src/trace.rs", "read_pcap"),
        ("crates/proto/src/lib.rs", "feed"),
    ];
    for (rel, name) in items {
        if !has(rel, &format!("{ARITH_ITEM} pub fn {name}(")) {
            missing.push(format!("{rel} `fn {name}`: {ARITH_ITEM}"));
        }
    }
    let clippy = read("clippy.toml");
    if !clippy
        .lines()
        .any(|l| l.trim() == "allow-indexing-slicing-in-tests = true")
    {
        missing.push("clippy.toml: allow-indexing-slicing-in-tests = true".to_string());
    }
    for rel in rust_files("crates") {
        for (n, line) in read(&rel).lines().enumerate() {
            let lints = [
                "indexing_slicing",
                "arithmetic_side_effects",
                "cast_possible_truncation",
            ];
            if line.contains("allow(")
                && lints.iter().any(|l| line.contains(&format!("clippy::{l}")))
            {
                missing.push(format!(
                    "{rel}:{}: an `allow` of a parser-safety lint",
                    n + 1
                ));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "parser-safety enforcers missing:\n{}",
        missing.join("\n")
    );
}

/// A `.rs` file under `crates/*/src` that no `mod name;` item in its parent
/// module file names is never compiled, so neither rustc nor clippy ever
/// checks it. The parent is the crate root (`lib.rs` or `main.rs`) for a
/// top-level file, else the directory's `mod.rs` or `dir.rs`.
#[test]
fn every_source_file_is_a_declared_module() {
    let root = root();
    let declares = |parent: &String, name: &str| {
        std::fs::read_to_string(root.join(parent))
            .is_ok_and(|t| t.contains(&format!("mod {name};")))
    };
    let files = rust_files("crates");
    let orphans: Vec<&String> = files
        .iter()
        .filter(|rel| rel.split('/').nth(2) == Some("src"))
        .filter(|rel| {
            let Some((dir, name)) = rel.strip_suffix(".rs").and_then(|r| r.rsplit_once('/')) else {
                return false;
            };
            let parents = if dir.ends_with("/src") {
                [format!("{dir}/lib.rs"), format!("{dir}/main.rs")]
            } else {
                [format!("{dir}/mod.rs"), format!("{dir}.rs")]
            };
            !["lib", "main", "mod"].contains(&name) && !parents.iter().any(|p| declares(p, name))
        })
        .collect();
    assert!(
        orphans.is_empty(),
        "source files no `mod` item declares: {orphans:?}"
    );
}

/// `(kind, number)` paper-artifact IDs on one line: `table` or `figure`,
/// any case, then spaces and a whole number (`Figure 1` is not `Figure 10`).
fn artifact_ids(line: &str) -> Vec<(&'static str, u32)> {
    let lower = line.to_ascii_lowercase();
    let mut out = Vec::new();
    for (kind, name) in [("table", "Table"), ("figure", "Figure")] {
        for (at, _) in lower.match_indices(kind) {
            let before = lower[..at].chars().next_back();
            let rest = &lower[at + kind.len()..];
            let number = rest.trim_start_matches([' ', '\t']);
            let digits = number.len()
                - number
                    .trim_start_matches(|c: char| c.is_ascii_digit())
                    .len();
            let after = number[digits..].chars().next();
            let word = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            if !word(before) && number.len() < rest.len() && digits > 0 && !word(after) {
                if let Ok(n) = number[..digits].parse() {
                    out.push((name, n));
                }
            }
        }
    }
    out
}

/// E005: every `Table N` / `Figure N` claimed in `crates/core/src/analyses`
/// is mentioned in test context — a file under a `tests/` directory, or a
/// `#[cfg(test)]` / `#[test]` item anywhere in the workspace — so no paper
/// artifact is reported without a test that names it.
#[test]
fn every_claimed_paper_artifact_is_tested() {
    let mut claims = std::collections::BTreeMap::new();
    for rel in rust_files("crates/core/src/analyses") {
        for (n, line) in read(&rel).lines().enumerate() {
            for id in artifact_ids(line) {
                claims.entry(id).or_insert(format!("{rel}:{}", n + 1));
            }
        }
    }
    assert!(
        claims.len() > 20,
        "too few artifact claims found: {}",
        claims.len()
    );
    let mut covered = std::collections::BTreeSet::new();
    for rel in [
        rust_files("crates"),
        rust_files("tests"),
        rust_files("examples"),
        rust_files("benchmark"),
    ]
    .concat()
    {
        let text = read(&rel);
        let whole_file = rel.split('/').any(|c| c == "tests");
        for (line, test) in text.lines().zip(test_lines(&text)) {
            if whole_file || test {
                covered.extend(artifact_ids(line));
            }
        }
    }
    let untested: Vec<String> = claims
        .iter()
        .filter(|(id, _)| !covered.contains(*id))
        .map(|((kind, n), at)| format!("{at}: {kind} {n} is claimed but no test mentions it"))
        .collect();
    assert!(
        untested.is_empty(),
        "untested paper artifacts:\n{}",
        untested.join("\n")
    );
}

/// E008: in `wire`, `pcap`, `flow` and `core`, a `pub` (or `pub(..)`) fn
/// returning `Result<T, E>` names a taxonomy error (or a generic `E`); a
/// fn named for a fallible verb (`load`, `save`, ...) does not smuggle
/// failure through `bool` or `Option`; and no `Err(..)` narrows a value
/// with a truncating `as` cast.
#[test]
fn public_fallible_api_returns_typed_errors() {
    const TAXONOMY: [&str; 7] = [
        "AnalysisError",
        "PcapError",
        "CheckpointError",
        "BenchJsonError",
        "Error",
        "io::Error",
        "fmt::Error",
    ];
    const FALLIBLE: [&str; 8] = [
        "load", "open", "save", "persist", "restore", "resume", "flush", "commit",
    ];
    let (mut bad, mut results) = (Vec::new(), 0);
    for rel in ["wire", "pcap", "flow", "core"]
        .iter()
        .flat_map(|c| rust_files(&format!("crates/{c}/src")))
    {
        let text = read(&rel);
        let lines: Vec<&str> = text.lines().collect();
        for (n, (line, test)) in lines.iter().zip(test_lines(&text)).enumerate() {
            if test {
                continue;
            }
            if let Some(err) = line.find("Err(") {
                if ["u8", "u16", "u32", "i8", "i16", "i32"]
                    .iter()
                    .any(|t| line[err..].contains(&format!(" as {t}")))
                {
                    bad.push(format!("{rel}:{}: truncating `as` inside `Err(..)`", n + 1));
                }
            }
            let Some(at) = line
                .find("fn ")
                .filter(|&at| line[..at].trim_start().starts_with("pub"))
            else {
                continue;
            };
            // The signature runs to the body's `{` or a `;`.
            let sig: String = lines[n..]
                .iter()
                .take(16)
                .copied()
                .collect::<Vec<_>>()
                .join(" ");
            let sig = &sig[at + 3..sig[at..].find(['{', ';']).map_or(sig.len(), |e| at + e)];
            let name: String = sig
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let ret = return_type(sig).unwrap_or_default();
            if let Some(args) = ret
                .strip_prefix("Result<")
                .and_then(|r| r.strip_suffix('>'))
            {
                results += 1;
                let err = split_top_level(args).get(1).map(|e| e.trim().to_string());
                let typed = |e: &str| {
                    TAXONOMY.iter().any(|t| e.contains(t))
                        || (e.len() == 1 && e.chars().all(|c| c.is_ascii_uppercase()))
                };
                if let Some(err) = err.filter(|e| !typed(e)) {
                    bad.push(format!(
                        "{rel}:{}: pub fn `{name}` returns `Result<_, {err}>`",
                        n + 1
                    ));
                }
            }
            let fallible = name
                .to_ascii_lowercase()
                .split('_')
                .any(|s| FALLIBLE.contains(&s));
            if fallible && (ret == "bool" || ret.starts_with("Option<")) {
                bad.push(format!(
                    "{rel}:{}: pub fn `{name}` is fallible but returns `{ret}`",
                    n + 1
                ));
            }
        }
    }
    assert!(
        results > 20,
        "too few two-argument `Result` signatures found: {results}"
    );
    assert!(
        bad.is_empty(),
        "untyped errors on the public API:\n{}",
        bad.join("\n")
    );
}

/// The text after the parameter list's `->`, up to a `where` clause.
fn return_type(sig: &str) -> Option<String> {
    let open = sig.find('(')?;
    let mut depth = 0;
    let close = sig[open..].char_indices().find_map(|(i, c)| {
        depth += match c {
            '(' => 1,
            ')' => -1,
            _ => 0,
        };
        (depth == 0).then_some(open + i)
    })?;
    let ret = sig[close + 1..].trim().strip_prefix("->")?;
    let ret = ret.split(" where ").next().unwrap_or(ret);
    Some(ret.split_whitespace().collect::<Vec<_>>().join(" "))
}

/// Split generic arguments at commas outside `<>`, `()` and `[]`.
fn split_top_level(args: &str) -> Vec<&str> {
    let (mut out, mut depth, mut start) = (Vec::new(), 0, 0);
    let bytes = args.as_bytes();
    for (i, c) in args.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' if i > 0 && bytes[i - 1] == b'-' => {}
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&args[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&args[start..]);
    out
}
