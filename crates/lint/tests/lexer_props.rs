//! Property tests for the hand-rolled lexer: adversarial token soups.
//!
//! The lint checks trust three lexer invariants absolutely — a violation of
//! any of them turns into phantom findings (or a panic) somewhere in the
//! live checks (E001, E002, E005, E008):
//!
//! 1. **Spans are sliceable**: every token satisfies
//!    `start < end <= src.len()` and tokens are non-overlapping, in order.
//! 2. **Lines are exact**: `tok.line` equals one plus the number of `\n`
//!    bytes before `tok.start` — suppressions and findings anchor by line.
//! 3. **Literals hide their contents**: code-looking words inside complete
//!    string/char/comment fragments never surface as `Ident` tokens.
//!
//! The soups are built from a fragment pool (raw strings with 0–2 hashes,
//! nested block comments, escapes, unterminated tails, byte literals,
//! lifetimes) concatenated in seeded-random order, so every run is
//! reproducible.

// Test-only: assertions may abort.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_lint::lexer::{lex, TokKind};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Fragments that are fully self-delimited: concatenating them in any
/// order cannot change where any literal starts or ends. The word
/// `unwrap` appears only inside literals/comments here, never as code.
const SEALED: &[&str] = &[
    "ident_a ",
    "x.get(i) ",
    "\"plain unwrap string\" ",
    "\"esc \\\" unwrap \\\\ more\" ",
    "\"multi\nline unwrap\" ",
    "r\"raw unwrap body\" ",
    "r#\"raw # unwrap \" quote\"# ",
    "r##\"deeper \"# unwrap \"## ",
    "b\"byte unwrap \\xFF\" ",
    "b'q' ",
    "'x' ",
    "'\\n' ",
    "'\\'' ",
    "'static ",
    "// line unwrap comment\n",
    "/* block unwrap */ ",
    "/* outer /* inner unwrap */ done */ ",
    "1.5e3 ",
    "0xFF_u32 ",
    "#![attr] ",
    "{ ( [ ] ) } ",
    "+ - * / = ; , < > ",
    "\n\n",
];

/// Fragments that may swallow whatever follows (unterminated literals,
/// trailing escapes). Used only for the bounds/ordering invariants, where
/// "everything after is one big literal" is acceptable behavior.
const RAGGED: &[&str] = &[
    "\"open string ",
    "r#\"open raw ",
    "/* open comment ",
    "\"trailing escape \\",
    "'\\",
    "r###\"very raw ",
    "b\"open bytes ",
];

fn soup(rng: &mut StdRng, pool: &[&str], max_frags: usize) -> String {
    let count = rng.random_range(1..max_frags);
    let mut s = String::new();
    for _ in 0..count {
        s.push_str(pool[rng.random_range(0..pool.len())]);
    }
    s
}

/// Invariants 1 and 2 on one source: spans in bounds, ordered,
/// non-overlapping; lines exact; text extraction total; lexing
/// deterministic.
fn check_invariants(src: &str) {
    let bytes = src.as_bytes();
    let toks = lex(bytes);
    let mut prev_end = 0usize;
    for t in &toks {
        assert!(t.start < t.end, "empty span {}..{} in {src:?}", t.start, t.end);
        assert!(t.end <= bytes.len(), "span {}..{} beyond len {} in {src:?}", t.start, t.end, bytes.len());
        assert!(t.start >= prev_end, "overlapping tokens at {} in {src:?}", t.start);
        prev_end = t.end;
        let expect_line = 1 + bytes[..t.start].iter().filter(|&&b| b == b'\n').count() as u32;
        assert_eq!(t.line, expect_line, "line drift for {:?} at {}..{} in {src:?}", t.kind, t.start, t.end);
        let _ = t.text(bytes); // total
    }
    let again = lex(bytes);
    assert_eq!(toks.len(), again.len(), "non-deterministic lex of {src:?}");
    for (a, b) in toks.iter().zip(again.iter()) {
        assert!(a.kind == b.kind && a.start == b.start && a.end == b.end && a.line == b.line);
    }
}

#[test]
fn sealed_soups_hold_all_invariants_and_hide_literals() {
    let mut rng = StdRng::seed_from_u64(0x1e4e5);
    for _ in 0..4000 {
        let src = soup(&mut rng, SEALED, 40);
        check_invariants(&src);
        // Invariant 3: `unwrap` exists only inside literals/comments in the
        // sealed pool, so it must never lex as an identifier.
        for t in lex(src.as_bytes()) {
            if t.kind == TokKind::Ident {
                assert_ne!(
                    t.text(src.as_bytes()),
                    "unwrap",
                    "phantom `unwrap` ident leaked out of a literal in {src:?}"
                );
            }
        }
    }
}

#[test]
fn ragged_soups_stay_in_bounds() {
    let mut rng = StdRng::seed_from_u64(0xbad5eed);
    for _ in 0..4000 {
        // Sealed prefix, ragged middle, arbitrary tail: the tail may get
        // swallowed by the ragged fragment, but spans/lines must stay exact.
        let mut src = soup(&mut rng, SEALED, 10);
        src.push_str(RAGGED[rng.random_range(0..RAGGED.len())]);
        src.push_str(&soup(&mut rng, SEALED, 10));
        if rng.random_bool(0.3) {
            src.push_str(RAGGED[rng.random_range(0..RAGGED.len())]);
        }
        check_invariants(&src);
    }
}

#[test]
fn byte_level_fuzz_never_panics() {
    // Pure byte noise biased toward the lexer's special characters.
    let mut rng = StdRng::seed_from_u64(2005);
    let alphabet: &[u8] = b"\"'#rb/*\\\n aZ09_!\xFF";
    for _ in 0..2000 {
        let len = rng.random_range(0..200usize);
        let bytes: Vec<u8> = (0..len).map(|_| alphabet[rng.random_range(0..alphabet.len())]).collect();
        let toks = lex(&bytes);
        let mut prev_end = 0usize;
        for t in &toks {
            assert!(t.start < t.end && t.end <= bytes.len());
            assert!(t.start >= prev_end);
            prev_end = t.end;
            let _ = t.text(&bytes);
        }
    }
}
