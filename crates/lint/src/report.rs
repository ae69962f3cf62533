//! Findings, lint-code metadata and report rendering.

use std::fmt;

/// The coded lints `ent-lint` enforces. See `DESIGN.md` §6a for the
/// rationale behind each invariant. Retired codes are not reused: E003
/// (crate-root attributes) and E007 (shared-state discipline) are rustc's
/// through `[workspace.lints]` (`unsafe_code = "forbid"`) and
/// `thread::scope`'s `Send` bound; E004 (registry totality) and E009
/// (schema coverage) are the compiler's and the goldens'; E006 (report
/// determinism) is clippy's `disallowed_types`, `disallowed_methods` and
/// `iter_over_hash_type` (§6a names the enforcer per rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Panic surface in ingest crates: computed slice indexing in non-test
    /// code of `wire`/`pcap`/`proto`/`flow`/`core` (the `unwrap`/`panic!`
    /// family is denied by clippy workspace-wide).
    E001,
    /// Unchecked offset arithmetic or truncating `as` casts on
    /// length-derived values inside parser hot paths of `wire`/`pcap`/
    /// `proto`.
    E002,
    /// Paper-artifact coverage: every `Table N`/`Figure N` claimed in
    /// `crates/core/src/analyses` must be referenced from test code.
    E005,
    /// Error-taxonomy totality: public fallible functions in ingest crates
    /// must return a typed taxonomy error (no `Result<_, String>`, no
    /// `bool`/`Option` smuggling on fallible-verb names, no truncating
    /// `as` casts inside `Err(..)` construction).
    E008,
}

/// All live codes, in order.
pub const ALL_CODES: [Code; 4] = [Code::E001, Code::E002, Code::E005, Code::E008];

impl Code {
    /// The code as printed in findings and written in suppressions.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::E001 => "E001",
            Code::E002 => "E002",
            Code::E005 => "E005",
            Code::E008 => "E008",
        }
    }

    /// Short human title.
    pub fn title(self) -> &'static str {
        match self {
            Code::E001 => "computed slice index in ingest crate",
            Code::E002 => "unchecked wire-length arithmetic in parser hot path",
            Code::E005 => "paper artifact without test reference",
            Code::E008 => "untyped error on public fallible function",
        }
    }

    /// Parse a code written in a suppression comment.
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding, anchored to a workspace-relative `file:line`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub code: Code,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: error [{}]: {}", self.file, self.line, self.code, self.message)
    }
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// Number of findings silenced by inline `ent-lint: allow(..)` comments.
    pub suppressed: usize,
}

impl Report {
    /// True when no finding survived suppression.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Count of findings for one code.
    pub fn count(&self, code: Code) -> usize {
        self.findings.iter().filter(|f| f.code == code).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for c in ALL_CODES {
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        // Retired codes stay retired: a stale `allow(..)` naming one
        // silences nothing.
        for retired in ["E003", "E004", "E006", "E007", "E009"] {
            assert_eq!(Code::parse(retired), None, "{retired}");
        }
    }

    #[test]
    fn display_format_is_clickable() {
        let f = Finding {
            code: Code::E005,
            file: "crates/core/src/analyses/foo.rs".into(),
            line: 1,
            message: "untested".into(),
        };
        assert_eq!(f.to_string(), "crates/core/src/analyses/foo.rs:1: error [E005]: untested");
    }

    #[test]
    fn clean_report() {
        let r = Report::default();
        assert!(r.is_clean());
        assert_eq!(r.count(Code::E002), 0);
    }
}
