//! Findings, lint-code metadata and report rendering.

use std::fmt;

/// The coded lints `ent-lint` enforces. See `DESIGN.md` §6a for the
/// rationale behind each invariant. E003 (crate-root attributes) and E007
/// (shared-state discipline) are retired, their numbers not reused: rustc
/// enforces both through `[workspace.lints]` (`unsafe_code = "forbid"`)
/// and `thread::scope`'s `Send` bound.
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
    /// Protocol-registry totality: every analyzer module under
    /// `crates/proto/src/` must be listed in `registry.rs`'s
    /// `ANALYZER_MODULES`, and every listed module must exist.
    E004,
    /// Paper-artifact coverage: every `Table N`/`Figure N` claimed in
    /// `crates/core/src/analyses` must be referenced from test code.
    E005,
    /// Nondeterminism hazard in analysis code: iteration over a std
    /// `HashMap`/`HashSet` on a path that reaches report/signature/
    /// finalize sinks without an intervening sort or order-insensitive
    /// reduction; wall-clock/thread-id/env reads; float accumulation over
    /// unordered-map iteration.
    E006,
    /// Error-taxonomy totality: public fallible functions in ingest crates
    /// must return a typed taxonomy error (no `Result<_, String>`, no
    /// `bool`/`Option` smuggling on fallible-verb names, no truncating
    /// `as` casts inside `Err(..)` construction).
    E008,
    /// Checkpoint/bench schema hygiene: every `Checkpoint` payload field
    /// and every key emitted by the `ent-bench-*` JSON writers must be
    /// referenced from test code (round-trip or obs-check coverage).
    E009,
}

/// All live codes, in order.
pub const ALL_CODES: [Code; 7] =
    [Code::E001, Code::E002, Code::E004, Code::E005, Code::E006, Code::E008, Code::E009];

impl Code {
    /// The code as printed in findings and written in suppressions.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::E001 => "E001",
            Code::E002 => "E002",
            Code::E004 => "E004",
            Code::E005 => "E005",
            Code::E006 => "E006",
            Code::E008 => "E008",
            Code::E009 => "E009",
        }
    }

    /// Short human title.
    pub fn title(self) -> &'static str {
        match self {
            Code::E001 => "computed slice index in ingest crate",
            Code::E002 => "unchecked wire-length arithmetic in parser hot path",
            Code::E004 => "protocol analyzer not registered",
            Code::E005 => "paper artifact without test reference",
            Code::E006 => "nondeterminism hazard in analysis path",
            Code::E008 => "untyped error on public fallible function",
            Code::E009 => "checkpoint/bench schema field without test coverage",
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
        // Retired codes stay retired: a stale `allow(E003)` silences nothing.
        assert_eq!(Code::parse("E003"), None);
        assert_eq!(Code::parse("E007"), None);
    }

    #[test]
    fn display_format_is_clickable() {
        let f = Finding {
            code: Code::E004,
            file: "crates/proto/src/registry.rs".into(),
            line: 1,
            message: "not listed".into(),
        };
        assert_eq!(f.to_string(), "crates/proto/src/registry.rs:1: error [E004]: not listed");
    }

    #[test]
    fn clean_report() {
        let r = Report::default();
        assert!(r.is_clean());
        assert_eq!(r.count(Code::E002), 0);
    }
}
