//! Fixture crate root with a seeded E001 violation (computed slice index)
//! and its suppressed twin.

/// Seeded E001: computed slice index in ingest code.
pub fn at(b: &[u8], off: usize) -> u8 {
    b[off]
}

/// A justified, suppressed index: the fixture tests assert this one does
/// NOT appear in the findings but DOES appear in the suppressed count.
pub fn at_guarded(b: &[u8], off: usize) -> u8 {
    // ent-lint: allow(E001) — caller guarantees off < b.len()
    b[off]
}
