//! Seeded E009 (schema-table half): a bench-document schema table whose
//! declared keys must all be test-covered. The lint finds the table by its
//! type and reads the key names out of its string literals; the schema tag
//! is a literal too, but not identifier-shaped, so it is not a key.

/// One declared key.
pub struct Key(pub &'static str);

/// One document kind.
pub struct Schema {
    /// Value of the `schema` member.
    pub tag: &'static str,
    /// Top-level keys.
    pub top: &'static [Key],
}

/// Fixture table: `packets` is covered by `check_obs.rs`; seeded E009 —
/// `ghost_key` is declared but never referenced from any test.
pub const PIPELINE: Schema = Schema {
    tag: "ent-bench-pipeline/1",
    top: &[Key("packets"), Key("ghost_key")],
};
