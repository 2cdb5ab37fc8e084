//! The annotated twin of `pub_field_bad.rs`: every `pub` field of a
//! `Default` struct is named by another file, private, or covered by a
//! `// lint: api <why>` marker.

#![forbid(unsafe_code)]

/// Derives `Default`.
#[derive(Debug, Clone, Default)]
pub struct FixtureSettings {
    /// Named by the user file.
    pub fixture_named_too: u64,
    /// Private: a constant would do, but a private field is not settable.
    fixture_hidden: f64,
}

/// Counts a caller outside the repository prints.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixtureCounts {
    // lint: api a caller outside the repository prints these counts
    /// Covered by the marker at the top of the body.
    pub fixture_count_a: usize,
    /// So is this one: the marker covers the body like a statement.
    pub fixture_count_b: usize,
}
