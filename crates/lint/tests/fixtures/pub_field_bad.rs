//! Seeded `unreferenced-pub` field violations: `pub` fields of structs that
//! derive or implement `Default` (settable values) that no other file names.

#![forbid(unsafe_code)]

/// Derives `Default` on one line.
#[derive(Debug, Clone, Default)]
pub struct FixtureKnobs {
    /// Named by the user file: fine.
    pub fixture_named: u64,
    /// Named nowhere else: a finding.
    pub fixture_unnamed: f64,
    /// Private: never checked.
    fixture_private: u8,
    /// Crate-visible: never checked.
    pub(crate) fixture_crate: u8,
}

/// Derives `Default` over several lines.
#[derive(
    Debug,
    Default,
)]
pub struct FixtureSpread {
    /// Named nowhere else: a finding.
    pub fixture_spread: u8,
}

/// Implements `Default` by hand.
#[derive(Debug, Clone)]
pub struct FixtureByHand {
    /// Named only in a comment and a string of the user file: a finding.
    pub fixture_mentioned: u32,
}

impl Default for FixtureByHand {
    fn default() -> Self {
        FixtureByHand {
            fixture_mentioned: 1,
        }
    }
}

/// No `Default`: an output, not settable values; never checked.
#[derive(Debug, Clone)]
pub struct FixtureOutput {
    /// Named nowhere else, and fine.
    pub fixture_result: u64,
}

#[cfg(test)]
mod tests {
    #[derive(Default)]
    pub struct FixtureInTests {
        pub fixture_test_only: u8,
    }
}
