//! The committed table of mutation checks: each row a deliberate break of
//! one engine, store or oracle arm, and the tests that must catch it.
//!
//! A mutant is applied alone to a copy of the tree, never to the working
//! tree: its exact `fragment` in `file` is replaced by `replacement`, and
//! the whole suite (`cargo test --release --no-fail-fast`) is run. Every
//! test in `killers` must fail. The tier-1 test `tests/mutant_table.rs`
//! checks only that each fragment still occurs exactly once, so a
//! refactor that moves or rewrites a mutated line has to carry its row
//! along instead of silently retiring the check.

/// One mutant and the tests expected to kill it.
#[derive(Debug, Clone, Copy)]
pub struct Mutant {
    /// The file it edits, relative to the repository root.
    pub file: &'static str,
    /// The exact source it replaces, which occurs once in `file`.
    pub fragment: &'static str,
    /// What replaces the fragment.
    pub replacement: &'static str,
    /// The arm it breaks.
    pub breaks: &'static str,
    /// The tests expected to fail under it: the file that defines each,
    /// relative to the repository root, and the test function's name.
    pub killers: &'static [(&'static str, &'static str)],
}

const DETERMINISM: &str = "crates/routesim/tests/determinism.rs";
const CORE_PROPTESTS: &str = "crates/core/tests/proptests.rs";
const OBSERVATION: &str = "crates/core/src/observation.rs";

/// Every mutant, grouped by the file it edits.
pub const MUTANTS: &[Mutant] = &[
    // 4-byte ASes own no RFC 1997 community (ROADMAP item 17(e)).
    Mutant {
        file: "crates/routesim/src/router.rs",
        fragment: "let neighbor16 = neighbor.as_u16();",
        replacement: "let neighbor16 = Some(neighbor.get() as u16);",
        breaks: "a ScopedToReceiver exporter forwards a truncated 4-byte \
                 neighbour the communities its 2-byte alias owns",
        killers: &[
            (DETERMINISM, "a_four_byte_as_owns_no_rfc1997_community"),
            (
                DETERMINISM,
                "action_communities_settle_at_the_stable_paths_fixed_point",
            ),
        ],
    },
    Mutant {
        file: "crates/routesim/src/router.rs",
        fragment: "let own = asn.as_u16().map(|hi| Community::new(hi, BLACKHOLE_VALUE));",
        replacement: "let own = Some(Community::new(asn.get() as u16, BLACKHOLE_VALUE));",
        breaks: "a 4-byte AS's RTBH offer admits its 2-byte alias's `k:666`",
        killers: &[
            (DETERMINISM, "a_four_byte_as_owns_no_rfc1997_community"),
            (
                DETERMINISM,
                "action_communities_settle_at_the_stable_paths_fixed_point",
            ),
        ],
    },
    Mutant {
        file: "crates/routesim/src/router.rs",
        fragment: "if let Some(hi) = asn.as_u16() {",
        replacement: "if let Some(hi) = Some(asn.get() as u16) {",
        breaks: "a 4-byte AS acts on its 2-byte alias's steering values",
        killers: &[
            (DETERMINISM, "a_four_byte_as_owns_no_rfc1997_community"),
            (
                DETERMINISM,
                "action_communities_settle_at_the_stable_paths_fixed_point",
            ),
        ],
    },
    // The observation store keeps each distinct attribute set once: its
    // content hash and its hit test read a set through `Builder::content`.
    Mutant {
        file: OBSERVATION,
        fragment: "&self.large[a.large.range()],",
        replacement: "&[],",
        breaks: "attribute sets that differ only in large communities share one id",
        killers: &[
            (
                CORE_PROPTESTS,
                "the_attribute_set_table_reads_back_every_row",
            ),
            (CORE_PROPTESTS, "large_analysis_fractions_bounded"),
        ],
    },
    Mutant {
        file: OBSERVATION,
        fragment: "&self.prepends[a.prepends.range()],",
        replacement: "&[],",
        breaks: "attribute sets that differ only in prepend runs share one id",
        killers: &[(
            CORE_PROPTESTS,
            "the_attribute_set_table_reads_back_every_row",
        )],
    },
    Mutant {
        file: OBSERVATION,
        fragment: "a.raw_hop_count,",
        replacement: "0,",
        breaks: "attribute sets that differ only in the raw hop count behind an \
                 equal de-prepended path share one id",
        killers: &[(
            CORE_PROPTESTS,
            "the_attribute_set_table_reads_back_every_row",
        )],
    },
    Mutant {
        file: OBSERVATION,
        fragment: "self.path_ends.pop();",
        replacement: "",
        breaks: "a set taken back out of the columns leaves its path's end, \
                 so the edge index walks a path that is not there",
        killers: &[
            (
                CORE_PROPTESTS,
                "the_attribute_set_table_reads_back_every_row",
            ),
            (
                "tests/mrt_interchange.rs",
                "a_feed_read_in_memory_is_the_set_its_archive_parses_to",
            ),
            (
                "crates/core/src/values.rs",
                "dedup_prevents_double_counting",
            ),
        ],
    },
    // `first_tags` visits each (prefix, peer, community) at its first
    // occurrence in feed order; this one keeps the last.
    Mutant {
        file: OBSERVATION,
        fragment: "tags.sort_unstable();",
        replacement: "tags.sort_unstable_by_key(|t| (t.0, std::cmp::Reverse(t.1)));",
        breaks: "a (prefix, peer, community) is counted on- or off-path, and \
                 sampled, as its last occurrence has it",
        killers: &[
            (
                "crates/core/src/values.rs",
                "the_first_occurrence_decides_on_or_off_path",
            ),
            (
                "crates/core/src/propagation.rs",
                "the_first_on_path_occurrence_decides_distance_and_length",
            ),
        ],
    },
];
