//! The per-crate policy table: which crates are **result-affecting**
//! (their code can change simulation output, so unordered iteration and
//! environment reads are banned there), which are infrastructure (bench,
//! this lint), and which files sit on the engine hot path or the
//! encode/decode rim (where a `unwrap()`/`expect(` needs an explicit
//! infallibility argument).
//!
//! `crates/compat/*` is deliberately absent: the shims are stand-ins for
//! third-party crates and the sanctioned home of environment reads
//! (`PROPTEST_CASES`). No entry may read a wall clock: the only code that
//! times anything is the repo benchmark (`benchmark/`), a package outside
//! the workspace.

/// Lint policy for one workspace crate.
#[derive(Debug, Clone, Copy)]
pub struct CratePolicy {
    /// Package name (diagnostics only).
    pub name: &'static str,
    /// `src` directory, relative to the workspace root.
    pub src: &'static str,
    /// True when the crate's code can affect simulation results: enables
    /// the `no-unordered-iteration` and `no-env-dependence` rules.
    pub result_affecting: bool,
    /// File names (within `src`, by basename) on the engine hot path or
    /// the codec rim: `unwrap()`/`expect(` there requires
    /// `// lint: infallible <why>`.
    pub hot_path: &'static [&'static str],
}

/// The workspace policy table. Every non-compat crate appears here — the
/// `unsafe-free` rule (crate roots must `#![forbid(unsafe_code)]`), the
/// `atomic-ordering-justification` rule and the `no-wall-clock` rule apply
/// to every entry.
pub const POLICIES: &[CratePolicy] = &[
    CratePolicy {
        name: "bgpworms",
        src: "src",
        result_affecting: true,
        hot_path: &[],
    },
    CratePolicy {
        name: "bgpworms-types",
        src: "crates/types/src",
        result_affecting: true,
        hot_path: &[],
    },
    CratePolicy {
        name: "bgpworms-wire",
        src: "crates/wire/src",
        result_affecting: true,
        // The rim: the decoders take any byte sequence an archive holds,
        // the encoders any route a collector observed. Both answer with a
        // `WireError`, and a call that "cannot fail" says why.
        hot_path: &["attribute.rs", "message.rs", "nlri.rs"],
    },
    CratePolicy {
        name: "bgpworms-mrt",
        src: "crates/mrt/src",
        result_affecting: true,
        // Same rim, one framing layer out.
        hot_path: &["read.rs", "write.rs"],
    },
    CratePolicy {
        name: "bgpworms-topology",
        src: "crates/topology/src",
        result_affecting: true,
        hot_path: &[],
    },
    CratePolicy {
        name: "bgpworms-routesim",
        src: "crates/routesim/src",
        result_affecting: true,
        // The per-event/per-prefix path: a panic here kills a whole
        // campaign worker, so every unwrap must argue its infallibility.
        // `durable.rs` rides along — checkpoint parsing reads outside
        // input, which must come back an error, never a panic.
        // `collector.rs` turns every observation of a run into MRT bytes.
        hot_path: &[
            "collector.rs",
            "engine.rs",
            "scratch.rs",
            "shard.rs",
            "campaign.rs",
            "classify.rs",
            "route.rs",
            "router.rs",
            "durable.rs",
        ],
    },
    CratePolicy {
        name: "bgpworms-dataplane",
        src: "crates/dataplane/src",
        result_affecting: true,
        // Every hop of every probe of every survey candidate is a
        // `Fib::lookup`.
        hot_path: &["fib.rs"],
    },
    CratePolicy {
        name: "bgpworms-core",
        src: "crates/core/src",
        result_affecting: true,
        // The observation store and the Fig 6 kernel are index arithmetic
        // and table lookups over what external MRT bytes decoded to: a
        // lookup that "cannot miss" says why.
        hot_path: &["observation.rs", "filtering.rs"],
    },
    CratePolicy {
        name: "bgpworms-monitor",
        src: "crates/monitor/src",
        result_affecting: true,
        hot_path: &[],
    },
    CratePolicy {
        name: "bgpworms-attacks",
        src: "crates/attacks/src",
        result_affecting: true,
        hot_path: &[],
    },
    CratePolicy {
        name: "bgpworms-bench",
        src: "crates/bench/src",
        result_affecting: false,
        hot_path: &[],
    },
    CratePolicy {
        name: "bgpworms-lint",
        src: "crates/lint/src",
        result_affecting: false,
        hot_path: &[],
    },
];
