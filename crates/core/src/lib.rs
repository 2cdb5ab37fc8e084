//! The paper's primary contribution: the BGP community measurement
//! pipeline of §4.
//!
//! (`ARCHITECTURE.md` at the repository root shows where this analysis
//! layer sits in the workspace, and draws its Layer 0 in "The passive
//! pipeline": archives or in-memory rows → tables and columns → the two
//! shared indexes → the analyses below.)
//!
//! Input is MRT — the same bytes RIPE RIS / RouteViews / Isolario / PCH
//! publish and that `bgpworms-routesim` collectors emit — or a feed of
//! [`FeedRow`]s a caller already holds in memory. The pipeline never sees
//! simulator internals; it reads its input **once** into an
//! [`ObservationSet`] — interned ASNs, communities, edges, prefixes and
//! sessions, flat columns, rows read in place as [`Observation`]s — and
//! derives every statistic of the paper's measurement section from its
//! dense ids:
//!
//! | Analysis | Paper artefact | Module |
//! |---|---|---|
//! | dataset overview | Table 1 | [`dataset`] |
//! | ASes with observed communities | Table 2 | [`propagation`] |
//! | communities use over time | Fig 3 | [`timeseries`] |
//! | updates w/ communities per collector | Fig 4a | [`usage`] |
//! | communities / associated ASes per update | Fig 4b | [`usage`] |
//! | propagation distance (all vs. blackhole) | Fig 5a | [`propagation`] |
//! | relative distance by path length | Fig 5b | [`propagation`] |
//! | top-10 values on-/off-path | Fig 5c | [`values`] |
//! | transit ASes forwarding communities | §4.3 ("2.2K of 15.5K") | [`propagation`] |
//! | filter vs. forward indications per edge | Fig 6 | [`filtering`] |
//! | RFC 8092 large-community channel | footnote 1 (future work) | [`large`] |
//!
//! Shared statistical utilities (ECDFs, histograms, text tables) live in
//! [`stats`] and [`table`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod filtering;
pub mod large;
pub mod observation;
pub mod propagation;
pub mod stats;
pub mod table;
pub mod timeseries;
pub mod usage;
pub mod values;

pub use dataset::{DatasetOverview, PlatformStats, UpdateSplit};
pub use filtering::{
    ClassIndications, EdgeIndications, FilteringAnalysis, RelClass, RelationshipCorrelation,
};
pub use large::LargeCommunityAnalysis;
pub use observation::{
    ArchiveInput, BlackholeDetector, FeedAttrs, FeedRow, Frozen, Observation, ObservationSet, Row,
    Tag, UpdateObservation,
};
pub use propagation::{PropagationAnalysis, Table2Row};
pub use stats::{Ecdf, Histogram};
pub use timeseries::SnapshotStats;
pub use usage::UsageAnalysis;
pub use values::TopValues;
