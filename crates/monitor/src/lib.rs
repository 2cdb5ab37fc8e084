//! Passive inference of BGP-community-based attacks and community-use
//! hygiene monitoring.
//!
//! (`ARCHITECTURE.md` at the repository root shows where the monitoring
//! layer sits in the workspace; its section "The passive pipeline" draws
//! the observation store every stage here reads — per-prefix groups,
//! community → prefixes — and who builds it when.)
//!
//! The paper closes with two proposals this crate implements:
//!
//! * **§8 "Monitoring the hygiene of BGP communities use"** — watch the
//!   global collector feeds for community misuse: well-known communities
//!   escaping their scope, blackhole communities leaking past their
//!   target, contradictory informational tags (§7.7's fake location
//!   experiment), and per-AS hygiene grading.
//! * **§9 future agenda** — *"investigate ways to infer instances of any of
//!   the three types of BGP community-based attacks using passive
//!   measurements. This requires the development of a new methodology that
//!   assigns the role of the tagger of the BGP community to a network …
//!   both the relative position of the network in the path and the BGP
//!   community that it tags have to be considered."*
//!
//! The pipeline is strictly passive: everything consumes the
//! [`bgpworms_core::ObservationSet`] parsed from collector MRT, exactly
//! like the paper's §4 analyses, and shares its indexes — no stage keeps
//! a per-prefix map of its own. It has four stages:
//!
//! 1. [`dictionary`] — what does each community *mean*? Known semantics
//!    (RFC 7999, the `ASN:666` convention) plus statistical inference of
//!    blackhole / prepend / location communities from behavioural
//!    correlates, in the spirit of Giotsas et al.'s blackhole-community
//!    inference that the paper builds its §7.6 survey on.
//! 2. [`tagger`] — who attached a community? Cross-vantage-point
//!    attribution of the tagger to an AS-path position, weighted by the
//!    Fig 6 filter-indication analysis.
//! 3. [`detectors`] — which updates look like attacks? RTBH hijacks,
//!    third-party blackhole triggers, remote steering, route-server
//!    control-community conflicts, contradictory location tags.
//! 4. [`hygiene`] — operator-facing per-AS hygiene report and grades.
//!
//! Because the substrate is the simulator, ground truth exists:
//! [`groundtruth`] builds labeled runs (benign workload + injected
//! attacks) and scores every stage with precision / recall — the
//! evaluation the paper's future-work section asks for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detectors;
pub mod dictionary;
pub mod groundtruth;
pub mod hygiene;
pub mod report;
pub mod tagger;

pub use detectors::{Alert, AlertKind, Monitor, Severity};
pub use dictionary::{CommunityDictionary, CommunityKind, DictionaryEval, DictionaryInference};
pub use groundtruth::{DetectionEval, InjectedAttack, InjectedKind, LabeledRun, LabeledRunParams};
pub use hygiene::{AsHygiene, HygieneGrade, HygieneReport};
pub use tagger::{attribute, attribute_all, TaggerAttribution, TaggerCandidate};
