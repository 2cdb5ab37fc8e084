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
//! [`bgpworms_core::ObservationSet`] of a collector feed, exactly like the
//! paper's §4 analyses (a labelled run reads the simulator's feed in
//! memory, as the set its MRT archive would parse to), and shares its
//! indexes — no stage keeps a per-prefix map of its own. It has four
//! stages:
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

/// Hand-written feeds for the detectors' unit tests: rows heard at RIS
/// `rrc00` that own what a [`bgpworms_core::FeedRow`] borrows.
#[cfg(test)]
pub(crate) mod written {
    use bgpworms_core::{FeedAttrs, FeedRow, ObservationSet};
    use bgpworms_types::{AsPath, Asn, Community, PathAttributes, Prefix};

    /// One row of a hand-written feed; `attrs` is `None` for a withdrawal.
    #[derive(Debug, Clone)]
    pub(crate) struct Written {
        pub(crate) time: u32,
        pub(crate) peer: Asn,
        pub(crate) prefix: Prefix,
        pub(crate) attrs: Option<PathAttributes>,
    }

    /// An announcement of `prefix` at time 0 over `path` (collector-first,
    /// prepends included), from its first AS, carrying `comms`.
    pub(crate) fn announce(prefix: &str, path: &[u32], comms: &[(u16, u16)]) -> Written {
        Written {
            time: 0,
            peer: Asn::new(path.first().copied().unwrap_or(0)),
            prefix: prefix.parse().unwrap(),
            attrs: Some(PathAttributes {
                as_path: AsPath::from_asns(path.iter().map(|&n| Asn::new(n))),
                communities: comms.iter().map(|&(a, v)| Community::new(a, v)).collect(),
                ..PathAttributes::default()
            }),
        }
    }

    /// The set of a feed of `rows`, in the order given.
    pub(crate) fn set(rows: &[Written]) -> ObservationSet {
        let rows = rows.iter().map(|r| FeedRow {
            time: r.time,
            peer: r.peer,
            prefix: r.prefix,
            announced: r.attrs.as_ref().map(FeedAttrs::from),
        });
        ObservationSet::from_rows([("RIS", "rrc00", rows)])
    }
}
