//! Tagger attribution: which AS attached a community to a route?
//!
//! The paper's §9: *"a new methodology that assigns the role of the tagger
//! of the BGP community to a network … both the relative position of the
//! network in the path and the BGP community that it tags have to be
//! considered."*
//!
//! A single vantage point cannot attribute a tag: any AS on the observed
//! path (or an off-path route server between two of them) could have added
//! it. Multiple vantage points narrow it down:
//!
//! * the tagger must lie on **every** path where the tag is seen — the
//!   community is carried from the tagger toward each collector, so the
//!   candidate set is the intersection of the tagged paths' AS sets;
//! * paths **without** the tag exonerate candidates *unless* the absence
//!   is explained by stripping: a candidate appearing on an untagged path
//!   is penalized only when no AS between it and that collector shows
//!   filtering behaviour. The filtering evidence is exactly the paper's
//!   Fig 6 per-edge indication analysis ([`FilteringAnalysis`]), reused
//!   here as an attribution prior.
//!
//! Scores combine the absence penalties with the paper's §4.3 conservative
//! prior (prefer the community's owner when it is a candidate).

use bgpworms_core::{FilteringAnalysis, Observation, ObservationSet};
use bgpworms_types::{Asn, Community, Prefix};
use std::collections::{BTreeMap, BTreeSet};

/// One candidate tagger with its supporting evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggerCandidate {
    /// The candidate AS.
    pub asn: Asn,
    /// Attribution score in (0, 1.5]; higher = more likely.
    pub score: f64,
    /// Number of untagged paths containing this AS whose absence no
    /// stripping edge explains.
    pub unexplained_absences: usize,
    /// Position from the origin (0 = the origin itself), minimized over
    /// tagged paths. Deeper candidates tagged earlier.
    pub distance_from_origin: usize,
}

/// The attribution result for one (prefix, community) pair.
#[derive(Debug, Clone, Default)]
pub struct TaggerAttribution {
    /// The community being attributed.
    pub community: Option<Community>,
    /// The prefix it rides on.
    pub prefix: Option<Prefix>,
    /// Candidates sorted by descending score (ties: closer to origin
    /// first — the conservative direction of §4.3).
    pub candidates: Vec<TaggerCandidate>,
    /// Paths observed carrying the community.
    pub tagged_paths: usize,
    /// Paths observed without it.
    pub untagged_paths: usize,
}

impl TaggerAttribution {
    /// The best candidate, if any.
    pub fn best(&self) -> Option<Asn> {
        self.candidates.first().map(|c| c.asn)
    }

    /// All candidates sharing the maximum score.
    pub fn best_set(&self) -> Vec<Asn> {
        let Some(max) = self.candidates.first().map(|c| c.score) else {
            return Vec::new();
        };
        self.candidates
            .iter()
            .take_while(|c| (c.score - max).abs() < 1e-9)
            .map(|c| c.asn)
            .collect()
    }
}

/// Attributes `community` on `prefix` across all vantage points in `set`.
///
/// `filters` (when provided) excuses candidate absences on paths where a
/// collector-side AS edge shows filtering indications.
pub fn attribute(
    set: &ObservationSet,
    prefix: Prefix,
    community: Community,
    filters: Option<&FilteringAnalysis>,
) -> TaggerAttribution {
    attribute_among(set.group(prefix), prefix, community, filters, true)
}

/// Attributes every (prefix, community) pair involving `community` in the
/// set — one attribution per prefix the community was seen on.
pub fn attribute_all(
    set: &ObservationSet,
    community: Community,
    filters: Option<&FilteringAnalysis>,
) -> Vec<TaggerAttribution> {
    let Some(id) = set.community_id(community) else {
        return Vec::new();
    };
    (set.prefixes_carrying(id).iter())
        .map(|&p| attribute(set, set.prefixes()[p as usize], community, filters))
        .collect()
}

/// [`attribute`] over a pre-selected run of announcements (all
/// observations of one prefix, as [`ObservationSet::group`] yields them).
///
/// `owner_prior` applies the §4.3 conservative boost to the community's
/// owner. It is the right prior for *informational* tags (the owner sets
/// them) and the wrong one for *action* communities, where the tagger is
/// the service **requester** and the owner merely acts — attack detectors
/// pass `false`.
pub fn attribute_among<'a>(
    announcements: impl IntoIterator<Item = Observation<'a>>,
    prefix: Prefix,
    community: Community,
    filters: Option<&FilteringAnalysis>,
    owner_prior: bool,
) -> TaggerAttribution {
    let (tagged, untagged): (Vec<Observation>, Vec<Observation>) = announcements
        .into_iter()
        .partition(|o| o.communities().contains(&community));

    let mut result = TaggerAttribution {
        community: Some(community),
        prefix: Some(prefix),
        candidates: Vec::new(),
        tagged_paths: tagged.len(),
        untagged_paths: untagged.len(),
    };
    if tagged.is_empty() {
        return result;
    }

    // Candidate set: ASes present on every tagged path.
    let mut candidates: BTreeSet<Asn> = tagged[0].path().iter().copied().collect();
    for obs in tagged.iter().skip(1) {
        let here: BTreeSet<Asn> = obs.path().iter().copied().collect();
        candidates.retain(|a| here.contains(a));
    }

    // Minimal distance from the origin over tagged paths.
    let mut dist_from_origin: BTreeMap<Asn, usize> = BTreeMap::new();
    for obs in &tagged {
        let len = obs.path().len();
        for (i, &a) in obs.path().iter().enumerate() {
            if candidates.contains(&a) {
                let d = len - 1 - i;
                dist_from_origin
                    .entry(a)
                    .and_modify(|v| *v = (*v).min(d))
                    .or_insert(d);
            }
        }
    }

    // Absence penalties: for each untagged path containing a candidate,
    // check whether a collector-side edge could have stripped the tag.
    let mut unexplained: BTreeMap<Asn, usize> = BTreeMap::new();
    for obs in &untagged {
        for (i, &a) in obs.path().iter().enumerate() {
            if !candidates.contains(&a) {
                continue;
            }
            // Collector-side edges: path[i] -> path[i-1] -> … -> path[0].
            let explained = match filters {
                Some(f) => (1..=i).any(|j| {
                    let from = obs.path()[j];
                    let to = obs.path()[j - 1];
                    f.edge(from, to).map(|e| e.filtered > 0).unwrap_or(false)
                }),
                None => false,
            };
            if !explained {
                *unexplained.entry(a).or_insert(0) += 1;
            }
        }
    }

    let owner = community.owner();
    let mut scored: Vec<TaggerCandidate> = candidates
        .into_iter()
        .map(|asn| {
            let misses = unexplained.get(&asn).copied().unwrap_or(0);
            let mut score = 1.0 / (1.0 + misses as f64);
            // §4.3 conservative prior: the owner most plausibly tagged its
            // own community.
            if owner_prior && asn == owner {
                score *= 1.5;
            }
            TaggerCandidate {
                asn,
                score,
                unexplained_absences: misses,
                distance_from_origin: dist_from_origin.get(&asn).copied().unwrap_or(usize::MAX),
            }
        })
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.distance_from_origin.cmp(&b.distance_from_origin))
            .then(a.asn.cmp(&b.asn))
    });
    result.candidates = scored;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::written::{announce as obs, set};
    use bgpworms_core::EdgeIndications;

    const P: &str = "10.0.0.0/16";

    #[test]
    fn origin_tag_attributes_to_origin() {
        // Tag on every path → intersection is the common suffix; the origin
        // has no absence penalties and ties break toward the origin.
        let c = (9u16, 42u16);
        let s = set(&[
            obs(P, &[3, 2, 1], &[c]),
            obs(P, &[4, 2, 1], &[c]),
            obs(P, &[5, 6, 1], &[c]),
        ]);
        let att = attribute(&s, P.parse().unwrap(), Community::new(9, 42), None);
        assert_eq!(att.tagged_paths, 3);
        assert_eq!(att.untagged_paths, 0);
        assert_eq!(
            att.best(),
            Some(Asn::new(1)),
            "only common AS is the origin"
        );
        assert_eq!(att.candidates.len(), 1);
    }

    #[test]
    fn midpath_tagger_identified_by_absence() {
        // AS2 adds the tag: paths through 2 carry it, the path through 6
        // does not. Candidates {2, 1}; 1 is on the untagged path → penalty;
        // 2 is not → best.
        let c = (9u16, 42u16);
        let s = set(&[
            obs(P, &[3, 2, 1], &[c]),
            obs(P, &[4, 2, 1], &[c]),
            obs(P, &[5, 6, 1], &[]),
        ]);
        let att = attribute(&s, P.parse().unwrap(), Community::new(9, 42), None);
        assert_eq!(att.best(), Some(Asn::new(2)));
        let one = att
            .candidates
            .iter()
            .find(|x| x.asn == Asn::new(1))
            .unwrap();
        assert_eq!(one.unexplained_absences, 1);
    }

    #[test]
    fn owner_prior_breaks_ties() {
        // Tag of AS2 present on all paths; both 2 and 1 are clean
        // candidates, but 2 owns the community.
        let c = (2u16, 666u16);
        let s = set(&[obs(P, &[3, 2, 1], &[c]), obs(P, &[4, 2, 1], &[c])]);
        let att = attribute(&s, P.parse().unwrap(), Community::new(2, 666), None);
        assert_eq!(att.best(), Some(Asn::new(2)), "owner prior wins");
        assert!(att.candidates[0].score > att.candidates[1].score);
    }

    #[test]
    fn filtering_evidence_excuses_absences() {
        // Same as midpath case, but edge (6 → 5) is a known stripper: the
        // untagged path no longer penalizes AS1, so AS1 (origin side) ties
        // with AS2 and wins the closer-to-origin tie-break.
        let c = (9u16, 42u16);
        let s = set(&[
            obs(P, &[3, 2, 1], &[c]),
            obs(P, &[4, 2, 1], &[c]),
            obs(P, &[5, 6, 1], &[]),
        ]);
        let mut filters = FilteringAnalysis::default();
        filters.edges.insert(
            (Asn::new(6), Asn::new(5)),
            EdgeIndications {
                forwarded: 0,
                filtered: 10,
            },
        );
        let att = attribute(
            &s,
            P.parse().unwrap(),
            Community::new(9, 42),
            Some(&filters),
        );
        let one = att
            .candidates
            .iter()
            .find(|x| x.asn == Asn::new(1))
            .unwrap();
        assert_eq!(
            one.unexplained_absences, 0,
            "stripping explains the absence"
        );
        assert_eq!(att.best(), Some(Asn::new(1)), "origin-side tie-break");
    }

    #[test]
    fn no_tagged_paths_gives_empty_attribution() {
        let s = set(&[obs(P, &[3, 2, 1], &[])]);
        let att = attribute(&s, P.parse().unwrap(), Community::new(9, 42), None);
        assert!(att.candidates.is_empty());
        assert_eq!(att.best(), None);
        assert!(att.best_set().is_empty());
    }

    #[test]
    fn attribute_all_covers_every_prefix() {
        let c = (9u16, 42u16);
        let s = set(&[
            obs("10.0.0.0/16", &[3, 2, 1], &[c]),
            obs("20.0.0.0/16", &[3, 2, 7], &[c]),
            obs("30.0.0.0/16", &[3, 2, 8], &[]),
        ]);
        let all = attribute_all(&s, Community::new(9, 42), None);
        assert_eq!(all.len(), 2);
        let prefixes: Vec<Prefix> = all.iter().filter_map(|a| a.prefix).collect();
        assert!(prefixes.contains(&"10.0.0.0/16".parse().unwrap()));
        assert!(prefixes.contains(&"20.0.0.0/16".parse().unwrap()));
    }

    #[test]
    fn in_top_and_best_set() {
        let c = (9u16, 42u16);
        let s = set(&[obs(P, &[3, 2, 1], &[c]), obs(P, &[4, 2, 1], &[c])]);
        let att = attribute(&s, P.parse().unwrap(), Community::new(9, 42), None);
        // candidates {2, 1}, equal scores (no absences, no owner on path)
        let best = att.best_set();
        assert_eq!(best.len(), 2);
        assert!(best.contains(&Asn::new(1)) && best.contains(&Asn::new(2)));
    }

    #[test]
    fn distance_from_origin_prefers_deep_candidates_on_tie() {
        // With no penalties anywhere, the origin-most candidate is first
        // (the paper's conservative assumption).
        let c = (9u16, 42u16);
        let s = set(&[obs(P, &[4, 3, 2, 1], &[c])]);
        let att = attribute(&s, P.parse().unwrap(), Community::new(9, 42), None);
        assert_eq!(att.best(), Some(Asn::new(1)));
        let dists: Vec<usize> = att
            .candidates
            .iter()
            .map(|x| x.distance_from_origin)
            .collect();
        assert_eq!(dists, vec![0, 1, 2, 3]);
    }
}
