//! Passive attack detectors over collector observations.
//!
//! Each detector implements one of the paper's attack classes as an
//! inference problem on MRT data:
//!
//! * **RTBH abuse** (§5.1 / Fig 7) — blackhole-tagged announcements whose
//!   origin contradicts the covering prefix (hijack + blackhole), whose
//!   tagged paths contain an AS adjacency never seen elsewhere (forged-
//!   origin hijack), or whose inferred tagger is not the victim
//!   (third-party trigger).
//! * **Traffic-steering abuse** (§5.2 / Fig 8) — prepend communities whose
//!   inferred tagger is not the origin, i.e. someone mid-path requested
//!   prepending of someone else's route.
//! * **Route manipulation** (§5.3 / Fig 9) — conflicting route-server
//!   control communities (announce-to *and* suppress for the same member)
//!   on one update, the evaluation-order exploit of §7.5.
//! * **Hygiene anomalies** — contradictory location tags (§7.7) and
//!   well-known communities (NO_EXPORT / NO_ADVERTISE) that must never
//!   reach a collector session.
//!
//! Detection quality is measured in [`crate::groundtruth`]; the detectors
//! deliberately accept imperfect precision rather than miss attacks —
//! the paper's §8 envisions attribution and discouragement, not blocking.

use crate::dictionary::{CommunityDictionary, CommunityKind};
use crate::tagger::{attribute_among, TaggerAttribution};
use bgpworms_core::{FilteringAnalysis, ObservationSet};
use bgpworms_topology::Topology;
use bgpworms_types::{Asn, Community, Prefix};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Likely benign misconfiguration; worth reporting.
    Info,
    /// Suspicious; operator attention advised.
    Warning,
    /// Attack-shaped; reachability of someone's prefix is at stake.
    Critical,
}

/// What a detector believes it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// Blackhole community on a more-specific whose origin contradicts the
    /// covering prefix, or on a path with a never-seen-elsewhere adjacency.
    RtbhHijack,
    /// Blackhole community whose inferred tagger is not the prefix origin.
    RtbhThirdParty,
    /// Prepend community whose inferred tagger is not the origin (or, with
    /// topology knowledge, not a customer of the community target).
    SteeringAbuse,
    /// Announce-to and suppress control communities for the same route-
    /// server member on one update.
    RouteServerConflict,
    /// Two different location tags of the same owner on one update.
    ContradictoryLocation,
    /// NO_EXPORT / NO_ADVERTISE observed at a collector.
    WellKnownLeak,
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AlertKind::RtbhHijack => "rtbh-hijack",
            AlertKind::RtbhThirdParty => "rtbh-third-party",
            AlertKind::SteeringAbuse => "steering-abuse",
            AlertKind::RouteServerConflict => "rs-conflict",
            AlertKind::ContradictoryLocation => "contradictory-location",
            AlertKind::WellKnownLeak => "well-known-leak",
        };
        f.write_str(s)
    }
}

/// One alert raised by a detector.
#[derive(Debug, Clone)]
pub struct Alert {
    /// What was detected.
    pub kind: AlertKind,
    /// The affected prefix.
    pub prefix: Prefix,
    /// The community that triggered the detection, when applicable.
    pub community: Option<Community>,
    /// Suspected responsible ASes (tagger attribution's best set).
    pub suspected: Vec<Asn>,
    /// Human-readable evidence.
    pub evidence: String,
    /// Severity.
    pub severity: Severity,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}] {} {} ", self.severity, self.kind, self.prefix)?;
        if let Some(c) = self.community {
            write!(f, "community {c} ")?;
        }
        if !self.suspected.is_empty() {
            let s: Vec<String> = self.suspected.iter().map(|a| a.to_string()).collect();
            write!(f, "suspected [{}] ", s.join(", "))?;
        }
        write!(f, "— {}", self.evidence)
    }
}

/// The passive monitor: observation set + community dictionary (+ optional
/// filtering prior and topology for relationship checks).
pub struct Monitor<'a> {
    set: &'a ObservationSet,
    dict: &'a CommunityDictionary,
    filters: Option<&'a FilteringAnalysis>,
    topo: Option<&'a Topology>,
}

impl<'a> Monitor<'a> {
    /// Builds the monitor over the set's per-prefix index.
    pub fn new(set: &'a ObservationSet, dict: &'a CommunityDictionary) -> Self {
        Monitor {
            set,
            dict,
            filters: None,
            topo: None,
        }
    }

    /// Adds the Fig 6 filtering analysis as an attribution prior.
    pub fn with_filters(mut self, filters: &'a FilteringAnalysis) -> Self {
        self.filters = Some(filters);
        self
    }

    /// Adds relationship knowledge (the paper's CAIDA-dataset analogue) for
    /// the steering customer-of-target check.
    pub fn with_topology(mut self, topo: &'a Topology) -> Self {
        self.topo = Some(topo);
        self
    }

    /// Runs every detector; alerts sorted by severity (critical first),
    /// then prefix.
    pub fn run(&self) -> Vec<Alert> {
        let mut alerts = self.rtbh_alerts();
        alerts.extend(self.steering_alerts());
        alerts.extend(self.conflict_alerts());
        alerts.extend(self.location_alerts());
        alerts.extend(self.well_known_alerts());
        alerts.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.prefix.cmp(&b.prefix))
                .then(a.kind.cmp(&b.kind))
        });
        alerts
    }

    fn attribution(&self, prefix: Prefix, community: Community) -> TaggerAttribution {
        // Action communities are tagged by the requester, not the owner —
        // the §4.3 owner prior would pin every blackhole request on the
        // service provider.
        let owner_prior = !self.dict.is_action(community);
        attribute_among(
            self.set.group(prefix),
            prefix,
            community,
            self.filters,
            owner_prior,
        )
    }

    /// Observed origins of a prefix.
    fn origins_of(&self, prefix: Prefix) -> BTreeSet<Asn> {
        self.set.group(prefix).filter_map(|o| o.origin()).collect()
    }

    /// Observed origins of a prefix on the paths tagged with `community`.
    fn tagged_origins(&self, prefix: Prefix, community: Community) -> BTreeSet<Asn> {
        (self.set.group(prefix))
            .filter(|o| o.communities().contains(&community))
            .filter_map(|o| o.origin())
            .collect()
    }

    /// The closest observed strictly-covering prefix, if any.
    fn covering_of(&self, prefix: Prefix) -> Option<Prefix> {
        (self.set.groups().map(|(p, _)| p))
            .filter(|p| *p != prefix && p.covers(&prefix))
            .max_by_key(|p| p.len())
    }

    /// The distinct (prefix, community) pairs on any announcement, for the
    /// communities `wanted` picks — asked once per distinct community.
    fn pairs(&self, wanted: impl Fn(Community) -> bool) -> BTreeSet<(Prefix, Community)> {
        let set = self.set;
        (set.communities().iter().zip(0u32..))
            .filter(|(&c, _)| wanted(c))
            .flat_map(|(&c, id)| {
                (set.prefixes_carrying(id).iter()).map(move |&p| (set.prefixes()[p as usize], c))
            })
            .collect()
    }

    /// `true` at the id of every community `wanted` picks — asked once per
    /// distinct community; `None` if it picks none of them.
    fn flags(&self, wanted: impl Fn(Community) -> bool) -> Option<Vec<bool>> {
        let flags = self.set.community_flags(wanted);
        flags.contains(&true).then_some(flags)
    }

    /// RTBH detectors (hijack + blackhole, novel adjacency, third-party
    /// trigger).
    fn rtbh_alerts(&self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        // Distinct (prefix, blackhole community) pairs.
        for (prefix, community) in self.pairs(|c| self.dict.is_blackhole(c)) {
            let tagged_origins = self.tagged_origins(prefix, community);

            // 1. Hijack by origin contradiction with the covering prefix.
            if let Some(covering) = self.covering_of(prefix) {
                let covering_origins = self.origins_of(covering);
                if !covering_origins.is_empty() && tagged_origins.is_disjoint(&covering_origins) {
                    alerts.push(Alert {
                        kind: AlertKind::RtbhHijack,
                        prefix,
                        community: Some(community),
                        suspected: tagged_origins.iter().copied().collect(),
                        evidence: format!(
                            "blackhole-tagged more-specific of {covering} announced by \
                             {:?}, covering prefix originated by {:?}",
                            tagged_origins, covering_origins
                        ),
                        severity: Severity::Critical,
                    });
                    continue;
                }
            }

            // 2. Forged-origin hijack: the tagged paths claim an
            // origin-side adjacency the covering prefix never exhibits.
            if let Some((origin, neighbor)) = self.forged_origin_edge(prefix, community) {
                alerts.push(Alert {
                    kind: AlertKind::RtbhHijack,
                    prefix,
                    community: Some(community),
                    suspected: vec![neighbor],
                    evidence: format!(
                        "blackhole-tagged paths claim adjacency {origin} → {neighbor} \
                         absent from the covering prefix's paths (forged-origin \
                         signature)"
                    ),
                    severity: Severity::Critical,
                });
                continue;
            }

            // 3. Third-party trigger: the inferred tagger excludes every
            // observed origin. Suppressed when the request looks like the
            // service working as intended: victims signal their *direct*
            // providers (§5.1), so a blackhole community owned by an AS
            // adjacent to the origin — or riding an update together with
            // one — is plausibly the victim's own request. (A malicious
            // direct provider is indistinguishable passively; that is the
            // paper's authentication gap, not a detector deficiency.)
            if self.plausible_direct_request(prefix, community) {
                continue;
            }
            let att = self.attribution(prefix, community);
            if att.candidates.is_empty() {
                continue;
            }
            let best = att.best_set();
            let origin_credible = tagged_origins.iter().any(|o| best.contains(o));
            if !origin_credible {
                alerts.push(Alert {
                    kind: AlertKind::RtbhThirdParty,
                    prefix,
                    community: Some(community),
                    suspected: best.clone(),
                    evidence: format!(
                        "tagger attribution over {} tagged / {} untagged paths puts the \
                         blackhole request at {:?}, not the origin {:?}",
                        att.tagged_paths, att.untagged_paths, best, tagged_origins
                    ),
                    severity: Severity::Critical,
                });
            }
        }
        alerts
    }

    /// True when some observation of `prefix` tagged with `community`
    /// carries a blackhole community whose owner sits directly adjacent to
    /// the origin on that path — the signature of a victim signalling its
    /// own upstreams (often all of them at once, §4.3). With relationship
    /// knowledge (the paper's CAIDA analogue), "adjacent on the observed
    /// path" widens to "a provider of the origin": the provider that
    /// *accepted* the request attaches NO_EXPORT, so its path never
    /// reaches a collector, yet its community still rides the copies that
    /// escaped via the other upstreams.
    fn plausible_direct_request(&self, prefix: Prefix, community: Community) -> bool {
        self.set.group(prefix).any(|o| {
            let path = o.path();
            if !o.communities().contains(&community) || path.len() < 2 {
                return false;
            }
            let adjacent = path[path.len() - 2];
            let origin = path[path.len() - 1];
            o.communities().iter().any(|c| {
                if !self.dict.is_blackhole(*c) {
                    return false;
                }
                let owner = c.owner();
                owner == adjacent
                    || self
                        .topo
                        .map(|t| t.providers_of(origin).any(|p| p == owner))
                        .unwrap_or(false)
            })
        })
    }

    /// Forged-origin evidence: a blackhole-tagged path's edge *into the
    /// origin* never appears among the covering prefix's paths. A victim's
    /// own RTBH request enters via one of its real providers, which also
    /// carry the covering prefix; a forged-origin hijack fabricates an
    /// origin adjacency the covering baseline has never seen.
    fn forged_origin_edge(&self, prefix: Prefix, community: Community) -> Option<(Asn, Asn)> {
        let covering = self.covering_of(prefix)?;
        let baseline: BTreeSet<(Asn, Asn)> = (self.set.group(covering))
            .flat_map(|o| o.path().windows(2).map(|w| (w[1], w[0])))
            .collect();
        if baseline.is_empty() {
            return None;
        }
        for obs in self.set.group(prefix) {
            if !obs.communities().contains(&community) {
                continue;
            }
            let path = obs.path();
            let n = path.len();
            if n < 2 {
                continue;
            }
            let edge = (path[n - 1], path[n - 2]);
            if !baseline.contains(&edge) {
                return Some(edge);
            }
        }
        None
    }

    /// Steering detectors: prepend communities whose tagger is not the
    /// origin (or not a customer of the target, with topology knowledge).
    fn steering_alerts(&self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let is_prepend = |c| matches!(self.dict.kind(c), Some(CommunityKind::Prepend(_)));
        for (prefix, community) in self.pairs(is_prepend) {
            let target = community.owner();
            // Require the steering to have had an effect: the target shows
            // up prepended on at least one tagged path.
            let effect = self.set.group(prefix).any(|o| {
                o.communities().contains(&community)
                    && o.prepends().iter().any(|(a, _)| *a == target)
            });
            if !effect {
                continue;
            }
            let tagged_origins = self.tagged_origins(prefix, community);
            let att = self.attribution(prefix, community);
            if att.candidates.is_empty() {
                continue;
            }
            let best = att.best_set();
            let origin_credible = tagged_origins.iter().any(|o| best.contains(o));
            if !origin_credible {
                alerts.push(Alert {
                    kind: AlertKind::SteeringAbuse,
                    prefix,
                    community: Some(community),
                    suspected: best.clone(),
                    evidence: format!(
                        "prepend community of {target} with visible prepending; tagger \
                         attribution {:?} excludes the origin {:?}",
                        best, tagged_origins
                    ),
                    severity: Severity::Warning,
                });
                continue;
            }
            // Origin tagged it itself — legitimate only from the target's
            // customer cone (§7.4). Needs relationship knowledge. Every
            // credible tagger stays suspected: the origin may merely be
            // unexculpated while a mid-path AS did the tagging.
            if let Some(topo) = self.topo {
                let origin_is_customer = tagged_origins
                    .iter()
                    .any(|o| topo.customers_of(target).any(|c| c == *o));
                if !origin_is_customer && topo.contains(target) {
                    let mut suspected = best.clone();
                    for o in &tagged_origins {
                        if !suspected.contains(o) {
                            suspected.push(*o);
                        }
                    }
                    alerts.push(Alert {
                        kind: AlertKind::SteeringAbuse,
                        prefix,
                        community: Some(community),
                        suspected,
                        evidence: format!(
                            "origin {:?} requested prepending at {target} but is not \
                             a customer of it",
                            tagged_origins
                        ),
                        severity: Severity::Warning,
                    });
                }
            }
        }
        alerts
    }

    /// Route-server control-community conflicts (§7.5): a suppress (`0:X`)
    /// together with an announce-to (`RS:X`) for the same member, where the
    /// purported route-server AS is off-path (route servers are
    /// transparent).
    fn conflict_alerts(&self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let Some(suppresses) = self.flags(|c| c.asn_part() == 0 && c.value_part() != 0) else {
            return alerts;
        };
        let mut seen: BTreeSet<(Prefix, Community)> = BTreeSet::new();
        for obs in self.set.announcements() {
            for suppress in obs.tags().filter(|t| suppresses[t.id as usize]) {
                let suppress = suppress.community;
                let member = suppress.value_part();
                let conflicting: Vec<Community> = obs
                    .tags()
                    .filter(|t| {
                        let c = t.community;
                        c.value_part() == member
                            && c.asn_part() != 0
                            && c.asn_part() != 65_535
                            && t.owner_pos.is_none()
                    })
                    .map(|t| t.community)
                    .collect();
                if conflicting.is_empty() {
                    continue;
                }
                if !seen.insert((obs.prefix, suppress)) {
                    continue;
                }
                let att = self.attribution(obs.prefix, suppress);
                let pretty: Vec<String> = conflicting.iter().map(|c| c.to_string()).collect();
                alerts.push(Alert {
                    kind: AlertKind::RouteServerConflict,
                    prefix: obs.prefix,
                    community: Some(suppress),
                    suspected: att.best_set(),
                    evidence: format!(
                        "update carries suppress {suppress} conflicting with \
                         announce-to [{}] for member {member} (evaluation-order \
                         exploit shape, §7.5)",
                        pretty.join(", ")
                    ),
                    severity: Severity::Warning,
                });
            }
        }
        alerts
    }

    /// Contradictory location tags (§7.7): two different location values of
    /// the same owner on one update.
    pub fn location_alerts(&self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let is_location = |c| matches!(self.dict.kind(c), Some(CommunityKind::Location));
        let Some(locations) = self.flags(is_location) else {
            return alerts;
        };
        let mut seen: BTreeSet<(Prefix, Asn)> = BTreeSet::new();
        for obs in self.set.announcements() {
            let located = || obs.tags().filter(|t| locations[t.id as usize]);
            if located().nth(1).is_none() {
                continue;
            }
            let mut per_owner: BTreeMap<Asn, BTreeSet<Community>> = BTreeMap::new();
            for c in located().map(|t| t.community) {
                per_owner.entry(c.owner()).or_default().insert(c);
            }
            for (owner, values) in per_owner {
                if values.len() < 2 || !seen.insert((obs.prefix, owner)) {
                    continue;
                }
                alerts.push(Alert {
                    kind: AlertKind::ContradictoryLocation,
                    prefix: obs.prefix,
                    community: values.iter().next().copied(),
                    suspected: Vec::new(),
                    evidence: format!(
                        "{} location tags of {owner} on one update: {:?} — the \
                         §7.7 fake-location signature",
                        values.len(),
                        values
                    ),
                    severity: Severity::Info,
                });
            }
        }
        alerts
    }

    /// Well-known communities that should never reach an eBGP collector
    /// session.
    fn well_known_alerts(&self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let Some(confined) =
            self.flags(|c| c == Community::NO_EXPORT || c == Community::NO_ADVERTISE)
        else {
            return alerts;
        };
        let mut seen: BTreeSet<(Prefix, Community)> = BTreeSet::new();
        for obs in self.set.announcements() {
            for c in obs.tags().filter(|t| confined[t.id as usize]) {
                let c = c.community;
                if seen.insert((obs.prefix, c)) {
                    alerts.push(Alert {
                        kind: AlertKind::WellKnownLeak,
                        prefix: obs.prefix,
                        community: Some(c),
                        suspected: obs.path().first().map(|a| vec![*a]).unwrap_or_default(),
                        evidence: format!(
                            "{} observed on an eBGP collector session at {} — the \
                             scope-confining semantics were ignored upstream",
                            c,
                            obs.collector()
                        ),
                        severity: Severity::Warning,
                    });
                }
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::written::{announce as obs, set};

    #[test]
    fn legit_rtbh_not_flagged() {
        // Victim origin 1 blackholes its own /32 via provider 9 — every
        // tagged path ends at the origin, nothing else observed.
        let d = CommunityDictionary::new();
        let s = set(&[
            obs("10.0.0.0/16", &[3, 2, 1], &[]),
            obs("10.0.0.0/16", &[4, 2, 1], &[]),
            obs("10.0.0.0/16", &[3, 9, 1], &[]),
            obs("10.0.0.1/32", &[3, 9, 1], &[(9, 666)]),
            obs("10.0.0.1/32", &[4, 9, 1], &[(9, 666)]),
        ]);
        let m = Monitor::new(&s, &d);
        let alerts = m.rtbh_alerts();
        assert!(alerts.is_empty(), "legitimate RTBH raised {alerts:?}");
    }

    #[test]
    fn hijacked_blackhole_flagged_by_origin_contradiction() {
        // Covering /16 originates at 1; the blackhole-tagged /24 claims
        // origin 7 — classic Fig 7(b).
        let d = CommunityDictionary::new();
        let s = set(&[
            obs("10.0.0.0/16", &[3, 2, 1], &[]),
            obs("10.0.0.0/24", &[3, 9, 7], &[(9, 666)]),
        ]);
        let m = Monitor::new(&s, &d);
        let alerts = m.rtbh_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::RtbhHijack);
        assert_eq!(alerts[0].severity, Severity::Critical);
        assert_eq!(alerts[0].suspected, vec![Asn::new(7)]);
    }

    #[test]
    fn forged_origin_hijack_flagged_by_novel_adjacency() {
        // Attacker 7 forges origin 1: path "… 7 1" exists only on the
        // blackholed /24; the real paths for everything else never show a
        // 1→7 adjacency.
        let d = CommunityDictionary::new();
        let s = set(&[
            obs("10.0.0.0/16", &[3, 2, 1], &[]),
            obs("20.0.0.0/16", &[3, 2, 8], &[]),
            obs("10.0.0.0/24", &[3, 9, 7, 1], &[(9, 666)]),
        ]);
        let m = Monitor::new(&s, &d);
        let alerts = m.rtbh_alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::RtbhHijack);
        assert!(alerts[0].evidence.contains("forged-origin"));
    }

    #[test]
    fn multi_upstream_victim_request_not_flagged() {
        // The victim signals BOTH upstreams at once (§4.3's "applied on all
        // peering sessions"): communities 9:666 and 2:666 ride together.
        // Observed paths mostly lack the tag (stripped en route), which
        // would otherwise exculpate nobody and indict the origin — but the
        // adjacent-owner signature marks it as a direct request.
        let d = CommunityDictionary::new();
        let s = set(&[
            obs("10.0.0.1/32", &[3, 9, 1], &[(9, 666), (2, 666)]),
            obs("10.0.0.1/32", &[4, 2, 1], &[]),
            obs("10.0.0.1/32", &[5, 2, 1], &[]),
            obs("10.0.0.1/32", &[6, 2, 1], &[]),
        ]);
        let m = Monitor::new(&s, &d);
        assert!(
            m.rtbh_alerts().is_empty(),
            "a request tagged with the adjacent provider's community is \
             the service working as intended"
        );
    }

    #[test]
    fn third_party_blackhole_flagged_via_attribution() {
        // On-path AS2 adds 9:666 to the victim's /24 announcement: paths
        // through 2 carry it, another path doesn't → tagger = 2 ≠ origin 1.
        let d = CommunityDictionary::new();
        let s = set(&[
            obs("10.0.0.0/24", &[3, 2, 1], &[(9, 666)]),
            obs("10.0.0.0/24", &[4, 2, 1], &[(9, 666)]),
            obs("10.0.0.0/24", &[5, 6, 1], &[]),
        ]);
        let m = Monitor::new(&s, &d);
        let alerts = m.rtbh_alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::RtbhThirdParty);
        assert_eq!(alerts[0].suspected, vec![Asn::new(2)]);
    }

    #[test]
    fn steering_abuse_flagged_when_tagger_is_not_origin() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(9, 421), CommunityKind::Prepend(2));
        // Target 9 prepended on tagged paths; tag added by 2 (path through
        // 6 lacks it).
        let s = set(&[
            obs("10.0.0.0/16", &[9, 9, 9, 2, 1], &[(9, 421)]),
            obs("10.0.0.0/16", &[4, 2, 1], &[(9, 421)]),
            obs("10.0.0.0/16", &[5, 6, 1], &[]),
        ]);
        let m = Monitor::new(&s, &d);
        let alerts = m.steering_alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::SteeringAbuse);
        assert!(alerts[0].suspected.contains(&Asn::new(2)));
    }

    #[test]
    fn steering_without_effect_not_flagged() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(9, 421), CommunityKind::Prepend(2));
        // Tag present but no prepending of 9 anywhere — inert (e.g. the
        // target ignored a non-customer request, §7.4).
        let s = set(&[
            obs("10.0.0.0/16", &[9, 2, 1], &[(9, 421)]),
            obs("10.0.0.0/16", &[5, 6, 1], &[]),
        ]);
        let m = Monitor::new(&s, &d);
        assert!(m.steering_alerts().is_empty());
    }

    #[test]
    fn origin_requested_prepending_is_legitimate() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(9, 421), CommunityKind::Prepend(2));
        // Origin 1 tags its own announcement; all paths carry it.
        let s = set(&[
            obs("10.0.0.0/16", &[9, 9, 9, 2, 1], &[(9, 421)]),
            obs("10.0.0.0/16", &[5, 2, 1], &[(9, 421)]),
        ]);
        let m = Monitor::new(&s, &d);
        assert!(
            m.steering_alerts().is_empty(),
            "origin is a credible tagger"
        );
    }

    #[test]
    fn conflicting_rs_communities_flagged() {
        let d = CommunityDictionary::new();
        // 0:40 (suppress member 40) + 125:40 (announce to member 40),
        // owner 125 off-path → conflict.
        let s = set(&[obs("10.0.0.0/16", &[3, 2, 1], &[(0, 40), (125, 40)])]);
        let m = Monitor::new(&s, &d);
        let alerts = m.conflict_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::RouteServerConflict);
    }

    #[test]
    fn suppress_without_matching_announce_not_flagged() {
        let d = CommunityDictionary::new();
        let s = set(&[
            obs("10.0.0.0/16", &[3, 2, 1], &[(0, 40)]),
            // same value but owner on path → member-tag of an on-path AS,
            // not an RS control conflict
            obs("20.0.0.0/16", &[3, 2, 1], &[(0, 41), (2, 41)]),
        ]);
        let m = Monitor::new(&s, &d);
        assert!(m.conflict_alerts().is_empty());
    }

    #[test]
    fn contradictory_location_tags_flagged() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(6, 201), CommunityKind::Location);
        d.insert(Community::new(6, 202), CommunityKind::Location);
        let s = set(&[obs("10.0.0.0/16", &[6, 2, 1], &[(6, 201), (6, 202)])]);
        let m = Monitor::new(&s, &d);
        let alerts = m.location_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::ContradictoryLocation);
        assert_eq!(alerts[0].severity, Severity::Info);
    }

    #[test]
    fn single_location_tag_is_fine() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(6, 201), CommunityKind::Location);
        let s = set(&[obs("10.0.0.0/16", &[6, 2, 1], &[(6, 201)])]);
        let m = Monitor::new(&s, &d);
        assert!(m.location_alerts().is_empty());
    }

    #[test]
    fn no_export_at_collector_is_a_leak() {
        let d = CommunityDictionary::new();
        let s = set(&[obs("10.0.0.0/16", &[3, 2, 1], &[(65535, 65281)])]);
        let m = Monitor::new(&s, &d);
        let alerts = m.well_known_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::WellKnownLeak);
    }

    #[test]
    fn run_sorts_by_severity() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(6, 201), CommunityKind::Location);
        d.insert(Community::new(6, 202), CommunityKind::Location);
        let s = set(&[
            // critical: hijacked blackhole
            obs("10.0.0.0/16", &[3, 2, 1], &[]),
            obs("10.0.0.0/24", &[3, 9, 7], &[(9, 666)]),
            // info: contradictory location
            obs("20.0.0.0/16", &[6, 2, 1], &[(6, 201), (6, 202)]),
        ]);
        let m = Monitor::new(&s, &d);
        let alerts = m.run();
        assert!(alerts.len() >= 2);
        assert_eq!(alerts[0].severity, Severity::Critical);
        assert_eq!(alerts.last().unwrap().severity, Severity::Info);
    }

    #[test]
    fn alert_display_is_informative() {
        let a = Alert {
            kind: AlertKind::RtbhHijack,
            prefix: "10.0.0.0/24".parse().unwrap(),
            community: Some(Community::new(9, 666)),
            suspected: vec![Asn::new(7)],
            evidence: "test".into(),
            severity: Severity::Critical,
        };
        let s = a.to_string();
        assert!(s.contains("rtbh-hijack"));
        assert!(s.contains("9:666"));
        assert!(s.contains("7"));
    }
}
