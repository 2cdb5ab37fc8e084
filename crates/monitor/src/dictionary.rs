//! Community semantics: what does `T:V` *do*?
//!
//! There is no central registry of community meanings (§2: "scattered and
//! incomplete documentation"), so a passive monitor has two sources:
//!
//! * **conventions and registries** — RFC 7999 `65535:666`, the `ASN:666`
//!   blackhole convention, the six IANA well-known values;
//! * **behavioural inference** — watching what happens to tagged routes.
//!   A community that only ever rides on short-lived /24-or-longer
//!   announcements smells like blackholing; one whose presence coincides
//!   with its owner being prepended in the AS path smells like a prepend
//!   service; one whose value is a pure function of the owner's ingress
//!   neighbor smells like a location tag (Fig 1's AS6).
//!
//! [`DictionaryInference`] implements the behavioural rules;
//! [`DictionaryEval`] scores them against ground truth, which the
//! simulator — unlike the Internet — can provide.

use bgpworms_core::ObservationSet;
use bgpworms_routesim::RouterConfig;
use bgpworms_types::{Asn, Community, WellKnown};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The semantic of one community.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommunityKind {
    /// Drop traffic to the tagged prefix (RTBH).
    Blackhole,
    /// Prepend the owner's ASN `n` times (`0` = count unknown).
    Prepend(u8),
    /// Adjust local preference at the owner.
    LocalPref,
    /// Ingress-location tag (informational, set by the owner on ingress).
    Location,
    /// Business-class-of-ingress-session tag (informational).
    OriginClass,
    /// Route-server redistribution control (announce-to / suppress).
    RouteServerControl,
    /// One of the six IANA well-known communities.
    WellKnown(WellKnown),
    /// Carries information only; triggers no action.
    Informational,
}

impl CommunityKind {
    /// True for kinds that trigger an action somewhere (the attack
    /// surfaces), false for purely informational tags.
    pub fn is_action(self) -> bool {
        matches!(
            self,
            CommunityKind::Blackhole
                | CommunityKind::Prepend(_)
                | CommunityKind::LocalPref
                | CommunityKind::RouteServerControl
                | CommunityKind::WellKnown(_)
        )
    }
}

impl fmt::Display for CommunityKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommunityKind::Blackhole => write!(f, "blackhole"),
            CommunityKind::Prepend(0) => write!(f, "prepend"),
            CommunityKind::Prepend(n) => write!(f, "prepend×{n}"),
            CommunityKind::LocalPref => write!(f, "local-pref"),
            CommunityKind::Location => write!(f, "location"),
            CommunityKind::OriginClass => write!(f, "origin-class"),
            CommunityKind::RouteServerControl => write!(f, "rs-control"),
            CommunityKind::WellKnown(w) => write!(f, "{}", w.name()),
            CommunityKind::Informational => write!(f, "informational"),
        }
    }
}

/// A mapping from communities to their (known or inferred) semantics.
#[derive(Debug, Clone, Default)]
pub struct CommunityDictionary {
    entries: BTreeMap<Community, CommunityKind>,
}

impl CommunityDictionary {
    /// An empty dictionary (well-known and `:666` conventions still apply
    /// through [`kind`](Self::kind)).
    pub fn new() -> Self {
        CommunityDictionary::default()
    }

    /// Registers (or overwrites) the kind of `c`.
    pub fn insert(&mut self, c: Community, kind: CommunityKind) {
        self.entries.insert(c, kind);
    }

    /// The kind of `c`: explicit entries win; otherwise the IANA registry
    /// and the `ASN:666` convention; otherwise `None` (unknown).
    pub fn kind(&self, c: Community) -> Option<CommunityKind> {
        if let Some(k) = self.entries.get(&c) {
            return Some(*k);
        }
        if let Some(w) = c.well_known() {
            return Some(CommunityKind::WellKnown(w));
        }
        if c.has_blackhole_value() {
            return Some(CommunityKind::Blackhole);
        }
        None
    }

    /// True if `c` is believed to trigger an action.
    pub fn is_action(&self, c: Community) -> bool {
        self.kind(c).map(CommunityKind::is_action).unwrap_or(false)
    }

    /// True if `c` is believed to trigger blackholing.
    pub fn is_blackhole(&self, c: Community) -> bool {
        matches!(
            self.kind(c),
            Some(CommunityKind::Blackhole | CommunityKind::WellKnown(WellKnown::Blackhole))
        )
    }

    /// Number of explicit entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no explicit entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the explicit entries.
    pub fn iter(&self) -> impl Iterator<Item = (Community, CommunityKind)> + '_ {
        self.entries.iter().map(|(c, k)| (*c, *k))
    }

    /// The ground-truth dictionary of a simulated world: every service
    /// community each router actually honours, plus its informational
    /// tagging values. This is what the statistical inference is scored
    /// against.
    pub fn from_workload<'a, I>(configs: I) -> Self
    where
        I: IntoIterator<Item = &'a RouterConfig>,
    {
        let mut dict = CommunityDictionary::new();
        for cfg in configs {
            let Some(hi) = cfg.asn.as_u16() else { continue };
            if let Some(bh) = &cfg.services.blackhole {
                dict.insert(Community::new(hi, bh.value), CommunityKind::Blackhole);
            }
            for (&value, &n) in &cfg.services.prepend {
                dict.insert(Community::new(hi, value), CommunityKind::Prepend(n));
            }
            for &value in cfg.services.local_pref.keys() {
                dict.insert(Community::new(hi, value), CommunityKind::LocalPref);
            }
            if cfg.tagging.tag_ingress_location {
                // Ingress buckets 201..=204 (router.rs uses sender % 4).
                for v in 201..=204u16 {
                    dict.insert(Community::new(hi, v), CommunityKind::Location);
                }
            }
            if cfg.tagging.tag_origin_class {
                for v in [100u16, 110, 120] {
                    dict.insert(Community::new(hi, v), CommunityKind::OriginClass);
                }
            }
            for c in &cfg.tagging.origination_tags {
                dict.insert(*c, CommunityKind::Informational);
            }
        }
        dict
    }
}

/// Per-community evidence counters accumulated by the inference pass.
#[derive(Debug, Clone, Default)]
pub struct CommunityEvidence {
    /// Announcements carrying the community.
    pub observations: u64,
    /// Distinct prefixes it appeared on.
    pub prefixes: BTreeSet<bgpworms_types::Prefix>,
    /// Of those observations, how many were for a /24-or-longer IPv4
    /// prefix (blackhole-shaped).
    pub small_prefix: u64,
    /// How many of its prefixes were later withdrawn (blackhole episodes
    /// end; ordinary routes persist).
    pub withdrawn_prefixes: u64,
    /// Tagged observations where the owner appears prepended in the path.
    pub owner_prepended: u64,
    /// Tagged observations where the owner is on the path at all.
    pub owner_on_path: u64,
    /// For location inference: ingress neighbor of the owner → set of
    /// low-16 values seen with that neighbor.
    pub ingress_values: BTreeMap<Asn, BTreeSet<u16>>,
}

/// Statistical inference of community semantics from passive data.
#[derive(Debug, Clone)]
pub struct DictionaryInference {
    /// Minimum tagged observations before a rule may fire.
    pub min_observations: u64,
    /// Fraction of small-prefix observations required for the blackhole
    /// rule.
    pub blackhole_small_prefix_fraction: f64,
    /// Fraction of (later-)withdrawn prefixes required for the blackhole
    /// rule.
    pub blackhole_withdrawn_fraction: f64,
    /// Fraction of on-path-owner observations that must show the owner
    /// prepended for the prepend rule.
    pub prepend_correlation: f64,
}

impl Default for DictionaryInference {
    fn default() -> Self {
        DictionaryInference {
            min_observations: 3,
            blackhole_small_prefix_fraction: 0.9,
            blackhole_withdrawn_fraction: 0.5,
            prepend_correlation: 0.8,
        }
    }
}

impl DictionaryInference {
    /// Runs the inference over a parsed observation set; returns the
    /// inferred dictionary and the per-community evidence behind it.
    ///
    /// The value convention (`666`) is deliberately **not** consulted: the
    /// point is to test whether behaviour alone recovers semantics, as
    /// Giotsas et al. did for blackhole communities.
    pub fn infer(
        &self,
        set: &ObservationSet,
    ) -> (CommunityDictionary, BTreeMap<Community, CommunityEvidence>) {
        let mut withdrawn = vec![false; set.prefixes().len()];
        for obs in set.iter().filter(|o| o.is_withdrawal) {
            withdrawn[obs.prefix_id() as usize] = true;
        }

        // Counters per community id; (community, ingress neighbor) pairs on
        // the side, repeats of a community's last pair dropped on the way.
        let mut per_id = vec![CommunityEvidence::default(); set.communities().len()];
        let mut ingress: Vec<(u32, u32)> = Vec::new();
        let mut last_ingress = vec![u32::MAX; set.communities().len()];
        for obs in set.announcements() {
            let small = obs.prefix.is_v4() && obs.prefix.len() >= 24;
            for tag in obs.tags() {
                let ev = &mut per_id[tag.id as usize];
                ev.observations += 1;
                ev.small_prefix += u64::from(small);
                let Some(pos) = tag.owner_pos else { continue };
                ev.owner_on_path += 1;
                let owner = tag.community.owner();
                if obs.prepends().iter().any(|(a, _)| *a == owner) {
                    ev.owner_prepended += 1;
                }
                // The ingress neighbor is the next AS toward the origin.
                if let Some(&neighbor) = obs.path_ids().get(pos + 1) {
                    if std::mem::replace(&mut last_ingress[tag.id as usize], neighbor) != neighbor {
                        ingress.push((tag.id, neighbor));
                    }
                }
            }
        }
        ingress.sort_unstable();
        ingress.dedup();
        for (c, neighbor) in ingress {
            let value = set.communities()[c as usize].value_part();
            (per_id[c as usize].ingress_values)
                .entry(set.asns()[neighbor as usize])
                .or_default()
                .insert(value);
        }
        // Each community's prefixes, and how many of them were withdrawn.
        let evidence: BTreeMap<Community, CommunityEvidence> = (set.communities().iter())
            .zip(per_id)
            .zip(0u32..)
            .map(|((&c, mut ev), id)| {
                let prefixes = set.prefixes_carrying(id);
                ev.prefixes = prefixes
                    .iter()
                    .map(|&p| set.prefixes()[p as usize])
                    .collect();
                ev.withdrawn_prefixes =
                    prefixes.iter().filter(|&&p| withdrawn[p as usize]).count() as u64;
                (c, ev)
            })
            .collect();

        let mut dict = CommunityDictionary::new();
        for (&c, ev) in &evidence {
            if ev.observations < self.min_observations {
                continue;
            }
            let small_frac = ev.small_prefix as f64 / ev.observations as f64;
            let withdrawn_frac = ev.withdrawn_prefixes as f64 / ev.prefixes.len().max(1) as f64;
            if small_frac >= self.blackhole_small_prefix_fraction
                && withdrawn_frac >= self.blackhole_withdrawn_fraction
            {
                dict.insert(c, CommunityKind::Blackhole);
                continue;
            }
            if ev.owner_on_path >= self.min_observations {
                let corr = ev.owner_prepended as f64 / ev.owner_on_path as f64;
                if corr >= self.prepend_correlation {
                    dict.insert(c, CommunityKind::Prepend(0));
                    continue;
                }
            }
            if self.looks_like_location(c, ev, &evidence) {
                dict.insert(c, CommunityKind::Location);
            }
        }
        (dict, evidence)
    }

    /// Location heuristic: the owner tags on ingress, so each of the
    /// owner's ingress neighbors maps to exactly one value of this family,
    /// and the family has more than one value across neighbors.
    fn looks_like_location(
        &self,
        c: Community,
        ev: &CommunityEvidence,
        all: &BTreeMap<Community, CommunityEvidence>,
    ) -> bool {
        if ev.owner_on_path < self.min_observations || ev.ingress_values.is_empty() {
            return false;
        }
        // Pool the ingress→value maps of every community of this owner in
        // the same value neighborhood (a "family").
        let owner = c.owner();
        let mut per_ingress: BTreeMap<Asn, BTreeSet<u16>> = BTreeMap::new();
        let mut family_values: BTreeSet<u16> = BTreeSet::new();
        for (&oc, oev) in all {
            if oc.owner() != owner || oc.value_part().abs_diff(c.value_part()) > 8 {
                continue;
            }
            family_values.insert(oc.value_part());
            for (ingress, values) in &oev.ingress_values {
                per_ingress.entry(*ingress).or_default().extend(values);
            }
        }
        if family_values.len() < 2 || per_ingress.len() < 2 {
            return false;
        }
        // Purity: each ingress neighbor sees exactly one family value.
        per_ingress.values().all(|vals| vals.len() == 1)
    }
}

/// Precision / recall of an inferred dictionary against ground truth for
/// one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindScore {
    /// Communities correctly inferred as this kind.
    pub true_positives: usize,
    /// Communities inferred as this kind but not so in truth.
    pub false_positives: usize,
    /// Ground-truth communities of this kind that were observed in the
    /// data but not inferred.
    pub false_negatives: usize,
}

impl KindScore {
    /// Precision (1.0 when nothing was inferred).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall (1.0 when there was nothing to find).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Dictionary-inference evaluation: per-kind scores.
#[derive(Debug, Clone, Default)]
pub struct DictionaryEval {
    /// Scores per coarse kind (prepend counts are ignored for matching).
    pub scores: BTreeMap<&'static str, KindScore>,
}

impl DictionaryEval {
    /// Compares `inferred` against `truth`, restricted to communities that
    /// actually appear in `observed` (unobservable service communities are
    /// not knowable passively and are excluded, as in the paper's §7.6
    /// survey design).
    pub fn compare(
        inferred: &CommunityDictionary,
        truth: &CommunityDictionary,
        observed: &BTreeSet<Community>,
    ) -> DictionaryEval {
        fn coarse(k: CommunityKind) -> &'static str {
            match k {
                CommunityKind::Blackhole => "blackhole",
                CommunityKind::Prepend(_) => "prepend",
                CommunityKind::LocalPref => "local-pref",
                CommunityKind::Location => "location",
                CommunityKind::OriginClass => "origin-class",
                CommunityKind::RouteServerControl => "rs-control",
                CommunityKind::WellKnown(_) => "well-known",
                CommunityKind::Informational => "informational",
            }
        }

        let mut eval = DictionaryEval::default();
        for kind in ["blackhole", "prepend", "location"] {
            eval.scores.insert(kind, KindScore::default());
        }
        // Inferred entries: TP or FP.
        for (c, k) in inferred.iter() {
            let kind = coarse(k);
            let Some(score) = eval.scores.get_mut(kind) else {
                continue;
            };
            match truth.kind(c).map(coarse) {
                Some(t) if t == kind => score.true_positives += 1,
                _ => score.false_positives += 1,
            }
        }
        // Truth entries that were observed: FN when missed.
        for (c, k) in truth.iter() {
            if !observed.contains(&c) {
                continue;
            }
            let kind = coarse(k);
            let Some(score) = eval.scores.get_mut(kind) else {
                continue;
            };
            match inferred.kind(c).map(coarse) {
                Some(i) if i == kind => {} // counted as TP above
                _ => score.false_negatives += 1,
            }
        }
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_core::UpdateObservation;

    fn obs(
        prefix: &str,
        path: &[u32],
        comms: &[(u16, u16)],
        prepends: &[(u32, usize)],
    ) -> UpdateObservation {
        UpdateObservation {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            time: 0,
            peer: Asn::new(path.first().copied().unwrap_or(0)),
            prefix: prefix.parse().unwrap(),
            path: path.iter().map(|&n| Asn::new(n)).collect(),
            raw_hop_count: path.len() + prepends.iter().map(|(_, n)| n - 1).sum::<usize>(),
            prepends: prepends.iter().map(|&(a, n)| (Asn::new(a), n)).collect(),
            large_communities: vec![],
            communities: comms.iter().map(|&(a, v)| Community::new(a, v)).collect(),
            is_withdrawal: false,
        }
    }

    fn withdrawal(prefix: &str) -> UpdateObservation {
        UpdateObservation {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            time: 1,
            peer: Asn::new(9),
            prefix: prefix.parse().unwrap(),
            path: vec![],
            raw_hop_count: 0,
            prepends: vec![],
            large_communities: vec![],
            communities: vec![],
            is_withdrawal: true,
        }
    }

    fn set(observations: Vec<UpdateObservation>) -> ObservationSet {
        ObservationSet::from_observations(observations, vec![("RIS".into(), "rrc00".into(), 1)])
    }

    #[test]
    fn explicit_entries_override_conventions() {
        let mut d = CommunityDictionary::new();
        assert_eq!(
            d.kind(Community::new(5, 666)),
            Some(CommunityKind::Blackhole)
        );
        d.insert(Community::new(5, 666), CommunityKind::Informational);
        assert_eq!(
            d.kind(Community::new(5, 666)),
            Some(CommunityKind::Informational)
        );
    }

    #[test]
    fn well_known_resolved_without_entries() {
        let d = CommunityDictionary::new();
        assert_eq!(
            d.kind(Community::NO_EXPORT),
            Some(CommunityKind::WellKnown(WellKnown::NoExport))
        );
        assert!(d.is_action(Community::NO_EXPORT));
        assert!(d.is_blackhole(Community::BLACKHOLE));
        assert_eq!(d.kind(Community::new(7, 1234)), None);
        assert!(!d.is_action(Community::new(7, 1234)));
    }

    #[test]
    fn action_kinds() {
        assert!(CommunityKind::Blackhole.is_action());
        assert!(CommunityKind::Prepend(2).is_action());
        assert!(CommunityKind::LocalPref.is_action());
        assert!(CommunityKind::RouteServerControl.is_action());
        assert!(!CommunityKind::Location.is_action());
        assert!(!CommunityKind::Informational.is_action());
    }

    #[test]
    fn infers_blackhole_from_small_withdrawn_prefixes() {
        // 77:999 rides only on /32s that get withdrawn → blackhole-shaped,
        // even though the value is not 666.
        let c = (77u16, 999u16);
        let observations = vec![
            obs("10.0.0.1/32", &[3, 2, 1], &[c], &[]),
            obs("10.0.0.1/32", &[4, 2, 1], &[c], &[]),
            obs("20.0.0.2/32", &[3, 2, 5], &[c], &[]),
            withdrawal("10.0.0.1/32"),
            withdrawal("20.0.0.2/32"),
            // a persistent /16 with a different community
            obs("30.0.0.0/16", &[3, 2, 6], &[(6, 100)], &[]),
            obs("30.0.0.0/16", &[4, 2, 6], &[(6, 100)], &[]),
            obs("30.0.0.0/16", &[5, 2, 6], &[(6, 100)], &[]),
        ];
        let (dict, _) = DictionaryInference::default().infer(&set(observations));
        assert_eq!(
            dict.kind(Community::new(77, 999)),
            Some(CommunityKind::Blackhole)
        );
        assert_ne!(
            dict.kind(Community::new(6, 100)),
            Some(CommunityKind::Blackhole)
        );
    }

    #[test]
    fn infers_prepend_from_owner_prepend_correlation() {
        // 42:421 present ⇔ AS42 prepended.
        let c = (42u16, 421u16);
        let observations = vec![
            obs("10.0.0.0/16", &[42, 2, 1], &[c], &[(42, 2)]),
            obs("10.0.0.0/16", &[5, 42, 1], &[c], &[(42, 2)]),
            obs("20.0.0.0/16", &[42, 2, 7], &[c], &[(42, 2)]),
            // same owner's informational tag, never with prepending
            obs("30.0.0.0/16", &[42, 2, 8], &[(42, 100)], &[]),
            obs("30.0.0.0/16", &[5, 42, 8], &[(42, 100)], &[]),
            obs("31.0.0.0/16", &[42, 2, 9], &[(42, 100)], &[]),
        ];
        let (dict, _) = DictionaryInference::default().infer(&set(observations));
        assert_eq!(
            dict.kind(Community::new(42, 421)),
            Some(CommunityKind::Prepend(0))
        );
        assert_eq!(dict.kind(Community::new(42, 100)), None);
    }

    #[test]
    fn infers_location_family_from_ingress_purity() {
        // AS6 tags 6:201 for routes entering from AS10 and 6:202 for routes
        // entering from AS11 (Fig 1's LAX/FRA example).
        let observations = vec![
            obs("10.0.0.0/16", &[6, 10, 1], &[(6, 201)], &[]),
            obs("11.0.0.0/16", &[6, 10, 2], &[(6, 201)], &[]),
            obs("12.0.0.0/16", &[6, 10, 3], &[(6, 201)], &[]),
            obs("20.0.0.0/16", &[6, 11, 4], &[(6, 202)], &[]),
            obs("21.0.0.0/16", &[6, 11, 5], &[(6, 202)], &[]),
            obs("22.0.0.0/16", &[6, 11, 7], &[(6, 202)], &[]),
        ];
        let (dict, _) = DictionaryInference::default().infer(&set(observations));
        assert_eq!(
            dict.kind(Community::new(6, 201)),
            Some(CommunityKind::Location)
        );
        assert_eq!(
            dict.kind(Community::new(6, 202)),
            Some(CommunityKind::Location)
        );
    }

    #[test]
    fn location_rule_rejects_impure_ingress() {
        // Same ingress neighbor sees both values → not a location family.
        let observations = vec![
            obs("10.0.0.0/16", &[6, 10, 1], &[(6, 201)], &[]),
            obs("11.0.0.0/16", &[6, 10, 2], &[(6, 202)], &[]),
            obs("12.0.0.0/16", &[6, 10, 3], &[(6, 201)], &[]),
            obs("20.0.0.0/16", &[6, 11, 4], &[(6, 202)], &[]),
            obs("21.0.0.0/16", &[6, 11, 5], &[(6, 201)], &[]),
            obs("22.0.0.0/16", &[6, 11, 7], &[(6, 202)], &[]),
        ];
        let (dict, _) = DictionaryInference::default().infer(&set(observations));
        assert_eq!(dict.kind(Community::new(6, 201)), None);
    }

    #[test]
    fn min_observations_gate() {
        let c = (77u16, 999u16);
        let observations = vec![
            obs("10.0.0.1/32", &[3, 2, 1], &[c], &[]),
            withdrawal("10.0.0.1/32"),
        ];
        let (dict, ev) = DictionaryInference::default().infer(&set(observations));
        assert!(dict.is_empty(), "one observation is not enough");
        assert_eq!(ev[&Community::new(77, 999)].observations, 1);
    }

    #[test]
    fn evaluation_scores_inferred_vs_truth() {
        let mut truth = CommunityDictionary::new();
        truth.insert(Community::new(1, 666), CommunityKind::Blackhole);
        truth.insert(Community::new(2, 421), CommunityKind::Prepend(1));
        truth.insert(Community::new(3, 201), CommunityKind::Location);

        let mut inferred = CommunityDictionary::new();
        inferred.insert(Community::new(1, 666), CommunityKind::Blackhole); // TP
        inferred.insert(Community::new(9, 5), CommunityKind::Blackhole); // FP
                                                                         // prepend missed → FN; location missed but NOT observed → excluded

        let observed: BTreeSet<Community> = [
            Community::new(1, 666),
            Community::new(2, 421),
            Community::new(9, 5),
        ]
        .into_iter()
        .collect();
        let eval = DictionaryEval::compare(&inferred, &truth, &observed);
        let bh = eval.scores["blackhole"];
        assert_eq!(
            (bh.true_positives, bh.false_positives, bh.false_negatives),
            (1, 1, 0)
        );
        assert!((bh.precision() - 0.5).abs() < 1e-9);
        assert!((bh.recall() - 1.0).abs() < 1e-9);
        let pp = eval.scores["prepend"];
        assert_eq!(
            (pp.true_positives, pp.false_positives, pp.false_negatives),
            (0, 0, 1)
        );
        assert_eq!(pp.recall(), 0.0);
        let loc = eval.scores["location"];
        assert_eq!(loc.false_negatives, 0, "unobserved truth is excluded");
    }

    #[test]
    fn truth_dictionary_from_workload_configs() {
        use bgpworms_routesim::BlackholeService;
        let mut cfg = RouterConfig::defaults(Asn::new(42));
        cfg.services.blackhole = Some(BlackholeService::default());
        cfg.services.prepend.insert(421, 1);
        cfg.services.local_pref.insert(70, 70);
        cfg.tagging.tag_ingress_location = true;
        cfg.tagging.tag_origin_class = true;
        cfg.tagging.origination_tags = vec![Community::new(42, 3000)];
        let dict = CommunityDictionary::from_workload([&cfg]);
        assert_eq!(
            dict.kind(Community::new(42, 666)),
            Some(CommunityKind::Blackhole)
        );
        assert_eq!(
            dict.kind(Community::new(42, 421)),
            Some(CommunityKind::Prepend(1))
        );
        assert_eq!(
            dict.kind(Community::new(42, 70)),
            Some(CommunityKind::LocalPref)
        );
        assert_eq!(
            dict.kind(Community::new(42, 203)),
            Some(CommunityKind::Location)
        );
        assert_eq!(
            dict.kind(Community::new(42, 110)),
            Some(CommunityKind::OriginClass)
        );
        assert_eq!(
            dict.kind(Community::new(42, 3000)),
            Some(CommunityKind::Informational)
        );
    }

    #[test]
    fn kind_score_edge_cases() {
        let s = KindScore::default();
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
        assert_eq!(s.f1(), 1.0);
        let s = KindScore {
            true_positives: 0,
            false_positives: 2,
            false_negatives: 3,
        };
        assert_eq!(s.precision(), 0.0);
        assert_eq!(s.recall(), 0.0);
        assert_eq!(s.f1(), 0.0);
    }
}
