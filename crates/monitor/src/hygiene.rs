//! Community-use hygiene: the §8 proposal to "monitor the hygiene of BGP
//! communities use … from the points of view of global BGP collectors".
//!
//! The report is operator-facing: per community-owning AS, how far its
//! communities travel, whether its *action* communities leak past their
//! intended scope, and whether scope-confining well-known communities
//! escape at all. Abuse "might be discouraged by … attribution", so each
//! statistic names the AS it grades.

use crate::dictionary::CommunityDictionary;
use bgpworms_core::ObservationSet;
use bgpworms_types::{Asn, Community};
use std::collections::BTreeMap;
use std::fmt;

/// Letter grade for an AS's community hygiene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HygieneGrade {
    /// No action-community leakage observed.
    A,
    /// Action communities seen ≤ 2 hops past the owner.
    B,
    /// Action communities travel far (> 2 hops) past the owner.
    C,
    /// Action communities observed with the owner entirely off-path —
    /// effectively unscoped propagation.
    D,
}

impl fmt::Display for HygieneGrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HygieneGrade::A => "A",
            HygieneGrade::B => "B",
            HygieneGrade::C => "C",
            HygieneGrade::D => "D",
        };
        f.write_str(s)
    }
}

/// Hygiene statistics for one community-owning AS.
#[derive(Debug, Clone, Default)]
pub struct AsHygiene {
    /// Observations carrying any community of this owner.
    pub observations: u64,
    /// Distinct communities of this owner seen.
    pub distinct_communities: usize,
    /// Of the *action* communities (per the dictionary): observations where
    /// the owner was on the path, at distance ≥ 1 collector-side of it —
    /// i.e. the action tag escaped the AS that should have consumed it.
    pub action_leaks: u64,
    /// Maximum collector-side distance (in AS hops past the owner) any of
    /// this owner's action communities was observed at.
    pub max_action_leak_distance: usize,
    /// Action-community observations where the owner was off-path
    /// entirely.
    pub action_off_path: u64,
}

impl AsHygiene {
    /// The letter grade.
    pub fn grade(&self) -> HygieneGrade {
        if self.action_off_path > 0 {
            HygieneGrade::D
        } else if self.max_action_leak_distance > 2 {
            HygieneGrade::C
        } else if self.action_leaks > 0 {
            HygieneGrade::B
        } else {
            HygieneGrade::A
        }
    }
}

/// The full hygiene report.
#[derive(Debug, Clone, Default)]
pub struct HygieneReport {
    /// Per-owner statistics (owners with ≥ 1 observed community).
    pub per_as: BTreeMap<Asn, AsHygiene>,
    /// Announcements observed carrying NO_EXPORT or NO_ADVERTISE — these
    /// must never cross an eBGP boundary toward a collector.
    pub well_known_leaks: u64,
    /// Blackhole-tagged observations (any owner) that travelled ≥ `far`
    /// hops from the conservative tagger position — the paper's Fig 5a
    /// tail for a class that "should" stay within one hop.
    pub far_blackholes: u64,
    /// Total announcements inspected.
    pub announcements: u64,
}

impl HygieneReport {
    /// Builds the report. `far` is the hop threshold for the blackhole
    /// tail counter (the paper contrasts ≤ 2 hops with the long tail).
    pub fn compute(set: &ObservationSet, dict: &CommunityDictionary, far: usize) -> Self {
        // What the dictionary says, once per distinct community.
        let well_known =
            set.community_flags(|c| c == Community::NO_EXPORT || c == Community::NO_ADVERTISE);
        let is_action = set.community_flags(|c| dict.is_action(c));
        let is_blackhole = set.community_flags(|c| dict.is_blackhole(c));
        // Reserved (65535) and private owners are not gradeable ASes — the
        // paper likewise excludes private ASNs from its off-path accounting
        // (§4.3). Global counters still see their communities below.
        let gradeable: Vec<bool> = (set.asns().iter())
            .map(|owner| owner.get() != 65_535 && !owner.is_private())
            .collect();

        let mut report = HygieneReport::default();
        // Per owner (ASN id) and per community id; folded into `per_as` last.
        let mut per_owner = vec![AsHygiene::default(); set.asns().len()];
        let mut carried = vec![false; set.communities().len()];

        for obs in set.announcements() {
            report.announcements += 1;
            for tag in obs.tags() {
                let c = tag.id as usize;
                report.well_known_leaks += u64::from(well_known[c]);
                let owner = set.owner_id(tag.id) as usize;
                if gradeable[owner] {
                    let entry = &mut per_owner[owner];
                    entry.observations += 1;
                    carried[c] = true;

                    if is_action[c] {
                        match tag.owner_pos {
                            Some(pos) if pos >= 1 => {
                                entry.action_leaks += 1;
                                entry.max_action_leak_distance =
                                    entry.max_action_leak_distance.max(pos);
                            }
                            Some(_) => {}
                            None => entry.action_off_path += 1,
                        }
                    }
                }
                if is_blackhole[c] {
                    // Conservative distance: the owner's position if
                    // on-path, else the whole path (unknown tagger).
                    let travelled = tag.owner_pos.unwrap_or(obs.path().len());
                    if travelled >= far {
                        report.far_blackholes += 1;
                    }
                }
            }
        }
        for (c, _) in carried.iter().enumerate().filter(|(_, &seen)| seen) {
            per_owner[set.owner_id(c as u32) as usize].distinct_communities += 1;
        }
        report.per_as = (set.asns().iter().zip(per_owner))
            .filter(|(_, h)| h.observations > 0)
            .map(|(&owner, h)| (owner, h))
            .collect();
        report
    }

    /// Owners sorted worst-grade-first, then by leak volume.
    pub fn worst_offenders(&self, n: usize) -> Vec<(Asn, &AsHygiene)> {
        let mut v: Vec<(Asn, &AsHygiene)> = self.per_as.iter().map(|(a, h)| (*a, h)).collect();
        v.sort_by(|a, b| {
            b.1.grade()
                .cmp(&a.1.grade())
                .then(b.1.action_off_path.cmp(&a.1.action_off_path))
                .then(b.1.action_leaks.cmp(&a.1.action_leaks))
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }

    /// Distribution of grades over owners.
    pub fn grade_counts(&self) -> BTreeMap<HygieneGrade, usize> {
        let mut out = BTreeMap::new();
        for h in self.per_as.values() {
            *out.entry(h.grade()).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::CommunityKind;
    use bgpworms_core::UpdateObservation;

    fn obs(prefix: &str, path: &[u32], comms: &[(u16, u16)]) -> UpdateObservation {
        UpdateObservation {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            time: 0,
            peer: Asn::new(path.first().copied().unwrap_or(0)),
            prefix: prefix.parse().unwrap(),
            path: path.iter().map(|&n| Asn::new(n)).collect(),
            raw_hop_count: path.len(),
            prepends: vec![],
            large_communities: vec![],
            communities: comms.iter().map(|&(a, v)| Community::new(a, v)).collect(),
            is_withdrawal: false,
        }
    }

    fn set(observations: Vec<UpdateObservation>) -> ObservationSet {
        ObservationSet::from_observations(observations, vec![("RIS".into(), "rrc00".into(), 1)])
    }

    #[test]
    fn clean_owner_grades_a() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(9, 666), CommunityKind::Blackhole);
        // 9's blackhole community seen only with 9 at position 0 (it acted
        // and the collector peers with it directly).
        let s = set(vec![obs("10.0.0.1/32", &[9, 1], &[(9, 666)])]);
        let r = HygieneReport::compute(&s, &d, 3);
        assert_eq!(r.per_as[&Asn::new(9)].grade(), HygieneGrade::A);
        assert_eq!(r.far_blackholes, 0);
    }

    #[test]
    fn leaking_action_community_grades_b_or_c() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(9, 666), CommunityKind::Blackhole);
        // 9 is two hops from the collector peer: the blackhole tag escaped.
        let s = set(vec![obs("10.0.0.1/32", &[3, 2, 9, 1], &[(9, 666)])]);
        let r = HygieneReport::compute(&s, &d, 3);
        let h = &r.per_as[&Asn::new(9)];
        assert_eq!(h.action_leaks, 1);
        assert_eq!(h.max_action_leak_distance, 2);
        assert_eq!(h.grade(), HygieneGrade::B);

        // Four hops → grade C.
        let s = set(vec![obs("10.0.0.1/32", &[5, 4, 3, 2, 9, 1], &[(9, 666)])]);
        let r = HygieneReport::compute(&s, &d, 3);
        assert_eq!(r.per_as[&Asn::new(9)].grade(), HygieneGrade::C);
        assert_eq!(r.far_blackholes, 1, "travelled ≥ 3 hops");
    }

    #[test]
    fn off_path_action_community_grades_d() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(9, 666), CommunityKind::Blackhole);
        let s = set(vec![obs("10.0.0.1/32", &[3, 2, 1], &[(9, 666)])]);
        let r = HygieneReport::compute(&s, &d, 3);
        assert_eq!(r.per_as[&Asn::new(9)].grade(), HygieneGrade::D);
        assert_eq!(r.per_as[&Asn::new(9)].action_off_path, 1);
        assert_eq!(r.far_blackholes, 1, "unknown tagger: whole path counts");
    }

    #[test]
    fn informational_communities_do_not_affect_grades() {
        let d = CommunityDictionary::new(); // 7:100 unknown → informational
        let s = set(vec![obs("10.0.0.0/16", &[3, 2, 1], &[(7, 100)])]);
        let r = HygieneReport::compute(&s, &d, 3);
        assert_eq!(r.per_as[&Asn::new(7)].grade(), HygieneGrade::A);
        assert_eq!(r.per_as[&Asn::new(7)].observations, 1);
        assert_eq!(r.per_as[&Asn::new(7)].distinct_communities, 1);
    }

    #[test]
    fn well_known_leaks_counted() {
        let d = CommunityDictionary::new();
        let s = set(vec![obs(
            "10.0.0.0/16",
            &[3, 2, 1],
            &[(65535, 65281), (65535, 65282)],
        )]);
        let r = HygieneReport::compute(&s, &d, 3);
        assert_eq!(r.well_known_leaks, 2);
    }

    #[test]
    fn worst_offenders_sorted_by_grade() {
        let mut d = CommunityDictionary::new();
        d.insert(Community::new(9, 666), CommunityKind::Blackhole);
        d.insert(Community::new(8, 666), CommunityKind::Blackhole);
        let s = set(vec![
            obs("10.0.0.1/32", &[3, 2, 1], &[(9, 666)]), // 9 → D
            obs("20.0.0.1/32", &[8, 1], &[(8, 666)]),    // 8 → A
        ]);
        let r = HygieneReport::compute(&s, &d, 3);
        let worst = r.worst_offenders(2);
        assert_eq!(worst[0].0, Asn::new(9));
        assert_eq!(worst[1].0, Asn::new(8));
        let grades = r.grade_counts();
        assert_eq!(grades[&HygieneGrade::A], 1);
        assert_eq!(grades[&HygieneGrade::D], 1);
    }
}
