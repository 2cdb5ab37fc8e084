//! RFC 8092 large-community analysis — the paper's footnote-1 future work.
//!
//! The paper restricts its analyses to classic 32-bit communities and notes
//! that networks with 4-byte ASNs cannot encode their identity in the
//! classic owner half: they either bundle under *private* 16-bit ASNs
//! (producing the always-off-path communities of §4.3) or adopt RFC 8092
//! large communities. This module runs the §4-style accounting on the
//! large-community channel and quantifies the substitution effect: as
//! adoption grows, informational signal moves out of the anonymous
//! private-ASN pool and into attributable large communities.

use crate::observation::ObservationSet;
use crate::stats::Ecdf;
use bgpworms_types::{Asn, LargeCommunity};
use std::collections::BTreeSet;

/// §4-style accounting for the large-community channel.
#[derive(Debug, Clone, Default)]
pub struct LargeCommunityAnalysis {
    /// Announcements inspected.
    pub announcements: u64,
    /// Announcements carrying ≥ 1 large community.
    pub with_large: u64,
    /// Distinct large communities.
    pub unique: BTreeSet<LargeCommunity>,
    /// Distinct Global Administrator ASNs.
    pub owners: BTreeSet<Asn>,
    /// Of those owners, the ones that genuinely need RFC 8092 (4-byte ASN).
    pub four_byte_owners: BTreeSet<Asn>,
    /// Propagation distances (hops from the conservatively assumed tagger
    /// position, as in Fig 5a) for on-path large communities.
    distances: Vec<f64>,
    /// Announcements carrying classic communities owned by private ASNs —
    /// the bundling fallback the paper observed (§4.3).
    pub with_private_bundles: u64,
    /// Distinct private 16-bit owner ASNs seen in classic communities.
    pub private_bundle_owners: BTreeSet<Asn>,
}

impl LargeCommunityAnalysis {
    /// Runs the accounting over a parsed observation set.
    pub fn compute(set: &ObservationSet) -> Self {
        let mut analysis = LargeCommunityAnalysis::default();
        for obs in set.announcements() {
            analysis.announcements += 1;
            if !obs.large_communities().is_empty() {
                analysis.with_large += 1;
            }
            for &lc in obs.large_communities() {
                analysis.unique.insert(lc);
                let owner = lc.owner();
                analysis.owners.insert(owner);
                if owner.as_u16().is_none() {
                    analysis.four_byte_owners.insert(owner);
                }
                // Propagation distance: position of the owner on the path
                // (conservative tagger assumption, §4.3); off-path owners
                // contribute the full path length.
                let d = obs
                    .position_of(owner)
                    .unwrap_or(obs.path().len().saturating_sub(1));
                analysis.distances.push(d as f64);
            }
            let mut private_here = false;
            for &c in obs.communities() {
                if c.owner_is_private() {
                    private_here = true;
                    analysis.private_bundle_owners.insert(c.owner());
                }
            }
            if private_here {
                analysis.with_private_bundles += 1;
            }
        }
        analysis
    }

    /// Fraction of announcements carrying large communities.
    pub fn large_fraction(&self) -> f64 {
        if self.announcements == 0 {
            0.0
        } else {
            self.with_large as f64 / self.announcements as f64
        }
    }

    /// Fraction of announcements carrying private-ASN classic bundles.
    pub fn private_bundle_fraction(&self) -> f64 {
        if self.announcements == 0 {
            0.0
        } else {
            self.with_private_bundles as f64 / self.announcements as f64
        }
    }

    /// Propagation-distance ECDF for large communities (Fig 5a analogue).
    pub fn distance_ecdf(&self) -> Ecdf {
        Ecdf::new(self.distances.iter().copied())
    }

    /// Renders the analysis as text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "announcements: {}   with large communities: {} ({:.1}%)",
            self.announcements,
            self.with_large,
            self.large_fraction() * 100.0
        );
        let _ = writeln!(
            out,
            "unique large communities: {}   owners: {} (4-byte: {})",
            self.unique.len(),
            self.owners.len(),
            self.four_byte_owners.len()
        );
        let _ = writeln!(
            out,
            "private-ASN classic bundles: {} announcements ({:.1}%), {} private owners",
            self.with_private_bundles,
            self.private_bundle_fraction() * 100.0,
            self.private_bundle_owners.len()
        );
        let ecdf = self.distance_ecdf();
        if !ecdf.is_empty() {
            let _ = writeln!(out, "\nlarge-community propagation distance ECDF:");
            for hops in 0..=6u32 {
                let _ = writeln!(
                    out,
                    "  {hops} hops\tF = {:.3}",
                    ecdf.fraction_at(f64::from(hops))
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::UpdateObservation;
    use bgpworms_types::Community;

    fn obs(
        prefix: &str,
        path: &[u32],
        comms: &[(u16, u16)],
        large: &[(u32, u32)],
    ) -> UpdateObservation {
        UpdateObservation {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            time: 0,
            peer: Asn::new(path[0]),
            prefix: prefix.parse().unwrap(),
            path: path.iter().map(|&n| Asn::new(n)).collect(),
            raw_hop_count: path.len(),
            prepends: vec![],
            communities: comms.iter().map(|&(a, v)| Community::new(a, v)).collect(),
            large_communities: large
                .iter()
                .map(|&(g, v)| LargeCommunity::new(g, v, 0))
                .collect(),
            is_withdrawal: false,
        }
    }

    fn set(observations: Vec<UpdateObservation>) -> ObservationSet {
        ObservationSet::from_observations(observations, vec![("RIS".into(), "rrc00".into(), 1)])
    }

    #[test]
    fn counts_large_and_private_channels() {
        let s = set(vec![
            // 4-byte origin with a large community
            obs("10.0.0.0/16", &[3, 2, 400_001], &[], &[(400_001, 100)]),
            // 16-bit origin bundling under a private ASN
            obs("20.0.0.0/16", &[3, 2, 7], &[(64_600, 200)], &[]),
            // plain announcement
            obs("30.0.0.0/16", &[3, 2, 8], &[(8, 100)], &[]),
        ]);
        let a = LargeCommunityAnalysis::compute(&s);
        assert_eq!(a.announcements, 3);
        assert_eq!(a.with_large, 1);
        assert!((a.large_fraction() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.unique.len(), 1);
        assert_eq!(a.four_byte_owners.len(), 1);
        assert!(a.four_byte_owners.contains(&Asn::new(400_001)));
        assert_eq!(a.with_private_bundles, 1);
        assert_eq!(a.private_bundle_owners.len(), 1);
    }

    #[test]
    fn distance_uses_owner_position() {
        // Owner at the path origin: distance = 2 (two hops to the peer).
        let s = set(vec![obs(
            "10.0.0.0/16",
            &[3, 2, 400_001],
            &[],
            &[(400_001, 100)],
        )]);
        let a = LargeCommunityAnalysis::compute(&s);
        let ecdf = a.distance_ecdf();
        assert_eq!(ecdf.len(), 1);
        assert_eq!(ecdf.fraction_at(1.9), 0.0);
        assert_eq!(ecdf.fraction_at(2.0), 1.0);
    }

    #[test]
    fn render_mentions_key_numbers() {
        let s = set(vec![obs(
            "10.0.0.0/16",
            &[3, 2, 400_001],
            &[],
            &[(400_001, 100)],
        )]);
        let text = LargeCommunityAnalysis::compute(&s).render();
        assert!(text.contains("with large communities: 1"));
        assert!(text.contains("4-byte: 1"));
    }

    #[test]
    fn empty_set_is_all_zeroes() {
        let a = LargeCommunityAnalysis::compute(&set(vec![]));
        assert_eq!(a.large_fraction(), 0.0);
        assert_eq!(a.private_bundle_fraction(), 0.0);
        assert!(a.distance_ecdf().is_empty());
    }
}
