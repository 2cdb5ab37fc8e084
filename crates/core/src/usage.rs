//! Community usage statistics — Fig 4(a): the fraction of updates carrying
//! at least one community per collector, and Fig 4(b): ECDFs of communities
//! and associated ASes per update.

use crate::observation::ObservationSet;
use crate::stats::Ecdf;
use std::collections::BTreeMap;

/// Per-collector usage fractions and per-update distributions.
#[derive(Debug, Clone)]
pub struct UsageAnalysis {
    /// `(platform, collector) → fraction of announcements with ≥1
    /// community` (Fig 4a's per-collector points).
    pub per_collector_fraction: BTreeMap<(String, String), f64>,
    /// ECDF of communities per announcement (Fig 4b, blue dots).
    pub communities_per_update: Ecdf,
    /// ECDF of distinct community-owner ASNs per announcement
    /// (Fig 4b, orange triangles).
    pub asns_per_update: Ecdf,
    /// Overall fraction of announcements with at least one community
    /// (the paper's "more than 75 %").
    pub overall_fraction: f64,
}

impl UsageAnalysis {
    /// Computes the usage statistics over all announcements.
    pub fn compute(set: &ObservationSet) -> Self {
        // (with communities, total) announcements per session id.
        let mut per_session = vec![(0u64, 0u64); set.sessions().len()];
        let mut comm_counts: Vec<f64> = Vec::new();
        let mut asn_counts: Vec<f64> = Vec::new();
        let mut with = 0u64;
        let mut total = 0u64;
        // Per ASN id, the (1-based) announcement that last carried one of
        // its communities: counts an update's distinct owners in one walk.
        let mut last_carried = vec![0u64; set.asns().len()];

        for obs in set.announcements() {
            let entry = &mut per_session[obs.session() as usize];
            entry.1 += 1;
            total += 1;
            if obs.has_communities() {
                entry.0 += 1;
                with += 1;
            }
            comm_counts.push(obs.communities().len() as f64);
            let mut owners = 0u32;
            for &c in obs.community_ids() {
                let last = &mut last_carried[set.owner_id(c) as usize];
                owners += u32::from(*last != total);
                *last = total;
            }
            asn_counts.push(f64::from(owners));
        }

        UsageAnalysis {
            per_collector_fraction: (set.sessions().iter().zip(per_session))
                .filter(|(_, (_, t))| *t > 0)
                .map(|(session, (w, t))| (session.clone(), w as f64 / t as f64))
                .collect(),
            communities_per_update: Ecdf::new(comm_counts),
            asns_per_update: Ecdf::new(asn_counts),
            overall_fraction: if total == 0 {
                0.0
            } else {
                with as f64 / total as f64
            },
        }
    }

    /// Fig 4(a)'s per-platform ECDF over collectors: for each platform, the
    /// sorted fractions of updates with communities.
    pub fn fig4a_series(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((platform, _), frac) in &self.per_collector_fraction {
            out.entry(platform.clone()).or_default().push(*frac);
        }
        for v in out.values_mut() {
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        }
        out
    }

    /// Fraction of announcements with strictly more than `n` communities
    /// (the paper: 51 % have more than two).
    pub fn fraction_more_than(&self, n: u64) -> f64 {
        1.0 - self.communities_per_update.fraction_at(n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::written::{announce, set, Written};

    fn obs(collector: &'static str, n_comms: u16, owners: &[u16]) -> Written {
        let communities: Vec<(u16, u16)> = (0..n_comms)
            .map(|i| (owners[(i as usize) % owners.len().max(1)], i))
            .collect();
        announce(3, &[3, 1], &communities, "10.0.0.0/16").at("RIS", collector)
    }

    #[test]
    fn fractions_and_ecdfs() {
        let set = set(&[
            obs("rrc00", 0, &[]),
            obs("rrc00", 3, &[1, 2]),
            obs("rrc01", 1, &[1]),
            obs("rrc01", 5, &[1, 2, 3]),
        ]);
        let usage = UsageAnalysis::compute(&set);
        assert_eq!(usage.overall_fraction, 0.75);
        assert_eq!(
            usage.per_collector_fraction[&("RIS".into(), "rrc00".into())],
            0.5
        );
        assert_eq!(
            usage.per_collector_fraction[&("RIS".into(), "rrc01".into())],
            1.0
        );
        // communities per update: [0,3,1,5] → fraction ≤ 1 is 0.5
        assert_eq!(usage.communities_per_update.fraction_at(1.0), 0.5);
        // more-than-2 fraction: two of four updates (3 and 5 communities)
        assert_eq!(usage.fraction_more_than(2), 0.5);
        // associated ASNs: [0,2,1,3]
        assert_eq!(usage.asns_per_update.fraction_at(1.0), 0.5);
    }

    #[test]
    fn fig4a_series_sorted_per_platform() {
        let set = set(&[
            obs("rrc00", 1, &[1]),
            obs("rrc01", 0, &[]),
            obs("pch001", 1, &[1]).at("PCH", "pch001"),
        ]);
        let usage = UsageAnalysis::compute(&set);
        let series = usage.fig4a_series();
        assert_eq!(series["RIS"], vec![0.0, 1.0]);
        assert_eq!(series["PCH"], vec![1.0]);
    }

    #[test]
    fn withdrawals_excluded() {
        let set = set(&[obs("rrc00", 0, &[]).withdrawn(), obs("rrc00", 1, &[1])]);
        let usage = UsageAnalysis::compute(&set);
        assert_eq!(usage.overall_fraction, 1.0, "only the announcement counts");
    }
}
