//! Community propagation analysis — the core of §4.3:
//!
//! * on-path vs. off-path attribution of community owners (Table 2);
//! * propagation-distance ECDFs, all communities vs. blackhole
//!   communities (Fig 5a);
//! * relative propagation distance by AS-path length (Fig 5b);
//! * the transit ASes that relay other ASes' communities (the paper's
//!   "2.2 K of 15.5 K transit ASes ⇒ 14 %" headline).
//!
//! Attribution is conservative exactly as in the paper: a community
//! `A:value` seen on path `…, X, A, Y, …` is assumed to have been tagged
//! *by A itself* (not received by A from the origin side), so measured
//! distances are lower bounds. Distances count AS edges from the tagger to
//! the collector's peer **plus the edge to the monitor**; communities owned
//! by the peer itself (distance 1) are included in Fig 5a but excluded from
//! Fig 5b, following the paper.

use crate::observation::{BlackholeDetector, ObservationSet};
use crate::stats::Ecdf;
use bgpworms_types::{Asn, Community};
use std::collections::{BTreeMap, BTreeSet};

/// One distance sample: a (community, prefix, peer)-deduplicated instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceSample {
    /// The community.
    pub community: Community,
    /// AS edges travelled, including the edge to the monitor.
    pub distance: usize,
    /// De-prepended path length (ASes) of the carrying announcement.
    pub path_len: usize,
    /// Classified as a blackhole community.
    pub is_blackhole: bool,
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Platform (or Total).
    pub platform: String,
    /// Distinct community-owner ASes.
    pub total: usize,
    /// Owners that are not direct collector peers.
    pub without_collector_peer: usize,
    /// Owners seen on the AS path of at least one carrying update.
    pub on_path: usize,
    /// Owners seen off-path on at least one carrying update.
    pub off_path: usize,
    /// Off-path owners with public (non-private, non-reserved) ASNs.
    pub off_path_without_private: usize,
}

/// The full propagation analysis.
#[derive(Debug, Clone)]
pub struct PropagationAnalysis {
    /// Deduplicated on-path distance samples, prefix by prefix: each
    /// (community, prefix, peer) once, at its first on-path occurrence in
    /// feed order.
    pub samples: Vec<DistanceSample>,
    /// Table 2 rows (per platform + Total).
    pub table2: Vec<Table2Row>,
    /// ASes that relayed at least one foreign community (not counting
    /// direct collector peers).
    pub forwarders: BTreeSet<Asn>,
    /// All transit ASes in the dataset (non-origin path positions).
    pub transit_ases: BTreeSet<Asn>,
}

/// `true` at the id of every AS peering with a collector in `sessions`.
fn collector_peers(set: &ObservationSet, sessions: &[bool]) -> Vec<bool> {
    let mut peers = vec![false; set.asns().len()];
    for obs in set.iter().filter(|o| sessions[o.session() as usize]) {
        peers[obs.peer_id() as usize] = true;
    }
    peers
}

/// The ASes flagged in `flags`, which is indexed by ASN id.
fn flagged<'a>(set: &'a ObservationSet, flags: &'a [bool]) -> impl Iterator<Item = Asn> + 'a {
    (set.asns().iter().zip(flags))
        .filter(|(_, &flag)| flag)
        .map(|(&asn, _)| asn)
}

impl PropagationAnalysis {
    /// Runs the analysis.
    pub fn compute(set: &ObservationSet, detector: &BlackholeDetector) -> Self {
        let all_sessions = set.sessions_of(None);
        let collector_peers = collector_peers(set, &all_sessions);
        let is_blackhole = set.community_flags(|c| detector.is_blackhole(c));

        let mut forwarders = vec![false; set.asns().len()];
        let mut transit_ases = vec![false; set.asns().len()];

        for obs in set.announcements() {
            let path = obs.path_ids();
            for &asn in &path[..path.len().saturating_sub(1)] {
                transit_ases[asn as usize] = true;
            }
            for tag in obs.tags() {
                let Some(idx) = tag.owner_pos else {
                    continue; // off-path: no tagger on this path
                };
                // Transit forwarders: ASes strictly between the tagger and
                // the collector peer relay a foreign community.
                for &asn in path.get(1..idx).unwrap_or_default() {
                    forwarders[asn as usize] = true;
                }
            }
        }
        let mut samples = Vec::new();
        set.first_tags(
            |tag| tag.owner_pos.is_some(),
            |obs, tag| {
                if let Some(idx) = tag.owner_pos {
                    samples.push(DistanceSample {
                        community: tag.community,
                        distance: idx + 1,
                        path_len: obs.path().len(),
                        is_blackhole: is_blackhole[tag.id as usize],
                    });
                }
            },
        );
        for (forwards, &peers) in forwarders.iter_mut().zip(&collector_peers) {
            *forwards &= !peers;
        }

        // Table 2 per platform + total.
        let mut table2 = Vec::new();
        for platform in set.platforms() {
            table2.push(table2_row(
                &platform,
                set,
                &set.sessions_of(Some(&platform)),
            ));
        }
        table2.push(table2_row("Total", set, &all_sessions));

        PropagationAnalysis {
            samples,
            table2,
            forwarders: flagged(set, &forwarders).collect(),
            transit_ases: flagged(set, &transit_ases).collect(),
        }
    }

    /// Fig 5(a): ECDF of propagation distance over all communities.
    pub fn fig5a_all(&self) -> Ecdf {
        Ecdf::new(self.samples.iter().map(|s| s.distance as f64))
    }

    /// Fig 5(a): ECDF of propagation distance over blackhole communities.
    pub fn fig5a_blackhole(&self) -> Ecdf {
        Ecdf::new(
            self.samples
                .iter()
                .filter(|s| s.is_blackhole)
                .map(|s| s.distance as f64),
        )
    }

    /// Fig 5(b): relative propagation distance ECDF per AS-path length.
    /// Communities of the monitor-adjacent AS (distance 1) are excluded.
    pub fn fig5b(&self) -> BTreeMap<usize, Ecdf> {
        let mut buckets: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            if s.distance <= 1 || s.path_len == 0 {
                continue;
            }
            buckets
                .entry(s.path_len)
                .or_default()
                .push(s.distance as f64 / s.path_len as f64);
        }
        buckets
            .into_iter()
            .map(|(k, v)| (k, Ecdf::new(v)))
            .collect()
    }

    /// The headline ratio: transit ASes relaying foreign communities over
    /// all transit ASes.
    pub fn forwarder_fraction(&self) -> f64 {
        if self.transit_ases.is_empty() {
            return 0.0;
        }
        self.forwarders.len() as f64 / self.transit_ases.len() as f64
    }
}

/// One row over the observations of `sessions` (`true` per session id in).
fn table2_row(platform: &str, set: &ObservationSet, sessions: &[bool]) -> Table2Row {
    let collector_peers = collector_peers(set, sessions);
    let mut on_path = vec![false; set.asns().len()];
    let mut off_path = vec![false; set.asns().len()];

    for obs in set.announcements() {
        if !sessions[obs.session() as usize] {
            continue;
        }
        for tag in obs.tags() {
            let owner = set.owner_id(tag.id) as usize;
            if tag.owner_pos.is_some() {
                on_path[owner] = true;
            } else {
                off_path[owner] = true;
            }
        }
    }

    let owners: Vec<bool> = on_path.iter().zip(&off_path).map(|(a, b)| a | b).collect();
    Table2Row {
        platform: platform.to_string(),
        total: flagged(set, &owners).count(),
        without_collector_peer: (owners.iter().zip(&collector_peers))
            .filter(|(&owner, &peer)| owner && !peer)
            .count(),
        on_path: flagged(set, &on_path).count(),
        off_path: flagged(set, &off_path).count(),
        off_path_without_private: flagged(set, &off_path).filter(|a| a.is_public()).count(),
    }
}

/// Renders Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    use crate::table::text_table;
    let headers = [
        "Source",
        "Total ASes",
        "w/o coll. peer",
        "on-path",
        "off-path",
        "off-path w/o private",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.platform.clone(),
                r.total.to_string(),
                r.without_collector_peer.to_string(),
                r.on_path.to_string(),
                r.off_path.to_string(),
                r.off_path_without_private.to_string(),
            ]
        })
        .collect();
    text_table(&headers, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::written::{announce as obs, set};

    #[test]
    fn distance_is_index_plus_monitor_edge() {
        // Path AS5 AS4 AS3 AS2 AS1 (§4.3's example): community 3:Y is
        // attributed to AS3 at index 2 → distance 3.
        let s = set(&[obs(5, &[5, 4, 3, 2, 1], &[(3, 9), (1, 8)], "10.0.0.0/16")]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        let d: BTreeMap<Community, usize> = a
            .samples
            .iter()
            .map(|s| (s.community, s.distance))
            .collect();
        assert_eq!(d[&Community::new(3, 9)], 3);
        assert_eq!(
            d[&Community::new(1, 8)],
            5,
            "origin community travels whole path"
        );
    }

    #[test]
    fn off_path_communities_have_no_distance() {
        let s = set(&[obs(5, &[5, 1], &[(77, 1)], "10.0.0.0/16")]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        assert!(a.samples.is_empty());
        let total = a.table2.last().unwrap();
        assert_eq!(total.total, 1);
        assert_eq!(total.off_path, 1);
        assert_eq!(total.on_path, 0);
    }

    #[test]
    fn dedup_by_community_prefix_peer() {
        let o = obs(5, &[5, 3, 1], &[(3, 9)], "10.0.0.0/16");
        let s = set(&[o.clone(), o]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        assert_eq!(a.samples.len(), 1);
    }

    /// One (prefix, peer, community) heard off-path, then on-path at two
    /// distances: its first on-path occurrence gives the one sample. On a
    /// second prefix AS3's other value comes at the two distances the
    /// other way round, so a dedup that keeps any other occurrence (the
    /// last, the nearest, the farthest) moves a sample.
    #[test]
    fn the_first_on_path_occurrence_decides_distance_and_length() {
        let s = set(&[
            obs(5, &[5, 1], &[(3, 9)], "10.0.0.0/16"),
            obs(5, &[5, 4, 2, 3, 1], &[(3, 9)], "10.0.0.0/16"),
            obs(5, &[5, 3, 1], &[(3, 10)], "20.0.0.0/16"),
            obs(5, &[5, 3, 1], &[(3, 9)], "10.0.0.0/16"),
            obs(5, &[5, 4, 2, 3, 1], &[(3, 10)], "20.0.0.0/16"),
        ]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        let mut got: Vec<(Community, usize, usize)> = (a.samples.iter())
            .map(|s| (s.community, s.distance, s.path_len))
            .collect();
        got.sort_unstable();
        let want = [(Community::new(3, 9), 4, 5), (Community::new(3, 10), 2, 3)];
        assert_eq!(got, want);
    }

    #[test]
    fn forwarders_are_between_tagger_and_peer() {
        // Community 1:X on path [5,4,3,2,1]: forwarders are 4,3,2 (between
        // origin tagger idx 4 and peer idx 0); peer 5 excluded.
        let s = set(&[obs(5, &[5, 4, 3, 2, 1], &[(1, 7)], "10.0.0.0/16")]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        let expect: BTreeSet<Asn> = [4, 3, 2].map(Asn::new).into();
        assert_eq!(a.forwarders, expect);
        // transit ASes: all non-origin positions = {5,4,3,2}
        assert_eq!(a.transit_ases.len(), 4);
        assert!((a.forwarder_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn peer_owned_communities_do_not_create_forwarders() {
        let s = set(&[obs(5, &[5, 1], &[(5, 1)], "10.0.0.0/16")]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        assert!(a.forwarders.is_empty());
        assert_eq!(a.samples.len(), 1);
        assert_eq!(a.samples[0].distance, 1);
    }

    #[test]
    fn fig5a_blackhole_subset() {
        let s = set(&[
            obs(5, &[5, 3, 1], &[(3, 666)], "10.0.0.0/32"),
            obs(5, &[5, 4, 3, 2, 1], &[(1, 7)], "20.0.0.0/16"),
        ]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        assert_eq!(a.fig5a_all().len(), 2);
        let bh = a.fig5a_blackhole();
        assert_eq!(bh.len(), 1);
        assert_eq!(bh.quantile(1.0), Some(2.0), "3:666 at index 1 → distance 2");
    }

    #[test]
    fn fig5b_excludes_monitor_adjacent_and_normalizes() {
        let s = set(&[obs(5, &[5, 4, 3, 2, 1], &[(5, 1), (3, 9)], "10.0.0.0/16")]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        let fig = a.fig5b();
        let e = &fig[&5];
        assert_eq!(e.len(), 1, "peer-owned community excluded");
        // 3:9 at distance 3 of path length 5 → 0.6
        assert_eq!(e.quantile(1.0), Some(0.6));
    }

    #[test]
    fn table2_excludes_private_from_last_column() {
        let s = set(&[obs(
            5,
            &[5, 1],
            &[(64_512, 1), (77, 1), (5, 2)],
            "10.0.0.0/16",
        )]);
        let a = PropagationAnalysis::compute(&s, &BlackholeDetector::conventional());
        let row = a.table2.last().unwrap();
        assert_eq!(row.total, 3);
        assert_eq!(row.on_path, 1); // AS5
        assert_eq!(row.off_path, 2); // 64512 and 77
        assert_eq!(row.off_path_without_private, 1); // 77 only
        assert_eq!(row.without_collector_peer, 2, "AS5 is the collector peer");
        let rendered = render_table2(&a.table2);
        assert!(rendered.contains("off-path"));
    }
}
