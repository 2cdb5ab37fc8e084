//! Dataset overview statistics — Table 1 of the paper: per platform, the
//! message volume, prefix counts, collector/peer counts, distinct
//! communities, and the origin/transit/stub AS breakdown.

use crate::observation::ObservationSet;
use crate::table::{text_table, thousands};
use bgpworms_types::Asn;
use std::collections::BTreeSet;

/// One platform row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformStats {
    /// Platform name (RIS / RV / IS / PCH, plus a Total row).
    pub platform: String,
    /// Raw BGP messages.
    pub messages: u64,
    /// Distinct IPv4 prefixes.
    pub v4_prefixes: usize,
    /// Distinct IPv6 prefixes.
    pub v6_prefixes: usize,
    /// Number of collectors.
    pub collectors: usize,
    /// Peering sessions (distinct (collector, peer) pairs — "IP peers").
    pub ip_peers: usize,
    /// Distinct peer ASes.
    pub as_peers: usize,
    /// Distinct communities.
    pub communities: usize,
    /// Distinct ASes seen anywhere on paths.
    pub ases: usize,
    /// ASes seen as path origin.
    pub origin: usize,
    /// ASes seen in a non-origin path position ("transit", §4.3 footnote:
    /// neither the origin nor the collector).
    pub transit: usize,
    /// ASes never seen in a transit position.
    pub stub: usize,
}

/// The full Table 1: per-platform rows plus the union row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetOverview {
    /// One row per platform, then the Total row.
    pub rows: Vec<PlatformStats>,
}

/// One row: over the sessions of `platform`, or over all of them.
fn stats_for(name: &str, set: &ObservationSet, platform: Option<&str>) -> PlatformStats {
    let sessions = set.sessions_of(platform);
    let n_asns = set.asns().len();
    let mut prefixes = vec![false; set.prefixes().len()];
    let mut communities = vec![false; set.communities().len()];
    let mut origin = vec![false; n_asns];
    let mut transit = vec![false; n_asns];
    // (session, peer) pairs seen, session-major.
    let mut peerings = vec![false; sessions.len() * n_asns];

    for obs in set.iter().filter(|o| sessions[o.session() as usize]) {
        peerings[obs.session() as usize * n_asns + obs.peer_id() as usize] = true;
        prefixes[obs.prefix_id() as usize] = true;
        for &c in obs.community_ids() {
            communities[c as usize] = true;
        }
        if let Some((&last, rest)) = obs.path_ids().split_last() {
            origin[last as usize] = true;
            for &asn in rest {
                transit[asn as usize] = true;
            }
        }
    }

    // "IP peers" go by collector name, as the collectors themselves do.
    let ip_peers: BTreeSet<(&str, Asn)> = (peerings.iter().enumerate())
        .filter(|(_, &seen)| seen)
        .map(|(k, _)| {
            (
                set.sessions()[k / n_asns].1.as_str(),
                set.asns()[k % n_asns],
            )
        })
        .collect();
    let as_peers: BTreeSet<Asn> = ip_peers.iter().map(|&(_, peer)| peer).collect();
    let archives =
        || (set.messages.iter()).filter(|(p, _, _)| platform.is_none_or(|want| p == want));
    // collectors that saw zero observations still count via messages list
    let collectors: BTreeSet<&str> = (ip_peers.iter().map(|&(collector, _)| collector))
        .chain(archives().map(|(_, collector, _)| collector.as_str()))
        .collect();

    let count = |flags: &[bool]| flags.iter().filter(|&&f| f).count();
    let seen_prefixes = || {
        (set.prefixes().iter().zip(&prefixes))
            .filter(|(_, &seen)| seen)
            .map(|(p, _)| p)
    };
    let ases = origin
        .iter()
        .zip(&transit)
        .filter(|(&o, &t)| o || t)
        .count();
    PlatformStats {
        platform: name.to_string(),
        messages: archives().map(|(_, _, n)| n).sum(),
        v4_prefixes: seen_prefixes().filter(|p| p.is_v4()).count(),
        v6_prefixes: seen_prefixes().filter(|p| !p.is_v4()).count(),
        collectors: collectors.len(),
        ip_peers: ip_peers.len(),
        as_peers: as_peers.len(),
        communities: count(&communities),
        ases,
        origin: count(&origin),
        transit: count(&transit),
        stub: ases - count(&transit),
    }
}

impl DatasetOverview {
    /// Computes Table 1 from a parsed observation set.
    pub fn compute(set: &ObservationSet) -> Self {
        let mut rows = Vec::new();
        for platform in set.platforms() {
            rows.push(stats_for(&platform, set, Some(&platform)));
        }
        rows.push(stats_for("Total", set, None));
        DatasetOverview { rows }
    }

    /// Renders the table in the paper's column order.
    pub fn render(&self) -> String {
        let headers = [
            "Source",
            "Messages",
            "IPv4 pfx",
            "IPv6 pfx",
            "Collectors",
            "IP peers",
            "AS peers",
            "Communities",
            "ASes",
            "Origin",
            "Transit",
            "Stub",
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.platform.clone(),
                    thousands(r.messages),
                    thousands(r.v4_prefixes as u64),
                    thousands(r.v6_prefixes as u64),
                    thousands(r.collectors as u64),
                    thousands(r.ip_peers as u64),
                    thousands(r.as_peers as u64),
                    thousands(r.communities as u64),
                    thousands(r.ases as u64),
                    thousands(r.origin as u64),
                    thousands(r.transit as u64),
                    thousands(r.stub as u64),
                ]
            })
            .collect();
        text_table(&headers, &rows)
    }

    /// The Total row.
    pub fn total(&self) -> &PlatformStats {
        self.rows.last().expect("total row always present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::UpdateObservation;
    use bgpworms_types::{Community, Prefix};

    fn obs(
        platform: &str,
        collector: &str,
        peer: u32,
        path: &[u32],
        comms: &[(u16, u16)],
        prefix: &str,
    ) -> UpdateObservation {
        UpdateObservation {
            platform: platform.into(),
            collector: collector.into(),
            time: 0,
            peer: Asn::new(peer),
            prefix: prefix.parse().unwrap(),
            path: path.iter().map(|&n| Asn::new(n)).collect(),
            raw_hop_count: path.len(),
            prepends: Vec::new(),
            large_communities: Vec::new(),
            communities: comms.iter().map(|&(a, v)| Community::new(a, v)).collect(),
            is_withdrawal: false,
        }
    }

    fn sample_set() -> ObservationSet {
        sample_set_and(vec![])
    }

    fn sample_set_and(more: Vec<UpdateObservation>) -> ObservationSet {
        let mut observations = vec![
            obs("RIS", "rrc00", 3, &[3, 2, 1], &[(2, 100)], "10.0.0.0/16"),
            obs(
                "RIS",
                "rrc00",
                3,
                &[3, 2, 4],
                &[(2, 100), (3, 5)],
                "20.0.0.0/16",
            ),
            obs("RIS", "rrc01", 5, &[5, 1], &[], "10.0.0.0/16"),
            obs(
                "RV",
                "route-views2",
                6,
                &[6, 2, 1],
                &[(9, 1)],
                "2001:db8::/32",
            ),
        ];
        observations.extend(more);
        ObservationSet::from_observations(
            observations,
            vec![
                ("RIS".into(), "rrc00".into(), 2),
                ("RIS".into(), "rrc01".into(), 1),
                ("RV".into(), "route-views2".into(), 1),
            ],
        )
    }

    #[test]
    fn per_platform_and_total_rows() {
        let overview = DatasetOverview::compute(&sample_set());
        assert_eq!(overview.rows.len(), 3); // RIS, RV, Total
        let ris = &overview.rows[0];
        assert_eq!(ris.platform, "RIS");
        assert_eq!(ris.messages, 3);
        assert_eq!(ris.collectors, 2);
        assert_eq!(ris.ip_peers, 2);
        assert_eq!(ris.as_peers, 2);
        assert_eq!(ris.v4_prefixes, 2);
        assert_eq!(ris.v6_prefixes, 0);
        assert_eq!(ris.communities, 2); // 2:100 and 3:5
                                        // paths: {3,2,1,4,5}; origins {1,4}; transit {3,2,5}? positions:
                                        // [3,2,1]: origin 1, transit 3,2; [3,2,4]: origin 4, transit 3,2;
                                        // [5,1]: origin 1, transit 5.
        assert_eq!(ris.ases, 5);
        assert_eq!(ris.origin, 2);
        assert_eq!(ris.transit, 3);
        assert_eq!(ris.stub, 2);

        let total = overview.total();
        assert_eq!(total.platform, "Total");
        assert_eq!(total.messages, 4);
        assert_eq!(total.v6_prefixes, 1);
        assert_eq!(total.collectors, 3);
        assert_eq!(total.communities, 3);
    }

    #[test]
    fn render_contains_all_platforms() {
        let overview = DatasetOverview::compute(&sample_set());
        let text = overview.render();
        assert!(text.contains("RIS"));
        assert!(text.contains("RV"));
        assert!(text.contains("Total"));
        assert!(text.contains("Communities"));
    }

    #[test]
    fn withdrawals_count_prefixes_but_not_paths() {
        let set = sample_set_and(vec![UpdateObservation {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            time: 1,
            peer: Asn::new(3),
            prefix: "30.0.0.0/16".parse::<Prefix>().unwrap(),
            path: vec![],
            raw_hop_count: 0,
            prepends: Vec::new(),
            large_communities: Vec::new(),
            communities: vec![],
            is_withdrawal: true,
        }]);
        let overview = DatasetOverview::compute(&set);
        let ris = &overview.rows[0];
        assert_eq!(ris.v4_prefixes, 3, "withdrawn prefix counted");
        assert_eq!(ris.ases, 5, "no path contribution from withdrawals");
    }
}
