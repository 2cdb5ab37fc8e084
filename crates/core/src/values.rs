//! Popular community values — Fig 5(c): the top-10 low-16 values among
//! on-path and off-path communities, with their (small) share of all
//! observed community instances.

use crate::observation::ObservationSet;
use crate::stats::Histogram;
use crate::table::{pct, text_table};
use bgpworms_types::Community;
use std::collections::HashSet;

/// A ranked value list: `(value, count, share)` rows.
pub type TopList = Vec<(u16, u64, f64)>;

/// Top community values split by on-/off-path attribution.
#[derive(Debug, Clone)]
pub struct TopValues {
    /// Histogram of low-16 values for on-path community instances.
    pub on_path: Histogram<u16>,
    /// Histogram for off-path instances (public owners only, following the
    /// paper's exclusion of private ASNs).
    pub off_path: Histogram<u16>,
}

impl TopValues {
    /// Computes value histograms over deduplicated
    /// (community, prefix, peer) instances.
    pub fn compute(set: &ObservationSet) -> Self {
        // Instances per community id; the histograms fold them by value.
        let mut on_path = vec![0u64; set.communities().len()];
        let mut off_path = vec![0u64; set.communities().len()];
        // lint: order-independent membership tests only, never iterated
        let mut seen: HashSet<(u32, u32, u32)> = HashSet::new();
        for obs in set.announcements() {
            for tag in obs.tags() {
                if !seen.insert((tag.id, obs.prefix_id(), obs.peer_id())) {
                    continue;
                }
                if tag.owner_pos.is_some() {
                    on_path[tag.id as usize] += 1;
                } else {
                    off_path[tag.id as usize] += 1;
                }
            }
        }
        let fold = |counts: &[u64], keep: fn(Community) -> bool| {
            let mut histogram = Histogram::new();
            for (&c, &n) in set.communities().iter().zip(counts) {
                if n > 0 && keep(c) {
                    histogram.add_n(c.value_part(), n);
                }
            }
            histogram
        };
        TopValues {
            on_path: fold(&on_path, |_| true),
            off_path: fold(&off_path, |c| c.owner().is_public()),
        }
    }

    /// The top-`n` values for each class: `(value, count, share)`.
    pub fn top(&self, n: usize) -> (TopList, TopList) {
        (self.off_path.top(n), self.on_path.top(n))
    }

    /// Renders Fig 5(c) as a two-block table (off-path first, as in the
    /// paper's bar order).
    pub fn render(&self, n: usize) -> String {
        let (off, on) = self.top(n);
        let mut rows = Vec::new();
        let max = off.len().max(on.len());
        for i in 0..max {
            let (ov, oc, os) = off
                .get(i)
                .map(|&(v, c, s)| (v.to_string(), c.to_string(), pct(s)))
                .unwrap_or_default();
            let (nv, nc, ns) = on
                .get(i)
                .map(|&(v, c, s)| (v.to_string(), c.to_string(), pct(s)))
                .unwrap_or_default();
            rows.push(vec![ov, oc, os, nv, nc, ns]);
        }
        text_table(
            &[
                "off-path value",
                "count",
                "share",
                "on-path value",
                "count",
                "share",
            ],
            &rows,
        )
    }

    /// Whether the conventional blackhole value 666 ranks in the off-path
    /// top-`n` but not the on-path top-`n` — the asymmetry the paper
    /// highlights (acted-upon communities disappear from on-path view).
    pub fn blackhole_asymmetry(&self, n: usize) -> bool {
        let (off, on) = self.top(n);
        let in_off = off.iter().any(|&(v, _, _)| v == 666);
        let in_on = on.iter().any(|&(v, _, _)| v == 666);
        in_off && !in_on
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::UpdateObservation;
    use bgpworms_types::Asn;

    fn obs(peer: u32, path: &[u32], comms: &[(u16, u16)], prefix: &str) -> UpdateObservation {
        UpdateObservation {
            platform: "RIS".into(),
            collector: "rrc00".into(),
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

    #[test]
    fn splits_on_and_off_path() {
        let set = ObservationSet::from_observations(
            vec![
                obs(5, &[5, 3, 1], &[(3, 100), (77, 666)], "10.0.0.0/16"),
                obs(5, &[5, 3, 1], &[(3, 100)], "20.0.0.0/16"),
                // private off-path owner excluded entirely:
                obs(5, &[5, 1], &[(64_600, 666)], "30.0.0.0/16"),
            ],
            vec![],
        );
        let tv = TopValues::compute(&set);
        assert_eq!(tv.on_path.count(&100), 2);
        assert_eq!(tv.off_path.count(&666), 1);
        assert_eq!(tv.off_path.total(), 1, "private owner dropped");
        assert!(tv.blackhole_asymmetry(10));
    }

    #[test]
    fn dedup_prevents_double_counting() {
        let o = obs(5, &[5, 3, 1], &[(3, 100)], "10.0.0.0/16");
        let set = ObservationSet::from_observations(vec![o.clone(), o], vec![]);
        let tv = TopValues::compute(&set);
        assert_eq!(tv.on_path.count(&100), 1);
    }

    #[test]
    fn render_shows_both_columns() {
        let set = ObservationSet::from_observations(
            vec![obs(5, &[5, 3, 1], &[(3, 100), (99, 500)], "10.0.0.0/16")],
            vec![],
        );
        let tv = TopValues::compute(&set);
        let text = tv.render(5);
        assert!(text.contains("off-path value"));
        assert!(text.contains("100"));
        assert!(text.contains("500"));
    }
}
