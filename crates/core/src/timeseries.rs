//! Community use over time — Fig 3: unique communities, unique ASes
//! encoded in communities, absolute community count, and table size, per
//! yearly snapshot.

use crate::observation::ObservationSet;

/// One snapshot's aggregate numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Label (e.g. the year).
    pub label: String,
    /// Distinct communities observed.
    pub unique_communities: usize,
    /// Distinct ASNs in community high halves (assuming the `AS:value`
    /// convention, as the paper does).
    pub unique_asns_in_communities: usize,
    /// Total community instances across all updates.
    pub absolute_communities: u64,
    /// Announcement count (stand-in for "BGP table entries").
    pub table_entries: u64,
}

impl SnapshotStats {
    /// Computes the Fig 3 quantities for one snapshot. The set's tables
    /// hold exactly what its announcements carry, so the two distinct
    /// counts are read off them.
    pub fn compute(label: &str, set: &ObservationSet) -> Self {
        let mut owns = vec![false; set.asns().len()];
        for community in 0..set.communities().len() as u32 {
            owns[set.owner_id(community) as usize] = true;
        }
        SnapshotStats {
            label: label.to_string(),
            unique_communities: set.communities().len(),
            unique_asns_in_communities: owns.iter().filter(|&&o| o).count(),
            absolute_communities: (set.announcements())
                .map(|o| o.communities().len() as u64)
                .sum(),
            table_entries: set.announcements().count() as u64,
        }
    }
}

/// Renders a Fig 3 series as a text table.
pub fn render_series(series: &[SnapshotStats]) -> String {
    use crate::table::{text_table, thousands};
    let headers = [
        "Snapshot",
        "# Unique communities",
        "# Unique ASes in communities",
        "# Absolute communities",
        "# Table entries",
    ];
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            vec![
                s.label.clone(),
                thousands(s.unique_communities as u64),
                thousands(s.unique_asns_in_communities as u64),
                thousands(s.absolute_communities),
                thousands(s.table_entries),
            ]
        })
        .collect();
    text_table(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::written::{announce, set, Written};

    fn obs(comms: &[(u16, u16)]) -> Written {
        announce(3, &[3, 1], comms, "10.0.0.0/16")
    }

    #[test]
    fn snapshot_counts() {
        let set = set(&[obs(&[(1, 1), (1, 2)]), obs(&[(1, 1), (2, 1)]), obs(&[])]);
        let s = SnapshotStats::compute("2018", &set);
        assert_eq!(s.unique_communities, 3);
        assert_eq!(s.unique_asns_in_communities, 2);
        assert_eq!(s.absolute_communities, 4);
        assert_eq!(s.table_entries, 3);
    }

    #[test]
    fn render_has_all_columns() {
        let s = SnapshotStats {
            label: "2018".into(),
            unique_communities: 63_797,
            unique_asns_in_communities: 5_659,
            absolute_communities: 1_000_000,
            table_entries: 967_499,
        };
        let text = render_series(&[s]);
        assert!(text.contains("63,797"));
        assert!(text.contains("Unique ASes"));
    }
}
