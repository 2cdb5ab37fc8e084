//! Community filtering inference — §4.4 / Fig 6: per directed AS edge,
//! indication counts that communities are *forwarded* vs. *filtered*.
//!
//! The heuristic follows the paper's Figure 6(a) construction. For each
//! prefix, consider all announcements together. A community `c = A:x` on a
//! path `… Y X … A …` (collector-first) shows that every AS between the
//! (conservatively assumed) tagger `A` and the peer has seen and forwarded
//! `c`: each consecutive pair contributes a *forwarded* indication to the
//! edge it crossed. If another announcement for the same prefix passes
//! through an AS `X` known to have had `c`, toward a different next hop
//! `Z`, and does *not* carry `c`, the edge `(X, Z)` receives a *filtered*
//! indication.

use crate::observation::ObservationSet;
use crate::stats::log1p10;
use bgpworms_types::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// Indication counters for one directed AS edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeIndications {
    /// Evidence the edge forwards communities.
    pub forwarded: u64,
    /// Evidence the edge filters communities.
    pub filtered: u64,
}

/// The filtering analysis over all prefixes.
#[derive(Debug, Clone, Default)]
pub struct FilteringAnalysis {
    /// Directed edge → indication counts.
    pub edges: BTreeMap<(Asn, Asn), EdgeIndications>,
    /// Every directed AS edge observed on any announcement path — the
    /// paper's "almost 400,000 AS edges" denominator.
    pub all_edges: BTreeSet<(Asn, Asn)>,
}

impl FilteringAnalysis {
    /// Runs the indication-count heuristic: per prefix, two passes over the
    /// group's dense ids ([`ObservationSet::groups`]).
    pub fn compute(set: &ObservationSet) -> Self {
        const NONE: u32 = u32::MAX;
        let words = set.asns().len().div_ceil(64);
        let mut counts = vec![EdgeIndications::default(); set.edges().len()];

        // Scratch of one prefix, emptied after it. `held` lists the
        // communities with a holder set; `slot[c]` says which `words` words
        // of `holders` are c's; `held_by[a]` is the run of (sorted) `held`
        // that AS a owns.
        let mut held: Vec<u32> = Vec::new();
        let mut holders: Vec<u64> = Vec::new();
        let mut slot = vec![NONE; set.communities().len()];
        let mut held_by = vec![0..0; set.asns().len()];

        for (_, rows) in set.groups() {
            // Which ASes are known to have held community c (between tagger
            // and peer on some carrying path)?
            for &i in rows {
                let obs = set.row(i as usize);
                let path = obs.path_ids();
                for tag in obs.tags() {
                    let Some(tagger_idx) = tag.owner_pos else {
                        continue;
                    };
                    if slot[tag.id as usize] == NONE {
                        slot[tag.id as usize] = held.len() as u32;
                        held.push(tag.id);
                        holders.resize(holders.len() + words, 0);
                    }
                    let holder_set = &mut holders[slot[tag.id as usize] as usize * words..];
                    for &asn in &path[..=tagger_idx] {
                        holder_set[asn as usize / 64] |= 1 << (asn % 64);
                    }
                }
            }
            // Community ids ascend owner-major: one run of `held` per owner.
            held.sort_unstable();
            for (k, &c) in held.iter().enumerate() {
                let run = &mut held_by[set.owner_id(c) as usize];
                if run.start == run.end {
                    run.start = k;
                }
                run.end = k + 1;
            }

            // Forward / filter indications per (community, announcement).
            // If the tagger is not even on a path, the community plausibly
            // never travelled there and its absence is no evidence of
            // filtering — so an announcement visits only the communities
            // whose owner sits on its path, at the owner's first position.
            for &i in rows {
                let obs = set.row(i as usize);
                let (path, edges) = (obs.path_ids(), obs.edge_ids());
                for (tagger_pos, &owner) in path.iter().enumerate() {
                    let run = held_by[owner as usize].clone();
                    if run.is_empty() || path[..tagger_pos].contains(&owner) {
                        continue;
                    }
                    for &c in &held[run] {
                        let carries = obs.community_ids().contains(&c);
                        let holder_set = &holders[slot[c as usize] as usize * words..];
                        // Only edges between the tagger and the monitor are
                        // informative on this path: walk the consecutive
                        // pairs (X at j+1 exports to Z at j) below it.
                        for j in 0..tagger_pos {
                            let x = path[j + 1];
                            if x == owner {
                                // The tagger adding its own community is not a
                                // forwarding decision about foreign communities.
                                continue;
                            }
                            if holder_set[x as usize / 64] >> (x % 64) & 1 == 0 {
                                continue;
                            }
                            let e = &mut counts[edges[j] as usize];
                            if carries {
                                e.forwarded += 1;
                            } else {
                                e.filtered += 1;
                            }
                        }
                    }
                }
            }

            for &c in &held {
                slot[c as usize] = NONE;
                held_by[set.owner_id(c) as usize] = 0..0;
            }
            held.clear();
            holders.clear();
        }

        FilteringAnalysis {
            edges: (set.edges().iter().zip(&counts))
                .filter(|(_, e)| e.forwarded + e.filtered > 0)
                .map(|(&edge, &e)| (edge, e))
                .collect(),
            all_edges: set.edges().iter().copied().collect(),
        }
    }

    /// Fraction of *all observed AS edges* with ≥1 forwarding indication
    /// and with ≥1 filtering indication, restricted to edges carrying at
    /// least `min_total` indications (the paper reports 4 % / 10 % overall
    /// and 6 % / 15 % for edges with ≥ 100 paths).
    pub fn fractions(&self, min_total: u64) -> (f64, f64) {
        if self.all_edges.is_empty() {
            return (0.0, 0.0);
        }
        let denom = self.all_edges.len() as f64;
        let fwd = self
            .edges
            .values()
            .filter(|e| e.forwarded + e.filtered >= min_total && e.forwarded > 0)
            .count();
        let fil = self
            .edges
            .values()
            .filter(|e| e.forwarded + e.filtered >= min_total && e.filtered > 0)
            .count();
        (fwd as f64 / denom, fil as f64 / denom)
    }

    /// Fig 6(b)'s hex-bin matrix: log10(count+1) buckets of
    /// (filtered, forwarded) per edge → number of edges in each bucket.
    pub fn hexbin(&self, bins_per_decade: usize) -> BTreeMap<(usize, usize), usize> {
        let mut out: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let scale = bins_per_decade as f64;
        for e in self.edges.values() {
            if e.forwarded == 0 && e.filtered == 0 {
                continue;
            }
            let x = (log1p10(e.filtered) * scale).floor() as usize;
            let y = (log1p10(e.forwarded) * scale).floor() as usize;
            *out.entry((x, y)).or_insert(0) += 1;
        }
        out
    }

    /// Indication counters for one directed edge, if any were recorded.
    pub fn edge(&self, from: Asn, to: Asn) -> Option<&EdgeIndications> {
        self.edges.get(&(from, to))
    }

    /// Edges that apparently strip everything (filter indications only).
    pub fn strict_filterers(&self) -> impl Iterator<Item = (Asn, Asn)> + '_ {
        self.edges
            .iter()
            .filter(|(_, e)| e.filtered > 0 && e.forwarded == 0)
            .map(|(&k, _)| k)
    }

    /// Edges that apparently forward everything (forward indications only).
    pub fn strict_forwarders(&self) -> impl Iterator<Item = (Asn, Asn)> + '_ {
        self.edges
            .iter()
            .filter(|(_, e)| e.forwarded > 0 && e.filtered == 0)
            .map(|(&k, _)| k)
    }

    /// Edges with both kinds of indication ("mixed picture", §4.4).
    pub fn mixed(&self) -> impl Iterator<Item = (Asn, Asn)> + '_ {
        self.edges
            .iter()
            .filter(|(_, e)| e.forwarded > 0 && e.filtered > 0)
            .map(|(&k, _)| k)
    }
}

/// Business relationship of a directed announcement edge `(exporter,
/// importer)`, from the exporter's point of view — the classification the
/// paper takes from the CAIDA dataset (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RelClass {
    /// Exporter sends to its customer (provider → customer direction).
    ToCustomer,
    /// Exporter sends to its provider (customer → provider direction).
    ToProvider,
    /// Settlement-free peering (includes route-server adjacency).
    Peer,
}

impl RelClass {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            RelClass::ToCustomer => "to-customer",
            RelClass::ToProvider => "to-provider",
            RelClass::Peer => "peer",
        }
    }
}

/// Indication totals for one relationship class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassIndications {
    /// Edges of this class with any indication.
    pub edges: usize,
    /// Edges with ≥ 1 forwarding indication.
    pub forwarding: usize,
    /// Edges with ≥ 1 filtering indication.
    pub filtering: usize,
    /// Edges with both (the "mixed picture").
    pub mixed: usize,
}

impl ClassIndications {
    /// Fraction of this class's edges with forwarding indications.
    fn forwarding_fraction(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.forwarding as f64 / self.edges as f64
        }
    }

    /// Fraction with filtering indications.
    fn filtering_fraction(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.filtering as f64 / self.edges as f64
        }
    }

    /// Fraction with both.
    fn mixed_fraction(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.mixed as f64 / self.edges as f64
        }
    }
}

/// §4.4's future work: correlate the per-edge filter/forward indications
/// with the business relationship of the edge. The paper found CAIDA's
/// three-way classification "too coarse grained … for a conclusive
/// picture"; with ground-truth relationships the simulator can check what
/// signal exists at all.
#[derive(Debug, Clone, Default)]
pub struct RelationshipCorrelation {
    /// Totals per relationship class.
    per_class: BTreeMap<RelClass, ClassIndications>,
    /// Edges whose relationship the lookup could not classify.
    unclassified: usize,
}

impl RelationshipCorrelation {
    /// Correlates `analysis` with relationships provided by `classify`
    /// (typically `Topology::role_of` or a parsed CAIDA serial-1 file).
    /// The closure receives the announcement-direction edge `(exporter,
    /// importer)`.
    pub fn compute<F>(analysis: &FilteringAnalysis, classify: F) -> Self
    where
        F: Fn(Asn, Asn) -> Option<RelClass>,
    {
        let mut out = RelationshipCorrelation::default();
        for (&(exporter, importer), e) in &analysis.edges {
            if e.forwarded == 0 && e.filtered == 0 {
                continue;
            }
            let Some(class) = classify(exporter, importer) else {
                out.unclassified += 1;
                continue;
            };
            let c = out.per_class.entry(class).or_default();
            c.edges += 1;
            if e.forwarded > 0 {
                c.forwarding += 1;
            }
            if e.filtered > 0 {
                c.filtering += 1;
            }
            if e.forwarded > 0 && e.filtered > 0 {
                c.mixed += 1;
            }
        }
        out
    }

    /// Renders the correlation table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "relationship   edges  forwarding  filtering  mixed");
        let _ = writeln!(out, "-----------------------------------------------------");
        for (class, c) in &self.per_class {
            let _ = writeln!(
                out,
                "{:<13} {:>6}  {:>9.1}%  {:>8.1}%  {:>4.1}%",
                class.label(),
                c.edges,
                c.forwarding_fraction() * 100.0,
                c.filtering_fraction() * 100.0,
                c.mixed_fraction() * 100.0
            );
        }
        let _ = writeln!(out, "unclassified edges: {}", self.unclassified);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::written::{announce as obs, set};

    /// The paper's Fig 6(a) example: prefix p originated at AS1; A1 via
    /// AS4 carries AS2:x, A2 via AS5 carries nothing.
    fn paper_example() -> ObservationSet {
        set(&[
            obs(4, &[4, 3, 2, 1], &[(2, 9)], "10.0.0.0/16"),
            obs(5, &[5, 3, 2, 1], &[], "10.0.0.0/16"),
        ])
    }

    #[test]
    fn forward_and_filter_indications_match_paper_example() {
        let analysis = FilteringAnalysis::compute(&paper_example());
        // A1: community AS2:x, tagger at index 2. AS3 forwarded it to AS4:
        // forward indication on (AS3, AS4).
        let fwd = analysis.edges[&(Asn::new(3), Asn::new(4))];
        assert_eq!(fwd.forwarded, 1);
        assert_eq!(fwd.filtered, 0);
        // A2: same prefix through AS3 toward AS5 without the community:
        // filter indication on (AS3, AS5).
        let fil = analysis.edges[&(Asn::new(3), Asn::new(5))];
        assert_eq!(fil.filtered, 1);
        assert_eq!(fil.forwarded, 0);
        // The tagger's own edge (AS2→AS3) is not a foreign-forwarding
        // decision.
        assert!(!analysis.edges.contains_key(&(Asn::new(2), Asn::new(3))));
    }

    #[test]
    fn classification_helpers() {
        let analysis = FilteringAnalysis::compute(&paper_example());
        let forwarders: Vec<_> = analysis.strict_forwarders().collect();
        assert_eq!(forwarders, vec![(Asn::new(3), Asn::new(4))]);
        let filterers: Vec<_> = analysis.strict_filterers().collect();
        assert_eq!(filterers, vec![(Asn::new(3), Asn::new(5))]);
        assert_eq!(analysis.mixed().count(), 0);
    }

    #[test]
    fn mixed_edges_detected() {
        // Same edge forwards one community and filters another.
        let set = set(&[
            obs(4, &[4, 3, 2, 1], &[(2, 9)], "10.0.0.0/16"),
            obs(4, &[4, 3, 2, 1], &[(2, 8)], "20.0.0.0/16"),
            obs(5, &[5, 3, 2, 1], &[(2, 8)], "20.0.0.0/16"),
            obs(5, &[5, 3, 2, 1], &[], "10.0.0.0/16"),
        ]);
        let analysis = FilteringAnalysis::compute(&set);
        let e35 = analysis.edges[&(Asn::new(3), Asn::new(5))];
        assert!(e35.forwarded > 0 && e35.filtered > 0);
        assert_eq!(analysis.mixed().count(), 1);
    }

    #[test]
    fn fractions_use_all_edges_denominator() {
        let analysis = FilteringAnalysis::compute(&paper_example());
        // Path edges: (3,4),(2,3),(1,2),(3,5) → 4 observed edges, one with
        // a forward indication and one with a filter indication.
        assert_eq!(analysis.all_edges.len(), 4);
        let (fwd, fil) = analysis.fractions(0);
        assert_eq!(fwd, 0.25);
        assert_eq!(fil, 0.25);
        let (fwd, fil) = analysis.fractions(100);
        assert_eq!((fwd, fil), (0.0, 0.0), "no edge has 100 indications");
    }

    #[test]
    fn relationship_correlation_classifies_edges() {
        // (3,4) has a forward indication, (3,5) a filter indication.
        let analysis = FilteringAnalysis::compute(&paper_example());
        let corr = RelationshipCorrelation::compute(&analysis, |from, to| {
            // Pretend 3→4 is a customer export and 3→5 a peer export.
            match (from.get(), to.get()) {
                (3, 4) => Some(RelClass::ToCustomer),
                (3, 5) => Some(RelClass::Peer),
                _ => None,
            }
        });
        let cust = corr.per_class[&RelClass::ToCustomer];
        assert_eq!((cust.edges, cust.forwarding, cust.filtering), (1, 1, 0));
        let peer = corr.per_class[&RelClass::Peer];
        assert_eq!((peer.edges, peer.forwarding, peer.filtering), (1, 0, 1));
        assert_eq!(corr.unclassified, 0);
        let text = corr.render();
        assert!(text.contains("to-customer"));
        assert!(text.contains("peer"));
    }

    #[test]
    fn relationship_correlation_counts_unclassified() {
        let analysis = FilteringAnalysis::compute(&paper_example());
        let corr = RelationshipCorrelation::compute(&analysis, |_, _| None);
        assert_eq!(corr.unclassified, 2);
        assert!(corr.per_class.is_empty());
    }

    #[test]
    fn class_indication_fractions() {
        let c = ClassIndications {
            edges: 4,
            forwarding: 2,
            filtering: 3,
            mixed: 1,
        };
        assert!((c.forwarding_fraction() - 0.5).abs() < 1e-9);
        assert!((c.filtering_fraction() - 0.75).abs() < 1e-9);
        assert!((c.mixed_fraction() - 0.25).abs() < 1e-9);
        let empty = ClassIndications::default();
        assert_eq!(empty.forwarding_fraction(), 0.0);
    }

    #[test]
    fn hexbin_buckets_by_log_counts() {
        let mut analysis = FilteringAnalysis::default();
        analysis.edges.insert(
            (Asn::new(1), Asn::new(2)),
            EdgeIndications {
                forwarded: 9, // log10(10) = 1.0
                filtered: 0,  // log10(1) = 0.0
            },
        );
        analysis.edges.insert(
            (Asn::new(1), Asn::new(3)),
            EdgeIndications {
                forwarded: 0,
                filtered: 99, // log10(100) = 2.0
            },
        );
        let bins = analysis.hexbin(1);
        assert_eq!(bins[&(0, 1)], 1);
        assert_eq!(bins[&(2, 0)], 1);
    }
}
