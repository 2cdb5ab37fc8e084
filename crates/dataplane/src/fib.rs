//! Forwarding tables: longest-prefix match over the converged control
//! plane, with null routes for blackholed prefixes — **prefix-major**, one
//! shared immutable `(AS, action)` column per prefix, the unit campaigns
//! produce and survey candidates replace (`ARCHITECTURE.md`, "The
//! forwarding plane").

use bgpworms_routesim::{CampaignSink, FinalRoutes, PrefixOutcome, Route, RouteSource, SimResult};
use bgpworms_types::{Asn, Ipv4Prefix, Prefix};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What an AS does with traffic matching a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FibAction {
    /// Hand the packet to the next-hop AS.
    Forward(Asn),
    /// Deliver locally (this AS originates the covering prefix).
    Deliver,
    /// Null-route: a blackhole service accepted an RTBH announcement here
    /// (the "next-hop changed to a null interface" observation of §7.3).
    Null,
}

/// One prefix's entries: every AS holding one, ascending by ASN. Never
/// empty and never mutated once built, so FIBs share it by reference count
/// and a change writes a new column.
type Column = Arc<[(Asn, FibAction)]>;

/// All ASes' forwarding tables.
#[derive(Debug, Clone, Default)]
pub struct Fib {
    columns: BTreeMap<Ipv4Prefix, Column>,
    /// Bit `len` is set when a stored prefix has that length.
    lengths: u64,
}

impl Fib {
    /// Builds FIBs from a simulation result (requires the run to have
    /// retained routes for the prefixes of interest).
    pub fn from_sim(result: &SimResult) -> Self {
        let mut fib = Fib::default();
        for (prefix, finals) in &result.final_routes {
            fib.insert_routes(*prefix, finals);
        }
        fib
    }

    /// Inserts the forwarding action of every AS's converged route for
    /// `prefix` — the one way routes become entries, for [`Fib::from_sim`]
    /// and the streaming [`CampaignSink`] impl below alike. Non-IPv4
    /// prefixes are ignored (data-plane probing is IPv4, like §7.6).
    pub fn insert_routes(&mut self, prefix: Prefix, finals: &FinalRoutes) {
        if let Prefix::V4(p4) = prefix {
            // `finals` ascends by ASN: the column is one pass, no sort.
            let column = finals.iter().map(|(asn, route)| (*asn, action_of(route)));
            self.merge_column(p4, column.collect());
        }
    }

    /// Inserts one entry (used by tests and synthetic scenarios).
    pub fn insert(&mut self, asn: Asn, prefix: Ipv4Prefix, action: FibAction) {
        self.merge_column(prefix, Arc::new([(asn, action)]));
    }

    /// Longest-prefix-match lookup at `asn`.
    pub fn lookup(&self, asn: Asn, ip: u32) -> Option<(Ipv4Prefix, FibAction)> {
        let present = (0..=Ipv4Prefix::MAX_LEN).filter(|len| self.lengths >> len & 1 == 1);
        present.rev().find_map(|len| {
            // lint: infallible `present` stops at `MAX_LEN`
            let p = Ipv4Prefix::new(ip, len).expect("len <= 32");
            let column = self.columns.get(&p)?;
            let at = column.binary_search_by_key(&asn, |&(a, _)| a).ok()?;
            Some((p, column[at].1))
        })
    }

    /// Number of ASes with at least one entry.
    pub fn len(&self) -> usize {
        let entries = self.columns.values().flat_map(|column| column.iter());
        entries.map(|e| e.0).collect::<BTreeSet<Asn>>().len()
    }

    /// True if no AS has any entry.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Merges another FIB into this one (entries from `other` overwrite on
    /// conflict): a baseline FIB (vantage-point prefixes) with an experiment
    /// FIB. A prefix only `other` holds costs one reference count.
    pub fn merge(&mut self, other: &Fib) {
        for (prefix, column) in &other.columns {
            self.merge_column(*prefix, Arc::clone(column));
        }
    }

    /// Lays `over` on `prefix`'s column: shared as it is when the prefix
    /// is new here, else a two-way merge in which `over`'s entries win.
    fn merge_column(&mut self, prefix: Ipv4Prefix, over: Column) {
        if over.is_empty() {
            return;
        }
        self.lengths |= 1 << prefix.len();
        let Some(base) = self.columns.get(&prefix) else {
            self.columns.insert(prefix, over);
            return;
        };
        let mut base = base.iter().copied().peekable();
        let mut merged = Vec::with_capacity(base.len() + over.len());
        for &entry in over.iter() {
            merged.extend(std::iter::from_fn(|| base.next_if(|b| b.0 < entry.0)));
            base.next_if(|b| b.0 == entry.0);
            merged.push(entry);
        }
        merged.extend(base);
        self.columns.insert(prefix, merged.into());
    }

    /// Naïve reference lookup (linear scan) for differential testing.
    pub fn lookup_naive(&self, asn: Asn, ip: u32) -> Option<(Ipv4Prefix, FibAction)> {
        self.columns
            .iter()
            .filter(|(p, _)| p.contains(ip))
            .filter_map(|(p, column)| Some((*p, column.iter().find(|e| e.0 == asn)?.1)))
            .max_by_key(|(p, _)| p.len())
    }
}

/// Streaming aggregation: a [`bgpworms_routesim::Campaign`] over a session
/// that retains the prefixes of interest can fold straight into a `Fib` —
/// each prefix's route table is converted to forwarding actions and dropped
/// the moment the prefix finishes, so no `SimResult` (and no
/// `O(prefixes × ASes)` route collection) ever materializes.
impl CampaignSink for Fib {
    fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
        if let Some(finals) = &outcome.final_routes {
            self.insert_routes(prefix, finals);
        }
    }

    fn merge(&mut self, other: Self) {
        // Chunks cover disjoint prefixes, so every column is shared as is.
        Fib::merge(self, &other);
    }
}

fn action_of(route: &Route) -> FibAction {
    if route.blackholed {
        FibAction::Null
    } else {
        match route.source {
            RouteSource::Local => FibAction::Deliver,
            RouteSource::Ebgp(n) => FibAction::Forward(n),
            // A route server is not in the data path: traffic goes to the
            // member that announced, i.e. the head of the AS path.
            RouteSource::RouteServer(_) => match route.path.head() {
                Some(member) => FibAction::Forward(member),
                None => FibAction::Deliver,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> u32 {
        s.parse::<std::net::Ipv4Addr>().unwrap().into()
    }

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::default();
        let asn = Asn::new(1);
        fib.insert(asn, p4("10.0.0.0/8"), FibAction::Forward(Asn::new(2)));
        fib.insert(asn, p4("10.1.0.0/16"), FibAction::Forward(Asn::new(3)));
        fib.insert(asn, p4("10.1.1.0/24"), FibAction::Null);

        assert_eq!(
            fib.lookup(asn, ip("10.9.9.9")),
            Some((p4("10.0.0.0/8"), FibAction::Forward(Asn::new(2))))
        );
        assert_eq!(
            fib.lookup(asn, ip("10.1.2.3")),
            Some((p4("10.1.0.0/16"), FibAction::Forward(Asn::new(3))))
        );
        assert_eq!(
            fib.lookup(asn, ip("10.1.1.77")),
            Some((p4("10.1.1.0/24"), FibAction::Null))
        );
        assert_eq!(fib.lookup(asn, ip("11.0.0.1")), None);
        assert_eq!(fib.lookup(Asn::new(9), ip("10.0.0.1")), None);
    }

    #[test]
    fn naive_and_fast_lookup_agree() {
        let mut fib = Fib::default();
        let asn = Asn::new(1);
        for (s, a) in [
            ("0.0.0.0/0", FibAction::Forward(Asn::new(9))),
            ("10.0.0.0/8", FibAction::Forward(Asn::new(2))),
            ("10.128.0.0/9", FibAction::Deliver),
            ("10.128.64.0/18", FibAction::Null),
        ] {
            fib.insert(asn, p4(s), a);
        }
        for probe in [
            "1.2.3.4",
            "10.0.0.1",
            "10.128.0.1",
            "10.128.64.1",
            "255.255.255.255",
        ] {
            assert_eq!(
                fib.lookup(asn, ip(probe)),
                fib.lookup_naive(asn, ip(probe)),
                "mismatch at {probe}"
            );
        }
    }

    #[test]
    fn campaign_sink_fold_matches_from_sim() {
        use bgpworms_routesim::{Campaign, Origination, RetainRoutes, SimSpec};
        use bgpworms_topology::{addressing::AddressingParams, PrefixAllocation, TopologyParams};

        let topo = TopologyParams::tiny().seed(12).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
        let eps: Vec<Origination> = alloc
            .iter()
            .map(|(asn, prefix)| Origination::announce(asn, prefix, vec![]))
            .collect();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();

        let collected = Fib::from_sim(&sim.run(&eps));
        let streamed = Campaign::new(&sim).run(&eps, Fib::default);
        assert!(streamed.converged);

        // Identical lookups everywhere (Fib has no Eq; compare behaviour
        // at every origin address).
        assert_eq!(collected.len(), streamed.sink.len());
        for (asn, prefix) in alloc.iter() {
            if let bgpworms_types::Prefix::V4(p4) = prefix {
                let probe = p4.network() | 1;
                for node in topo.ases() {
                    assert_eq!(
                        collected.lookup(node.asn, probe),
                        streamed.sink.lookup(node.asn, probe),
                        "fib divergence at {} for {asn}/{prefix}",
                        node.asn
                    );
                }
            }
        }
    }

    #[test]
    fn default_route_matches_everything() {
        let mut fib = Fib::default();
        fib.insert(
            Asn::new(1),
            p4("0.0.0.0/0"),
            FibAction::Forward(Asn::new(2)),
        );
        assert!(fib.lookup(Asn::new(1), ip("203.0.113.5")).is_some());
    }
}
