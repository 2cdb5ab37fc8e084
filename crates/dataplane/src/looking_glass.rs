//! Looking glasses: per-AS RIB queries with router-style formatted output.
//!
//! The paper validates control-plane effects through public looking glasses
//! (§7.3–§7.5): community presence at the target, local-pref changes,
//! next-hop changes to null interfaces. This wraps a retained simulation
//! result in the same kind of query interface.

use bgpworms_routesim::{Route, SimResult};
use bgpworms_types::{Asn, Prefix};
use std::fmt::Write as _;

/// A looking glass over a finished simulation.
pub struct LookingGlass<'a> {
    result: &'a SimResult,
}

impl<'a> LookingGlass<'a> {
    /// Wraps a simulation result (must have retained routes for the
    /// prefixes of interest).
    pub fn new(result: &'a SimResult) -> Self {
        LookingGlass { result }
    }

    /// The best route of `asn` for `prefix`.
    pub fn route(&self, asn: Asn, prefix: &Prefix) -> Option<&Route> {
        self.result.route_at(asn, prefix)
    }

    /// `show route` style output for one AS and prefix.
    pub fn show(&self, asn: Asn, prefix: &Prefix) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{asn}> show route {prefix}");
        match self.route(asn, prefix) {
            None => {
                let _ = writeln!(out, "  %Network not in table");
            }
            Some(r) => {
                let path = if r.path.is_empty() {
                    "(local)".to_string()
                } else {
                    r.path.to_string()
                };
                let _ = writeln!(out, "  AS path: {path}");
                let _ = writeln!(out, "  Local preference: {}", r.local_pref);
                let next_hop = if r.blackholed {
                    "Null0 (blackholed)".to_string()
                } else {
                    match r.source.neighbor() {
                        Some(n) => format!("via {n}"),
                        None => "self".to_string(),
                    }
                };
                let _ = writeln!(out, "  Next hop: {next_hop}");
                if r.communities.is_empty() {
                    let _ = writeln!(out, "  Communities: (none)");
                } else {
                    let list: Vec<String> = r.communities.iter().map(|c| c.to_string()).collect();
                    let _ = writeln!(out, "  Communities: {}", list.join(" "));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_routesim::{Origination, SimSpec};
    use bgpworms_topology::{EdgeKind, Tier, Topology};
    use bgpworms_types::Community;

    fn run() -> SimResult {
        let mut topo = Topology::new();
        topo.add_simple(Asn::new(1), Tier::Tier1);
        topo.add_simple(Asn::new(2), Tier::Stub);
        topo.add_edge(Asn::new(1), Asn::new(2), EdgeKind::ProviderToCustomer);
        let sim = SimSpec::new(&topo)
            .retain(bgpworms_routesim::engine::RetainRoutes::All)
            .compile();
        sim.run(&[Origination::announce(
            Asn::new(2),
            "10.0.0.0/16".parse().unwrap(),
            vec![Community::new(2, 100)],
        )])
    }

    #[test]
    fn show_formats_route_details() {
        let res = run();
        let lg = LookingGlass::new(&res);
        let p: Prefix = "10.0.0.0/16".parse().unwrap();
        let text = lg.show(Asn::new(1), &p);
        assert!(text.contains("AS path: 2"));
        assert!(text.contains("Communities: 2:100"));
        assert!(text.contains("via AS2"));
    }

    #[test]
    fn show_reports_missing_routes() {
        let res = run();
        let lg = LookingGlass::new(&res);
        let missing: Prefix = "99.0.0.0/16".parse().unwrap();
        assert!(lg.show(Asn::new(1), &missing).contains("not in table"));
        assert!(lg.route(Asn::new(1), &missing).is_none());
    }

    #[test]
    fn local_route_shows_self() {
        let res = run();
        let lg = LookingGlass::new(&res);
        let p: Prefix = "10.0.0.0/16".parse().unwrap();
        let text = lg.show(Asn::new(2), &p);
        assert!(text.contains("(local)"));
        assert!(text.contains("self"));
    }
}
