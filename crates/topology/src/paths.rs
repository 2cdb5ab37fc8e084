//! Valley-free path validation against a topology.
//!
//! Gao–Rexford export policy implies every propagated path is an uphill
//! run of customer→provider edges, at most one peering edge at the top,
//! then a downhill run of provider→customer edges. The simulator's
//! propagation must only ever produce such paths (tested property), and
//! attack scenarios use violations as a tripwire.

use crate::graph::Topology;
use crate::relationship::Role;
use bgpworms_types::Asn;

/// Result of checking a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathValidity {
    /// The path is valley-free.
    ValleyFree,
    /// The path uses an edge absent from the topology.
    MissingEdge {
        /// Edge endpoints in path order.
        from: Asn,
        /// Edge endpoint nearer the observation point.
        to: Asn,
    },
    /// The path goes up (or sideways) after having gone down or sideways:
    /// a valley or a double-peering.
    Valley {
        /// Index (origin-side, 0-based) of the offending edge.
        at: usize,
    },
    /// The path is empty or a single AS — trivially valid.
    Trivial,
}

impl PathValidity {
    /// True for `ValleyFree` or `Trivial`.
    pub fn is_ok(&self) -> bool {
        matches!(self, PathValidity::ValleyFree | PathValidity::Trivial)
    }
}

/// Checks a collector-first path (`path[0]` nearest the observation point,
/// last element the origin) for valley-freeness under `topo`'s
/// relationships. Consecutive duplicates (prepending) are collapsed first.
pub fn check_valley_free(topo: &Topology, path_collector_first: &[Asn]) -> PathValidity {
    // Work origin-first: the direction the announcement actually travelled.
    let mut flat: Vec<Asn> = Vec::with_capacity(path_collector_first.len());
    for &a in path_collector_first.iter().rev() {
        if flat.last() != Some(&a) {
            flat.push(a);
        }
    }
    if flat.len() < 2 {
        return PathValidity::Trivial;
    }

    // Phases: 0 = climbing (customer→provider edges), 1 = after the single
    // peering step or after starting descent (only provider→customer
    // allowed).
    let mut descending = false;
    for (i, w) in flat.windows(2).enumerate() {
        let (from, to) = (w[0], w[1]);
        // Role of `to` as seen by `from`: announcement goes from → to,
        // i.e. `from` exported to `to`. Routes exchanged over an IXP route
        // server appear as a direct hop (the server is transparent in the
        // path) and count as peering.
        let role = match topo.role_of(from, to) {
            Some(r) => r,
            None if topo.shared_ixp(from, to).is_some() => Role::Peer,
            None => return PathValidity::MissingEdge { from, to },
        };
        match role {
            // exporting to one's provider: uphill
            Role::Provider => {
                if descending {
                    return PathValidity::Valley { at: i };
                }
            }
            // exporting to a peer: the single sideways step
            Role::Peer => {
                if descending {
                    return PathValidity::Valley { at: i };
                }
                descending = true;
            }
            // exporting to a customer: downhill from here on
            Role::Customer => {
                descending = true;
            }
        }
    }
    PathValidity::ValleyFree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tier;
    use crate::relationship::EdgeKind;

    fn asn(n: u32) -> Asn {
        Asn::new(n)
    }

    /// Hierarchy: 1 and 2 are tier-1 peers; 3 is a customer of 1;
    /// 4 is a customer of 2; 5 is a customer of both 3 and 4.
    fn diamond() -> Topology {
        let mut t = Topology::new();
        for (n, tier) in [
            (1, Tier::Tier1),
            (2, Tier::Tier1),
            (3, Tier::Transit),
            (4, Tier::Transit),
            (5, Tier::Stub),
        ] {
            t.add_simple(asn(n), tier);
        }
        t.add_edge(asn(1), asn(2), EdgeKind::PeerToPeer);
        t.add_edge(asn(1), asn(3), EdgeKind::ProviderToCustomer);
        t.add_edge(asn(2), asn(4), EdgeKind::ProviderToCustomer);
        t.add_edge(asn(3), asn(5), EdgeKind::ProviderToCustomer);
        t.add_edge(asn(4), asn(5), EdgeKind::ProviderToCustomer);
        t
    }

    #[test]
    fn uphill_peer_downhill_is_valley_free() {
        let t = diamond();
        // origin 5 → 3 → 1 → 2 → 4 (up, up, peer, down), collector-first:
        let path = [asn(4), asn(2), asn(1), asn(3), asn(5)];
        assert_eq!(check_valley_free(&t, &path), PathValidity::ValleyFree);
    }

    #[test]
    fn pure_downhill_is_valley_free() {
        let t = diamond();
        // origin 1 → 3 → 5
        let path = [asn(5), asn(3), asn(1)];
        assert_eq!(check_valley_free(&t, &path), PathValidity::ValleyFree);
    }

    #[test]
    fn valley_detected() {
        let t = diamond();
        // origin 3 → 5 → 4: 5 is a customer of both; exporting a provider
        // route to the other provider is a valley (route leak).
        let path = [asn(4), asn(5), asn(3)];
        assert_eq!(check_valley_free(&t, &path), PathValidity::Valley { at: 1 });
    }

    #[test]
    fn double_peering_detected() {
        let mut t = diamond();
        t.add_edge(asn(3), asn(4), EdgeKind::PeerToPeer);
        // origin 1 → 3 (down)… then 3 → 4 peer after descent: invalid
        let path = [asn(4), asn(3), asn(1)];
        assert_eq!(check_valley_free(&t, &path), PathValidity::Valley { at: 1 });
        // and peer → peer: 1→2 peer then 4→... use 3→4 peer after 1→3? Build
        // an explicit double-peer path: origin 1 → 2 (peer) → ? 2's peer is
        // only 1, so extend topology:
        t.add_edge(asn(2), asn(3), EdgeKind::PeerToPeer);
        let path = [asn(3), asn(2), asn(1)]; // 1→2 peer, 2→3 peer
        assert_eq!(check_valley_free(&t, &path), PathValidity::Valley { at: 1 });
    }

    #[test]
    fn missing_edge_detected() {
        let t = diamond();
        let path = [asn(5), asn(1)]; // 1 and 5 are not adjacent
        assert_eq!(
            check_valley_free(&t, &path),
            PathValidity::MissingEdge {
                from: asn(1),
                to: asn(5)
            }
        );
    }

    #[test]
    fn route_server_members_peer_through_the_server() {
        let mut t = diamond();
        t.add_simple(asn(50), Tier::RouteServer);
        t.add_edge(asn(50), asn(3), EdgeKind::PeerToPeer);
        t.add_edge(asn(50), asn(4), EdgeKind::PeerToPeer);
        // origin 3 → 4 over the transparent server: the peering step.
        let path = [asn(4), asn(3)];
        assert_eq!(check_valley_free(&t, &path), PathValidity::ValleyFree);
        // origin 1 → 3 (down), then 3 → 4 over the server: a valley.
        let path = [asn(4), asn(3), asn(1)];
        assert_eq!(check_valley_free(&t, &path), PathValidity::Valley { at: 1 });
        // 1 and 4 sit on different servers: no hop between them.
        t.add_simple(asn(51), Tier::RouteServer);
        t.add_edge(asn(51), asn(1), EdgeKind::PeerToPeer);
        assert_eq!(
            check_valley_free(&t, &[asn(1), asn(4)]),
            PathValidity::MissingEdge {
                from: asn(4),
                to: asn(1)
            }
        );
    }

    #[test]
    fn prepending_is_collapsed() {
        let t = diamond();
        let path = [asn(4), asn(4), asn(4), asn(2), asn(1), asn(3), asn(5)];
        assert_eq!(check_valley_free(&t, &path), PathValidity::ValleyFree);
    }

    #[test]
    fn trivial_paths() {
        let t = diamond();
        assert_eq!(check_valley_free(&t, &[]), PathValidity::Trivial);
        assert_eq!(check_valley_free(&t, &[asn(1)]), PathValidity::Trivial);
        assert!(check_valley_free(&t, &[asn(1)]).is_ok());
    }
}
