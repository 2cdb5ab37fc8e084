//! Business relationships between ASes, and the CAIDA serial-1 interchange
//! format the paper's filtering analysis (§4.4) uses.

use bgpworms_types::Asn;
use std::fmt;

/// Kind of an undirected AS edge, stored from the first AS's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// The first AS is the provider of the second (CAIDA `-1`).
    ProviderToCustomer,
    /// Settlement-free peering (CAIDA `0`).
    PeerToPeer,
}

/// How a *neighbor* relates to a given AS.
///
/// This is the quantity Gao–Rexford export policy is written in terms of:
/// routes learned from a `Customer` are exported to everyone; routes learned
/// from a `Peer` or `Provider` are exported only to customers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Role {
    /// The neighbor pays us for transit.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// We pay the neighbor for transit.
    Provider,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Role::Customer => "customer",
            Role::Peer => "peer",
            Role::Provider => "provider",
        })
    }
}

/// One line of a CAIDA serial-1 relationship file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelLine {
    /// First AS (provider for `-1` lines).
    pub a: Asn,
    /// Second AS (customer for `-1` lines).
    pub b: Asn,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// Serializes relationships to CAIDA serial-1 format:
/// `<provider-as>|<customer-as>|-1` and `<peer-as>|<peer-as>|0`.
pub fn to_caida(lines: &[RelLine]) -> String {
    let mut out = String::with_capacity(lines.len() * 16);
    out.push_str("# generated by bgpworms-topology (serial-1 format)\n");
    for l in lines {
        let code = match l.kind {
            EdgeKind::ProviderToCustomer => -1,
            EdgeKind::PeerToPeer => 0,
        };
        out.push_str(&format!("{}|{}|{}\n", l.a.get(), l.b.get(), code));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caida_roundtrip() {
        let lines = vec![
            RelLine {
                a: Asn::new(3356),
                b: Asn::new(65010),
                kind: EdgeKind::ProviderToCustomer,
            },
            RelLine {
                a: Asn::new(3356),
                b: Asn::new(2914),
                kind: EdgeKind::PeerToPeer,
            },
        ];
        let text = to_caida(&lines);
        assert!(text.contains("3356|65010|-1"));
        assert!(text.contains("3356|2914|0"));
    }
}
