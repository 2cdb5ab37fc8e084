//! The §7 "experiments in the wild" harness: everything runs on a full
//! generated Internet with a realistic policy workload, injecting from
//! PEERING-like and research-network-like platforms, and validating with
//! looking glasses plus Atlas-style probing.
//!
//! The paper ran every experiment on the same Internet, from the same two
//! platforms, probing from one fixed Atlas set; each of those is decided
//! once here. [`World`] is topology + allocation + workload, with the only
//! `generate` and the only compile site; its `attach_*` methods are four
//! short callers of one attach primitive (stub, sessions, default config,
//! IRR + RPKI) over two platform identities; [`vantage`] is the apparatus
//! of the two vantage-point sweeps (§7.3's targets, §7.6's communities).
//! An experiment is: generate the `World`, attach, run. (§7.4's local-pref
//! pair overrides a config per candidate, so it keeps its per-candidate
//! `.configure(..)` session and its `run_snapshot` + `run_delta` pair;
//! [`full_table`]'s caller owns a deaggregated Internet and passes it in.)
//!
//! Ethics, simulated: the paper coordinated every experiment with the
//! affected networks; our closed world has no such constraint, but the
//! harness still only announces prefixes allocated to the injection
//! platforms (except where a scenario explicitly models a consented
//! hijack, mirroring §7.1).

pub mod extended_survey;
pub mod full_table;
pub mod propagation_check;
pub mod routeserver_experiment;
pub mod rtbh_experiment;
pub mod steering_experiment;
pub mod survey;
pub mod vantage;

use bgpworms_routesim::{
    CommunityPropagationPolicy, RouterConfig, SimSpec, Workload, WorkloadParams,
};
use bgpworms_topology::{
    addressing::AddressingParams, EdgeKind, PrefixAllocation, Tier, Topology, TopologyParams,
};
use bgpworms_types::{Asn, Ipv4Prefix, Prefix};

/// An injection platform attached to the generated topology.
#[derive(Debug, Clone, Copy)]
pub struct InjectionPlatform {
    /// The platform's ASN.
    pub asn: Asn,
    /// The platform's own experiment prefix (a /24, as PEERING hands out).
    pub prefix: Ipv4Prefix,
}

/// The research network's ASN and /24 (§7.2 dual-homed, §7.3 announcing
/// from a single location).
const RESEARCH: (Asn, &str) = (Asn::new(65_010), "100.64.0.0/24");
/// The PEERING-like platform's ASN and /24 (§7.2, §7.4, §7.6, §7.7 with
/// every session up; §7.5 scoped to one route-server session).
const PEERING: (Asn, &str) = (Asn::new(65_011), "100.64.1.0/24");

/// The generated Internet a §7 experiment runs on.
pub struct World {
    /// The generated topology (plus whatever platforms were attached).
    pub topo: Topology,
    /// Prefix ground truth.
    pub alloc: PrefixAllocation,
    /// The policy workload (plus the attached platforms' configs and
    /// registry objects).
    pub workload: Workload,
}

impl World {
    /// Generates the topology, allocates its prefixes and draws the policy
    /// workload.
    pub fn generate(topo: &TopologyParams, workload: &WorkloadParams) -> Self {
        let topo = topo.build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
        let workload = Workload::generate(&topo, &alloc, workload);
        World {
            topo,
            alloc,
            workload,
        }
    }

    /// The session spec over this world's policies, collectors and
    /// registries — callers chain `.retain(..)` / `.configure(..)` and
    /// compile. Every §7 session starts here, so a thread count has one
    /// place to enter.
    pub fn simulation(&self) -> SimSpec<'_> {
        self.workload.simulation(&self.topo)
    }

    /// The ASes of `tier`, ascending by ASN.
    pub fn tier(&self, tier: Tier) -> impl Iterator<Item = Asn> + '_ {
        let of_tier = self.topo.ases().filter(move |n| n.tier == tier);
        of_tier.map(|n| n.asn)
    }

    /// The attach primitive: adds the platform as a stub, wires its peer
    /// sessions, then its uplinks (the first edge to a neighbor wins),
    /// installs the default config (Juniper-like: sends and forwards
    /// communities) and registers the prefix in IRR and RPKI.
    fn attach(&mut self, id: (Asn, &str), peers: &[Asn], providers: &[Asn]) -> InjectionPlatform {
        let (asn, prefix) = (id.0, id.1.parse().expect("platform prefixes are valid"));
        let World { topo, workload, .. } = self;
        topo.add_simple(asn, Tier::Stub);
        let peers = peers.iter().map(|&peer| (peer, EdgeKind::PeerToPeer));
        let uplinks = providers
            .iter()
            .map(|&up| (up, EdgeKind::ProviderToCustomer));
        for (neighbor, kind) in peers.chain(uplinks) {
            topo.add_edge(neighbor, asn, kind);
        }
        workload.configs.insert(asn, RouterConfig::defaults(asn));
        workload.irr.register(Prefix::V4(prefix), asn);
        workload.rpki.register(Prefix::V4(prefix), asn);
        InjectionPlatform { asn, prefix }
    }

    /// Attaches the research network with two transit upstreams, one of
    /// which strips communities (§7.2: "only one of the upstream providers
    /// propagates communities").
    pub fn attach_research_network(&mut self) -> InjectionPlatform {
        use CommunityPropagationPolicy::{ForwardAll, StripAll};
        let upstreams: Vec<Asn> = self.tier(Tier::Transit).take(2).collect();
        for (&upstream, policy) in upstreams.iter().zip([StripAll, ForwardAll]) {
            let cfg = self.workload.configs.entry(upstream);
            cfg.or_insert_with(|| RouterConfig::defaults(upstream))
                .propagation = policy;
        }
        self.attach(RESEARCH, &[], &upstreams)
    }

    /// Attaches the research network announcing from one location: a
    /// single uplink to `upstream` (§7.3).
    pub fn attach_single_homed(&mut self, upstream: Asn) -> InjectionPlatform {
        self.attach(RESEARCH, &[], &[upstream])
    }

    /// Attaches the PEERING-like platform: member of every IXP route
    /// server, direct peering with every third transit provider (PEERING's
    /// hundreds of sessions) and transit uplinks among the first two for
    /// reachability — many sessions, broad propagation visibility.
    pub fn attach_peering_platform(&mut self) -> InjectionPlatform {
        let transits: Vec<Asn> = self.tier(Tier::Transit).collect();
        let sampled = transits.iter().copied().step_by(3);
        let peers: Vec<Asn> = self.tier(Tier::RouteServer).chain(sampled).collect();
        self.attach(PEERING, &peers, &transits[..transits.len().min(2)])
    }

    /// Attaches the PEERING-like platform announcing *only* through its
    /// session with `route_server` — how PEERING scopes an experiment
    /// announcement to one PoP (§7.5).
    pub fn attach_route_server_member(&mut self, route_server: Asn) -> InjectionPlatform {
        self.attach(PEERING, &[route_server], &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platforms_attach_with_expected_sessions() {
        let fresh = || {
            let topo = TopologyParams::tiny().seed(8);
            World::generate(&topo, &WorkloadParams::default())
        };
        let transit = fresh().tier(Tier::Transit).last().expect("a transit AS");
        let ixp = fresh().tier(Tier::RouteServer).next().expect("an IXP");

        // Each platform on a fresh world (the scoped attachments reuse the
        // two identities): who it is, and its (providers, peers).
        type Attach<'a> = &'a dyn Fn(&mut World) -> InjectionPlatform;
        let check = |attach: Attach, identity: (Asn, &str), expect: &dyn Fn(&[Asn], &[Asn])| {
            let mut world = fresh();
            let platform = attach(&mut world);
            assert_eq!(platform.asn, identity.0);
            assert_eq!(Ok(platform.prefix), identity.1.parse());
            let providers: Vec<Asn> = world.topo.providers_of(platform.asn).collect();
            let peers: Vec<Asn> = world.topo.peers_of(platform.asn).collect();
            expect(&providers, &peers);
            // What the primitive does for every platform alike.
            let sessions = providers.len() + peers.len();
            assert_eq!(world.topo.degree(platform.asn), sessions, "a stub");
            assert_eq!(world.workload.configs[&platform.asn].asn, platform.asn);
            let p = Prefix::V4(platform.prefix);
            assert!(world.workload.irr.is_registered(&p, platform.asn));
            assert!(world.workload.rpki.is_registered(&p, platform.asn));
        };
        check(
            &World::attach_research_network,
            RESEARCH,
            &|providers, peers| {
                assert_eq!((providers.len(), peers.len()), (2, 0));
            },
        );
        check(
            &World::attach_peering_platform,
            PEERING,
            &|providers, peers| {
                assert!(!providers.is_empty());
                let peers = peers.len();
                assert!(peers >= 2, "PEERING should have many sessions, got {peers}");
            },
        );
        check(
            &|w| w.attach_single_homed(transit),
            RESEARCH,
            &|providers, peers| {
                assert_eq!((providers, peers), (&[transit][..], &[][..]));
            },
        );
        check(
            &|w| w.attach_route_server_member(ixp),
            PEERING,
            &|providers, peers| {
                assert_eq!((providers, peers), (&[][..], &[ixp][..]));
            },
        );
    }
}
