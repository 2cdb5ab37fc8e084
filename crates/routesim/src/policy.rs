//! Per-AS router configuration: community handling, services, vendor
//! behaviour, origin validation, and route-server semantics.

use bgpworms_types::{Asn, Community, Ipv4Prefix, Ipv6Prefix, LargeCommunity, Prefix};
use std::collections::{BTreeMap, BTreeSet};

/// Router vendor, with the default behaviours measured in the paper's lab
/// study (§6.1): Juniper propagates communities by default; Cisco requires
/// explicit per-peer `send-community` and caps the number of communities a
/// configuration can *add* at 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vendor {
    /// Cisco IOS-like behaviour.
    Cisco,
    /// JunOS-like behaviour.
    Juniper,
}

impl Vendor {
    /// Whether communities are sent to neighbors without explicit
    /// configuration.
    pub fn sends_communities_by_default(self) -> bool {
        matches!(self, Vendor::Juniper)
    }

    /// Maximum number of communities a policy may add to a prefix
    /// (`None` = unlimited).
    pub fn added_community_limit(self) -> Option<usize> {
        match self {
            Vendor::Cisco => Some(32),
            Vendor::Juniper => None,
        }
    }
}

/// How an AS treats communities received from neighbors when re-exporting
/// routes (§4.4: "some remove all communities, some do not tamper with them
/// at all, while others act upon and remove communities directed at them
/// and leave the rest in place").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunityPropagationPolicy {
    /// Forward every received community untouched.
    ForwardAll,
    /// Strip every community on egress.
    StripAll,
    /// Act on own-ASN communities, remove them, forward the rest.
    StripOwn,
    /// Remove communities not understood (neither own-ASN nor well-known),
    /// forward own and well-known.
    StripUnknown,
    /// Forward received communities only on the listed neighbor classes
    /// (e.g. to customers but not to peers) — the source of the "mixed
    /// indication" AS edges in Fig 6(b).
    Selective {
        /// Forward to customers?
        to_customers: bool,
        /// Forward to peers (incl. route servers and collectors)?
        to_peers: bool,
        /// Forward to providers?
        to_providers: bool,
    },
    /// The paper's §8 "extreme" defense: *"an AS only propagates
    /// communities which are useful to the receiving peer … AS1 should
    /// send to AS2 only communities of the form 2:xxx. Au contraire, if
    /// AS2 is a route collector … AS1 might not filter."* One-hop
    /// signalling (a customer requesting its provider's RTBH) still works;
    /// everything multi-hop — including every attack in §5 — is cut.
    ///
    /// Of the communities this AS received (its own originations'
    /// included), a neighbour is sent only those whose high half is the
    /// neighbour's ASN. So a route the neighbour holds from this AS carries
    /// nothing this AS forwarded that the neighbour does not own, except:
    /// * well-known values, which the filter does not forward either but
    ///   the neighbour may add itself on import (an RTBH service's
    ///   `NO_EXPORT`);
    /// * the neighbour's own ingress tags, which are its own values anyway;
    /// * what this AS adds itself: its own ingress tags and its egress tags
    ///   are its signal, not forwarded ones, and ride on every export.
    ///
    /// A session to a route collector is not filtered at all. A route
    /// server redistributes by its own rules and never reads this policy.
    ScopedToReceiver,
}

/// Who a community target acts for (§7.4: "providers typically … only act
/// on traffic steering communities that arrive from a BGP customer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActScope {
    /// Act only when the announcement arrives from a customer session.
    #[default]
    CustomersOnly,
    /// Act regardless of the sending session's business relationship
    /// (the paper finds blackholing usually behaves like this).
    Any,
}

/// A remotely-triggered-blackholing service offering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackholeService {
    /// The low-16 community value that triggers blackholing (conventionally
    /// 666; the well-known 65535:666 is always honoured too).
    pub value: u16,
    /// Minimum prefix length accepted *for blackhole routes* (typically 24
    /// or 32: only small prefixes may be blackholed).
    pub min_prefix_len: u8,
    /// Whether accepting the blackhole route attaches NO_EXPORT (the common
    /// recommendation; keeps RTBH announcements from propagating onward —
    /// why 666 is rarely seen on-path, §4.3).
    pub set_no_export: bool,
    /// Who may trigger the service.
    pub scope: ActScope,
    /// Local preference installed for accepted blackhole routes (Cisco's
    /// RTBH white paper suggests raising it so the blackhole wins best-path
    /// selection even against shorter paths).
    pub local_pref: u32,
}

impl Default for BlackholeService {
    fn default() -> Self {
        BlackholeService {
            value: 666,
            min_prefix_len: 24,
            set_no_export: true,
            scope: ActScope::Any,
            local_pref: 200,
        }
    }
}

/// The community-triggered services an AS offers as a community target.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommunityServices {
    /// RTBH offering.
    pub blackhole: Option<BlackholeService>,
    /// Prepend services: low-16 value → number of prepends
    /// (NTT-style `2914:421` → 1, `2914:422` → 2, …).
    pub prepend: BTreeMap<u16, u8>,
    /// Local-pref services: low-16 value → assigned local preference
    /// (e.g. "customer fallback").
    pub local_pref: BTreeMap<u16, u32>,
    /// Scope for prepend / local-pref services.
    pub steering_scope: ActScope,
}

impl CommunityServices {
    /// True if any service is offered.
    pub fn any(&self) -> bool {
        self.blackhole.is_some() || !self.prepend.is_empty() || !self.local_pref.is_empty()
    }
}

/// Informational communities an AS attaches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaggingConfig {
    /// Tag ingress "location" (`own:201`, `own:202`, … per neighbor bucket),
    /// like AS6 in the paper's Fig 1.
    pub tag_ingress_location: bool,
    /// Tag the business class of the session a route was learned on
    /// (`own:100` customer, `own:110` peer, `own:120` provider), like
    /// `AS1:200` ("customer prefix") in Fig 1.
    pub tag_origin_class: bool,
    /// Static communities attached to locally originated prefixes.
    pub origination_tags: Vec<Community>,
    /// RFC 8092 large communities attached to locally originated prefixes —
    /// the only informational channel whose owner half fits a 4-byte ASN.
    pub origination_large_tags: Vec<LargeCommunity>,
    /// Communities attached to *every* route exported by this AS —
    /// legitimate uses exist (blanket informational tagging), but this is
    /// also exactly the attacker's lever: an on-path AS adding a remote
    /// target's action community to someone else's announcement (Fig 2,
    /// Fig 7a).
    pub egress_tags: Vec<Community>,
    /// Communities attached only to routes for specific prefixes — the
    /// *surgical* variant of the same attacker lever: tag one victim's
    /// announcement without touching everything else in the table.
    pub targeted_egress: Vec<(Prefix, Community)>,
}

/// Origin-validation behaviour on import.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OriginValidation {
    /// No validation (most of the 2018 Internet).
    #[default]
    None,
    /// Validate the origin AS against the IRR; an attacker who registered a
    /// route object (§7.3: "it is often easy to circumvent") passes.
    Irr {
        /// The §6.3 misconfiguration: the route-map checks the blackhole
        /// community *before* validating, so blackhole-tagged hijacks are
        /// accepted.
        validate_after_blackhole: bool,
    },
    /// Strict validation against ground-truth allocation (RPKI-like;
    /// cannot be circumvented by IRR edits).
    Strict,
}

/// The IRR: prefix → set of ASNs with registered route objects. Starts from
/// ground truth and can be polluted by attackers (circumvention).
#[derive(Debug, Clone, Default)]
pub struct IrrDatabase {
    objects: BTreeMap<Prefix, BTreeSet<Asn>>,
}

impl IrrDatabase {
    /// Empty database.
    pub fn new() -> Self {
        IrrDatabase::default()
    }

    /// Registers a route object.
    pub fn register(&mut self, prefix: Prefix, asn: Asn) {
        self.objects.entry(prefix).or_default().insert(asn);
    }

    /// True if `asn` has a route object covering `prefix` (exact or
    /// less-specific covering object).
    ///
    /// Every covering object of `prefix` is `prefix` truncated to some
    /// shorter (or equal) length, so this probes one exact lookup per
    /// candidate length — `O(len · log objects)` — instead of scanning the
    /// whole database. `Ipv4Prefix::new`/`Ipv6Prefix::new` mask the address
    /// down to the length, so the truncations are already in the canonical
    /// form the object map is keyed by. Validating transits call this per
    /// import against ~100 K-object registries at Internet scale; the
    /// full-table classifier calls it per (prefix, origin) pair.
    pub fn is_registered(&self, prefix: &Prefix, asn: Asn) -> bool {
        match prefix {
            Prefix::V4(p) => (0..=p.len()).rev().any(|l| {
                let covering = Ipv4Prefix::new(p.network(), l).expect("len below source len");
                self.objects
                    .get(&Prefix::V4(covering))
                    .is_some_and(|asns| asns.contains(&asn))
            }),
            Prefix::V6(p) => (0..=p.len()).rev().any(|l| {
                let covering = Ipv6Prefix::new(p.network(), l).expect("len below source len");
                self.objects
                    .get(&Prefix::V6(covering))
                    .is_some_and(|asns| asns.contains(&asn))
            }),
        }
    }
}

/// How an IXP route server orders its community-controlled redistribution
/// rules (§5.3: "at least for one IXP, communities used to 'not advertise a
/// prefix to a peer AS' are handled before those used to 'advertise to peer
/// AS'").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RsEvalOrder {
    /// Suppress rules evaluated before announce rules — the conflicting-
    /// communities attack of §7.5 succeeds.
    #[default]
    SuppressFirst,
    /// Announce rules evaluated first — the attack fails.
    AnnounceFirst,
}

/// Route-server-specific configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteServerConfig {
    /// Evaluation order for conflicting control communities.
    pub eval_order: RsEvalOrder,
    /// Strip the control communities (`RS:x`, `0:x`) after applying them.
    pub strip_control_communities: bool,
    /// Informational tag added to redistributed routes (`RS:ingress-id`),
    /// making the route server an *off-path* community tagger (§4.3).
    pub tag_member_routes: bool,
}

impl Default for RouteServerConfig {
    fn default() -> Self {
        RouteServerConfig {
            eval_order: RsEvalOrder::SuppressFirst,
            strip_control_communities: true,
            tag_member_routes: true,
        }
    }
}

/// Per-role import local preferences (customer > peer > provider, the
/// Gao–Rexford economic ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalPrefByRole {
    /// Routes learned from customers.
    pub customer: u32,
    /// Routes learned from peers (and route servers).
    pub peer: u32,
    /// Routes learned from providers.
    pub provider: u32,
}

impl Default for LocalPrefByRole {
    fn default() -> Self {
        LocalPrefByRole {
            customer: 120,
            peer: 100,
            provider: 80,
        }
    }
}

/// Full configuration of one simulated router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// The AS this router belongs to.
    pub asn: Asn,
    /// Vendor behaviour model.
    pub vendor: Vendor,
    /// Whether `send-community` is configured (only relevant for vendors
    /// that do not send by default).
    pub send_community_configured: bool,
    /// Community propagation policy.
    pub propagation: CommunityPropagationPolicy,
    /// Community-triggered services offered.
    pub services: CommunityServices,
    /// Informational tagging.
    pub tagging: TaggingConfig,
    /// Origin validation on import.
    pub validation: OriginValidation,
    /// Maximum accepted IPv4 prefix length for ordinary routes (§7.3:
    /// providers limit announcement size to control table growth).
    pub max_prefix_len_v4: u8,
    /// Import local-pref by business role.
    pub local_pref: LocalPrefByRole,
    /// Route-server semantics (only used when the topology marks this node
    /// as a route server).
    pub route_server: RouteServerConfig,
}

impl RouterConfig {
    /// A permissive default: Juniper-like, forwards all communities, no
    /// services, no validation.
    pub fn defaults(asn: Asn) -> Self {
        RouterConfig {
            asn,
            vendor: Vendor::Juniper,
            send_community_configured: true,
            propagation: CommunityPropagationPolicy::ForwardAll,
            services: CommunityServices::default(),
            tagging: TaggingConfig::default(),
            validation: OriginValidation::None,
            max_prefix_len_v4: 24,
            local_pref: LocalPrefByRole::default(),
            route_server: RouteServerConfig::default(),
        }
    }

    /// Whether this router sends communities on its sessions.
    pub fn sends_communities(&self) -> bool {
        self.vendor.sends_communities_by_default() || self.send_community_configured
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_defaults_match_lab_findings() {
        assert!(Vendor::Juniper.sends_communities_by_default());
        assert!(!Vendor::Cisco.sends_communities_by_default());
        assert_eq!(Vendor::Cisco.added_community_limit(), Some(32));
        assert_eq!(Vendor::Juniper.added_community_limit(), None);
    }

    #[test]
    fn cisco_without_send_community_stays_silent() {
        let mut cfg = RouterConfig::defaults(Asn::new(1));
        cfg.vendor = Vendor::Cisco;
        cfg.send_community_configured = false;
        assert!(!cfg.sends_communities());
        cfg.send_community_configured = true;
        assert!(cfg.sends_communities());
        cfg.vendor = Vendor::Juniper;
        cfg.send_community_configured = false;
        assert!(cfg.sends_communities());
    }

    #[test]
    fn blackhole_service_defaults() {
        let bh = BlackholeService::default();
        assert_eq!(bh.value, 666);
        assert!(bh.set_no_export);
        assert_eq!(bh.local_pref, 200);
        assert!(bh.min_prefix_len >= 24);
    }

    #[test]
    fn irr_registration_and_covering_objects() {
        let mut irr = IrrDatabase::new();
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let p24: Prefix = "10.1.1.0/24".parse().unwrap();
        irr.register(p8, Asn::new(1));
        assert!(irr.is_registered(&p8, Asn::new(1)));
        // covering object validates the more specific
        assert!(irr.is_registered(&p24, Asn::new(1)));
        assert!(!irr.is_registered(&p24, Asn::new(2)));
        // attacker pollutes the IRR (§7.3 circumvention)
        irr.register(p24, Asn::new(666));
        assert!(irr.is_registered(&p24, Asn::new(666)));
        assert!(!irr.is_registered(&p8, Asn::new(666)), "no covering object");
    }

    #[test]
    fn services_any() {
        let mut s = CommunityServices::default();
        assert!(!s.any());
        s.prepend.insert(421, 1);
        assert!(s.any());
    }

    #[test]
    fn local_pref_ordering_is_economic() {
        let lp = LocalPrefByRole::default();
        assert!(lp.customer > lp.peer);
        assert!(lp.peer > lp.provider);
    }
}
