//! Per-AS router configuration: community handling, services, vendor
//! behaviour, origin validation, and route-server semantics.

use bgpworms_types::{
    Asn, Community, Ipv4Prefix, Ipv6Prefix, LargeCommunity, Prefix, PrefixLengths,
};
use std::collections::BTreeMap;

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
    fn sends_communities_by_default(self) -> bool {
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
///
/// The policy filters every community the AS holds on the route: those it
/// received, and on its own originations those it announces them with.
/// What the AS adds itself — its ingress tags (`Route::own_tags`) and its
/// [`TaggingConfig::egress_tags`] — is attached after the filter, under
/// every policy, so even `StripAll` and `StripOwn` send the AS's own tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunityPropagationPolicy {
    /// Forward every received community untouched.
    ForwardAll,
    /// Strip every community it holds on egress (its own tags still ride
    /// along).
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

pub use bgpworms_types::BLACKHOLE_VALUE;

/// The ingress-location tag values a router adds under
/// [`TaggingConfig::tag_ingress_location`], one per location bucket: a
/// route learned from `sender` is tagged `ASN:`value of bucket
/// `sender % 4` (Fig 1's four locations).
pub const LOCATION_TAG_VALUES: [u16; 4] = [201, 202, 203, 204];

/// The origin-class tag values a router adds under
/// [`TaggingConfig::tag_origin_class`], by the role the sender plays:
/// customer, peer, provider.
pub const ORIGIN_CLASS_VALUES: [u16; 3] = [100, 110, 120];

/// The community value that asks a steering service to prepend its own
/// ASN `times` times (the generated workload offers 1 to 3: `421..=423`).
pub const fn prepend_value(times: u8) -> u16 {
    420 + times as u16
}

/// Maximum accepted IPv4 prefix length for ordinary routes (§7.3: providers
/// limit announcement size to control table growth). Blackhole routes are
/// bounded by [`BlackholeService::min_prefix_len`] instead.
pub(crate) const MAX_PREFIX_LEN_V4: u8 = 24;

/// A remotely-triggered-blackholing service offering, triggered by
/// `ASN:`[`BLACKHOLE_VALUE`] or by RFC 7999's well-known `BLACKHOLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackholeService {
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
    /// (NTT-style `2914:421` → 1, `2914:422` → 2, …). A route carrying
    /// several gets the most prepends any of them asks for, on top of the
    /// one every export adds.
    pub prepend: BTreeMap<u16, u8>,
    /// Local-pref services: low-16 value → assigned local preference
    /// (e.g. "customer fallback"). It replaces the role's local-pref and an
    /// RTBH raise alike; a route carrying several gets the one with the
    /// highest value.
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

/// The IRR: route objects, each an (origin ASN, prefix) pair. Starts from
/// ground truth and can be polluted by attackers (circumvention).
///
/// One sorted, deduplicated vector of objects, plus the prefix lengths each
/// family holds. Registries are built far more often than edited (a
/// workload loads every allocation at once; platform attach, §7.3's
/// pollution and labelled hijacks add a few objects each) and read more
/// often still: validating transits ask per import, the full-table
/// classifier per (prefix, origin) pair.
///
/// The objects sort by origin first, so a query narrows to its origin's
/// few objects once and probes only those. Sorted by prefix first, every
/// probed length would search the whole table: measured, that made a
/// `fulltable-large` pass 5–8 % slower.
#[derive(Debug, Clone, Default)]
pub struct IrrDatabase {
    /// Sorted by (origin, prefix), no repeats.
    objects: Vec<(Asn, Prefix)>,
    /// The lengths of the IPv4 objects.
    v4_lengths: PrefixLengths,
    /// The lengths of the IPv6 objects.
    v6_lengths: PrefixLengths,
}

// A registry is its objects and nothing else: one 24-byte row each, with
// no allocation of its own, so a world's two registries cost 48 bytes per
// allocated prefix.
const _: () = assert!(
    size_of::<(Asn, Prefix)>() == 24,
    "a route object outgrows 24 bytes: both registries grow with it"
);

impl IrrDatabase {
    /// Empty database.
    pub fn new() -> Self {
        IrrDatabase::default()
    }

    /// Registers a route object, at its sorted position. A bulk load
    /// collects instead ([`FromIterator`]), which sorts once.
    pub fn register(&mut self, prefix: Prefix, asn: Asn) {
        if let Err(at) = self.objects.binary_search(&(asn, prefix)) {
            self.objects.insert(at, (asn, prefix));
            self.lengths_mut(&prefix).insert(prefix.len());
        }
    }

    /// The lengths held in `prefix`'s family.
    fn lengths_mut(&mut self, prefix: &Prefix) -> &mut PrefixLengths {
        match prefix {
            Prefix::V4(_) => &mut self.v4_lengths,
            Prefix::V6(_) => &mut self.v6_lengths,
        }
    }

    /// The objects of `asn`, by prefix: a binary search finds where they
    /// start, and a gallop from there where they end, since an origin
    /// holds few objects.
    fn objects_of(&self, asn: Asn) -> &[(Asn, Prefix)] {
        let from = &self.objects[self.objects.partition_point(|&(a, _)| a < asn)..];
        let mut end = 1;
        while end < from.len() && from[end].0 == asn {
            end *= 2;
        }
        let end = end.min(from.len());
        &from[..from[..end].partition_point(|&(a, _)| a == asn)]
    }

    /// True if `asn` has a route object covering `prefix` (exact or
    /// less-specific covering object).
    ///
    /// Every covering object of `prefix` is `prefix` truncated to some
    /// shorter (or equal) length, so this visits only the lengths the
    /// family's objects hold at or below the query's, longest first, and
    /// binary-searches `asn`'s objects for the truncation at each: `O(log
    /// objects + held lengths · log objects of asn)`.
    /// `Ipv4Prefix::new`/`Ipv6Prefix::new` mask the address down to the
    /// length, so the truncations are already in the canonical form the
    /// objects are sorted by.
    pub fn is_registered(&self, prefix: &Prefix, asn: Asn) -> bool {
        let own = self.objects_of(asn);
        let held = |object: Prefix| own.binary_search(&(asn, object)).is_ok();
        match prefix {
            Prefix::V4(p) => self.v4_lengths.at_most(p.len()).any(|l| {
                let covering = Ipv4Prefix::new(p.network(), l).expect("len below source len");
                held(Prefix::V4(covering))
            }),
            Prefix::V6(p) => self.v6_lengths.at_most(p.len()).any(|l| {
                let covering = Ipv6Prefix::new(p.network(), l).expect("len below source len");
                held(Prefix::V6(covering))
            }),
        }
    }
}

/// The bulk load: collects, sorts and deduplicates once.
impl FromIterator<(Prefix, Asn)> for IrrDatabase {
    fn from_iter<I: IntoIterator<Item = (Prefix, Asn)>>(objects: I) -> Self {
        let objects = objects.into_iter().map(|(prefix, asn)| (asn, prefix));
        let mut objects: Vec<_> = objects.collect();
        objects.sort_unstable();
        objects.dedup();
        objects.shrink_to_fit();
        let mut irr = IrrDatabase::default();
        for (_, prefix) in &objects {
            irr.lengths_mut(prefix).insert(prefix.len());
        }
        irr.objects = objects;
        irr
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
    /// Import local-pref by business role.
    pub local_pref: LocalPrefByRole,
    /// How a route server orders conflicting control communities (only
    /// used when the topology marks this node as a route server). A route
    /// server always strips the control communities it applied and tags
    /// what it redistributes (`RS:ingress-id`, §4.3): it adds
    /// `rs:(100 + sender mod 5)` to every route it imports.
    pub rs_eval_order: RsEvalOrder,
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
            local_pref: LocalPrefByRole::default(),
            rs_eval_order: RsEvalOrder::SuppressFirst,
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
