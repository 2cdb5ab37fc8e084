//! Prefix equivalence classification for flood memoization.
//!
//! Two prefixes **flood identically up to the prefix label** when the
//! engine cannot distinguish them anywhere except through that label. The
//! [`PrefixClassifier`] compiles, once per session, everything in the
//! import/export pipeline that reads the prefix itself, so that a campaign
//! can key each prefix of a schedule by its class, simulate one
//! representative, and replay the representative's
//! [`crate::PrefixOutcome`] — relabeled — for every other member.
//!
//! # Soundness conditions
//!
//! The class key must cover **every** prefix-sensitive branch of the
//! engine; over-splitting (two equivalent prefixes landing in different
//! classes) only costs speed, while over-merging would corrupt results.
//! The key therefore contains:
//!
//! * the full **episode shape** per episode, in schedule order: origin
//!   ASN, time (stamped into collector observations), withdraw flag,
//!   origination communities and large communities, and forged origin —
//!   everything [`crate::engine::Origination`] carries except the prefix;
//! * a **prefix-length bucket**: `router::import` compares the prefix
//!   length against each blackhole service's `min_prefix_len` and the
//!   fixed `/24` import limit (v6: the fixed 48/96 thresholds), so
//!   lengths are bucketed by which of the session's compiled thresholds
//!   they reach — two lengths in one bucket take identical branches at
//!   every router;
//! * per-episode **IRR and RPKI registration bits** for the validated
//!   origin (`forged_origin` if set, else the origin), computed only when
//!   some config actually validates — `is_registered` is the only other
//!   place the engine reads the prefix value;
//! * the **retention bit** (membership in the `RetainRoutes::Prefixes`
//!   set decides whether `final_routes` is populated);
//! * a **singleton escape**: any prefix named by a `targeted_egress` rule
//!   is its own class, because that rule matches the exact prefix on
//!   export.
//!
//! The address *bits* of the prefix are deliberately absent everywhere
//! else: routing is longest-prefix-match per prefix and the engine
//! simulates each prefix independently, so nothing besides the branches
//! above can observe them. The determinism suite locks the whole contract
//! in with `memoized ≡ unmemoized` property tests over random worlds,
//! including worlds with per-prefix policies that force singleton classes.

use crate::engine::Origination;
use crate::policy::{IrrDatabase, OriginValidation, RouterConfig, MAX_PREFIX_LEN_V4};
use bgpworms_types::{Asn, Community, LargeCommunity, Prefix};
use std::collections::BTreeSet;

/// Everything one episode contributes to a class key — an
/// [`Origination`] minus its prefix, plus the origin's per-prefix
/// registration bits. Borrows the attribute vectors; keys never outlive
/// the schedule they classify.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EpisodeShape<'o> {
    origin: Asn,
    time: u32,
    withdraw: bool,
    communities: &'o [Community],
    large: &'o [LargeCommunity],
    forged: Option<Asn>,
    /// IRR registration of the validated origin for this prefix (false
    /// when no config validates against the IRR — never looked up).
    irr_ok: bool,
    /// RPKI registration, when some config validates strictly.
    rpki_ok: bool,
}

/// The equivalence-class key of one prefix under one schedule: prefixes
/// with equal keys produce identical [`crate::PrefixOutcome`]s up to the
/// prefix label. See the module docs for why these fields are sufficient.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ClassKey<'o> {
    episodes: Vec<EpisodeShape<'o>>,
    /// Address family (the v4/v6 threshold sets are disjoint).
    v4: bool,
    /// How many of the session's length thresholds this prefix's length
    /// reaches — see [`PrefixClassifier::len_bucket`].
    len_bucket: u8,
    /// Whether `final_routes` is populated for this prefix.
    retained: bool,
    /// `Some(prefix)` forces a singleton class for prefixes named by
    /// exact-match per-prefix policy (`targeted_egress`).
    singleton: Option<Prefix>,
}

/// The compiled prefix-sensitivity summary of one session: every length
/// threshold, validation mode, and exact-match per-prefix rule found in
/// the resolved per-node configs. Built once by `SimSpec::compile`.
#[derive(Debug, Clone)]
pub(crate) struct PrefixClassifier {
    /// Sorted, deduplicated v4 length thresholds: each blackhole
    /// service's `min_prefix_len` (branch: `len >= t`) and the import
    /// limit's `25` (branch: `len > 24` ≡ `len >= 25`).
    v4_thresholds: Vec<u8>,
    /// v6 thresholds: the import filter's fixed `> 48` and the blackhole
    /// applicability's fixed `>= 96`.
    v6_thresholds: Vec<u8>,
    /// Some config validates against the (pollutable) IRR.
    check_irr: bool,
    /// Some config validates strictly against the RPKI-like registry.
    check_rpki: bool,
    /// Prefixes named by exact-match per-prefix rules; each is its own
    /// class.
    singleton_prefixes: BTreeSet<Prefix>,
}

impl PrefixClassifier {
    /// Scans the resolved per-node configs for every prefix-sensitive
    /// feature. Thresholds that no config can reach never split a class
    /// they shouldn't — extra thresholds only over-split, which is sound.
    pub(crate) fn from_configs<'c>(configs: impl IntoIterator<Item = &'c RouterConfig>) -> Self {
        let mut v4: BTreeSet<u8> = BTreeSet::from([MAX_PREFIX_LEN_V4 + 1]);
        let mut check_irr = false;
        let mut check_rpki = false;
        let mut singleton_prefixes = BTreeSet::new();
        for cfg in configs {
            if let Some(bh) = &cfg.services.blackhole {
                v4.insert(bh.min_prefix_len);
            }
            match cfg.validation {
                OriginValidation::None => {}
                OriginValidation::Irr { .. } => check_irr = true,
                OriginValidation::Strict => check_rpki = true,
            }
            for (p, _) in &cfg.tagging.targeted_egress {
                singleton_prefixes.insert(*p);
            }
        }
        PrefixClassifier {
            v4_thresholds: v4.into_iter().collect(),
            v6_thresholds: vec![49, 96],
            check_irr,
            check_rpki,
            singleton_prefixes,
        }
    }

    /// The number of session thresholds `prefix`'s length reaches. Two
    /// lengths with equal bucket reach exactly the same (sorted) prefix
    /// of the threshold list, so every `len >= t` branch in the engine
    /// agrees between them.
    fn len_bucket(&self, prefix: &Prefix) -> u8 {
        let (thresholds, len) = match prefix {
            Prefix::V4(p) => (&self.v4_thresholds, p.len()),
            Prefix::V6(p) => (&self.v6_thresholds, p.len()),
        };
        thresholds.partition_point(|&t| t <= len) as u8
    }

    /// Builds the class key of `prefix` under its (time-sorted, exactly as
    /// `run_prefix` sees them) episodes. `retained` is the session's
    /// retention decision for this prefix; the registries are consulted
    /// only when some config validates.
    pub(crate) fn key_for<'o>(
        &self,
        prefix: Prefix,
        episodes: &[&'o Origination],
        retained: bool,
        irr: &IrrDatabase,
        rpki: &IrrDatabase,
    ) -> ClassKey<'o> {
        let episodes = episodes
            .iter()
            .map(|ep| {
                let validated = ep.forged_origin.unwrap_or(ep.origin);
                let announce = !ep.withdraw;
                EpisodeShape {
                    origin: ep.origin,
                    time: ep.time,
                    withdraw: ep.withdraw,
                    communities: &ep.communities,
                    large: &ep.large_communities,
                    forged: ep.forged_origin,
                    irr_ok: announce && self.check_irr && irr.is_registered(&prefix, validated),
                    rpki_ok: announce && self.check_rpki && rpki.is_registered(&prefix, validated),
                }
            })
            .collect();
        ClassKey {
            episodes,
            v4: prefix.is_v4(),
            len_bucket: self.len_bucket(&prefix),
            retained,
            singleton: self.singleton_prefixes.contains(&prefix).then_some(prefix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BlackholeService;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn classifier_of(configs: &[RouterConfig]) -> PrefixClassifier {
        PrefixClassifier::from_configs(configs.iter())
    }

    fn key<'o>(
        c: &PrefixClassifier,
        prefix: Prefix,
        eps: &[&'o Origination],
        irr: &IrrDatabase,
    ) -> ClassKey<'o> {
        c.key_for(prefix, eps, false, irr, &IrrDatabase::new())
    }

    #[test]
    fn lengths_bucket_by_compiled_thresholds() {
        // Default config: the only v4 threshold is the import limit's
        // 25. Everything up to /24 shares a bucket; /25+ is another.
        let c = classifier_of(&[RouterConfig::defaults(Asn::new(1))]);
        assert_eq!(c.v4_thresholds, vec![25]);
        assert_eq!(
            c.len_bucket(&p("10.0.0.0/16")),
            c.len_bucket(&p("10.9.0.0/24"))
        );
        assert_ne!(
            c.len_bucket(&p("10.0.0.0/24")),
            c.len_bucket(&p("10.0.0.0/25"))
        );

        // A /32-only blackhole service adds a threshold at 32: /24 (no
        // blackhole anywhere) and /32 (blackholable) must split.
        let mut cfg = RouterConfig::defaults(Asn::new(2));
        cfg.services.blackhole = Some(BlackholeService {
            min_prefix_len: 32,
            ..BlackholeService::default()
        });
        let c = classifier_of(&[cfg]);
        assert_eq!(c.v4_thresholds, vec![25, 32]);
        assert_ne!(
            c.len_bucket(&p("10.0.0.0/25")),
            c.len_bucket(&p("10.0.0.0/32"))
        );
    }

    #[test]
    fn v6_thresholds_are_the_fixed_engine_branches() {
        let c = classifier_of(&[RouterConfig::defaults(Asn::new(1))]);
        assert_eq!(c.len_bucket(&p("2400::/32")), c.len_bucket(&p("2400::/48")));
        assert_ne!(c.len_bucket(&p("2400::/48")), c.len_bucket(&p("2400::/49")));
        assert_ne!(c.len_bucket(&p("2400::/64")), c.len_bucket(&p("2400::/96")));
        // Family never merges: a v4 and v6 prefix with equal buckets still
        // differ on the family bit.
        let eps: Vec<&Origination> = Vec::new();
        let irr = IrrDatabase::new();
        assert_ne!(
            key(&c, p("10.0.0.0/16"), &eps, &irr),
            key(&c, p("2400::/32"), &eps, &irr)
        );
    }

    #[test]
    fn same_origin_same_shape_prefixes_share_a_class() {
        let c = classifier_of(&[RouterConfig::defaults(Asn::new(1))]);
        let irr = IrrDatabase::new();
        let a = Origination::announce(Asn::new(7), p("10.0.0.0/20"), vec![Community::new(7, 1)]);
        let b = Origination::announce(Asn::new(7), p("10.16.0.0/20"), vec![Community::new(7, 1)]);
        let ka = key(&c, a.prefix, &[&a], &irr);
        let kb = key(&c, b.prefix, &[&b], &irr);
        assert_eq!(ka, kb);

        // A different origin, a different time, or different attributes
        // split the class.
        let other =
            Origination::announce(Asn::new(8), p("10.32.0.0/20"), vec![Community::new(7, 1)]);
        assert_ne!(ka, key(&c, other.prefix, &[&other], &irr));
        let late = a.clone().at(100);
        assert_ne!(ka, key(&c, late.prefix, &[&late], &irr));
    }

    #[test]
    fn irr_bits_split_only_when_some_config_validates() {
        let a = Origination::announce(Asn::new(7), p("10.0.0.0/20"), vec![]);
        let b = Origination::announce(Asn::new(7), p("10.16.0.0/20"), vec![]);
        let mut irr = IrrDatabase::new();
        irr.register(a.prefix, Asn::new(7)); // only `a` is registered

        // Nobody validates: registration is invisible, one class.
        let c = classifier_of(&[RouterConfig::defaults(Asn::new(1))]);
        assert_eq!(
            key(&c, a.prefix, &[&a], &irr),
            key(&c, b.prefix, &[&b], &irr)
        );

        // A validating config makes the registration bit part of the key.
        let mut validating = RouterConfig::defaults(Asn::new(2));
        validating.validation = OriginValidation::Irr {
            validate_after_blackhole: false,
        };
        let c = classifier_of(&[validating]);
        assert_ne!(
            key(&c, a.prefix, &[&a], &irr),
            key(&c, b.prefix, &[&b], &irr)
        );

        // The forged origin is what gets validated (type-1 hijack).
        let forged_a = a.clone().forging(Asn::new(9));
        let forged_b = b.clone().forging(Asn::new(9));
        assert_eq!(
            key(&c, forged_a.prefix, &[&forged_a], &irr),
            key(&c, forged_b.prefix, &[&forged_b], &irr),
            "neither forged origin is registered — same shape"
        );
    }

    #[test]
    fn targeted_egress_prefixes_are_singletons() {
        let victim = p("10.0.0.0/20");
        let mut cfg = RouterConfig::defaults(Asn::new(1));
        cfg.tagging.targeted_egress = vec![(victim, Community::new(1, 666))];
        let c = classifier_of(&[cfg]);
        let irr = IrrDatabase::new();
        let a = Origination::announce(Asn::new(7), victim, vec![]);
        let b = Origination::announce(Asn::new(7), p("10.16.0.0/20"), vec![]);
        let twin = Origination::announce(Asn::new(7), p("10.32.0.0/20"), vec![]);
        assert_ne!(
            key(&c, a.prefix, &[&a], &irr),
            key(&c, b.prefix, &[&b], &irr),
            "the targeted prefix must not share a class"
        );
        assert_eq!(
            key(&c, b.prefix, &[&b], &irr),
            key(&c, twin.prefix, &[&twin], &irr),
            "untargeted prefixes still merge"
        );
    }

    #[test]
    fn retention_is_part_of_the_key() {
        let c = classifier_of(&[RouterConfig::defaults(Asn::new(1))]);
        let irr = IrrDatabase::new();
        let rpki = IrrDatabase::new();
        let a = Origination::announce(Asn::new(7), p("10.0.0.0/20"), vec![]);
        assert_ne!(
            c.key_for(a.prefix, &[&a], true, &irr, &rpki),
            c.key_for(a.prefix, &[&a], false, &irr, &rpki)
        );
    }
}
