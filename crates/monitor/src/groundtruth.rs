//! Labeled attack runs: benign workload + injected community attacks, with
//! ground-truth labels for scoring the passive detectors.
//!
//! The paper's future agenda asks for attack inference from passive
//! measurements and notes that *"identifying an attacker in BGP is not
//! trivial due to the lack of authentication and integrity"*. On the real
//! Internet there is no ground truth to score against; on the simulator
//! there is. A [`LabeledRun`] contains a full generated Internet (including
//! its benign RTBH episodes — the detectors' hardest negatives), a set of
//! [`InjectedAttack`]s covering every §5 scenario, the collector
//! observations the attacks produced, and the ground-truth community
//! dictionary. [`evaluate`] scores any alert list against the labels.
//!
//! The observations are read straight from the simulator's feed
//! ([`feed_set`]), not archived to MRT and parsed back: the set is the one
//! the archive would parse to, and the MRT codec's own tests and the
//! benchmark are where MRT is exercised as the interchange boundary.

use crate::detectors::{Alert, AlertKind};
use crate::dictionary::CommunityDictionary;
use bgpworms_core::{FeedAttrs, FeedRow, ObservationSet};
use bgpworms_routesim::router::blackhole_community_of;
use bgpworms_routesim::{
    prepend_value, CollectorObservation, CollectorSpec, CommunityPropagationPolicy, FeedKind,
    Origination, Vendor, Workload, WorkloadParams,
};
use bgpworms_topology::{
    addressing::AddressingParams, PrefixAllocation, Tier, Topology, TopologyParams,
};
use bgpworms_types::{Asn, Community, Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The attack classes that can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InjectedKind {
    /// Attacker announces a more-specific of the victim's prefix under its
    /// own origin, tagged with the target's blackhole community (Fig 7b).
    RtbhHijack,
    /// Same, but forging the victim's origin ASN (type-1 hijack).
    RtbhForgedOrigin,
    /// On-path attacker adds the target's blackhole community to the
    /// victim's own announcement (Fig 7a).
    RtbhOnPath,
    /// On-path attacker adds the target's prepend community to the
    /// victim's announcement (Fig 2 / Fig 8a).
    SteeringPrepend,
    /// Attacker originates with conflicting route-server announce-to and
    /// suppress communities (Fig 9 / §7.5).
    RsConflict,
}

impl InjectedKind {
    /// All kinds, in injection order.
    pub const ALL: [InjectedKind; 5] = [
        InjectedKind::RtbhHijack,
        InjectedKind::RtbhForgedOrigin,
        InjectedKind::RtbhOnPath,
        InjectedKind::SteeringPrepend,
        InjectedKind::RsConflict,
    ];

    /// Alert kinds that count as detecting this injection.
    fn matching_alerts(self) -> &'static [AlertKind] {
        match self {
            // A hijack-with-blackhole is also a third-party trigger; either
            // alarm brings the right operator attention.
            InjectedKind::RtbhHijack | InjectedKind::RtbhForgedOrigin => {
                &[AlertKind::RtbhHijack, AlertKind::RtbhThirdParty]
            }
            InjectedKind::RtbhOnPath => &[AlertKind::RtbhThirdParty, AlertKind::RtbhHijack],
            InjectedKind::SteeringPrepend => &[AlertKind::SteeringAbuse],
            InjectedKind::RsConflict => &[AlertKind::RouteServerConflict],
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            InjectedKind::RtbhHijack => "rtbh-hijack",
            InjectedKind::RtbhForgedOrigin => "rtbh-forged-origin",
            InjectedKind::RtbhOnPath => "rtbh-on-path",
            InjectedKind::SteeringPrepend => "steering-prepend",
            InjectedKind::RsConflict => "rs-conflict",
        }
    }
}

impl fmt::Display for InjectedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One injected attack with its ground-truth roles.
#[derive(Debug, Clone)]
pub struct InjectedAttack {
    /// Attack class.
    pub kind: InjectedKind,
    /// The AS performing the manipulation.
    pub attacker: Asn,
    /// The AS whose prefix or traffic is affected.
    pub victim: Asn,
    /// The victim's (covering) prefix.
    pub victim_prefix: Prefix,
    /// The prefix alerts should name (the more-specific for hijacks, the
    /// victim prefix for on-path tagging, the attacker's own prefix for
    /// route-server conflicts).
    pub attack_prefix: Prefix,
    /// The community used.
    pub community: Community,
    /// The community target (service provider / route server).
    pub target: Asn,
}

/// Parameters of a labeled run.
#[derive(Debug, Clone)]
pub struct LabeledRunParams {
    /// Topology generator parameters.
    pub topo: TopologyParams,
    /// Benign workload parameters (includes legitimate RTBH episodes).
    pub workload: WorkloadParams,
    /// Injection RNG seed.
    pub seed: u64,
    /// How many instances of each attack kind to inject (best effort; the
    /// generated topology may not support every slot).
    pub per_kind: usize,
}

impl Default for LabeledRunParams {
    fn default() -> Self {
        LabeledRunParams {
            topo: TopologyParams::small(),
            workload: WorkloadParams::default(),
            seed: 2018,
            per_kind: 3,
        }
    }
}

/// A finished labeled run.
pub struct LabeledRun {
    /// The topology (for relationship-aware detection).
    pub topo: Topology,
    /// Prefix ground truth.
    pub alloc: PrefixAllocation,
    /// The collector observations, read from the simulator's feed.
    pub observations: ObservationSet,
    /// Ground-truth community semantics.
    pub truth_dict: CommunityDictionary,
    /// The injected attacks.
    pub injections: Vec<InjectedAttack>,
}

/// Builds a labeled run: generate, inject, simulate, read the feed.
pub fn build(params: &LabeledRunParams) -> LabeledRun {
    let topo = params.topo.clone().seed(params.seed).build();
    let alloc = PrefixAllocation::assign(&topo, AddressingParams { seed: params.seed });
    let mut workload = Workload::generate(&topo, &alloc, &params.workload);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xA77A_C0DE);

    let mut injections = Vec::new();
    let mut used_victims: BTreeSet<Asn> = BTreeSet::new();
    let inject_time = bgpworms_routesim::workload::APRIL_2018 + 27 * 86_400;

    for kind in InjectedKind::ALL {
        for slot in 0..params.per_kind {
            if let Some(attack) =
                plan_attack(kind, &topo, &alloc, &workload, &mut used_victims, &mut rng)
            {
                apply_attack(&attack, &mut workload, inject_time + slot as u32 * 600);
                injections.push(attack);
            }
        }
    }

    let sim = workload.simulation(&topo).compile();
    let result = sim.run(&workload.originations);
    drop(sim);
    let observations = feed_set(&workload.collectors, &result.observations);
    drop(result);

    let truth_dict = CommunityDictionary::from_workload(workload.configs.values());

    LabeledRun {
        topo,
        alloc,
        observations,
        truth_dict,
        injections,
    }
}

/// A finished run's collector feed as an [`ObservationSet`], read in
/// memory: each collector of `collectors` in order, its observations in
/// feed order, each announcement carrying what its session carried to the
/// monitor ([`CollectorObservation::carried`], which the MRT archive is
/// written from).
///
/// This is the product path from a run to the analyses' input. It builds
/// the set `archive_all` → `from_archives` builds (the façade's
/// `mrt_interchange.rs` holds the two `Debug`-equal) without writing or
/// parsing a byte; that round trip is kept for the benchmark and the tests
/// whose subject is the bytes.
///
/// # Panics
///
/// If a collector lists one peer AS twice
/// ([`CollectorSpec::repeated_peer`]): a row names its session by the peer
/// AS alone, so the two sessions' rows could not be told apart.
pub fn feed_set(
    collectors: &[CollectorSpec],
    observations: &BTreeMap<String, Vec<CollectorObservation>>,
) -> ObservationSet {
    ObservationSet::from_rows(collectors.iter().map(|spec| {
        if let Some(peer) = spec.repeated_peer() {
            panic!("collector {} lists peer {peer} twice", spec.name);
        }
        let heard = observations.get(&spec.name).map_or(&[][..], Vec::as_slice);
        let rows = heard.iter().map(|obs| FeedRow {
            time: obs.time,
            peer: obs.peer,
            prefix: obs.prefix,
            announced: obs.carried().map(|carried| FeedAttrs {
                path: carried.path,
                communities: carried.communities,
                large_communities: carried.large_communities,
            }),
        });
        (spec.platform.as_str(), spec.name.as_str(), rows)
    }))
}

/// Selects roles for one attack instance, avoiding reused victims so every
/// label names a distinct prefix.
fn plan_attack(
    kind: InjectedKind,
    topo: &Topology,
    alloc: &PrefixAllocation,
    workload: &Workload,
    used_victims: &mut BTreeSet<Asn>,
    rng: &mut StdRng,
) -> Option<InjectedAttack> {
    let mut stubs: Vec<Asn> = topo
        .ases()
        .filter(|n| n.tier == Tier::Stub && !used_victims.contains(&n.asn))
        .map(|n| n.asn)
        .collect();
    stubs.shuffle(rng);

    // Transit ASes offering a blackhole service and a u16 ASN
    // (community-encodable).
    let blackhole_targets: Vec<Asn> = workload
        .configs
        .values()
        .filter(|c| c.services.blackhole.is_some() && c.asn.as_u16().is_some())
        .map(|c| c.asn)
        .collect();
    let prepend_targets: Vec<Asn> = workload
        .configs
        .values()
        .filter(|c| !c.services.prepend.is_empty() && c.asn.as_u16().is_some())
        .map(|c| c.asn)
        .collect();

    match kind {
        InjectedKind::RtbhHijack | InjectedKind::RtbhForgedOrigin => {
            let target = *blackhole_targets.first()?;
            let community = blackhole_community_of(target)?;
            for victim in &stubs {
                let Some(v4) = alloc.prefixes_of(*victim).iter().find_map(|p| p.as_v4()) else {
                    continue;
                };
                // A victim longer than /24 has no /24 to hijack.
                let Ok(sub) = v4.first_subnet(24) else {
                    continue;
                };
                // A stub attacker that is not the victim and shares no
                // provider with it (so the forged adjacency is truly novel).
                let victim_providers: BTreeSet<Asn> = topo.providers_of(*victim).collect();
                let Some(attacker) = stubs.iter().copied().find(|a| {
                    *a != *victim
                        && topo
                            .providers_of(*a)
                            .all(|p| !victim_providers.contains(&p))
                }) else {
                    continue;
                };
                used_victims.insert(*victim);
                used_victims.insert(attacker);
                return Some(InjectedAttack {
                    kind,
                    attacker,
                    victim: *victim,
                    victim_prefix: Prefix::V4(v4),
                    attack_prefix: Prefix::V4(sub),
                    community,
                    target,
                });
            }
            None
        }
        InjectedKind::RtbhOnPath | InjectedKind::SteeringPrepend => {
            let targets = if kind == InjectedKind::RtbhOnPath {
                &blackhole_targets
            } else {
                &prepend_targets
            };
            // Steering abuse is only a *scorable* label when its effect can
            // reach a collector: the target's prepending is visible on the
            // target's own full-feed collector session, provided the target
            // also re-exports the triggering community (ForwardAll, or
            // StripUnknown — the community names the target itself).
            let full_feed_peers: BTreeSet<Asn> = workload
                .collectors
                .iter()
                .flat_map(|c| c.peers.iter())
                .filter(|(_, feed)| *feed == FeedKind::Full)
                .map(|(peer, _)| *peer)
                .collect();
            let visible_steering_target = |t: &Asn| {
                let Some(cfg) = workload.configs.get(t) else {
                    return false;
                };
                full_feed_peers.contains(t)
                    && cfg.sends_communities()
                    && matches!(
                        cfg.propagation,
                        CommunityPropagationPolicy::ForwardAll
                            | CommunityPropagationPolicy::StripUnknown
                    )
            };
            for victim in &stubs {
                let Some(v4) = alloc.prefixes_of(*victim).iter().find_map(|p| p.as_v4()) else {
                    continue;
                };
                // The attacker is one of the victim's providers (on-path by
                // construction); the target is one of the attacker's
                // providers offering the service — the announcement reaches
                // the target over a customer session, so it acts (§7.4).
                // The target must NOT also be a direct provider of the
                // victim: a provider's own community on its customer's
                // route is passively indistinguishable from the customer's
                // request (the paper's authentication gap), so such
                // injections would be undetectable-by-construction labels.
                let victim_providers: BTreeSet<Asn> = topo.providers_of(*victim).collect();
                for attacker in victim_providers.iter().copied() {
                    let usable = |t: &Asn| {
                        targets.contains(t) && *t != attacker && !victim_providers.contains(t)
                    };
                    let target = match kind {
                        InjectedKind::SteeringPrepend => topo
                            .providers_of(attacker)
                            .find(|t| usable(t) && visible_steering_target(t)),
                        _ => topo.providers_of(attacker).find(usable),
                    };
                    let Some(target) = target else { continue };
                    let community = match kind {
                        InjectedKind::RtbhOnPath => blackhole_community_of(target),
                        _ => target
                            .as_u16()
                            .map(|t16| Community::new(t16, prepend_value(2))),
                    };
                    let Some(community) = community else { continue };
                    used_victims.insert(*victim);
                    return Some(InjectedAttack {
                        kind,
                        attacker,
                        victim: *victim,
                        victim_prefix: Prefix::V4(v4),
                        attack_prefix: Prefix::V4(v4),
                        community,
                        target,
                    });
                }
            }
            None
        }
        InjectedKind::RsConflict => {
            // A route server and two of its members: the attacker member
            // originates its own prefix with announce-to(attackee) plus
            // suppress(attackee).
            for node in topo.ases() {
                if node.tier != Tier::RouteServer {
                    continue;
                }
                if node.asn.as_u16().is_none() {
                    continue;
                }
                let members: Vec<Asn> = topo
                    .peers_of(node.asn)
                    .filter(|m| m.as_u16().is_some())
                    .collect();
                if members.len() < 2 {
                    continue;
                }
                let Some(attacker) = members
                    .iter()
                    .copied()
                    .find(|m| !used_victims.contains(m) && !alloc.prefixes_of(*m).is_empty())
                else {
                    continue;
                };
                let Some(attackee) = members.iter().copied().find(|m| *m != attacker) else {
                    continue;
                };
                let Some(a16) = attackee.as_u16() else {
                    continue;
                };
                let Some(own) = alloc.prefixes_of(attacker).first().copied() else {
                    continue;
                };
                used_victims.insert(attacker);
                return Some(InjectedAttack {
                    kind,
                    attacker,
                    victim: attackee,
                    victim_prefix: own,
                    attack_prefix: own,
                    community: Community::new(0, a16),
                    target: node.asn,
                });
            }
            None
        }
    }
}

/// The attacker's injection point cooperates with the attack: like the
/// paper's PEERING vantage (§7.1: "can set arbitrary communities"), it
/// sends communities and forwards everything.
fn make_attacker_cooperative(workload: &mut Workload, attacker: Asn) {
    if let Some(cfg) = workload.configs.get_mut(&attacker) {
        cfg.vendor = Vendor::Juniper;
        cfg.send_community_configured = true;
        cfg.propagation = CommunityPropagationPolicy::ForwardAll;
    }
}

/// Wires one planned attack into the workload.
fn apply_attack(attack: &InjectedAttack, workload: &mut Workload, time: u32) {
    match attack.kind {
        InjectedKind::RtbhHijack => {
            make_attacker_cooperative(workload, attack.attacker);
            // §7.3: the hijack required updating the IRR — circumvention.
            workload.irr.register(attack.attack_prefix, attack.attacker);
            workload.originations.push(
                Origination::announce(
                    attack.attacker,
                    attack.attack_prefix,
                    vec![attack.community],
                )
                .at(time),
            );
        }
        InjectedKind::RtbhForgedOrigin => {
            make_attacker_cooperative(workload, attack.attacker);
            workload.originations.push(
                Origination::announce(
                    attack.attacker,
                    attack.attack_prefix,
                    vec![attack.community],
                )
                .at(time)
                .forging(attack.victim),
            );
        }
        InjectedKind::RtbhOnPath | InjectedKind::SteeringPrepend => {
            // A deliberate on-path tagger configures its router to actually
            // send communities (otherwise the tag would die on its egress).
            make_attacker_cooperative(workload, attack.attacker);
            if let Some(cfg) = workload.configs.get_mut(&attack.attacker) {
                cfg.tagging
                    .targeted_egress
                    .push((attack.attack_prefix, attack.community));
            }
        }
        InjectedKind::RsConflict => {
            make_attacker_cooperative(workload, attack.attacker);
            let a16 = attack.community.value_part();
            let rs16 = attack.target.as_u16().unwrap_or(0);
            workload.originations.push(
                Origination::announce(
                    attack.attacker,
                    attack.attack_prefix,
                    vec![Community::new(rs16, a16), Community::new(0, a16)],
                )
                .at(time),
            );
        }
    }
}

/// Per-kind detection scores.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindEval {
    /// Injections detected by a compatible alert.
    pub detected: usize,
    /// Injections missed.
    pub missed: usize,
    /// Detected injections where the true attacker is in the alert's
    /// suspected set.
    pub attributed: usize,
}

impl KindEval {
    /// Recall of the detectors on this kind.
    pub fn recall(&self) -> f64 {
        let total = self.detected + self.missed;
        if total == 0 {
            1.0
        } else {
            self.detected as f64 / total as f64
        }
    }

    /// Fraction of detections naming the true attacker.
    pub fn attribution(&self) -> f64 {
        if self.detected == 0 {
            1.0
        } else {
            self.attributed as f64 / self.detected as f64
        }
    }
}

/// The full evaluation of an alert list against a labeled run.
#[derive(Debug, Clone, Default)]
pub struct DetectionEval {
    /// Per-injected-kind scores.
    pub per_kind: BTreeMap<&'static str, KindEval>,
    /// Attack-class alerts that match no injection (false alarms; benign
    /// workload RTBH episodes are the usual source).
    pub false_alarms: usize,
    /// Total attack-class alerts considered.
    pub attack_alerts: usize,
}

impl DetectionEval {
    /// Overall recall across kinds.
    pub fn recall(&self) -> f64 {
        let (d, m) = self
            .per_kind
            .values()
            .fold((0, 0), |(d, m), k| (d + k.detected, m + k.missed));
        if d + m == 0 {
            1.0
        } else {
            d as f64 / (d + m) as f64
        }
    }

    /// Precision over attack-class alerts.
    pub fn precision(&self) -> f64 {
        if self.attack_alerts == 0 {
            1.0
        } else {
            (self.attack_alerts - self.false_alarms) as f64 / self.attack_alerts as f64
        }
    }

    /// Overall attribution rate.
    pub fn attribution(&self) -> f64 {
        let (a, d) = self
            .per_kind
            .values()
            .fold((0, 0), |(a, d), k| (a + k.attributed, d + k.detected));
        if d == 0 {
            1.0
        } else {
            a as f64 / d as f64
        }
    }
}

/// The alert kinds considered "attack-class" for precision accounting.
fn is_attack_alert(kind: AlertKind) -> bool {
    matches!(
        kind,
        AlertKind::RtbhHijack
            | AlertKind::RtbhThirdParty
            | AlertKind::SteeringAbuse
            | AlertKind::RouteServerConflict
    )
}

/// Scores `alerts` against the run's labels.
pub fn evaluate(run: &LabeledRun, alerts: &[Alert]) -> DetectionEval {
    let mut eval = DetectionEval::default();
    for kind in InjectedKind::ALL {
        eval.per_kind.insert(kind.label(), KindEval::default());
    }

    let mut matched_alerts: BTreeSet<usize> = BTreeSet::new();
    for injection in &run.injections {
        let compatible = injection.kind.matching_alerts();
        let mut detected = false;
        let mut attributed = false;
        for (i, alert) in alerts.iter().enumerate() {
            if alert.prefix != injection.attack_prefix || !compatible.contains(&alert.kind) {
                continue;
            }
            detected = true;
            matched_alerts.insert(i);
            if alert.suspected.contains(&injection.attacker) {
                attributed = true;
            }
        }
        let k = eval
            .per_kind
            .get_mut(injection.kind.label())
            .expect("all kinds present");
        if detected {
            k.detected += 1;
            if attributed {
                k.attributed += 1;
            }
        } else {
            k.missed += 1;
        }
    }

    for (i, alert) in alerts.iter().enumerate() {
        if !is_attack_alert(alert.kind) {
            continue;
        }
        eval.attack_alerts += 1;
        if !matched_alerts.contains(&i) {
            eval.false_alarms += 1;
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::Monitor;
    use bgpworms_core::FilteringAnalysis;

    fn small_run() -> LabeledRun {
        build(&LabeledRunParams {
            topo: TopologyParams::small(),
            workload: WorkloadParams {
                blackhole_service_prob: 0.8,
                steering_service_prob: 0.7,
                ..WorkloadParams::default()
            },
            seed: 11,
            per_kind: 2,
        })
    }

    #[test]
    fn labeled_run_injects_attacks_and_parses() {
        let run = small_run();
        assert!(
            run.injections.len() >= 5,
            "most attack slots filled: {:?}",
            run.injections.iter().map(|i| i.kind).collect::<Vec<_>>()
        );
        assert!(!run.observations.observations.is_empty());
        assert!(!run.truth_dict.is_empty());
        // Injections name distinct attack prefixes.
        let prefixes: BTreeSet<Prefix> = run.injections.iter().map(|i| i.attack_prefix).collect();
        assert_eq!(prefixes.len(), run.injections.len());
    }

    #[test]
    fn detectors_find_injected_attacks() {
        let run = small_run();
        let filters = FilteringAnalysis::compute(&run.observations);
        let monitor = Monitor::new(&run.observations, &run.truth_dict)
            .with_filters(&filters)
            .with_topology(&run.topo);
        let alerts = monitor.run();
        let eval = evaluate(&run, &alerts);
        assert!(
            eval.recall() >= 0.7,
            "recall {:.2} too low; per-kind {:?}",
            eval.recall(),
            eval.per_kind
        );
        assert!(
            eval.precision() >= 0.7,
            "precision {:.2} too low ({} false alarms of {})",
            eval.precision(),
            eval.false_alarms,
            eval.attack_alerts
        );
        assert!(
            eval.attribution() >= 0.7,
            "attribution {:.2} too low",
            eval.attribution()
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = small_run();
        let b = small_run();
        assert_eq!(a.injections.len(), b.injections.len());
        assert_eq!(
            a.observations.observations.len(),
            b.observations.observations.len()
        );
    }

    #[test]
    fn kind_eval_math() {
        let k = KindEval {
            detected: 3,
            missed: 1,
            attributed: 2,
        };
        assert!((k.recall() - 0.75).abs() < 1e-9);
        assert!((k.attribution() - 2.0 / 3.0).abs() < 1e-9);
        let empty = KindEval::default();
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.attribution(), 1.0);
    }

    #[test]
    fn evaluate_counts_false_alarms() {
        let run = small_run();
        let bogus = Alert {
            kind: AlertKind::RtbhHijack,
            prefix: "203.0.113.0/24".parse().unwrap(),
            community: None,
            suspected: vec![],
            evidence: "made up".into(),
            severity: crate::detectors::Severity::Critical,
        };
        let eval = evaluate(&run, &[bogus]);
        assert_eq!(eval.false_alarms, 1);
        assert_eq!(eval.attack_alerts, 1);
        assert_eq!(eval.precision(), 0.0);
    }

    #[test]
    #[should_panic(expected = "collector rrc00 lists peer AS2 twice")]
    fn feed_set_refuses_a_collector_that_lists_a_peer_twice() {
        // Both sessions' rows would read `peer: AS2`.
        let specs = vec![CollectorSpec {
            name: "rrc00".into(),
            platform: "RIS".into(),
            collector_id: 1,
            peers: vec![
                (Asn::new(2), FeedKind::Full),
                (Asn::new(2), FeedKind::CustomerRoutesOnly),
            ],
        }];
        let withdrawal = CollectorObservation {
            time: 1,
            peer: Asn::new(2),
            prefix: "10.0.0.0/16".parse().unwrap(),
            route: None,
        };
        let observations = BTreeMap::from([("rrc00".to_string(), vec![withdrawal])]);
        feed_set(&specs, &observations);
    }
}

/// Ignored diagnostic: dumps per-injection observability and the raised
/// alerts. Run with `cargo test -p bgpworms-monitor debug_missed_attacks --
/// --ignored --nocapture` when tuning detectors.
#[cfg(test)]
mod debug_tests {
    use super::*;
    use crate::detectors::Monitor;
    use bgpworms_core::FilteringAnalysis;

    #[test]
    #[ignore]
    fn debug_missed_attacks() {
        let run = build(&LabeledRunParams {
            topo: TopologyParams::small(),
            workload: WorkloadParams {
                blackhole_service_prob: 0.8,
                steering_service_prob: 0.7,
                ..WorkloadParams::default()
            },
            seed: 11,
            per_kind: 2,
        });
        for inj in &run.injections {
            let obs_n = run
                .observations
                .announcements()
                .filter(|o| o.prefix == inj.attack_prefix)
                .count();
            let tagged_n = run
                .observations
                .announcements()
                .filter(|o| {
                    o.prefix == inj.attack_prefix && o.communities().contains(&inj.community)
                })
                .count();
            let cover_n = run
                .observations
                .announcements()
                .filter(|o| o.prefix == inj.victim_prefix)
                .count();
            eprintln!(
                "{:<20} attacker {} victim {} target {} prefix {}  obs {obs_n} tagged {tagged_n} covering-obs {cover_n}",
                inj.kind.label(), inj.attacker, inj.victim, inj.target, inj.attack_prefix
            );
        }
        let filters = FilteringAnalysis::compute(&run.observations);
        let monitor = Monitor::new(&run.observations, &run.truth_dict)
            .with_filters(&filters)
            .with_topology(&run.topo);
        for a in monitor.run() {
            eprintln!("ALERT {a}");
        }
    }
}
