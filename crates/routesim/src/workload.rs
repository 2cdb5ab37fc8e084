//! Workload generation: assigns every AS a policy/service configuration
//! drawn from a calibrated mix, builds the four collector platforms and the
//! registries ([`Workload::policies`]), and, for the passive measurement
//! only, draws a month-like stream of origination/churn/RTBH episodes on
//! top ([`Workload::generate`]).
//!
//! The paper's headline statistics (75 % of updates carry communities, 14 %
//! of transit ASes forward foreign communities, 50 % of communities travel
//! more than four hops, blackhole communities travel less far …) must
//! *emerge* from propagation mechanics under this mix — nothing here writes
//! those numbers down.
//!
//! A generated [`Workload`] is the input to a compiled session
//! ([`Workload::simulation`] → [`crate::SimSpec::compile`]); the session
//! then serves plain runs, [`crate::Campaign`]s, and snapshot/delta
//! replays ([`crate::CompiledSim::run_snapshot`]) without re-generating or
//! re-compiling anything.

use crate::collector::{CollectorSpec, FeedKind};
use crate::engine::{Origination, SimSpec};
use crate::policy::{
    prepend_value, ActScope, BlackholeService, CommunityPropagationPolicy, CommunityServices,
    IrrDatabase, OriginValidation, RouterConfig, TaggingConfig, Vendor,
};
use crate::router::blackhole_community_of;
use bgpworms_topology::{PrefixAllocation, Tier, Topology};
use bgpworms_types::{Asn, Community, Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Unix time of 2018-04-01 00:00:00 UTC — the month the paper measures.
pub const APRIL_2018: u32 = 1_522_540_800;

/// Probability an origin community uses a *private* ASN in its high half
/// (community bundling — always off-path, §4.3).
const PRIVATE_COMMUNITY_PROB: f64 = 0.06;
/// Probability a transit AS validates origins against the IRR.
const IRR_VALIDATION_PROB: f64 = 0.25;
/// Of the validators, probability of the §6.3 mis-ordered route-map.
const MISORDERED_VALIDATION_PROB: f64 = 0.2;
/// Fraction of prefixes re-announced per churn round.
const CHURN_FRACTION: f64 = 0.35;

/// Fractions of ASes using each community propagation behaviour (§4.4:
/// "nearly everyone has a different view on this").
#[derive(Debug, Clone, Copy)]
pub struct PolicyMix {
    /// Forward everything untouched.
    pub forward_all: f64,
    /// Strip everything on egress.
    pub strip_all: f64,
    /// Act on + strip own, forward the rest.
    pub strip_own: f64,
    /// Keep only own + well-known.
    pub strip_unknown: f64,
    /// Forward only to some neighbor classes (weights the remainder).
    pub selective: f64,
}

impl Default for PolicyMix {
    fn default() -> Self {
        // Calibrated so that a large minority of transit edges forward
        // foreign communities — matching the paper's ~14 % of transit ASes
        // relaying and >50 % of updates carrying communities end to end.
        PolicyMix {
            forward_all: 0.40,
            strip_all: 0.22,
            strip_own: 0.16,
            strip_unknown: 0.12,
            selective: 0.10,
        }
    }
}

impl PolicyMix {
    fn sample(&self, rng: &mut StdRng) -> CommunityPropagationPolicy {
        let total = self.forward_all
            + self.strip_all
            + self.strip_own
            + self.strip_unknown
            + self.selective;
        let mut x: f64 = rng.gen::<f64>() * total;
        if x < self.forward_all {
            return CommunityPropagationPolicy::ForwardAll;
        }
        x -= self.forward_all;
        if x < self.strip_all {
            return CommunityPropagationPolicy::StripAll;
        }
        x -= self.strip_all;
        if x < self.strip_own {
            return CommunityPropagationPolicy::StripOwn;
        }
        x -= self.strip_own;
        if x < self.strip_unknown {
            return CommunityPropagationPolicy::StripUnknown;
        }
        CommunityPropagationPolicy::Selective {
            to_customers: rng.gen_bool(0.8),
            to_peers: rng.gen_bool(0.4),
            to_providers: rng.gen_bool(0.6),
        }
    }
}

/// All workload knobs.
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// RNG seed (independent from the topology seed).
    pub seed: u64,
    /// Propagation-policy mix.
    pub mix: PolicyMix,
    /// Probability a transit AS offers an RTBH community service.
    pub blackhole_service_prob: f64,
    /// Probability a transit AS offers prepend/local-pref steering.
    pub steering_service_prob: f64,
    /// Probability a transit AS tags ingress location (Fig 1's AS6).
    pub location_tag_prob: f64,
    /// Probability a transit AS tags origin class (Fig 1's AS1:200).
    pub class_tag_prob: f64,
    /// Probability an origin AS attaches informational communities.
    pub origin_tag_prob: f64,
    /// Fraction of Cisco-like routers.
    pub cisco_fraction: f64,
    /// Probability a Cisco router has `send-community` configured.
    pub cisco_send_community_prob: f64,
    /// Number of churn rounds (re-announcements with changed attributes).
    /// Shapes the episode schedule only: [`Workload::policies`] ignores it.
    pub churn_rounds: u32,
    /// Probability an origin AS runs one RTBH episode during the window.
    /// Shapes the episode schedule only: [`Workload::policies`] ignores it.
    pub rtbh_episode_prob: f64,
    /// Probability a 4-byte-ASN origin has adopted RFC 8092 large
    /// communities for its informational tags; the rest bundle with
    /// private 16-bit ASNs (§4.3 — "often used by networks with large AS
    /// numbers which do not fit into the 32-bit community format").
    pub large_community_adoption: f64,
    /// Fraction of ASes deploying the paper's §8 defense
    /// ([`CommunityPropagationPolicy::ScopedToReceiver`]): forward to a
    /// neighbor only communities of that neighbor's form, collectors
    /// exempt. Overrides the sampled policy when it fires.
    pub scoped_defense_adoption: f64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            seed: 2018,
            mix: PolicyMix::default(),
            blackhole_service_prob: 0.5,
            steering_service_prob: 0.35,
            location_tag_prob: 0.40,
            class_tag_prob: 0.50,
            origin_tag_prob: 0.55,
            cisco_fraction: 0.5,
            cisco_send_community_prob: 0.85,
            churn_rounds: 3,
            rtbh_episode_prob: 0.15,
            large_community_adoption: 0.5,
            scoped_defense_adoption: 0.0,
        }
    }
}

/// A generated workload: the Internet's routing policies (per-AS configs,
/// collectors, IRR and RPKI), plus, out of [`Workload::generate`], the
/// passive month's episode schedule.
///
/// The schedule is the last thing drawn, so the policies do not depend on
/// it: [`Workload::policies`] is [`Workload::generate`] with
/// `originations` empty, field for field. A caller that announces its own
/// prefixes over the policies (the §7 experiments, a full-table campaign)
/// takes `policies`; a caller that floods the month takes `generate`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Per-AS configurations.
    pub configs: BTreeMap<Asn, RouterConfig>,
    /// Collector platforms.
    pub collectors: Vec<CollectorSpec>,
    /// All origination episodes, time-ordered. Empty out of
    /// [`Workload::policies`].
    pub originations: Vec<Origination>,
    /// The IRR seeded with ground truth.
    pub irr: IrrDatabase,
    /// Ground-truth registrations.
    pub rpki: IrrDatabase,
}

impl Workload {
    /// Generates the full workload for `topo` + `alloc`: the
    /// [`Workload::policies`], then the episode schedule, drawn from where
    /// the policies left the RNG stream.
    pub fn generate(topo: &Topology, alloc: &PrefixAllocation, params: &WorkloadParams) -> Self {
        let (mut workload, mut rng) = Self::draw_policies(topo, alloc, params);
        workload.originations =
            build_originations(topo, alloc, &workload.configs, params, &mut rng);
        workload
    }

    /// The routing policies for `topo` + `alloc` without the episode
    /// schedule: the configs, collectors and registries
    /// [`Workload::generate`] draws, equal to its own, and no
    /// `originations`.
    pub fn policies(topo: &Topology, alloc: &PrefixAllocation, params: &WorkloadParams) -> Self {
        Self::draw_policies(topo, alloc, params).0
    }

    /// The draws both constructors share, and the stream the schedule
    /// continues.
    fn draw_policies(
        topo: &Topology,
        alloc: &PrefixAllocation,
        params: &WorkloadParams,
    ) -> (Self, StdRng) {
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x0420_1800_0000_0000);
        let configs = assign_configs(topo, params, &mut rng);
        let collectors = build_collectors(topo, &mut rng);
        let (irr, rpki) = build_registries(alloc);
        let workload = Workload {
            configs,
            collectors,
            originations: Vec::new(),
            irr,
            rpki,
        };
        (workload, rng)
    }

    /// Wires the workload into a [`SimSpec`] over `topo` — **by
    /// reference**: the spec borrows this workload's configs, collectors,
    /// and registries instead of deep-cloning them per call, so building a
    /// spec is O(1) and a clone only happens if the caller mutates one of
    /// those inputs (e.g. [`SimSpec::configure`]).
    ///
    /// The spec defaults to one worker thread per available core: the
    /// engine's determinism guarantee (`threads = 1` ≡ `threads = N`,
    /// locked in by `tests/determinism.rs`) makes parallelism purely a
    /// throughput knob. `threads` shards prefixes only, so a single-prefix
    /// run is the serial flood at any thread count.
    ///
    /// The generated episode stream is churn-heavy by design (re-
    /// announcements, RTBH on/off pairs), which is exactly the shape the
    /// engine's dirty-set batching and steady-state export skip are built
    /// for: a churn round that re-announces unchanged attributes converges
    /// with zero propagation events, so month-like schedules cost roughly
    /// their *changed* announcements, not their total announcements.
    pub fn simulation<'a>(&'a self, topo: &'a Topology) -> SimSpec<'a> {
        SimSpec::new(topo)
            .configs(&self.configs)
            .collectors(&self.collectors)
            .irr(&self.irr)
            .rpki(&self.rpki)
            .threads(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
    }
}

fn assign_configs(
    topo: &Topology,
    params: &WorkloadParams,
    rng: &mut StdRng,
) -> BTreeMap<Asn, RouterConfig> {
    let mut configs = BTreeMap::new();
    for node in topo.ases() {
        let mut cfg = RouterConfig::defaults(node.asn);

        cfg.vendor = if rng.gen_bool(params.cisco_fraction) {
            Vendor::Cisco
        } else {
            Vendor::Juniper
        };
        cfg.send_community_configured = match cfg.vendor {
            Vendor::Juniper => true,
            Vendor::Cisco => rng.gen_bool(params.cisco_send_community_prob),
        };
        cfg.propagation = params.mix.sample(rng);
        // The short-circuit keeps the RNG stream identical when the
        // defense is not deployed (adoption 0), preserving all baseline
        // results byte for byte.
        if params.scoped_defense_adoption > 0.0 && rng.gen_bool(params.scoped_defense_adoption) {
            cfg.propagation = CommunityPropagationPolicy::ScopedToReceiver;
        }

        let is_transit = topo.is_transit_provider(node.asn);
        if is_transit {
            let mut services = CommunityServices::default();
            if rng.gen_bool(params.blackhole_service_prob) {
                services.blackhole = Some(BlackholeService {
                    scope: if rng.gen_bool(0.7) {
                        ActScope::Any
                    } else {
                        ActScope::CustomersOnly
                    },
                    min_prefix_len: if rng.gen_bool(0.3) { 32 } else { 24 },
                    // Recommended configs attach NO_EXPORT, but §4.3 shows
                    // plenty of blackhole routes escaping — not everyone
                    // confines them.
                    set_no_export: rng.gen_bool(0.55),
                    ..BlackholeService::default()
                });
            }
            if rng.gen_bool(params.steering_service_prob) {
                services.prepend = (1..=3).map(|n| (prepend_value(n), n)).collect();
                services.local_pref = [(70u16, 70u32), (80, 80), (90, 90)].into_iter().collect();
                services.steering_scope = if rng.gen_bool(0.85) {
                    ActScope::CustomersOnly
                } else {
                    ActScope::Any
                };
            }
            cfg.services = services;
            cfg.tagging = TaggingConfig {
                tag_ingress_location: rng.gen_bool(params.location_tag_prob),
                tag_origin_class: rng.gen_bool(params.class_tag_prob),
                origination_tags: Vec::new(),
                origination_large_tags: Vec::new(),
                egress_tags: Vec::new(),
                targeted_egress: Vec::new(),
            };
            if rng.gen_bool(IRR_VALIDATION_PROB) {
                cfg.validation = OriginValidation::Irr {
                    validate_after_blackhole: rng.gen_bool(MISORDERED_VALIDATION_PROB),
                };
            }
        }

        // Origin-side informational tagging for every AS that originates.
        if node.tier != Tier::RouteServer && rng.gen_bool(params.origin_tag_prob) {
            if node.asn.as_u16().is_none() {
                // 4-byte ASN: the owner half of a classic community cannot
                // name this AS. Adopters use RFC 8092 large communities;
                // the rest bundle under a private 16-bit ASN (off-path by
                // construction).
                if rng.gen_bool(params.large_community_adoption) {
                    let n_tags = rng.gen_range(1..=3);
                    let mut tags = Vec::with_capacity(n_tags);
                    for _ in 0..n_tags {
                        let value = *[100u32, 200, 1000, 3000].choose(rng).expect("non-empty");
                        tags.push(bgpworms_types::LargeCommunity::new(
                            node.asn.get(),
                            value,
                            rng.gen_range(0..4),
                        ));
                    }
                    cfg.tagging.origination_large_tags = tags;
                } else {
                    let n_tags = rng.gen_range(1..=3);
                    let mut tags = Vec::with_capacity(n_tags);
                    for _ in 0..n_tags {
                        let hi = 64_512 + (rng.gen_range(0..1023) as u16);
                        let value = *[100u16, 200, 1000, 3000].choose(rng).expect("non-empty");
                        tags.push(Community::new(hi, value));
                    }
                    cfg.tagging.origination_tags = tags;
                }
            } else if let Some(hi) = node.asn.as_u16() {
                let n_tags = rng.gen_range(1..=4);
                let mut tags = Vec::with_capacity(n_tags);
                for _ in 0..n_tags {
                    let hi = if rng.gen_bool(PRIVATE_COMMUNITY_PROB) {
                        // community bundling with a private ASN (off-path)
                        64_512 + (rng.gen_range(0..1023) as u16)
                    } else {
                        hi
                    };
                    // Values cluster on "convenient" numbers (Fig 5c): 100,
                    // 200, 1000, 3000 … with a long tail.
                    let value = *[100u16, 200, 300, 500, 1000, 2000, 3000, 5000]
                        .choose(rng)
                        .expect("non-empty")
                        + if rng.gen_bool(0.3) {
                            rng.gen_range(0..40)
                        } else {
                            0
                        };
                    tags.push(Community::new(hi, value));
                }
                cfg.tagging.origination_tags = tags;
            }
        }

        configs.insert(node.asn, cfg);
    }
    configs
}

/// Builds RIS/RV/IS/PCH-like collector platforms scaled to the topology:
/// peer counts follow the Table 1 proportions (PCH peers with many ASes at
/// route-server-like partial feeds; RIS/RV/IS peer fewer but full feeds).
fn build_collectors(topo: &Topology, rng: &mut StdRng) -> Vec<CollectorSpec> {
    let transits: Vec<Asn> = topo
        .ases()
        .filter(|n| n.tier != Tier::RouteServer && topo.is_transit_provider(n.asn))
        .map(|n| n.asn)
        .collect();
    let stubs: Vec<Asn> = topo
        .ases()
        .filter(|n| n.tier == Tier::Stub)
        .map(|n| n.asn)
        .collect();

    let scale = (topo.len() as f64 / 120.0).max(1.0);
    let mut specs = Vec::new();
    let mut collector_id = 1u32;

    let mut make = |specs: &mut Vec<CollectorSpec>,
                    rng: &mut StdRng,
                    platform: &str,
                    name: String,
                    n_peers: usize,
                    feed_full_prob: f64,
                    pool: &[Asn]| {
        if pool.is_empty() {
            return;
        }
        let mut peers: Vec<(Asn, FeedKind)> = Vec::with_capacity(n_peers);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..n_peers * 3 {
            if peers.len() >= n_peers {
                break;
            }
            let asn = pool[rng.gen_range(0..pool.len())];
            if seen.insert(asn) {
                let feed = if rng.gen_bool(feed_full_prob) {
                    FeedKind::Full
                } else {
                    FeedKind::CustomerRoutesOnly
                };
                peers.push((asn, feed));
            }
        }
        specs.push(CollectorSpec {
            name,
            platform: platform.to_string(),
            collector_id,
            peers,
        });
        collector_id += 1;
    };

    // RIS: a handful of collectors, mostly full feeds from transits.
    let n_ris = (2.0 + scale / 8.0).round() as usize;
    for i in 0..n_ris {
        make(
            &mut specs,
            rng,
            "RIS",
            format!("rrc{i:02}"),
            (4.0 * scale.sqrt()) as usize + 2,
            0.8,
            &transits,
        );
    }
    // RouteViews: similar.
    let n_rv = (2.0 + scale / 8.0).round() as usize;
    for i in 0..n_rv {
        make(
            &mut specs,
            rng,
            "RV",
            format!("route-views{}", i + 2),
            (5.0 * scale.sqrt()) as usize + 2,
            0.8,
            &transits,
        );
    }
    // Isolario: fewer collectors, mixed feeds including stubs.
    let mut is_pool = transits.clone();
    is_pool.extend_from_slice(&stubs[..stubs.len().min(40)]);
    for i in 0..2usize {
        make(
            &mut specs,
            rng,
            "IS",
            format!("isolario{}", i + 1),
            (3.0 * scale.sqrt()) as usize + 2,
            0.6,
            &is_pool,
        );
    }
    // PCH: many small collectors peering at IXPs with partial feeds.
    let n_pch = (4.0 + scale / 2.0).round() as usize;
    let mut pch_pool: Vec<Asn> = Vec::new();
    for node in topo.ases() {
        if topo.ixp_memberships(node.asn).next().is_some() {
            pch_pool.push(node.asn);
        }
    }
    if pch_pool.is_empty() {
        pch_pool = transits.clone();
    }
    for i in 0..n_pch {
        make(
            &mut specs,
            rng,
            "PCH",
            format!("pch{i:03}"),
            (2.0 * scale.sqrt()) as usize + 1,
            0.15,
            &pch_pool,
        );
    }
    specs
}

/// The IRR and the RPKI as ground truth: one route object per allocation,
/// loaded in bulk; the RPKI starts as a copy of the IRR.
fn build_registries(alloc: &PrefixAllocation) -> (IrrDatabase, IrrDatabase) {
    let irr: IrrDatabase = alloc.iter().map(|(asn, prefix)| (prefix, asn)).collect();
    let rpki = irr.clone();
    (irr, rpki)
}

fn build_originations(
    topo: &Topology,
    alloc: &PrefixAllocation,
    configs: &BTreeMap<Asn, RouterConfig>,
    params: &WorkloadParams,
    rng: &mut StdRng,
) -> Vec<Origination> {
    let mut out = Vec::new();
    let day = 86_400u32;

    let mut all: Vec<(Asn, Prefix)> = alloc.iter().collect();

    // Base announcements spread over the first day.
    for (origin, prefix) in &all {
        let comms = configs
            .get(origin)
            .map(|c| c.tagging.origination_tags.clone())
            .unwrap_or_default();
        let large = configs
            .get(origin)
            .map(|c| c.tagging.origination_large_tags.clone())
            .unwrap_or_default();
        out.push(
            Origination::announce(*origin, *prefix, comms)
                .with_large(large)
                .at(APRIL_2018 + rng.gen_range(0..day)),
        );
    }

    // Churn rounds: re-announce a fraction with perturbed communities.
    for round in 1..=params.churn_rounds {
        all.shuffle(rng);
        let n = ((all.len() as f64) * CHURN_FRACTION) as usize;
        for (origin, prefix) in all.iter().take(n) {
            let mut comms = configs
                .get(origin)
                .map(|c| c.tagging.origination_tags.clone())
                .unwrap_or_default();
            let large = configs
                .get(origin)
                .map(|c| c.tagging.origination_large_tags.clone())
                .unwrap_or_default();
            // Perturb: occasionally add a fresh informational tag.
            if rng.gen_bool(0.5) {
                if let Some(hi) = origin.as_u16() {
                    comms.push(Community::new(hi, 7000 + rng.gen_range(0..100)));
                }
            }
            out.push(
                Origination::announce(*origin, *prefix, comms)
                    .with_large(large)
                    .at(APRIL_2018 + round * day + rng.gen_range(0..day)),
            );
        }
    }

    // RTBH episodes: a stub under DDoS blackholes one host (or a /24) via
    // its providers. Operators typically signal *all* upstreams offering
    // the service at once (§4.3: blackhole communities "are often applied
    // on all peering sessions rather than only selectively").
    for node in topo.ases() {
        if node.tier != Tier::Stub || !rng.gen_bool(params.rtbh_episode_prob) {
            continue;
        }
        let providers: Vec<Asn> = topo
            .providers_of(node.asn)
            .filter(|p| {
                configs
                    .get(p)
                    .map(|c| c.services.blackhole.is_some())
                    .unwrap_or(false)
            })
            .collect();
        let Some(&provider) = providers.first() else {
            continue;
        };
        let Some(v4) = alloc.prefixes_of(node.asn).iter().find_map(|p| p.as_v4()) else {
            continue;
        };
        // Most RTBH announcements target a /32 host; some networks
        // blackhole a whole /24 (§7.3: "blackhole announcements typically
        // must be for a /24 or more specific prefix"). The /24s propagate
        // like ordinary routes, which is how blackhole communities become
        // visible at collectors at all.
        let bh_len: u8 = if rng.gen_bool(0.4) { 24 } else { 32 };
        let Ok(host) = v4.first_subnet(bh_len) else {
            continue;
        };
        if provider.as_u16().is_none() {
            continue;
        }
        let t = APRIL_2018 + rng.gen_range(day..25 * day);
        let bh_prefix = Prefix::V4(host);
        // Tag with the RTBH community of every service-offering upstream;
        // some operators also add the RFC 7999 well-known value.
        let mut comms: Vec<Community> = providers
            .iter()
            .filter_map(|&p| blackhole_community_of(p))
            .collect();
        if rng.gen_bool(0.4) {
            comms.push(Community::BLACKHOLE);
        }
        out.push(Origination::announce(node.asn, bh_prefix, comms).at(t));
        out.push(Origination::withdrawal(node.asn, bh_prefix, t + 3 * 3600));
    }

    out.sort_by_key(|o| (o.time, o.origin, o.prefix));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpworms_topology::{addressing::AddressingParams, TopologyParams};

    fn setup() -> (Topology, PrefixAllocation, Workload) {
        let topo = TopologyParams::tiny().seed(4).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
        let wl = Workload::generate(&topo, &alloc, &WorkloadParams::default());
        (topo, alloc, wl)
    }

    #[test]
    fn deterministic_generation() {
        let topo = TopologyParams::tiny().seed(4).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
        let a = Workload::generate(&topo, &alloc, &WorkloadParams::default());
        let b = Workload::generate(&topo, &alloc, &WorkloadParams::default());
        assert_eq!(a.originations, b.originations);
        assert_eq!(a.configs.len(), b.configs.len());
        for (asn, cfg) in &a.configs {
            assert_eq!(cfg, &b.configs[asn]);
        }
    }

    #[test]
    fn policies_are_generate_without_the_schedule() {
        use bgpworms_topology::FullTableParams;
        let presets = [
            TopologyParams::tiny(),
            TopologyParams::small(),
            TopologyParams::medium(),
        ];
        for preset in presets {
            for seed in [4, 2018, 1809] {
                let topo = preset.clone().seed(seed).build();
                let alloc = PrefixAllocation::assign(&topo, AddressingParams { seed });
                let params = WorkloadParams {
                    seed,
                    ..WorkloadParams::default()
                };
                let mut full = Workload::generate(&topo, &alloc, &params);
                assert!(!full.originations.is_empty());
                full.originations.clear();
                let policies = Workload::policies(&topo, &alloc, &params);
                assert!(policies.originations.is_empty());
                let n = topo.len();
                assert_eq!(
                    format!("{policies:?}"),
                    format!("{full:?}"),
                    "{n} ASes, seed {seed}"
                );
            }
        }
        let topo = TopologyParams::small().seed(2018).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default())
            .deaggregate(&topo, FullTableParams::default());
        let mut full = Workload::generate(&topo, &alloc, &WorkloadParams::default());
        full.originations.clear();
        let policies = Workload::policies(&topo, &alloc, &WorkloadParams::default());
        assert_eq!(format!("{policies:?}"), format!("{full:?}"), "deaggregated");
    }

    #[test]
    fn every_as_has_config_and_prefix_announcements() {
        let (topo, alloc, wl) = setup();
        for node in topo.ases() {
            assert!(wl.configs.contains_key(&node.asn));
        }
        // every allocated prefix is announced at least once
        for (origin, prefix) in alloc.iter() {
            assert!(
                wl.originations
                    .iter()
                    .any(|o| o.origin == origin && o.prefix == prefix && !o.withdraw),
                "{origin} never announces {prefix}"
            );
        }
    }

    #[test]
    fn policy_mix_produces_diversity() {
        let (_, _, wl) = setup();
        let mut kinds = std::collections::BTreeSet::new();
        for cfg in wl.configs.values() {
            kinds.insert(match cfg.propagation {
                CommunityPropagationPolicy::ForwardAll => 0,
                CommunityPropagationPolicy::StripAll => 1,
                CommunityPropagationPolicy::StripOwn => 2,
                CommunityPropagationPolicy::StripUnknown => 3,
                CommunityPropagationPolicy::Selective { .. } => 4,
                CommunityPropagationPolicy::ScopedToReceiver => 5,
            });
        }
        assert!(kinds.len() >= 3, "policy diversity expected, got {kinds:?}");
    }

    #[test]
    fn some_transits_offer_services() {
        let (topo, _, wl) = setup();
        let with_bh = wl
            .configs
            .values()
            .filter(|c| c.services.blackhole.is_some())
            .count();
        assert!(with_bh > 0, "blackhole services assigned");
        // services only on transit providers
        for cfg in wl.configs.values() {
            if cfg.services.any() {
                assert!(topo.is_transit_provider(cfg.asn));
            }
        }
    }

    #[test]
    fn collectors_cover_all_four_platforms() {
        let (_, _, wl) = setup();
        let platforms: std::collections::BTreeSet<&str> =
            wl.collectors.iter().map(|c| c.platform.as_str()).collect();
        assert_eq!(platforms, ["IS", "PCH", "RIS", "RV"].into_iter().collect());
        for c in &wl.collectors {
            assert!(!c.peers.is_empty(), "{} has no peers", c.name);
        }
    }

    #[test]
    fn rtbh_episodes_use_provider_community_and_withdraw() {
        // With a high episode probability, at least one RTBH pair exists.
        let topo = TopologyParams::tiny().seed(4).build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
        let params = WorkloadParams {
            rtbh_episode_prob: 1.0,
            ..WorkloadParams::default()
        };
        let wl = Workload::generate(&topo, &alloc, &params);
        let rtbh: Vec<_> = wl
            .originations
            .iter()
            .filter(|o| !o.withdraw && o.communities.iter().any(|c| c.has_blackhole_value()))
            .collect();
        assert!(!rtbh.is_empty(), "RTBH episodes generated");
        for o in &rtbh {
            assert!(
                o.prefix.len() == 32 || o.prefix.len() == 24,
                "blackhole targets a /32 host or a /24"
            );
            assert!(
                wl.originations
                    .iter()
                    .any(|w| w.withdraw && w.prefix == o.prefix && w.time > o.time),
                "each RTBH episode is withdrawn later"
            );
        }
    }

    #[test]
    fn four_byte_origins_use_large_communities_or_private_bundles() {
        let topo = bgpworms_topology::TopologyParams::tiny()
            .seed(4)
            .four_byte_stubs(0.3)
            .build();
        let alloc = PrefixAllocation::assign(&topo, AddressingParams::default());
        let params = WorkloadParams {
            origin_tag_prob: 1.0,
            large_community_adoption: 0.5,
            ..WorkloadParams::default()
        };
        let wl = Workload::generate(&topo, &alloc, &params);
        let four_byte: Vec<&RouterConfig> = wl
            .configs
            .values()
            .filter(|c| c.asn.as_u16().is_none())
            .collect();
        assert!(!four_byte.is_empty());
        let with_large = four_byte
            .iter()
            .filter(|c| !c.tagging.origination_large_tags.is_empty())
            .count();
        let with_private = four_byte
            .iter()
            .filter(|c| {
                c.tagging
                    .origination_tags
                    .iter()
                    .any(|t| t.owner_is_private())
            })
            .count();
        assert!(with_large > 0, "some adopt RFC 8092");
        assert!(with_private > 0, "some bundle under private ASNs");
        // adopters tag with their own 4-byte ASN as Global Administrator
        for cfg in &four_byte {
            for lc in &cfg.tagging.origination_large_tags {
                assert_eq!(lc.owner(), cfg.asn);
            }
        }
        // originations carry the configured large tags
        let tagged = wl
            .originations
            .iter()
            .any(|o| !o.large_communities.is_empty());
        assert!(tagged, "large tags reach the origination stream");
    }

    #[test]
    fn registries_hold_ground_truth() {
        let (_, alloc, wl) = setup();
        for (asn, prefix) in alloc.iter() {
            assert!(wl.irr.is_registered(&prefix, asn));
            assert!(wl.rpki.is_registered(&prefix, asn));
        }
    }

    #[test]
    fn simulation_wiring_runs_end_to_end() {
        let (topo, _, wl) = setup();
        let sim = wl.simulation(&topo).compile();
        // run only the first 40 episodes to keep the test quick
        let episodes: Vec<_> = wl.originations.iter().take(40).cloned().collect();
        let res = sim.run(&episodes);
        assert!(res.converged);
        assert!(res.events > 0);
        let total_obs: usize = res.observations.values().map(Vec::len).sum();
        assert!(total_obs > 0, "collectors observed something");
        // The compiled session replays: a second run is bit-identical.
        assert_eq!(sim.run(&episodes), res);
    }
}
