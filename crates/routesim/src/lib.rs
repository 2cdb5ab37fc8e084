//! Event-driven BGP route-propagation simulator with per-AS community
//! policies — the substrate under every experiment in the paper.
//!
//! Each AS runs one logical router with:
//!
//! * **Gao–Rexford export policy** (customer routes go everywhere; peer and
//!   provider routes go only to customers) and import local-pref by
//!   business relationship;
//! * a **community propagation policy** — forward everything, strip
//!   everything, strip-own-after-acting, per-role selective forwarding
//!   (the diversity §4.4 of the paper measures from the outside), or the
//!   §8 defense `ScopedToReceiver` (forward to a neighbor only that
//!   neighbor's communities, collectors exempt);
//! * optional **community-triggered services** (the paper's attack
//!   surfaces): remotely triggered blackholing (RFC 7999 / `ASN:666`),
//!   AS-path prepending (`ASN:×n`), local-preference tuning, plus ingress/
//!   egress informational tagging (location, origin class);
//! * **vendor behaviour** from the paper's lab study (§6): Juniper
//!   propagates communities by default, Cisco requires per-session opt-in
//!   and caps added communities at 32;
//! * optional **origin validation** (IRR-backed, circumventable, optionally
//!   mis-ordered after blackhole processing — the NANOG-tutorial
//!   misconfiguration from §6.3) ;
//! * **IXP route servers**: transparent (no ASN in path) redistribution
//!   controlled by announce/suppress communities with a configurable
//!   evaluation order (§5.3/§7.5).
//!
//! # Engine architecture: compile-once / run-many sessions
//!
//! The engine's public API is a two-phase **compile/run** model:
//!
//! ```text
//! SimSpec::new(&topo)          // builder: borrows heavy inputs (Cow)
//!     .configs(&map)           //   per-AS configs, by reference
//!     .collectors(&specs)      //   collector platforms, by reference
//!     .irr(&irr).rpki(&rpki)   //   registries, by reference
//!     .retain(RetainRoutes::All)
//!     .threads(8)
//!     .compile()               // resolve once → CompiledSim
//!     .run(&episodes)          // replay any schedule, any number of times
//! ```
//!
//! [`SimSpec::compile`] resolves per-AS configs into a dense
//! `NodeId`-indexed `Vec`, interns collector peers, and computes the
//! topology's slot offsets — all paid **once per session**. [`CompiledSim::run`] takes `&self`: a session runs
//! any number of episode schedules (the paper's baseline/attack A/B pairs
//! compile once and run twice) and is shareable read-only across threads.
//! Config variants (e.g. an armed attacker) clone the spec, not the world:
//! `spec.clone().configure(attacker_cfg).compile()` — borrowed inputs stay
//! borrowed in the clone.
//!
//! ## Full-table runs: `Campaign` + `CampaignSink`
//!
//! [`CompiledSim::run`] is a [`Campaign`] whose sink keeps everything it
//! retained, finished into one [`SimResult`] — the right shape for attack
//! scenarios over a few prefixes, and `O(prefixes × ASes)` at full-table
//! scale. For Internet-scale campaigns (the ~62 K-AS April-2018 population
//! of `TopologyParams::internet()`), run the [`Campaign`] on the session
//! yourself, with a sink that keeps only the aggregate:
//!
//! ```text
//! Campaign::new(&compiled)         // borrows the session; threads come from it
//!     .run(&episodes, MySink::default)   // fold(prefix, outcome) per prefix …
//!     .sink                        // … merge(chunk) per chunk → one aggregate
//! ```
//!
//! The campaign shards the per-prefix loop into bounded chunks (at most
//! 32 prefixes each, also the checkpoint
//! grain) and **streams** each [`PrefixOutcome`] into a caller-supplied
//! [`CampaignSink`] — `fold(prefix, outcome)` in ascending prefix order
//! within a chunk, `merge(chunk_sink)` in ascending chunk order — so a
//! full-table run holds `O(aggregate)` memory, not `O(prefixes × routes)`.
//! The fold/merge call sequence is fixed independently of the worker
//! count (`sink(threads = 1) ≡ sink(threads = N)`), and a run can stop at
//! any chunk boundary and [`Campaign::resume`] from the returned
//! [`CampaignCheckpoint`] with a bit-identical result — both locked in by
//! the determinism property suite. `bgpworms-dataplane`'s `Fib` implements
//! the sink directly (routes fold straight into forwarding actions), and
//! the §7 wild-experiment harness aggregates through it end to end. A
//! checkpoint whose sink implements [`DurableSink`] persists as JSON text
//! and resumes in another process; a flood that exhausts its event budget
//! is folded and listed in [`CampaignRun::diverged`] (`campaign` docs).
//!
//! ## Delta re-convergence: snapshot a baseline, replay perturbations
//!
//! The paper's §7 experiments are A/B perturbation studies: announce with
//! and without a community, compare who hears what. Re-flooding the whole
//! Internet for the attacked half is wasteful when the attack perturbs one
//! origination — real BGP converges incrementally from a standing RIB. The
//! session API exposes exactly that: [`CompiledSim::run_snapshot`] runs one
//! prefix's schedule and keeps the worker scratch it converged on as a
//! [`SimSnapshot`] (flat slot arrays, per-node scalars, touched and
//! originator lists and [`RouteArena`], as the flood left them), and [`CompiledSim::run_delta`]
//! continues a clone of it — on that session or any other compiled over
//! the same world — and converges only the appended episodes: the perturbed
//! origination's
//! export diff seeds the event queue, and the ordinary dirty-set machinery
//! propagates the frontier. An attack episode costs O(blast radius), not
//! O(Internet) — and the result is **bit-identical** to re-running the
//! combined schedule from scratch (property-locked in
//! `tests/determinism.rs` across threads, withdrawals, and
//! community-changing perturbations).
//!
//! A worked A/B pair — converge a plain baseline, then replay a
//! blackhole-community perturbation against the snapshot:
//!
//! ```
//! use bgpworms_routesim::{Origination, RetainRoutes, RouterConfig, SimSpec};
//! use bgpworms_routesim::BlackholeService;
//! use bgpworms_topology::{EdgeKind, Tier, Topology};
//! use bgpworms_types::{Asn, Community, Prefix};
//!
//! // A provider chain 1 ← 2 ← 3; AS2 runs an RFC 7999-style blackhole
//! // service triggered by its `2:666` community.
//! let mut topo = Topology::new();
//! topo.add_simple(Asn::new(1), Tier::Tier1);
//! topo.add_simple(Asn::new(2), Tier::Transit);
//! topo.add_simple(Asn::new(3), Tier::Stub);
//! topo.add_edge(Asn::new(1), Asn::new(2), EdgeKind::ProviderToCustomer);
//! topo.add_edge(Asn::new(2), Asn::new(3), EdgeKind::ProviderToCustomer);
//! let mut cfg2 = RouterConfig::defaults(Asn::new(2));
//! cfg2.services.blackhole = Some(BlackholeService::default());
//! let sim = SimSpec::new(&topo)
//!     .retain(RetainRoutes::All)
//!     .configure(cfg2)
//!     .compile();
//!
//! // Converge the plain announcement once, keeping the snapshot.
//! let victim: Prefix = "10.0.0.0/24".parse().unwrap();
//! let baseline = vec![Origination::announce(Asn::new(3), victim, vec![])];
//! let (base, snapshot) = sim.run_snapshot(&baseline, victim);
//! assert!(!base.route_at(Asn::new(2), &victim).unwrap().blackholed);
//!
//! // The attacked half re-announces with the blackhole community — only
//! // the delta is converged, on a copy of the baseline RIBs.
//! let attack =
//!     Origination::announce(Asn::new(3), victim, vec![Community::new(2, 666)]).at(600);
//! let attacked = sim.run_delta(&snapshot, std::slice::from_ref(&attack));
//! assert!(attacked.route_at(Asn::new(2), &victim).unwrap().blackholed);
//!
//! // Diffing the outcomes is the A/B comparison — and the delta result is
//! // bit-identical to re-running the combined schedule from scratch.
//! let combined: Vec<Origination> = baseline.iter().cloned().chain([attack]).collect();
//! assert_eq!(attacked, sim.run(&combined));
//! ```
//!
//! A snapshot is one prefix's: the rest of a schedule runs beside it, in a
//! [`CompiledSim::run`] or a [`Campaign`]. The per-prefix building block,
//! [`CompiledSim::run_delta_prefix`], returns the raw [`PrefixOutcome`]
//! for streaming consumers (e.g. folding into a `CampaignSink` such as the
//! dataplane's `Fib`).
//!
//! # Inside the compiled core
//!
//! Propagation is computed per prefix to convergence over the topology's
//! **`NodeId` arena**: every AS is interned to a dense `u32` index,
//! each node keeps one adjacency list of `(NodeId, Role, reverse slot)`
//! entries, and all per-run state lives in `NodeId`-indexed `Vec`s.
//! Per-neighbor router state is **flat and adjacency-slot indexed**: each
//! node's Adj-RIB-In and last-exported cache are dense arrays addressed by
//! the neighbor's position in the node's list, and events carry the
//! receiver-side slot (the entry's third field, written by
//! `Topology::add_edge`).
//!
//! ## The hot path: per-worker scratch + RouteId arena + dirty-set convergence
//!
//! Every worker owns one reusable **`SimScratch`** holding all mutable
//! per-prefix state: the Adj-RIB-In and last-exported caches as two flat
//! arrays over the whole network's directed-edge slots (addressed through
//! the topology's degree prefix-sum, `Topology::slot_offsets`, which the
//! session computes once), the per-node scalars, the route arena, the
//! event queue, the dirty set, and the collector-session dedup state. Nothing per-prefix is allocated in
//! the loop: between prefixes the scratch is reset by a **generation-stamp
//! bump** — a node's state is live only while its stamp equals the current
//! prefix's epoch, and the first touch per prefix clears just that node's
//! slot range — so reset is O(1) and a prefix that floods only part of the
//! graph pays only for the nodes it reaches (the final-routes sweep also
//! iterates only touched nodes). Reuse is pinned semantically equal to
//! fresh-per-prefix state by the determinism suite, and the worker pool
//! builds one scratch per worker, never one per prefix (`shard.rs`'s own
//! test counts them).
//!
//! Every route a prefix run produces is **hash-consed** into that
//! worker-scratch's [`RouteArena`] (emptied, capacity kept, per prefix):
//! RIB slots, last-exported caches, and in-flight events all carry dense
//! [`RouteId`]s (u32) instead of owned `Route`s. Route equality — the
//! export-diffing predicate — is a u32 compare, enqueuing an update
//! allocates nothing, and an identical route is stored once per prefix no
//! matter how many RIBs hold it. One arena per worker keeps the sharded
//! path lock-free. Originations are interned once per episode (an
//! identical re-announcement hash-conses to the previous episode's id).
//!
//! Convergence is **dirty-set batched**: importing an update only marks
//! the receiving node dirty; when the in-flight queue drains, each dirty
//! node recomputes its exports exactly once (ascending node order, for
//! determinism) and the cycle repeats until nothing is dirty. A node
//! absorbing many updates per round diffs its adjacency once instead of
//! once per update — and because exports are a pure function of the best
//! route, a dirty node whose best id is unchanged skips the sweep
//! entirely, making the steady state *zero-clone*. What a flood did —
//! rounds, deliveries, admissions, interns, clones and copies by site,
//! export passes, collector updates — comes back as a [`FloodStats`], the
//! same counters in every build (`stats` docs); unit tests assert on them.
//! Within a pass, exports
//! are memoized per neighbor role whenever the node's egress policy is
//! neighbor-independent, so a changed export is cloned and interned at
//! most once per role rather than once per neighbor. A PR 2-shaped
//! per-import re-export reference loop in `tests/determinism.rs` locks in
//! that batching never changes the converged routes.
//!
//! Distinct prefixes are independent, which the engine exploits for
//! parallelism: `threads` workers — each recycling its own scratch — claim
//! a campaign's chunks of prefixes from the crate's one worker pool, and
//! results are folded in index order, so `threads = 1` and
//! `threads = N` produce identical results and repeated `run` calls on one
//! session are bit-identical (property-locked in `tests/determinism.rs`).
//! The scheme, and what happens when a worker panics, is described once,
//! in `shard.rs`.
//!
//! Route collectors observe sessions exactly like RIS/RouteViews peers and
//! emit RFC 6396 MRT archives via `bgpworms-mrt`.
//!
//! # Determinism invariants & lint markers
//!
//! The guarantees above are enforced statically by `detlint`
//! (`cargo run -p bgpworms-lint --release`, also a CI job and a
//! `cargo test` self-check), not just by the property suite. The
//! invariants, as the lint states them:
//!
//! * **No unordered iteration.** `HashMap`/`HashSet` may appear in
//!   result-affecting crates only where iteration order cannot reach
//!   results — keyed probes, membership tests, write-then-probe scratch.
//!   Each such site carries `// lint: order-independent <why>`; anything
//!   whose order matters uses `BTreeMap`/`Vec`/dense indices instead.
//! * **Justified atomics.** Every atomic `Ordering::*` choice carries an
//!   adjacent `// ordering: <why>` comment. All atomics in this crate live
//!   in `shard.rs`, with their arguments: a claim ticket, and an advisory
//!   abort latch that stops a worker pool whose items all panic after
//!   about one panic per worker.
//! * **No wall clocks, no environment.** `Instant::now`/`SystemTime`
//!   live only in the repo benchmark (`benchmark/`, a package outside the
//!   workspace); `std::env`/`thread::current` never feed results — a run
//!   is a pure function of (topology, configs, schedule).
//! * **Panic-audited hot path.** On the per-event/per-prefix files, each
//!   `unwrap()`/`expect(` carries `// lint: infallible <why>` naming the
//!   invariant that makes it unreachable.
//! * **`unsafe`-free.** Every non-compat crate declares
//!   `#![forbid(unsafe_code)]`.
//!
//! A marker covers its own line or the statement directly below it, and
//! must include the justification text — `detlint` rejects bare markers.
//!
//! For the whole-workspace picture — how this crate's NodeId/slot substrate,
//! session API, scratch, memoization, snapshot/delta and durable-resume
//! layers stack up and which crates sit on top — see `ARCHITECTURE.md` at
//! the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The reserved ASN route-collector sessions use as their local AS. It
/// never appears in AS paths and no generated topology contains it; the
/// §8 defense's collector carve-out recognizes it on export.
pub const MONITOR_ASN: bgpworms_types::Asn = bgpworms_types::Asn::new(4_000_000_000);

pub mod campaign;
mod classify;
pub mod collector;
mod durable;
pub mod engine;
pub mod policy;
pub mod route;
pub mod router;
mod scratch;
mod shard;
pub mod stats;
pub mod workload;

pub use campaign::{Campaign, CampaignCheckpoint, CampaignRun, CampaignSink, ClassStats};
pub use collector::{
    archive_all, Carried, CollectorArchive, CollectorObservation, CollectorSpec, FeedKind,
};
pub use durable::DurableSink;
pub use engine::{
    panic_message, CompiledSim, FinalRoutes, Origination, PrefixOutcome, RetainRoutes, SimResult,
    SimSpec,
};
pub use policy::{
    prepend_value, ActScope, BlackholeService, CommunityPropagationPolicy, CommunityServices,
    IrrDatabase, OriginValidation, RouterConfig, RsEvalOrder, TaggingConfig, Vendor,
    BLACKHOLE_VALUE, LOCATION_TAG_VALUES, ORIGIN_CLASS_VALUES,
};
pub use route::{Route, RouteArena, RouteAttrs, RouteId, RouteSource};
pub use scratch::SimSnapshot;
pub use stats::{CloneSite, CopySite, FloodStats, UpdateKind};
pub use workload::{PolicyMix, Workload, WorkloadParams};
