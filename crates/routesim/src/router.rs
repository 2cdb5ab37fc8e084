//! Per-prefix router logic: import policy (validation, RTBH, steering
//! services, tagging), best-path decision, and export policy (Gao–Rexford,
//! community propagation, prepending, route-server redistribution).

use crate::policy::{
    ActScope, CommunityPropagationPolicy, IrrDatabase, OriginValidation, RouterConfig, RsEvalOrder,
};
use crate::route::{
    AdmitEffects, ImportDelta, Route, RouteArena, RouteAttrs, RouteId, RouteSource,
};
use bgpworms_topology::Role;
use bgpworms_types::{community, Asn, Community, Prefix};
use std::cmp::Ordering;

/// Validation context shared by all routers in a run.
#[derive(Debug, Clone, Copy)]
pub struct ValidationCtx<'a> {
    /// The (pollutable) IRR.
    pub irr: &'a IrrDatabase,
    /// Ground-truth allocation (RPKI-like, not pollutable).
    pub rpki: &'a IrrDatabase,
}

/// Why an import was rejected (surfaced for tests and attack forensics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportVerdict {
    /// Installed in Adj-RIB-In.
    Accepted,
    /// AS-path loop (own ASN on path).
    LoopRejected,
    /// Origin validation failed.
    ValidationRejected,
    /// Prefix too long for ordinary import and not a valid blackhole.
    TooSpecific,
    /// Explicit withdraw processed.
    Withdrawn,
}

/// One accepted Adj-RIB-In candidate: the interned route plus the business
/// role the sending neighbor plays for this AS. Opaque — callers only
/// allocate storage for it (`vec![None; degree]`) and hand [`NodeState`]
/// views over that storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RibEntry {
    route: RouteId,
    role: Role,
}

/// One node's per-prefix router state, as mutable views over externally
/// owned storage — the crate's only router type. The view names the prefix
/// being flooded: routes do not carry it, and prefix-sensitive policy (length
/// floors, origin validation, targeted egress tags) reads it from here.
///
/// All per-neighbor state is **adjacency-slot indexed**: the engine compiles
/// each node's CSR neighbor slice once, and both the Adj-RIB-In and the
/// last-exported cache are dense slices addressed by a neighbor's position
/// in that slice. Both hold [`RouteId`]s into the prefix-worker's
/// [`RouteArena`] rather than owned routes, so the per-event import/export
/// path is pure slice indexing plus u32 compares — no `BTreeMap<Asn, …>`,
/// no owned `Route` storage, and export diffing never clones.
///
/// The engine never allocates per-node state: a node's `rib_in`/`exported`
/// slices are sub-ranges of two flat arrays in the worker's `SimScratch`
/// that span the whole network's directed-edge slots. Stand-alone users
/// (unit tests, the reference loop in `tests/determinism.rs`) own plain
/// `Vec`s and build views over them with [`NodeState::new`].
#[derive(Debug)]
pub struct NodeState<'s> {
    /// This router's AS.
    pub asn: Asn,
    /// True when the node is an IXP route server (transparent path,
    /// community-controlled redistribution).
    pub is_route_server: bool,
    /// The prefix whose flood this state belongs to.
    pub prefix: Prefix,
    /// Accepted candidate per sending neighbor, indexed by the sender's
    /// slot in this node's adjacency slice.
    rib_in: &'s mut [Option<RibEntry>],
    /// Locally originated route, if any.
    local: &'s mut Option<RouteId>,
    /// Last advertisement sent per neighbor slot (None = withdrawn/never).
    exported: &'s mut [Option<RouteId>],
    /// Best-route id at the end of the last export pass (`None` = no pass
    /// yet). Exports are a pure function of the best route — configs and
    /// neighbor roles are fixed per run, and a route's content pins the
    /// neighbor (and therefore the slot and role) it was learned from — so
    /// an unchanged best id proves every export is unchanged and the whole
    /// per-neighbor recompute can be skipped.
    last_emit_best: &'s mut Option<Option<RouteId>>,
}

impl<'s> NodeState<'s> {
    /// Assembles a view from its parts. The two slices must both span
    /// exactly the node's adjacency degree; fresh state is all-`None`.
    pub fn new(
        asn: Asn,
        is_route_server: bool,
        prefix: Prefix,
        rib_in: &'s mut [Option<RibEntry>],
        local: &'s mut Option<RouteId>,
        exported: &'s mut [Option<RouteId>],
        last_emit_best: &'s mut Option<Option<RouteId>>,
    ) -> Self {
        debug_assert_eq!(rib_in.len(), exported.len());
        NodeState {
            asn,
            is_route_server,
            prefix,
            rib_in,
            local,
            exported,
            last_emit_best,
        }
    }

    /// Sets the local origination to an already-interned id (`None`
    /// withdraws). Taking an id lets the engine's episode memo skip
    /// rebuilding an identical origination route.
    pub fn set_local(&mut self, id: Option<RouteId>) {
        *self.local = id;
    }

    /// Best candidate plus the role it was learned under (None for local
    /// routes). Every comparison in [`Route::prefer`] bottoms out in a
    /// strict tie-break, so the winner is independent of iteration order.
    pub(crate) fn best_entry(&self, arena: &RouteArena) -> Option<(RouteId, Option<Role>)> {
        let mut best: Option<(RouteId, Option<Role>)> = None;
        for entry in self.rib_in.iter().flatten() {
            best = match best {
                None => Some((entry.route, Some(entry.role))),
                Some((b, _))
                    if arena.get(entry.route).prefer(arena.get(b)) == Ordering::Greater =>
                {
                    Some((entry.route, Some(entry.role)))
                }
                keep => keep,
            };
        }
        if let Some(local) = *self.local {
            best = match best {
                None => Some((local, None)),
                Some((b, _)) if arena.get(local).prefer(arena.get(b)) == Ordering::Greater => {
                    Some((local, None))
                }
                keep => keep,
            };
        }
        best
    }

    /// The current best route.
    pub fn best<'a>(&self, arena: &'a RouteArena) -> Option<&'a Route> {
        self.best_entry(arena).map(|(id, _)| arena.get(id))
    }

    /// Reports whether an export pass is needed — i.e. whether the best
    /// route changed since the last pass — and records the current best as
    /// emitted. Exports depend only on the best route (see
    /// `last_emit_best`), so `None` proves a full
    /// [`NodeState::export_for`]/[`NodeState::diff_export`] sweep would
    /// produce no updates, letting the engine skip it entirely: the
    /// steady-state path performs one best-route scan and zero clones.
    /// `Some` carries the best entry the scan found, so a pass that must
    /// run pays exactly one O(degree) scan.
    pub(crate) fn begin_export_pass(
        &mut self,
        arena: &RouteArena,
    ) -> Option<Option<(RouteId, Option<Role>)>> {
        let entry = self.best_entry(arena);
        let best = entry.map(|(id, _)| id);
        if *self.last_emit_best == Some(best) {
            return None;
        }
        *self.last_emit_best = Some(best);
        Some(entry)
    }

    /// Processes an incoming update (Some = announce, None = withdraw) from
    /// `sender`, which occupies adjacency slot `sender_slot` of this node
    /// and plays `sender_role` for this AS — the one composition of
    /// `admit_route` (the pure policy decision) and `finalize_import` (the
    /// RIB write), and the only import entry point.
    ///
    /// The route arrives as an id into the shared arena; every rejection
    /// check runs against the arena route by reference, so refused updates
    /// cost zero clones. An accepted route costs one clone and one intern
    /// the first time the arena sees its derivation, and a single cache
    /// probe on every later delivery that derives the same route — at this
    /// or any other receiver (see `RouteArena::intern_derived`).
    #[allow(clippy::too_many_arguments)] // hot path: flat args, no wrapper struct
    pub fn import(
        &mut self,
        cfg: &RouterConfig,
        sender: Asn,
        sender_slot: usize,
        sender_role: Role,
        route: Option<RouteId>,
        arena: &mut RouteArena,
        ctx: ValidationCtx<'_>,
    ) -> ImportVerdict {
        let Some(incoming_id) = route else {
            self.rib_in[sender_slot] = None;
            return ImportVerdict::Withdrawn;
        };
        match admit_route(
            self.asn,
            self.is_route_server,
            self.prefix,
            cfg,
            sender_role,
            arena.get(incoming_id),
            ctx,
        ) {
            Err(verdict) => {
                self.rib_in[sender_slot] = None;
                verdict
            }
            Ok(effects) => {
                self.finalize_import(
                    cfg,
                    sender,
                    sender_slot,
                    sender_role,
                    incoming_id,
                    effects,
                    arena,
                );
                ImportVerdict::Accepted
            }
        }
    }

    /// Parks a delivery instead of importing it: the raw route (or the
    /// withdrawal) and the sender's role go into the sender's slot with no
    /// admission. Only [`NodeState::resolve_parked`] may read the slot
    /// after this. Admission is pure per slot — a rejection clears the
    /// slot, and `finalize_import` writes that slot only — so admitting the
    /// last parked delivery of each slot once leaves the RIB that importing
    /// every delivery as it came would have left.
    pub(crate) fn park(&mut self, sender_slot: usize, sender_role: Role, route: Option<RouteId>) {
        self.rib_in[sender_slot] = route.map(|route| RibEntry {
            route,
            role: sender_role,
        });
    }

    /// Imports every parked slot once, the sender of slot `k` being
    /// `sender_of(k)`. Every occupied slot of this node must hold a parked
    /// delivery: a second admission of an imported route is not an import.
    pub(crate) fn resolve_parked(
        &mut self,
        cfg: &RouterConfig,
        sender_of: impl Fn(usize) -> Asn,
        arena: &mut RouteArena,
        ctx: ValidationCtx<'_>,
    ) {
        for slot in 0..self.rib_in.len() {
            if let Some(RibEntry { route, role }) = self.rib_in[slot] {
                self.import(cfg, sender_of(slot), slot, role, Some(route), arena, ctx);
            }
        }
    }

    /// Applies an accepted admission: computes the sender-dependent ingress
    /// tags (recorded apart from the received communities so the
    /// propagation policy can tell them from those), hands the arena the
    /// complete [`ImportDelta`], and installs the id it returns in the
    /// sender's Adj-RIB-In slot. The incoming route itself is not touched
    /// here, so a derivation the arena has seen before costs no clone.
    #[allow(clippy::too_many_arguments)] // hot path: flat args, no wrapper struct
    fn finalize_import(
        &mut self,
        cfg: &RouterConfig,
        sender: Asn,
        sender_slot: usize,
        sender_role: Role,
        incoming_id: RouteId,
        effects: AdmitEffects,
        arena: &mut RouteArena,
    ) {
        // The tags this router is configured to add, in order, then the
        // vendor's added-community cap, packed to the front of a fixed
        // array: the cache key is complete before any route is touched.
        let hi = self.asn.as_u16();
        let tag = |on: bool, value: u16| hi.filter(|_| on).map(|hi| Community::new(hi, value));
        let configured = if self.is_route_server {
            let bucket = (sender.get() % 5) as u16;
            [tag(cfg.route_server.tag_member_routes, 100 + bucket), None]
        } else {
            let class = match sender_role {
                Role::Customer => 100,
                Role::Peer => 110,
                Role::Provider => 120,
            };
            let bucket = (sender.get() % 4) as u16;
            [
                tag(cfg.tagging.tag_origin_class, class),
                tag(cfg.tagging.tag_ingress_location, 201 + bucket),
            ]
        };
        let limit = cfg.vendor.added_community_limit().unwrap_or(usize::MAX);
        let mut kept = configured.into_iter().flatten().take(limit);
        let delta = ImportDelta {
            sender,
            effects,
            own_tags: [kept.next(), kept.next()],
        };
        self.rib_in[sender_slot] = Some(RibEntry {
            route: arena.intern_derived(incoming_id, delta),
            role: sender_role,
        });
    }

    /// Computes the advertisement this node should currently send to
    /// `neighbor` (playing `neighbor_role` for us), interned into `arena`,
    /// or `None` when nothing may be exported. Scans for the best entry
    /// first; the engine's export sweep calls `export_from_best` directly so
    /// one scan serves the whole adjacency.
    pub fn export_for(
        &self,
        cfg: &RouterConfig,
        neighbor: Asn,
        neighbor_role: Role,
        arena: &mut RouteArena,
    ) -> Option<RouteId> {
        let (best_id, learned_role) = self.best_entry(arena)?;
        export_from_best(
            self.asn,
            self.is_route_server,
            self.prefix,
            best_id,
            learned_role,
            cfg,
            neighbor,
            neighbor_role,
            arena,
        )
    }

    /// Records what was last advertised to the neighbor at `slot` and
    /// reports whether a new message is needed. Returns `Some(update)` when
    /// the advertisement changed (including transitions to/from
    /// withdrawal). Routes are interned, so the change predicate is a u32
    /// compare and updating the last-exported cache is a u32 store.
    pub fn diff_export(&mut self, slot: usize, new: Option<RouteId>) -> Option<Option<RouteId>> {
        if self.exported[slot] == new {
            return None;
        }
        self.exported[slot] = new;
        Some(new)
    }
}

/// The pure policy half of import: decides admission (`Err` = the rejection
/// verdict; the caller clears the RIB slot) and computes the
/// [`AdmitEffects`], as a pure function of (receiver identity, the flooded
/// prefix, config, sender role, route content, validation registries) — so
/// rejections cost no clone and no RIB borrow.
///
/// Import is three steps: this admission, run on every delivery; a probe of
/// the arena's derivation cache under (incoming id, sender, these effects,
/// the receiver's ingress tags); and, only when that misses, the clone,
/// apply and intern. The cache key deliberately leaves the receiver out: an
/// export fans out to many receivers whose policies reach the same effects,
/// and 90 % of accepted deliveries on the full-table campaign (28.7 M of
/// 31.7 M) re-derive a route some other receiver already made. Keying on
/// the receiver instead — a memo of this function over (receiver, sender
/// role, incoming id) — was tried in PR 9 and measured a net loss, ~11 % on
/// the 62 K-AS flood: export diffing already suppresses repeat deliveries
/// to the *same* receiver, so it hit ~0 % and every event paid the probe
/// and the insert. Do not re-add that one without a flap-heavy workload
/// that makes it hit.
fn admit_route(
    asn: Asn,
    is_route_server: bool,
    prefix: Prefix,
    cfg: &RouterConfig,
    sender_role: Role,
    incoming: &Route,
    ctx: ValidationCtx<'_>,
) -> Result<AdmitEffects, ImportVerdict> {
    // Loop protection. Route servers are transparent and never appear
    // in the path, so only regular routers check.
    if !is_route_server && incoming.path.contains(asn) {
        return Err(ImportVerdict::LoopRejected);
    }

    // --- RTBH applicability (checked before everything else because
    //     the misconfigured validation order depends on it). ---
    let rtbh = cfg.services.blackhole.as_ref().and_then(|bh| {
        let own = asn.as_u16().map(|hi| Community::new(hi, bh.value));
        let triggered = incoming.has_community(Community::BLACKHOLE)
            || own.is_some_and(|c| incoming.has_community(c));
        let scope_ok = match bh.scope {
            ActScope::Any => true,
            ActScope::CustomersOnly => sender_role == Role::Customer,
        };
        let len_ok = match prefix {
            Prefix::V4(p) => p.len() >= bh.min_prefix_len,
            Prefix::V6(p) => p.len() >= 96,
        };
        (triggered && scope_ok && len_ok).then_some(bh)
    });

    // --- Origin validation. ---
    let skip_validation = matches!(
        cfg.validation,
        OriginValidation::Irr {
            validate_after_blackhole: true
        }
    ) && rtbh.is_some();
    if !skip_validation {
        let valid = match cfg.validation {
            OriginValidation::None => true,
            OriginValidation::Irr { .. } => match incoming.path.origin() {
                Some(origin) => ctx.irr.is_registered(&prefix, origin),
                None => false,
            },
            OriginValidation::Strict => match incoming.path.origin() {
                Some(origin) => ctx.rpki.is_registered(&prefix, origin),
                None => false,
            },
        };
        if !valid {
            return Err(ImportVerdict::ValidationRejected);
        }
    }

    // --- Prefix-length policy: small prefixes only enter as blackholes.
    if rtbh.is_none() {
        let too_long = match prefix {
            Prefix::V4(p) => p.len() > cfg.max_prefix_len_v4,
            Prefix::V6(p) => p.len() > 48,
        };
        if too_long {
            return Err(ImportVerdict::TooSpecific);
        }
    }

    // --- Base import local-pref by business relationship. ---
    let mut local_pref = match sender_role {
        Role::Customer => cfg.local_pref.customer,
        Role::Peer => cfg.local_pref.peer,
        Role::Provider => cfg.local_pref.provider,
    };

    // --- Community-triggered services at this target. ---
    let mut blackholed = false;
    let mut pending_prepend: u8 = 0;
    let mut add_no_export = false;
    if let Some(bh) = rtbh {
        local_pref = bh.local_pref;
        blackholed = true;
        add_no_export = bh.set_no_export && !incoming.has_community(Community::NO_EXPORT);
    }
    // Steering checks run after the NO_EXPORT push in the historical
    // order, so they must see the (possibly) augmented community set.
    let has =
        |c: Community| incoming.has_community(c) || (add_no_export && c == Community::NO_EXPORT);
    if let Some(hi) = asn.as_u16() {
        let steering_ok = match cfg.services.steering_scope {
            ActScope::Any => true,
            ActScope::CustomersOnly => sender_role == Role::Customer,
        };
        if steering_ok {
            for (&value, &lp) in &cfg.services.local_pref {
                if has(Community::new(hi, value)) {
                    local_pref = lp;
                }
            }
            for (&value, &n) in &cfg.services.prepend {
                if has(Community::new(hi, value)) {
                    pending_prepend = pending_prepend.max(n);
                }
            }
        }
    }

    Ok(AdmitEffects {
        local_pref,
        blackholed,
        pending_prepend,
        add_no_export,
    })
}

/// Computes the advertisement for `prefix` that a node whose best route is
/// `best_id` (learned under `learned_role`) should send to `neighbor`,
/// interned into `arena`, or `None` when nothing may be exported.
///
/// Everything here depends on the neighbor only through its ASN (the
/// never-send-back check, route-server control communities, the
/// `ScopedToReceiver` defense filter) and its role — which is what lets the
/// engine's export sweep memoize the result per role for ordinary nodes and
/// re-intern once instead of once per neighbor.
#[allow(clippy::too_many_arguments)] // hot path: flat args, no wrapper struct
pub(crate) fn export_from_best(
    asn: Asn,
    is_route_server: bool,
    prefix: Prefix,
    best_id: RouteId,
    learned_role: Option<Role>,
    cfg: &RouterConfig,
    neighbor: Asn,
    neighbor_role: Role,
    arena: &mut RouteArena,
) -> Option<RouteId> {
    let best = arena.get(best_id);

    // Never send a route back to the neighbor we learned it from.
    if best.source.neighbor() == Some(neighbor) {
        return None;
    }

    if is_route_server {
        return route_server_export(asn, cfg, best_id, neighbor, arena);
    }

    // Well-known scope-limiting communities.
    if best.has_community(Community::NO_ADVERTISE) {
        return None;
    }
    if best.has_community(Community::NO_EXPORT)
        || best.has_community(Community::NO_EXPORT_SUBCONFED)
    {
        return None;
    }
    // NOPEER: not via bilateral peering (route servers count as peers).
    if best.has_community(Community::NO_PEER) && neighbor_role == Role::Peer {
        return None;
    }

    // Gao–Rexford: routes from peers/providers go only to customers.
    let exportable = match best.source {
        RouteSource::Local => true,
        _ => learned_role == Some(Role::Customer) || neighbor_role == Role::Customer,
    };
    if !exportable {
        return None;
    }

    let mut out = best.clone();
    let prepends = 1 + usize::from(best.pending_prepend);
    out.pending_prepend = 0;
    out.blackholed = false;
    out.local_pref = 0;
    out.med = 0;
    out.source = RouteSource::Ebgp(asn);
    let own_tags = std::mem::take(&mut out.own_tags);
    // The export's one attribute copy: `best` keeps what it received, every
    // edit below is to `out`'s own.
    let attrs: &mut RouteAttrs = &mut out;
    // Prepend self (once, plus any community-requested extra).
    attrs.path.prepend(asn, prepends);

    // Community propagation policy applies to *received* communities;
    // own ingress tags and origination tags ride along unconditionally
    // (they are this AS's own signal).
    let forward_received = match &cfg.propagation {
        CommunityPropagationPolicy::ForwardAll => ForwardSet::All,
        CommunityPropagationPolicy::StripAll => ForwardSet::None,
        CommunityPropagationPolicy::StripOwn => ForwardSet::Foreign,
        CommunityPropagationPolicy::StripUnknown => ForwardSet::OwnAndWellKnown,
        CommunityPropagationPolicy::ScopedToReceiver => {
            if neighbor == crate::MONITOR_ASN {
                // The paper's carve-out: do not filter toward route
                // collectors.
                ForwardSet::All
            } else {
                ForwardSet::ScopedToReceiver
            }
        }
        CommunityPropagationPolicy::Selective {
            to_customers,
            to_peers,
            to_providers,
        } => {
            let allowed = match neighbor_role {
                Role::Customer => *to_customers,
                Role::Peer => *to_peers,
                Role::Provider => *to_providers,
            };
            if allowed {
                ForwardSet::All
            } else {
                ForwardSet::None
            }
        }
    };
    let own_hi = asn.as_u16();
    let neighbor16 = neighbor.as_u16();
    attrs.communities.retain(|c| match forward_received {
        ForwardSet::All => true,
        ForwardSet::None => false,
        ForwardSet::Foreign => Some(c.asn_part()) != own_hi,
        ForwardSet::OwnAndWellKnown => Some(c.asn_part()) == own_hi || c.well_known().is_some(),
        ForwardSet::ScopedToReceiver => Some(c.asn_part()) == neighbor16,
    });
    // Large communities follow the same egress policy; their Global
    // Administrator carries a full 32-bit ASN and no well-known large
    // communities are registered.
    let own32 = asn.get();
    attrs.large_communities.retain(|c| match forward_received {
        ForwardSet::All => true,
        ForwardSet::None => false,
        ForwardSet::Foreign => c.global != own32,
        ForwardSet::OwnAndWellKnown => c.global == own32,
        ForwardSet::ScopedToReceiver => c.global == neighbor.get(),
    });
    // Attach own ingress tags plus static egress tags, respecting the
    // vendor's added-community cap (§6.1: Cisco permits adding 32).
    let mut added: Vec<Community> = own_tags.into_iter().flatten().collect();
    added.extend(cfg.tagging.egress_tags.iter().copied());
    added.extend(
        cfg.tagging
            .targeted_egress
            .iter()
            .filter(|(p, _)| *p == prefix)
            .map(|(_, c)| *c),
    );
    if let Some(limit) = cfg.vendor.added_community_limit() {
        added.truncate(limit);
    }
    attrs.communities.extend(added);

    if !cfg.sends_communities() {
        attrs.communities.clear();
        attrs.large_communities.clear();
    }
    community::normalize(&mut attrs.communities);
    attrs.large_communities.sort_unstable();
    attrs.large_communities.dedup();

    Some(arena.intern(out))
}

/// Route-server redistribution: transparent path, control communities,
/// configurable evaluation order.
fn route_server_export(
    rs_asn: Asn,
    cfg: &RouterConfig,
    best_id: RouteId,
    member: Asn,
    arena: &mut RouteArena,
) -> Option<RouteId> {
    let best = arena.get(best_id);
    if best.has_community(Community::NO_ADVERTISE) || best.has_community(Community::NO_EXPORT) {
        return None;
    }
    let rs16 = rs_asn.as_u16()?;
    let member16 = member.as_u16()?;

    let suppress_member = best.has_community(Community::new(0, member16));
    let announce_member = best.has_community(Community::new(rs16, member16));
    let block_all = best.has_community(Community::new(0, rs16));

    let announce = match cfg.route_server.eval_order {
        RsEvalOrder::SuppressFirst => {
            if suppress_member {
                false
            } else if block_all {
                announce_member
            } else {
                true
            }
        }
        RsEvalOrder::AnnounceFirst => {
            if announce_member {
                true
            } else {
                !(suppress_member || block_all)
            }
        }
    };
    if !announce {
        return None;
    }

    let mut out = best.clone();
    // Transparent: the RS does not prepend its ASN.
    out.local_pref = 0;
    out.med = 0;
    out.blackholed = false;
    out.pending_prepend = 0;
    out.source = RouteSource::RouteServer(rs_asn);
    let own_tags = std::mem::take(&mut out.own_tags);
    let communities = &mut out.communities; // the export's one attribute copy
    if cfg.route_server.strip_control_communities {
        communities.retain(|c| {
            let hi = c.asn_part();
            !(hi == 0 || (hi == rs16 && is_member_value(c.value_part())))
        });
    }
    communities.extend(own_tags.into_iter().flatten());
    community::normalize(communities);
    Some(arena.intern(out))
}

/// Heuristic: control-community low values that address members. Our
/// generated member ASNs are all < 59 000; informational RS tags use
/// 100–104 plus the member bucket — to keep stripping simple we treat any
/// value that is a plausible member ASN as a control value when the high
/// half is the RS.
fn is_member_value(v: u16) -> bool {
    v > 104
}

/// What subset of received communities an egress policy forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForwardSet {
    All,
    None,
    Foreign,
    OwnAndWellKnown,
    /// Only communities owned by the receiving neighbor (§8 defense).
    ScopedToReceiver,
}

/// Convenience for tests and scenario code: the well-known blackhole
/// community of a target AS (`target:666`).
pub fn blackhole_community_of(target: Asn) -> Option<Community> {
    target.as_u16().map(|hi| Community::new(hi, 666))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BlackholeService, CommunityServices, TaggingConfig, Vendor};
    use crate::route::{copies_during, Copies};
    use bgpworms_types::AsPath;

    fn ctx_empty() -> (IrrDatabase, IrrDatabase) {
        (IrrDatabase::new(), IrrDatabase::new())
    }

    fn prefix() -> Prefix {
        "10.0.0.0/16".parse().unwrap()
    }

    fn incoming(from: u32, path: &[u32], comms: &[Community]) -> Route {
        let attrs = RouteAttrs {
            path: AsPath::from_asns(path.iter().map(|&n| Asn::new(n))),
            origin: bgpworms_types::Origin::Igp,
            communities: comms.to_vec(),
            large_communities: vec![],
        };
        Route::new(attrs, RouteSource::Ebgp(Asn::new(from)), 0)
    }

    /// One node's owned storage bundled with its own [`RouteArena`],
    /// exposing the pre-arena owned-`Route` call shapes so the policy tests
    /// read as before: incoming routes are interned on the way in, export
    /// results cloned out of the arena for inspection.
    struct TestRouter {
        asn: Asn,
        is_route_server: bool,
        prefix: Prefix,
        rib_in: Vec<Option<RibEntry>>,
        local: Option<RouteId>,
        exported: Vec<Option<RouteId>>,
        last_emit_best: Option<Option<RouteId>>,
        arena: RouteArena,
    }

    impl TestRouter {
        fn new(asn: Asn, is_route_server: bool, degree: usize) -> Self {
            TestRouter {
                asn,
                is_route_server,
                prefix: prefix(),
                rib_in: vec![None; degree],
                local: None,
                exported: vec![None; degree],
                last_emit_best: None,
                arena: RouteArena::new(),
            }
        }

        /// The same router, flooding `prefix` instead of the default /16.
        fn flooding(mut self, prefix: &str) -> Self {
            self.prefix = prefix.parse().unwrap();
            self
        }

        /// The view under test plus the arena it interns into.
        fn state(&mut self) -> (NodeState<'_>, &mut RouteArena) {
            let node = NodeState::new(
                self.asn,
                self.is_route_server,
                self.prefix,
                &mut self.rib_in,
                &mut self.local,
                &mut self.exported,
                &mut self.last_emit_best,
            );
            (node, &mut self.arena)
        }

        fn import(
            &mut self,
            cfg: &RouterConfig,
            sender: Asn,
            sender_slot: usize,
            sender_role: Role,
            route: Option<Route>,
            ctx: ValidationCtx<'_>,
        ) -> ImportVerdict {
            let (mut node, arena) = self.state();
            let id = route.map(|r| arena.intern(r));
            node.import(cfg, sender, sender_slot, sender_role, id, arena, ctx)
        }

        fn best(&mut self) -> Option<&Route> {
            let (node, arena) = self.state();
            node.best(arena)
        }

        fn export_for(
            &mut self,
            cfg: &RouterConfig,
            neighbor: Asn,
            neighbor_role: Role,
        ) -> Option<Route> {
            let (node, arena) = self.state();
            node.export_for(cfg, neighbor, neighbor_role, arena)
                .map(|id| arena.get(id).clone())
        }
    }

    #[test]
    fn loop_rejected() {
        let cfg = RouterConfig::defaults(Asn::new(5));
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        let (irr, rpki) = ctx_empty();
        let v = r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 5, 1], &[])),
            ValidationCtx {
                irr: &irr,
                rpki: &rpki,
            },
        );
        assert_eq!(v, ImportVerdict::LoopRejected);
        assert!(r.best().is_none());
    }

    #[test]
    fn local_pref_by_role_and_decision() {
        let cfg = RouterConfig::defaults(Asn::new(5));
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        // Longer customer route should still beat shorter provider route.
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 9, 1], &[])),
            ctx,
        );
        r.import(
            &cfg,
            Asn::new(3),
            2,
            Role::Provider,
            Some(incoming(3, &[3, 1], &[])),
            ctx,
        );
        let best = r.best().unwrap();
        assert_eq!(best.source, RouteSource::Ebgp(Asn::new(2)));
        let (node, arena) = r.state();
        let learned_role = node.best_entry(arena).and_then(|(_, role)| role);
        assert_eq!(learned_role, Some(Role::Customer));
    }

    #[test]
    fn withdraw_removes_candidate() {
        let cfg = RouterConfig::defaults(Asn::new(5));
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Peer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        assert!(r.best().is_some());
        let v = r.import(&cfg, Asn::new(2), 1, Role::Peer, None, ctx);
        assert_eq!(v, ImportVerdict::Withdrawn);
        assert!(r.best().is_none());
    }

    #[test]
    fn too_specific_rejected_unless_blackhole() {
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.services.blackhole = Some(BlackholeService::default());
        let mut r = TestRouter::new(Asn::new(5), false, 8).flooding("10.0.0.0/30");
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut route = incoming(2, &[2, 1], &[]);
        let v = r.import(&cfg, Asn::new(2), 1, Role::Peer, Some(route.clone()), ctx);
        assert_eq!(v, ImportVerdict::TooSpecific);
        // Same prefix tagged with the provider's blackhole community passes.
        route.communities = vec![Community::new(5, 666)];
        let v = r.import(&cfg, Asn::new(2), 1, Role::Peer, Some(route), ctx);
        assert_eq!(v, ImportVerdict::Accepted);
        let best = r.best().unwrap();
        assert!(best.blackholed);
        assert_eq!(best.local_pref, 200);
        assert!(best.has_community(Community::NO_EXPORT));
    }

    #[test]
    fn rtbh_wins_over_shorter_path() {
        // §7.3: blackhole routes are "generally preferred even when the
        // attacking AS path is longer".
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.services.blackhole = Some(BlackholeService::default());
        let mut r = TestRouter::new(Asn::new(5), false, 8).flooding("10.0.0.0/24");
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let victim = incoming(2, &[2, 1], &[]);
        r.import(&cfg, Asn::new(2), 1, Role::Customer, Some(victim), ctx);
        let attack = incoming(3, &[3, 9, 8, 1], &[Community::new(5, 666)]);
        r.import(&cfg, Asn::new(3), 2, Role::Peer, Some(attack), ctx);
        let best = r.best().unwrap();
        assert!(best.blackholed, "blackhole local-pref beats shorter path");
        assert_eq!(best.source, RouteSource::Ebgp(Asn::new(3)));
    }

    #[test]
    fn rtbh_scope_customers_only() {
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.services.blackhole = Some(BlackholeService {
            scope: ActScope::CustomersOnly,
            ..BlackholeService::default()
        });
        let mut r = TestRouter::new(Asn::new(5), false, 8).flooding("10.0.0.0/24");
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let route = incoming(3, &[3, 1], &[Community::new(5, 666)]);
        r.import(&cfg, Asn::new(3), 2, Role::Peer, Some(route.clone()), ctx);
        assert!(!r.best().unwrap().blackholed, "peer may not trigger RTBH");
        r.import(&cfg, Asn::new(3), 2, Role::Customer, Some(route), ctx);
        assert!(r.best().unwrap().blackholed);
    }

    #[test]
    fn irr_validation_rejects_unregistered_origin() {
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.validation = OriginValidation::Irr {
            validate_after_blackhole: false,
        };
        let mut irr = IrrDatabase::new();
        irr.register(prefix(), Asn::new(1));
        let rpki = IrrDatabase::new();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        // legit origin AS1
        let v = r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Peer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        assert_eq!(v, ImportVerdict::Accepted);
        // hijacker origin AS9
        let v = r.import(
            &cfg,
            Asn::new(3),
            2,
            Role::Peer,
            Some(incoming(3, &[3, 9], &[])),
            ctx,
        );
        assert_eq!(v, ImportVerdict::ValidationRejected);
    }

    #[test]
    fn misordered_validation_lets_blackholed_hijack_through() {
        // §6.3: the route-map checks the blackhole community before
        // validating, enabling hijack-based RTBH.
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.validation = OriginValidation::Irr {
            validate_after_blackhole: true,
        };
        cfg.services.blackhole = Some(BlackholeService::default());
        let mut irr = IrrDatabase::new();
        irr.register(prefix(), Asn::new(1));
        let rpki = IrrDatabase::new();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8).flooding("10.0.0.0/24");
        let hijack = incoming(3, &[3, 9], &[Community::new(5, 666)]);
        let v = r.import(&cfg, Asn::new(3), 2, Role::Peer, Some(hijack.clone()), ctx);
        assert_eq!(v, ImportVerdict::Accepted, "hijack slips past validation");
        assert!(r.best().unwrap().blackholed);
        // With correct ordering the same update is rejected.
        cfg.validation = OriginValidation::Irr {
            validate_after_blackhole: false,
        };
        let mut r2 = TestRouter::new(Asn::new(5), false, 8).flooding("10.0.0.0/24");
        let v = r2.import(&cfg, Asn::new(3), 2, Role::Peer, Some(hijack), ctx);
        assert_eq!(v, ImportVerdict::ValidationRejected);
    }

    #[test]
    fn steering_services_set_pref_and_prepend() {
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.services = CommunityServices {
            blackhole: None,
            prepend: [(421u16, 1u8), (422, 2), (423, 3)].into_iter().collect(),
            local_pref: [(70u16, 70u32)].into_iter().collect(),
            steering_scope: ActScope::CustomersOnly,
        };
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        let route = incoming(2, &[2, 1], &[Community::new(5, 422), Community::new(5, 70)]);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(route.clone()),
            ctx,
        );
        let best = r.best().unwrap();
        assert_eq!(best.local_pref, 70, "local-pref community acted on");
        assert_eq!(best.pending_prepend, 2, "prepend community recorded");
        // From a provider the same communities are ignored.
        let mut r2 = TestRouter::new(Asn::new(5), false, 8);
        r2.import(&cfg, Asn::new(2), 1, Role::Provider, Some(route), ctx);
        let best = r2.best().unwrap();
        assert_eq!(best.local_pref, cfg.local_pref.provider);
        assert_eq!(best.pending_prepend, 0);
    }

    #[test]
    fn export_applies_prepend_service() {
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.services.prepend.insert(423, 3);
        cfg.services.steering_scope = ActScope::Any;
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[Community::new(5, 423)])),
            ctx,
        );
        let out = r.export_for(&cfg, Asn::new(6), Role::Provider).unwrap();
        assert_eq!(
            out.path.to_vec(),
            vec![5, 5, 5, 5, 2, 1]
                .into_iter()
                .map(Asn::new)
                .collect::<Vec<_>>(),
            "1 regular + 3 requested prepends"
        );
        // The triggering community itself is forwarded onward.
        assert!(out.has_community(Community::new(5, 423)));
    }

    #[test]
    fn gao_rexford_export_filtering() {
        let cfg = RouterConfig::defaults(Asn::new(5));
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        // Route learned from a provider…
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Provider,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        // …goes to customers…
        assert!(r.export_for(&cfg, Asn::new(7), Role::Customer).is_some());
        // …but not to peers or providers.
        assert!(r.export_for(&cfg, Asn::new(8), Role::Peer).is_none());
        assert!(r.export_for(&cfg, Asn::new(9), Role::Provider).is_none());
        // Customer routes go everywhere.
        let mut r2 = TestRouter::new(Asn::new(5), false, 8);
        r2.import(
            &cfg,
            Asn::new(3),
            2,
            Role::Customer,
            Some(incoming(3, &[3, 1], &[])),
            ctx,
        );
        assert!(r2.export_for(&cfg, Asn::new(8), Role::Peer).is_some());
        assert!(r2.export_for(&cfg, Asn::new(9), Role::Provider).is_some());
    }

    #[test]
    fn never_export_back_to_sender() {
        let cfg = RouterConfig::defaults(Asn::new(5));
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        assert!(r.export_for(&cfg, Asn::new(2), Role::Customer).is_none());
    }

    #[test]
    fn no_export_and_no_advertise_honoured() {
        let cfg = RouterConfig::defaults(Asn::new(5));
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[Community::NO_EXPORT])),
            ctx,
        );
        assert!(r.export_for(&cfg, Asn::new(7), Role::Customer).is_none());
        let mut r2 = TestRouter::new(Asn::new(5), false, 8);
        r2.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[Community::NO_PEER])),
            ctx,
        );
        assert!(r2.export_for(&cfg, Asn::new(8), Role::Peer).is_none());
        assert!(r2.export_for(&cfg, Asn::new(7), Role::Customer).is_some());
    }

    #[test]
    fn propagation_policies_filter_received_communities() {
        let foreign = Community::new(9, 42);
        let wk = Community::BLACKHOLE;
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };

        let make = |policy: CommunityPropagationPolicy| {
            let mut cfg = RouterConfig::defaults(Asn::new(5));
            cfg.propagation = policy;
            cfg.tagging = TaggingConfig {
                tag_origin_class: true,
                ..TaggingConfig::default()
            };
            let mut r = TestRouter::new(Asn::new(5), false, 8);
            r.import(
                &cfg,
                Asn::new(2),
                1,
                Role::Customer,
                Some(incoming(2, &[2, 1], &[foreign, wk, Community::new(5, 77)])),
                ctx,
            );
            r.export_for(&cfg, Asn::new(7), Role::Customer).unwrap()
        };

        let out = make(CommunityPropagationPolicy::ForwardAll);
        assert!(out.has_community(foreign) && out.has_community(wk));
        assert!(
            out.has_community(Community::new(5, 100)),
            "own tag rides along"
        );

        let out = make(CommunityPropagationPolicy::StripAll);
        assert!(!out.has_community(foreign) && !out.has_community(wk));
        assert!(
            out.has_community(Community::new(5, 100)),
            "own tag still attached"
        );

        let out = make(CommunityPropagationPolicy::StripOwn);
        assert!(out.has_community(foreign));
        assert!(
            !out.has_community(Community::new(5, 77)),
            "own received stripped"
        );
        assert!(out.has_community(Community::new(5, 100)), "own *tag* kept");

        let out = make(CommunityPropagationPolicy::StripUnknown);
        assert!(!out.has_community(foreign));
        assert!(out.has_community(wk), "well-known kept");
        assert!(out.has_community(Community::new(5, 77)), "own kept");
    }

    #[test]
    fn selective_policy_differs_per_role() {
        let foreign = Community::new(9, 42);
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.propagation = CommunityPropagationPolicy::Selective {
            to_customers: true,
            to_peers: false,
            to_providers: true,
        };
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[foreign])),
            ctx,
        );
        let to_cust = r.export_for(&cfg, Asn::new(7), Role::Customer).unwrap();
        assert!(to_cust.has_community(foreign));
        let to_peer = r.export_for(&cfg, Asn::new(8), Role::Peer).unwrap();
        assert!(!to_peer.has_community(foreign), "stripped toward peers");
    }

    #[test]
    fn cisco_without_send_community_sends_none() {
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.vendor = Vendor::Cisco;
        cfg.send_community_configured = false;
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[Community::new(9, 42)])),
            ctx,
        );
        let out = r.export_for(&cfg, Asn::new(7), Role::Customer).unwrap();
        assert!(out.communities.is_empty());
    }

    #[test]
    fn route_server_is_transparent_and_respects_controls() {
        let rs = Asn::new(59_000);
        let cfg = RouterConfig::defaults(rs);
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(rs, true, 8);
        // Member AS1 announces with: announce-to-AS2 (RS:2) and suppress-to-AS3 (0:3).
        let comms = vec![Community::new(59_000, 2), Community::new(0, 3)];
        r.import(
            &cfg,
            Asn::new(1),
            0,
            Role::Peer,
            Some(incoming(1, &[1], &comms)),
            ctx,
        );

        // AS2: no suppress, default announce.
        let out = r.export_for(&cfg, Asn::new(2), Role::Peer).unwrap();
        assert_eq!(out.path.to_vec(), vec![Asn::new(1)], "RS transparent");
        assert_eq!(out.source, RouteSource::RouteServer(rs));
        // control communities stripped:
        assert!(!out.has_community(Community::new(0, 3)));

        // AS3: suppressed.
        assert!(r.export_for(&cfg, Asn::new(3), Role::Peer).is_none());

        // Never back to announcer.
        assert!(r.export_for(&cfg, Asn::new(1), Role::Peer).is_none());
    }

    #[test]
    fn conflicting_rs_communities_resolve_by_eval_order() {
        // §7.5: announce-to-attackee plus suppress-to-attackee; with
        // suppress-first, the suppress wins and the attackee loses the route.
        let rs = Asn::new(59_000);
        let mut cfg = RouterConfig::defaults(rs);
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let comms = vec![Community::new(59_000, 4), Community::new(0, 4)];
        let mut r = TestRouter::new(rs, true, 8);
        r.import(
            &cfg,
            Asn::new(1),
            0,
            Role::Peer,
            Some(incoming(1, &[1], &comms)),
            ctx,
        );
        assert!(
            r.export_for(&cfg, Asn::new(4), Role::Peer).is_none(),
            "suppress-first: conflict resolves to suppression"
        );
        cfg.route_server.eval_order = RsEvalOrder::AnnounceFirst;
        assert!(
            r.export_for(&cfg, Asn::new(4), Role::Peer).is_some(),
            "announce-first: conflict resolves to announcement"
        );
    }

    #[test]
    fn egress_tags_injected_on_export() {
        // The Fig 7a attacker: an on-path AS adds a remote target's
        // blackhole community to a route it merely transits.
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.tagging.egress_tags = vec![Community::new(9, 666)];
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        let out = r.export_for(&cfg, Asn::new(7), Role::Provider).unwrap();
        assert!(out.has_community(Community::new(9, 666)));
    }

    #[test]
    fn targeted_egress_tags_only_the_named_prefix() {
        // The surgical attacker: tag one victim prefix, leave the rest of
        // the table untouched.
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.tagging.targeted_egress = vec![(prefix(), Community::new(9, 666))];
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        let out = r.export_for(&cfg, Asn::new(7), Role::Provider).unwrap();
        assert!(out.has_community(Community::new(9, 666)));

        // a different prefix through the same router stays clean
        let other: Prefix = "99.99.0.0/16".parse().unwrap();
        let mut cfg2 = RouterConfig::defaults(Asn::new(5));
        cfg2.tagging.targeted_egress = vec![(other, Community::new(9, 666))];
        let mut r2 = TestRouter::new(Asn::new(5), false, 8);
        r2.import(
            &cfg2,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        let out2 = r2.export_for(&cfg2, Asn::new(7), Role::Provider).unwrap();
        assert!(!out2.has_community(Community::new(9, 666)));
    }

    #[test]
    fn cisco_add_limit_caps_egress_tags() {
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.vendor = Vendor::Cisco;
        cfg.send_community_configured = true;
        cfg.tagging.egress_tags = (0..40).map(|i| Community::new(5, 1000 + i)).collect();
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        let out = r.export_for(&cfg, Asn::new(7), Role::Customer).unwrap();
        assert_eq!(out.communities.len(), 32, "Cisco adds at most 32");
    }

    #[test]
    fn steady_state_path_performs_zero_route_clones() {
        // The regression this locks in: the owned-`Route` diff_export used
        // to clone the new advertisement into `self.exported` (and the
        // call site cloned again to build it). With arena ids, a router
        // whose best route is unchanged skips the export sweep outright —
        // and an explicit re-diff of the same id is a u32 no-op — so the
        // steady-state path must not clone a single `Route`.
        let cfg = RouterConfig::defaults(Asn::new(5));
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut t = TestRouter::new(Asn::new(5), false, 8);
        t.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );

        let pass_needed = |t: &mut TestRouter| {
            let (mut node, arena) = t.state();
            node.begin_export_pass(arena).is_some()
        };

        // First pass: the best route is new, so the sweep runs and clones.
        assert!(pass_needed(&mut t));
        let (mut node, arena) = t.state();
        let first = node.export_for(&cfg, Asn::new(7), Role::Customer, arena);
        assert!(node.diff_export(6, first).is_some());

        // Steady state: nothing changed since the pass above.
        let (_, copies) = copies_during(|| {
            assert!(!pass_needed(&mut t), "unchanged best ⇒ export pass skipped");
            assert!(
                t.state().0.diff_export(6, first).is_none(),
                "same id ⇒ no update, no cache write"
            );
        });
        assert_eq!(copies, Copies::NONE, "steady-state path copied a Route");

        // A genuinely new best re-arms the pass.
        t.import(
            &cfg,
            Asn::new(3),
            2,
            Role::Customer,
            Some(incoming(3, &[3, 9, 1], &[Community::new(9, 42)])),
            ctx,
        );
        assert!(!pass_needed(&mut t), "worse candidate: best id unchanged");
        t.import(&cfg, Asn::new(2), 1, Role::Customer, None, ctx);
        assert!(pass_needed(&mut t), "withdrawal changed best");
    }

    /// Imports `incoming` at a one-neighbor receiver over throwaway RIB
    /// storage and returns the id installed in its Adj-RIB-In slot — the
    /// shape of one delivery of a /24's fan-out (long enough to trigger RTBH),
    /// with `arena` shared among the receivers the way a prefix worker's is.
    fn deliver(
        arena: &mut RouteArena,
        (receiver, is_route_server): (u32, bool),
        cfg: &RouterConfig,
        (sender, role): (u32, Role),
        incoming: RouteId,
    ) -> RouteId {
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let (mut rib_in, mut local, mut exported, mut last) = ([None], None, [None], None);
        let mut node = NodeState::new(
            Asn::new(receiver),
            is_route_server,
            "10.0.0.0/24".parse().unwrap(),
            &mut rib_in,
            &mut local,
            &mut exported,
            &mut last,
        );
        let verdict = node.import(cfg, Asn::new(sender), 0, role, Some(incoming), arena, ctx);
        assert_eq!(verdict, ImportVerdict::Accepted);
        rib_in[0].expect("accepted import fills the slot").route
    }

    #[test]
    fn second_same_policy_delivery_clones_nothing() {
        // One export of AS2 reaches two customers-of-nobody with default
        // policy: both derive the same RIB route, and the second gets it
        // from the arena's derivation cache — no clone, no new route.
        let mut arena = RouteArena::new();
        let advert = arena.intern(incoming(2, &[2, 1], &[Community::new(9, 42)]));
        let (cfg5, cfg6) = (
            RouterConfig::defaults(Asn::new(5)),
            RouterConfig::defaults(Asn::new(6)),
        );
        let (first, copies) =
            copies_during(|| deliver(&mut arena, (5, false), &cfg5, (2, Role::Provider), advert));
        let miss = Copies {
            handles: 1,
            attrs: 0,
        };
        assert_eq!(copies, miss, "a miss shares the advertisement's attributes");
        let len = arena.len();
        let (second, copies) =
            copies_during(|| deliver(&mut arena, (6, false), &cfg6, (2, Role::Provider), advert));
        assert_eq!(second, first, "equal effects ⇒ one shared RIB route");
        assert_eq!(copies, Copies::NONE, "a hit copies nothing");
        assert_eq!(arena.len(), len);
        assert_eq!(arena.derivations(), 1);
        // Vendors differ only in an added-community cap (32 or none) that
        // at most two ingress tags never reach, so a Cisco receiver shares
        // the route too.
        let mut cisco = RouterConfig::defaults(Asn::new(7));
        cisco.vendor = Vendor::Cisco;
        assert_eq!(
            deliver(&mut arena, (7, false), &cisco, (2, Role::Provider), advert),
            first
        );
    }

    #[test]
    fn receivers_with_different_import_outcomes_get_distinct_routes() {
        let mut arena = RouteArena::new();
        let plain = arena.intern(incoming(2, &[2, 1], &[]));
        let base = RouterConfig::defaults(Asn::new(5));
        let reference = deliver(&mut arena, (5, false), &base, (2, Role::Customer), plain);
        let mut seen = vec![reference];
        let mut distinct = |what: &str, arena: &RouteArena, id: RouteId| {
            assert!(!seen.contains(&id), "{what} shared a route id");
            seen.push(id);
            arena.get(id).clone()
        };

        // Role local-pref.
        let id = deliver(&mut arena, (5, false), &base, (2, Role::Provider), plain);
        let r = distinct("sender role", &arena, id);
        assert_eq!(r.local_pref, base.local_pref.provider);

        // Configured local-pref at an otherwise identical receiver.
        let mut cfg = base.clone();
        cfg.local_pref.customer += 7;
        let id = deliver(&mut arena, (5, false), &cfg, (2, Role::Customer), plain);
        distinct("role local-pref", &arena, id);

        // Ingress tagging — which also makes the receiver's ASN part of the
        // route, so two taggers never share.
        let mut cfg = base.clone();
        cfg.tagging.tag_origin_class = true;
        cfg.tagging.tag_ingress_location = true;
        let id = deliver(&mut arena, (5, false), &cfg, (2, Role::Customer), plain);
        let r = distinct("ingress tagging", &arena, id);
        assert_eq!(
            r.own_tags,
            [Some(Community::new(5, 100)), Some(Community::new(5, 203))],
            "origin class, then location bucket 2 % 4"
        );
        let id = deliver(&mut arena, (6, false), &cfg, (2, Role::Customer), plain);
        distinct("the tagging receiver's ASN", &arena, id);
        cfg.tagging.tag_ingress_location = false;
        let id = deliver(&mut arena, (5, false), &cfg, (2, Role::Customer), plain);
        distinct("one tag fewer", &arena, id);

        // Route-server member tagging (on by default).
        let rs = RouterConfig::defaults(Asn::new(59_000));
        let tagged = deliver(&mut arena, (59_000, true), &rs, (2, Role::Peer), plain);
        let mut cfg = rs.clone();
        cfg.route_server.tag_member_routes = false;
        let untagged = deliver(&mut arena, (59_000, true), &cfg, (2, Role::Peer), plain);
        assert_ne!(tagged, untagged, "member tagging shared a route id");
        assert_eq!(
            arena.get(tagged).own_tags,
            [Some(Community::new(59_000, 102)), None]
        );
        assert_eq!(arena.get(untagged).own_tags, [None; 2]);

        // RTBH `set_no_export`.
        let trigger = arena.intern(incoming(2, &[2, 1], &[Community::BLACKHOLE]));
        let mut cfg = base.clone();
        cfg.services.blackhole = Some(BlackholeService::default());
        let with = deliver(&mut arena, (5, false), &cfg, (2, Role::Customer), trigger);
        cfg.services.blackhole = Some(BlackholeService {
            set_no_export: false,
            ..BlackholeService::default()
        });
        let without = deliver(&mut arena, (5, false), &cfg, (2, Role::Customer), trigger);
        assert_ne!(with, without, "set_no_export shared a route id");
        assert!(arena.get(with).has_community(Community::NO_EXPORT));
        assert!(!arena.get(without).has_community(Community::NO_EXPORT));
        assert!(arena.get(with).blackholed && arena.get(without).blackholed);
    }

    #[test]
    fn attributes_are_copied_to_add_no_export_and_once_per_export_that_mints() {
        // The copy-on-write counts, one operation at a time (the engine and
        // campaign tests count whole floods).
        let shared = Copies {
            handles: 1,
            attrs: 0,
        };
        let copied = Copies {
            handles: 1,
            attrs: 1,
        };
        let mut arena = RouteArena::new();
        let trigger = arena.intern(incoming(2, &[2, 1], &[Community::BLACKHOLE]));
        let mut cfg = RouterConfig::defaults(Asn::new(5));
        cfg.services.blackhole = Some(BlackholeService {
            set_no_export: false,
            ..BlackholeService::default()
        });
        let (plain, copies) =
            copies_during(|| deliver(&mut arena, (5, false), &cfg, (2, Role::Customer), trigger));
        assert_eq!(copies, shared, "an import that adds no community");
        cfg.services.blackhole = Some(BlackholeService::default());
        let (rtbh, copies) =
            copies_during(|| deliver(&mut arena, (5, false), &cfg, (2, Role::Customer), trigger));
        assert_eq!(copies, copied, "NO_EXPORT goes onto the import's own copy");
        assert!(arena.get(rtbh).has_community(Community::NO_EXPORT));
        for sibling in [trigger, plain] {
            assert_eq!(arena.get(sibling).communities, [Community::BLACKHOLE]);
        }

        let mut export = |best: RouteId| {
            copies_during(|| {
                export_from_best(
                    Asn::new(5),
                    false,
                    "10.0.0.0/24".parse().unwrap(),
                    best,
                    Some(Role::Customer),
                    &cfg,
                    Asn::new(7),
                    Role::Provider,
                    &mut arena,
                )
            })
        };
        let (out, copies) = export(plain);
        assert!(out.is_some());
        assert_eq!(copies, copied, "an export edits the path of its own copy");
        assert_eq!(
            export(rtbh),
            (None, Copies::NONE),
            "refused before the copy"
        );
        assert_eq!(
            arena.get(plain).path.hop_count(),
            2,
            "the best keeps its path"
        );
    }

    #[test]
    fn diff_export_tracks_changes() {
        let cfg = RouterConfig::defaults(Asn::new(5));
        let (irr, rpki) = ctx_empty();
        let ctx = ValidationCtx {
            irr: &irr,
            rpki: &rpki,
        };
        let mut r = TestRouter::new(Asn::new(5), false, 8);
        r.import(
            &cfg,
            Asn::new(2),
            1,
            Role::Customer,
            Some(incoming(2, &[2, 1], &[])),
            ctx,
        );
        let (mut node, arena) = r.state();
        let exp = node.export_for(&cfg, Asn::new(7), Role::Customer, arena);
        // first export: change
        assert!(node.diff_export(6, exp).is_some());
        // same again: no change
        assert!(node.diff_export(6, exp).is_none());
        // withdraw: change
        assert!(node.diff_export(6, None).is_some());
        // withdraw again: no change
        assert!(node.diff_export(6, None).is_none());
    }
}
