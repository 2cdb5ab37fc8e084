//! The simulator's route representation, best-path comparison, and the
//! per-run hash-consing [`RouteArena`].
//!
//! The propagation engine never stores owned [`Route`] values on its hot
//! path: every route produced during a prefix run is interned into the
//! prefix-worker's [`RouteArena`] and referenced by a dense [`RouteId`]
//! (u32). Adj-RIB-In slots, last-exported caches, and in-flight events all
//! carry ids, so route equality (the export-diffing predicate) is a u32
//! compare and identical routes are allocated exactly once per prefix.
//!
//! The arena also remembers every import derivation it has performed
//! (`RouteArena::intern_derived`): a transit's one export fans out to
//! hundreds of receivers that apply the same `ImportDelta` to it, and all
//! but the first of them get the stored id back without cloning or hashing
//! a route.

use bgpworms_types::{AsPath, Asn, Community, LargeCommunity, Origin};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Where a route entered the local RIB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteSource {
    /// Originated by this AS.
    Local,
    /// Learned over an eBGP session from the given neighbor.
    Ebgp(Asn),
    /// Learned from an IXP route server (transparent; the actual announcing
    /// member is the head of the AS path).
    RouteServer(Asn),
}

impl RouteSource {
    /// The neighbor the route was learned from, if any.
    pub fn neighbor(self) -> Option<Asn> {
        match self {
            RouteSource::Local => None,
            RouteSource::Ebgp(a) | RouteSource::RouteServer(a) => Some(a),
        }
    }
}

/// What a BGP UPDATE carries for a route: the transitive attributes an AS
/// that does not act on them forwards as received. `Clone` is implemented
/// by hand so every copy is counted (see [`attr_copies`]).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct RouteAttrs {
    /// AS path, collector-first (head = the AS that exported to us; the
    /// sender prepends itself on egress, so a route received from N has N
    /// at the head).
    pub path: AsPath,
    /// ORIGIN attribute.
    pub origin: Origin,
    /// Attached RFC 1997 communities (announcement order).
    pub communities: Vec<Community>,
    /// Attached RFC 8092 large communities — the 96-bit variant that
    /// 4-byte-ASN networks need (§2 footnote 1). Transitive like classic
    /// communities, and subject to the same worms.
    pub large_communities: Vec<LargeCommunity>,
}

/// One route as held in a router's Adj-RIB-In / Loc-RIB: a shared handle on
/// the [`RouteAttrs`] it was received with, plus what *this* router decided
/// about it. It does not name its destination: an arena serves one prefix's
/// flood, and whatever carries a route out of it (an observation, a result
/// key) has the prefix beside it.
///
/// The attributes are read through `Deref` (`route.path`,
/// `&route.communities`) and edited through `DerefMut`, which is
/// copy-on-write: the first edit of a shared attribute set copies it, later
/// edits find it unique. Whoever keeps a route without editing them — an
/// import that adds no community, an observation, a retained final, a
/// snapshot, a class replay — copies the handle and the annotation. `==`
/// and `Hash` read the attributes' content, never the handle's address (a
/// pointer-equal pair only short-circuits `==`), so [`RouteId`] assignment
/// cannot tell shared attributes from equal ones built twice. `Clone` is
/// implemented by hand so every clone is counted (see [`route_clones`]).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Route {
    attrs: Arc<RouteAttrs>,
    /// Where the route came from.
    pub source: RouteSource,
    /// Local preference assigned on import (or configured at origination).
    pub local_pref: u32,
    /// MED.
    pub med: u32,
    /// True once a blackhole service accepted this route: traffic to the
    /// prefix is dropped (null-routed) at this router.
    pub blackholed: bool,
    /// Pending prepend count requested via a prepend community understood
    /// by *this* AS; applied on every egress session.
    pub pending_prepend: u8,
    /// Communities added by *this* router at ingress (location / origin-
    /// class tags), packed to the front: no router configures more than
    /// two. Kept apart from `communities` so egress propagation policies
    /// can strip received communities without losing the router's own
    /// signal; merged into the community list on export.
    pub own_tags: [Option<Community>; 2],
}

impl Deref for Route {
    type Target = RouteAttrs;
    #[inline]
    fn deref(&self) -> &RouteAttrs {
        &self.attrs
    }
}

impl DerefMut for Route {
    #[inline]
    fn deref_mut(&mut self) -> &mut RouteAttrs {
        Arc::make_mut(&mut self.attrs)
    }
}

impl Route {
    /// A route with the given attributes, learned from `source` at
    /// `local_pref`; MED 0, not blackholed, no pending prepend, no ingress
    /// tags.
    pub fn new(attrs: RouteAttrs, source: RouteSource, local_pref: u32) -> Self {
        Route {
            attrs: Arc::new(attrs),
            source,
            local_pref,
            med: 0,
            blackholed: false,
            pending_prepend: 0,
            own_tags: [None; 2],
        }
    }

    /// A locally originated route.
    pub fn originate(communities: Vec<Community>) -> Self {
        let attrs = RouteAttrs {
            path: AsPath::empty(),
            origin: Origin::Igp,
            communities,
            large_communities: Vec::new(),
        };
        Route::new(attrs, RouteSource::Local, 250) // own routes beat anything learned
    }

    /// Builder: attach RFC 8092 large communities at origination.
    pub fn with_large_communities(mut self, large: Vec<LargeCommunity>) -> Self {
        self.large_communities = large;
        self
    }

    /// True if the route carries large community `lc`.
    pub fn has_large_community(&self, lc: LargeCommunity) -> bool {
        self.large_communities.contains(&lc)
    }

    /// The origin AS from the path, or `me` for locally originated routes.
    pub fn origin_as(&self, me: Asn) -> Option<Asn> {
        if self.path.is_empty() {
            Some(me)
        } else {
            self.path.origin()
        }
    }

    /// True if the route carries `c`.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.contains(&c)
    }

    /// BGP decision-process comparison: returns `Ordering::Greater` when
    /// `self` is preferred over `other`.
    ///
    /// Order: local-pref (higher wins) → AS-path length (shorter wins) →
    /// origin code (lower wins) → MED (lower wins) → neighbor ASN (lower
    /// wins, deterministic tie-break).
    pub fn prefer(&self, other: &Route) -> Ordering {
        self.local_pref
            .cmp(&other.local_pref)
            .then_with(|| other.path.hop_count().cmp(&self.path.hop_count()))
            .then_with(|| other.origin.code().cmp(&self.origin.code()))
            .then_with(|| other.med.cmp(&self.med))
            .then_with(|| {
                let a = self.source.neighbor().map(Asn::get).unwrap_or(0);
                let b = other.source.neighbor().map(Asn::get).unwrap_or(0);
                b.cmp(&a)
            })
    }
}

thread_local! {
    /// Clone-counting test doubles: every `Route::clone` (a handle copy)
    /// and every `RouteAttrs::clone` (a path and two community lists) on
    /// this thread bumps its counter. Production overhead is one
    /// thread-local add per clone.
    static ROUTE_CLONES: Cell<u64> = const { Cell::new(0) };
    static ATTR_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Total `Route::clone` calls performed on the current thread so far: each
/// copies a handle and the annotation, no attribute.
///
/// Tests snapshot this before and after an operation; deltas are meaningful,
/// absolute values are not.
pub fn route_clones() -> u64 {
    ROUTE_CLONES.with(|c| c.get())
}

/// Total [`RouteAttrs`] copies performed on the current thread so far — the
/// copy-on-write slow path, where a path and two community lists are
/// duplicated. The engine's steady-state invariant — zero attribute copies
/// while nothing changes — is asserted by unit tests against this counter.
pub fn attr_copies() -> u64 {
    ATTR_COPIES.with(|c| c.get())
}

impl Clone for RouteAttrs {
    fn clone(&self) -> Self {
        ATTR_COPIES.with(|c| c.set(c.get() + 1));
        RouteAttrs {
            path: self.path.clone(),
            origin: self.origin,
            communities: self.communities.clone(),
            large_communities: self.large_communities.clone(),
        }
    }
}

impl Clone for Route {
    fn clone(&self) -> Self {
        ROUTE_CLONES.with(|c| c.set(c.get() + 1));
        Route {
            attrs: Arc::clone(&self.attrs),
            ..*self
        }
    }
}

/// The arena's hasher: one rotate, xor and multiply per word (the FxHash
/// recurrence), with a closing rotate that moves the well-mixed high bits
/// down to where the table takes its bucket index. No per-process state, so
/// a run's hashes repeat; both arena maps are probed, never iterated, and
/// resolve every probe by full key equality, so its quality moves speed
/// only. The keys are routes the simulator made itself — nothing crafted
/// outside the program reaches them — so SipHash's flooding resistance
/// bought nothing here.
#[derive(Default)]
struct ArenaHasher(u64);

type ArenaBuildHasher = BuildHasherDefault<ArenaHasher>;

impl ArenaHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ArenaHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            self.mix(chunk.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b)));
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The scalar residue of import policy on an accepted route: everything
/// admission decides that is not derivable from the incoming route content
/// alone. Tagging is *not* here — it depends on the sender ASN directly
/// (ingress buckets), so the finalize step adds it to complete the
/// [`ImportDelta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct AdmitEffects {
    /// Import local-pref after role base, RTBH override, and steering.
    pub(crate) local_pref: u32,
    /// True when the RTBH service accepted this as a blackhole route.
    pub(crate) blackholed: bool,
    /// Prepend count requested by steering communities.
    pub(crate) pending_prepend: u8,
    /// True when RTBH policy adds NO_EXPORT (already checked absent).
    pub(crate) add_no_export: bool,
}

/// Everything an accepted import changes on the route it received.
/// Together with the incoming [`RouteId`] this determines the Adj-RIB-In
/// route completely — the receiver appears only through what its policy
/// decided — which is what lets [`RouteArena::intern_derived`] share one
/// derivation among all receivers with the same policy outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ImportDelta {
    /// The neighbor the route was learned from.
    pub(crate) sender: Asn,
    /// What admission decided.
    pub(crate) effects: AdmitEffects,
    /// The receiver's ingress tags after the vendor cap, packed to the
    /// front: no router configures more than two (one route-server member
    /// tag, or an origin-class plus an ingress-location tag).
    pub(crate) own_tags: [Option<Community>; 2],
}

impl ImportDelta {
    /// The Adj-RIB-In route this import makes of `incoming`: a second
    /// handle on its attributes (copied only to add `NO_EXPORT`) under this
    /// receiver's annotation.
    fn apply(&self, incoming: &Route) -> Route {
        let mut route = incoming.clone();
        route.local_pref = self.effects.local_pref;
        route.blackholed = self.effects.blackholed;
        route.pending_prepend = self.effects.pending_prepend;
        if self.effects.add_no_export {
            route.communities.push(Community::NO_EXPORT);
        }
        route.own_tags = self.own_tags;
        route.source = RouteSource::Ebgp(self.sender);
        route.med = 0;
        route
    }
}

/// Dense handle of a route interned in a [`RouteArena`].
///
/// Ids are assigned in first-intern order within one arena, so for a fixed
/// per-prefix event sequence the id assignment is deterministic — which is
/// what lets compiled-session reruns and `threads = 1 ≡ N` stay
/// bit-identical while the engine compares routes by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteId(u32);

impl RouteId {
    /// The id as a dense vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A per-run hash-consing arena: every distinct [`Route`] value is stored
/// exactly once and addressed by a [`RouteId`].
///
/// One arena lives per prefix-worker (prefixes never interact), so sharded
/// runs stay lock-free and id assignment is a pure function of the prefix's
/// event sequence. Collision handling is an explicit bucket list — the map
/// stores `hash → candidate ids` and full [`Route`] equality resolves the
/// bucket, so the route bytes are never stored twice. The first id of a
/// bucket is stored inline: the overflow `Vec` only materializes on an
/// actual 64-bit-hash collision, so the index performs no per-bucket heap
/// allocation on the ordinary intern path (and [`RouteArena::reset`] has
/// essentially nothing to free besides the routes themselves).
///
/// `Clone` copies the route vector, the hash index and the derivation cache
/// verbatim, so a clone resolves every existing [`RouteId`] to the same
/// route *and* keeps interning deterministic: ids minted after the copy
/// continue from the same arrival order on both sides. That is what makes a
/// converged snapshot (`SimSnapshot`) restorable — a delta run on the
/// restored arena interns exactly the ids the uninterrupted run would have.
/// (Cloning counts one [`route_clones`] tick per stored route — a handle
/// each, no attribute copied.)
///
/// Equality is equality of the stored routes in id order. The index is a
/// function of them, and the derivation cache is invisible by
/// construction — a hit returns exactly the id the clone-and-intern it
/// skipped would have — so two arenas that answer every lookup alike
/// compare equal however warm their caches are.
#[derive(Debug, Default, Clone)]
pub struct RouteArena {
    routes: Vec<Route>,
    // lint: order-independent probed per intern by 64-bit route hash,
    // never iterated — ids come from arrival order in `routes`
    index: HashMap<u64, Bucket, ArenaBuildHasher>,
    // lint: order-independent probed per import by (incoming id, delta),
    // never iterated — a hit is the id `intern` would return anyway
    derived: HashMap<(RouteId, ImportDelta), RouteId, ArenaBuildHasher>,
}

impl PartialEq for RouteArena {
    fn eq(&self, other: &Self) -> bool {
        self.routes == other.routes
    }
}

/// One hash bucket: the first interned id inline, plus (rarely) overflow
/// ids whose routes share the same 64-bit hash without being equal.
#[derive(Debug, Clone, PartialEq)]
struct Bucket {
    first: RouteId,
    overflow: Vec<RouteId>,
}

impl RouteArena {
    /// An empty arena.
    pub fn new() -> Self {
        RouteArena::default()
    }

    /// Number of distinct routes interned.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route behind `id`. Ids are only minted by [`RouteArena::intern`]
    /// on the same arena, so the index is always in bounds.
    #[inline]
    pub fn get(&self, id: RouteId) -> &Route {
        &self.routes[id.index()]
    }

    /// Empties the arena for reuse by the next prefix run, keeping the
    /// route vector's capacity and both maps' bucket tables. Bucket
    /// ids live inline (overflow `Vec`s exist only for genuine hash
    /// collisions), so after the first prefix a worker interning a similar
    /// route volume stops growing either allocation. Ids minted after a
    /// reset restart from zero, exactly as on a fresh arena — reuse is
    /// invisible to id-assignment determinism.
    pub fn reset(&mut self) {
        self.routes.clear();
        self.index.clear();
        self.derived.clear();
    }

    /// Interns `route`, returning the id of the already-stored identical
    /// route when one exists (dropping `route` without copying it anywhere)
    /// and storing `route` under a fresh id otherwise.
    pub fn intern(&mut self, route: Route) -> RouteId {
        let mut hasher = ArenaHasher::default();
        route.hash(&mut hasher);
        self.intern_hashed(hasher.finish(), route)
    }

    /// [`RouteArena::intern`] with the route's hash supplied, so a test can
    /// force two unequal routes into one bucket.
    fn intern_hashed(&mut self, hash: u64, route: Route) -> RouteId {
        let mint = |routes: &mut Vec<Route>, route: Route| {
            // lint: infallible distinct routes are bounded by the event
            // budget, orders of magnitude below u32::MAX
            let id = RouteId(u32::try_from(routes.len()).expect("more than u32::MAX routes"));
            routes.push(route);
            id
        };
        match self.index.entry(hash) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                let id = mint(&mut self.routes, route);
                slot.insert(Bucket {
                    first: id,
                    overflow: Vec::new(),
                });
                id
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                let bucket = slot.get_mut();
                if self.routes[bucket.first.index()] == route {
                    return bucket.first;
                }
                for &id in &bucket.overflow {
                    if self.routes[id.index()] == route {
                        return id;
                    }
                }
                let id = mint(&mut self.routes, route);
                bucket.overflow.push(id);
                id
            }
        }
    }

    /// The id of the route that importing `incoming` under `delta` yields —
    /// `intern(delta.apply(get(incoming)))`, remembered per `(incoming,
    /// delta)`. The key names no receiver, so every receiver whose policy
    /// reaches the same delta on the same advertisement shares the entry:
    /// the first pays the handle clone, the route hash and the intern, the
    /// rest one probe of a few words. Routes are never removed between
    /// resets, so a remembered id stays the id `intern` would return.
    pub(crate) fn intern_derived(&mut self, incoming: RouteId, delta: ImportDelta) -> RouteId {
        if let Some(&id) = self.derived.get(&(incoming, delta)) {
            return id;
        }
        let id = self.intern(delta.apply(self.get(incoming)));
        self.derived.insert((incoming, delta), id);
        id
    }

    /// Number of remembered derivations (tests observe the cache through
    /// this; nothing else can tell it is there).
    #[cfg(test)]
    pub(crate) fn derivations(&self) -> usize {
        self.derived.len()
    }
}

/// What an operation copied on this thread, as the tests state it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Copies {
    /// [`route_clones`] ticks: a handle and an annotation each.
    pub(crate) handles: u64,
    /// [`attr_copies`] ticks: a path and two community lists each.
    pub(crate) attrs: u64,
}

#[cfg(test)]
impl Copies {
    pub(crate) const NONE: Copies = Copies {
        handles: 0,
        attrs: 0,
    };
}

/// Runs `f` and reports what it copied.
#[cfg(test)]
pub(crate) fn copies_during<T>(f: impl FnOnce() -> T) -> (T, Copies) {
    let (handles, attrs) = (route_clones(), attr_copies());
    let out = f();
    let copies = Copies {
        handles: route_clones() - handles,
        attrs: attr_copies() - attrs,
    };
    (out, copies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn route(lp: u32, path: &[u32], from: u32) -> Route {
        let attrs = RouteAttrs {
            path: AsPath::from_asns(path.iter().map(|&n| Asn::new(n))),
            origin: Origin::Igp,
            communities: vec![],
            large_communities: vec![],
        };
        Route::new(attrs, RouteSource::Ebgp(Asn::new(from)), lp)
    }

    #[test]
    fn local_pref_dominates_path_length() {
        let long_but_preferred = route(200, &[5, 4, 3, 2, 1], 5);
        let short = route(100, &[9, 1], 9);
        assert_eq!(long_but_preferred.prefer(&short), Ordering::Greater);
        assert_eq!(short.prefer(&long_but_preferred), Ordering::Less);
    }

    #[test]
    fn shorter_path_wins_at_equal_pref() {
        let short = route(100, &[9, 1], 9);
        let long = route(100, &[5, 4, 3, 2, 1], 5);
        assert_eq!(short.prefer(&long), Ordering::Greater);
    }

    #[test]
    fn prepending_inflates_length_and_loses() {
        let prepended = route(100, &[3, 3, 3, 3, 1], 3);
        let plain = route(100, &[5, 4, 1], 5);
        assert_eq!(plain.prefer(&prepended), Ordering::Greater);
    }

    #[test]
    fn origin_code_breaks_ties() {
        let mut igp = route(100, &[2, 1], 2);
        let mut incomplete = route(100, &[3, 1], 3);
        igp.origin = Origin::Igp;
        incomplete.origin = Origin::Incomplete;
        assert_eq!(igp.prefer(&incomplete), Ordering::Greater);
    }

    #[test]
    fn med_then_neighbor_tie_breaks() {
        let mut a = route(100, &[2, 1], 2);
        let mut b = route(100, &[3, 1], 3);
        a.med = 10;
        b.med = 5;
        assert_eq!(b.prefer(&a), Ordering::Greater);
        a.med = 5;
        // equal: lower neighbor ASN wins
        assert_eq!(a.prefer(&b), Ordering::Greater);
    }

    #[test]
    fn prefer_is_total_over_distinct_candidates() {
        // The decision process bottoms out in a strict neighbor-ASN
        // tie-break, so distinct candidates never compare Equal — the
        // property `NodeState::best_entry`'s fold relies on.
        let routes = [
            route(100, &[2, 1], 2),
            route(100, &[3, 1], 3),
            route(200, &[4, 4, 4, 1], 4),
        ];
        for (i, a) in routes.iter().enumerate() {
            for (j, b) in routes.iter().enumerate() {
                if i != j {
                    assert_ne!(a.prefer(b), Ordering::Equal, "{i} vs {j}");
                }
            }
        }
        // …and the unique maximum is the high-local-pref route.
        assert!(routes[..2]
            .iter()
            .all(|r| routes[2].prefer(r) == Ordering::Greater));
    }

    #[test]
    fn originated_route_properties() {
        let r = Route::originate(vec![Community::new(1, 100)]);
        assert_eq!(r.source, RouteSource::Local);
        assert_eq!(r.origin_as(Asn::new(7)), Some(Asn::new(7)));
        assert!(r.has_community(Community::new(1, 100)));
        assert!(!r.has_community(Community::new(1, 101)));
        // local routes beat learned ones
        let learned = route(200, &[2, 1], 2);
        assert_eq!(r.prefer(&learned), Ordering::Greater);
    }

    #[test]
    fn origin_as_from_path() {
        let r = route(100, &[3, 2, 1], 3);
        assert_eq!(r.origin_as(Asn::new(9)), Some(Asn::new(1)));
    }

    #[test]
    fn arena_interns_identical_routes_once() {
        let mut arena = RouteArena::new();
        let a = arena.intern(route(100, &[2, 1], 2));
        let b = arena.intern(route(100, &[2, 1], 2));
        let c = arena.intern(route(100, &[3, 1], 3));
        assert_eq!(a, b, "identical content maps to one id");
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2, "only distinct routes are stored");
        assert_eq!(arena.get(a), &route(100, &[2, 1], 2));
        assert_eq!(arena.get(c), &route(100, &[3, 1], 3));
    }

    #[test]
    fn arena_id_assignment_is_insertion_ordered() {
        let mut arena = RouteArena::new();
        let ids: Vec<RouteId> = (0..20)
            .map(|i| arena.intern(route(100 + i, &[2, 1], 2)))
            .collect();
        let again: Vec<RouteId> = (0..20)
            .map(|i| arena.intern(route(100 + i, &[2, 1], 2)))
            .collect();
        assert_eq!(ids, again, "re-interning reproduces the same ids");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "dense, ordered ids");
        assert_eq!(arena.len(), 20);
    }

    #[test]
    fn colliding_hashes_resolve_by_route_equality() {
        // A weaker hasher makes a 64-bit collision more than theoretical:
        // force two unequal routes into one bucket and check the overflow
        // list keeps them apart, in both directions, without disturbing a
        // neighbor bucket.
        let (a, b, c) = (
            route(100, &[2, 1], 2),
            route(100, &[3, 1], 3),
            route(100, &[4, 1], 4),
        );
        let mut arena = RouteArena::new();
        let ia = arena.intern_hashed(7, a.clone());
        let ib = arena.intern_hashed(7, b.clone());
        let ic = arena.intern_hashed(7, c.clone());
        let other = arena.intern_hashed(8, a.clone());
        assert!(
            ia != ib && ib != ic && ia != ic,
            "unequal routes share no id"
        );
        assert_eq!(arena.index[&7].first, ia);
        assert_eq!(arena.index[&7].overflow, [ib, ic], "collisions overflow");
        assert_eq!(arena.len(), 4);
        for (id, r) in [(ia, &a), (ib, &b), (ic, &c)] {
            assert_eq!(
                arena.intern_hashed(7, r.clone()),
                id,
                "re-intern finds its own id"
            );
            assert_eq!(arena.get(id), r);
        }
        assert_eq!(arena.intern_hashed(8, a), other);
        assert_eq!(arena.len(), 4, "re-interning minted nothing");
    }

    #[test]
    fn arena_hasher_is_fixed_and_spreads_small_keys() {
        let hash = |words: &[u32]| {
            let mut h = ArenaHasher::default();
            words.hash(&mut h);
            h.finish()
        };
        // No per-process state: a second hasher gives the same input the
        // same hash, and the empty input a value known in advance.
        assert_eq!(hash(&[1, 2, 3]), hash(&[1, 2, 3]));
        assert_eq!(hash(&[]), 0, "only the length prefix 0 was mixed");
        let mut bytes = ArenaHasher::default();
        bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut words = ArenaHasher::default();
        words.write_u64(1);
        words.write_u64(2);
        assert_eq!(bytes.finish(), words.finish(), "bytes fold little-endian");
        // Dense small keys (route ids, ASNs) land in distinct buckets of a
        // small table and carry distinct control bytes more often than not.
        let low: std::collections::BTreeSet<u64> = (0..256).map(|i| hash(&[i]) & 0xff).collect();
        let top: std::collections::BTreeSet<u64> = (0..256).map(|i| hash(&[i]) >> 57).collect();
        assert!(low.len() > 128, "low bits spread: {}", low.len());
        assert!(top.len() > 64, "top bits spread: {}", top.len());
    }

    fn delta(sender: u32, local_pref: u32, tags: &[Community]) -> ImportDelta {
        ImportDelta {
            sender: Asn::new(sender),
            effects: AdmitEffects {
                local_pref,
                blackholed: false,
                pending_prepend: 0,
                add_no_export: false,
            },
            own_tags: [tags.first().copied(), tags.get(1).copied()],
        }
    }

    #[test]
    fn derived_interning_equals_apply_then_intern_and_is_remembered() {
        let (t1, t2) = (Community::new(5, 100), Community::new(5, 201));
        let mut arena = RouteArena::new();
        let mut twin = RouteArena::new();
        let base = arena.intern(route(0, &[2, 1], 9));
        assert_eq!(twin.intern(route(0, &[2, 1], 9)), base);
        let deltas = [
            delta(2, 100, &[]),
            delta(2, 90, &[]),
            delta(3, 100, &[]),
            delta(2, 100, &[t1, t2]),
            delta(2, 100, &[t1]),
            ImportDelta {
                effects: AdmitEffects {
                    add_no_export: true,
                    blackholed: true,
                    ..delta(2, 100, &[]).effects
                },
                ..delta(2, 100, &[])
            },
            ImportDelta {
                effects: AdmitEffects {
                    pending_prepend: 2,
                    ..delta(2, 100, &[]).effects
                },
                ..delta(2, 100, &[])
            },
        ];
        let mut ids = Vec::new();
        for d in deltas {
            let id = arena.intern_derived(base, d);
            assert_eq!(twin.intern(d.apply(twin.get(base))), id, "{d:?}");
            let (hit, copies) = copies_during(|| arena.intern_derived(base, d));
            assert_eq!(hit, id, "a hit returns the stored id");
            assert_eq!(copies, Copies::NONE, "a hit copies nothing");
            ids.push(id);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            deltas.len(),
            "every distinct delta is a distinct route"
        );
        assert_eq!(arena.derivations(), deltas.len());
        assert_eq!(arena, twin, "the cache is invisible to arena equality");
        assert_eq!(twin.derivations(), 0);

        let tagged = arena.intern_derived(base, deltas[3]);
        let imported = arena.get(tagged);
        assert_eq!(imported.own_tags, [Some(t1), Some(t2)]);
        assert_eq!(imported.source, RouteSource::Ebgp(Asn::new(2)));
        assert_eq!(imported.path, route(0, &[2, 1], 9).path, "the path is kept");

        // A reset forgets the derivations along with the routes they name.
        arena.reset();
        assert_eq!(arena.derivations(), 0);
        let base = arena.intern(route(0, &[7, 1], 7));
        let id = arena.intern_derived(base, deltas[0]);
        assert_eq!(arena.get(id).path, route(0, &[7, 1], 7).path);
    }

    /// The owned layout `Route` had before its attributes moved behind a
    /// handle, field for field — the oracle copy-on-write is checked
    /// against. Its `Clone` is a deep copy, so no two mirrors can alias.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Mirror {
        path: AsPath,
        origin: Origin,
        communities: Vec<Community>,
        large_communities: Vec<LargeCommunity>,
        source: RouteSource,
        local_pref: u32,
        med: u32,
        blackholed: bool,
        pending_prepend: u8,
        own_tags: Vec<Community>,
    }

    impl Mirror {
        /// The handle-backed route of the same content, built from nothing:
        /// it shares attributes with no other route.
        fn build(&self) -> Route {
            let attrs = RouteAttrs {
                path: self.path.clone(),
                origin: self.origin,
                communities: self.communities.clone(),
                large_communities: self.large_communities.clone(),
            };
            let mut route = Route::new(attrs, self.source, self.local_pref);
            route.med = self.med;
            route.blackholed = self.blackholed;
            route.pending_prepend = self.pending_prepend;
            route.own_tags = [
                self.own_tags.first().copied(),
                self.own_tags.get(1).copied(),
            ];
            route
        }

        fn matches(&self, route: &Route) -> bool {
            self.path == route.path
                && self.origin == route.origin
                && self.communities == route.communities
                && self.large_communities == route.large_communities
                && self.source == route.source
                && self.local_pref == route.local_pref
                && self.med == route.med
                && self.blackholed == route.blackholed
                && self.pending_prepend == route.pending_prepend
                && self.own_tags == route.own_tags.iter().flatten().copied().collect::<Vec<_>>()
        }

        /// `ImportDelta::apply` as the owned layout spelled it.
        fn import(&self, delta: &ImportDelta) -> Mirror {
            let mut route = self.clone();
            route.local_pref = delta.effects.local_pref;
            route.blackholed = delta.effects.blackholed;
            route.pending_prepend = delta.effects.pending_prepend;
            if delta.effects.add_no_export {
                route.communities.push(Community::NO_EXPORT);
            }
            route.own_tags = delta.own_tags.iter().flatten().copied().collect();
            route.source = RouteSource::Ebgp(delta.sender);
            route.med = 0;
            route
        }
    }

    fn arena_hash(route: &Route) -> u64 {
        let mut hasher = ArenaHasher::default();
        route.hash(&mut hasher);
        hasher.finish()
    }

    proptest! {
        /// Clones, attribute edits, scalar edits and imports applied alike
        /// to handle-backed routes and their owned mirrors: after every
        /// step each route still equals its mirror field for field (an edit
        /// through one handle never reaches a sibling), and at the end `==`,
        /// the arena hash and interning cannot tell shared attributes from
        /// equal ones built twice.
        #[test]
        fn copy_on_write_never_aliases(
            ops in proptest::collection::vec((0u8..7, 0usize..64, 1u32..5, 0u8..4), 1..48),
        ) {
            let seed = Mirror {
                path: AsPath::from_asns([Asn::new(2), Asn::new(1)]),
                origin: Origin::Igp,
                communities: vec![Community::new(1, 100)],
                large_communities: vec![LargeCommunity::new(1, 2, 3)],
                source: RouteSource::Ebgp(Asn::new(2)),
                local_pref: 100,
                med: 0,
                blackholed: false,
                pending_prepend: 0,
                own_tags: Vec::new(),
            };
            // Equal in content, distinct in pointer, from the start.
            let mut pool = vec![(seed.build(), seed.clone()), (seed.build(), seed)];
            for (op, target, a, b) in ops {
                let at = target % pool.len();
                let (route, mirror) = &mut pool[at];
                match op {
                    0 => {
                        let pair = (route.clone(), mirror.clone());
                        pool.push(pair);
                    }
                    1 => {
                        route.path.prepend(Asn::new(a), usize::from(b));
                        mirror.path.prepend(Asn::new(a), usize::from(b));
                    }
                    2 => {
                        route.communities.push(Community::new(a as u16, u16::from(b)));
                        mirror.communities.push(Community::new(a as u16, u16::from(b)));
                    }
                    3 => {
                        route.large_communities.retain(|c| c.global != a);
                        mirror.large_communities.retain(|c| c.global != a);
                    }
                    4 => {
                        (route.local_pref, route.med, route.blackholed) = (a, u32::from(b), b > 1);
                        (mirror.local_pref, mirror.med, mirror.blackholed) =
                            (a, u32::from(b), b > 1);
                    }
                    5 => {
                        let delta = ImportDelta {
                            effects: AdmitEffects {
                                add_no_export: b % 2 == 1,
                                blackholed: b > 1,
                                ..delta(a, 100, &[]).effects
                            },
                            ..delta(a, 100, &[Community::new(9, 100), Community::new(9, 201)][..usize::from(b) % 3])
                        };
                        let pair = (delta.apply(route), mirror.import(&delta));
                        pool.push(pair);
                    }
                    _ => {
                        let pair = (mirror.build(), mirror.clone());
                        pool.push(pair);
                    }
                }
                for (i, (route, mirror)) in pool.iter().enumerate() {
                    prop_assert!(mirror.matches(route), "route {i} after op {op} on {at}");
                }
            }

            let mut arena = RouteArena::new();
            let mut distinct: Vec<&Mirror> = Vec::new();
            for (route, mirror) in &pool {
                for (other, other_mirror) in &pool {
                    prop_assert_eq!(route == other, mirror == other_mirror);
                    if mirror == other_mirror {
                        prop_assert_eq!(arena_hash(route), arena_hash(other));
                    }
                }
                // Ids are first-arrival positions among distinct contents.
                let expected = distinct.iter().position(|m| *m == mirror).unwrap_or_else(|| {
                    distinct.push(mirror);
                    distinct.len() - 1
                });
                prop_assert_eq!(arena.intern(route.clone()).index(), expected);
            }
            prop_assert_eq!(arena.len(), distinct.len());
        }
    }

    #[test]
    fn re_interning_does_not_clone() {
        let mut arena = RouteArena::new();
        arena.intern(route(100, &[2, 1], 2));
        let template = route(100, &[2, 1], 2);
        // Moving an already-known route into the arena drops it; nothing on
        // the intern path ever calls Route::clone, let alone copies
        // attributes.
        let (_, copies) = copies_during(|| arena.intern(template));
        assert_eq!(copies, Copies::NONE);
    }
}
