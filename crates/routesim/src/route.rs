//! The simulator's route representation, best-path comparison, and the
//! per-run hash-consing [`RouteArena`].
//!
//! The propagation engine never stores owned [`Route`] values on its hot
//! path: every route produced during a prefix run is interned into the
//! prefix-worker's [`RouteArena`] and referenced by a dense [`RouteId`]
//! (u32). Adj-RIB-In slots, last-exported caches, and in-flight events all
//! carry ids, so route equality (the export-diffing predicate) is a u32
//! compare and identical routes are allocated exactly once per prefix.

use bgpworms_types::{AsPath, Asn, Community, LargeCommunity, Origin, Prefix};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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

/// One route as held in a router's Adj-RIB-In / Loc-RIB.
///
/// `Clone` is implemented by hand so every clone is counted (see
/// [`route_clones`]): the engine's steady-state invariant — zero `Route`
/// clones while nothing changes — is asserted by unit tests against that
/// counter.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
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
    /// class tags). Kept apart from `communities` so egress propagation
    /// policies can strip received communities without losing the router's
    /// own signal; merged into the community list on export.
    pub own_tags: Vec<Community>,
}

impl Route {
    /// A locally originated route.
    pub fn originate(prefix: Prefix, communities: Vec<Community>) -> Self {
        Route {
            prefix,
            path: AsPath::empty(),
            origin: Origin::Igp,
            communities,
            large_communities: Vec::new(),
            source: RouteSource::Local,
            local_pref: 250, // own routes beat anything learned
            med: 0,
            blackholed: false,
            pending_prepend: 0,
            own_tags: Vec::new(),
        }
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
    /// Clone-counting test double: every `Route::clone` on this thread
    /// bumps the counter. Production overhead is one thread-local add per
    /// clone — and the whole point of the arena is that clones are rare.
    static ROUTE_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// Total `Route::clone` calls performed on the current thread so far.
///
/// Tests snapshot this before and after a steady-state operation to assert
/// the zero-clone invariant; deltas are meaningful, absolute values are not.
pub fn route_clones() -> u64 {
    ROUTE_CLONES.with(|c| c.get())
}

impl Clone for Route {
    fn clone(&self) -> Self {
        ROUTE_CLONES.with(|c| c.set(c.get() + 1));
        Route {
            prefix: self.prefix,
            path: self.path.clone(),
            origin: self.origin,
            communities: self.communities.clone(),
            large_communities: self.large_communities.clone(),
            source: self.source,
            local_pref: self.local_pref,
            med: self.med,
            blackholed: self.blackholed,
            pending_prepend: self.pending_prepend,
            own_tags: self.own_tags.clone(),
        }
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
/// `Clone` copies the route vector and the hash index verbatim, so a clone
/// resolves every existing [`RouteId`] to the same route *and* keeps
/// interning deterministic: ids minted after the copy continue from the
/// same arrival order on both sides. That is what makes a converged
/// snapshot (`SimSnapshot`) restorable — a delta run on the restored arena
/// interns exactly the ids the uninterrupted run would have. (Cloning
/// counts one [`route_clones`] tick per stored route; snapshots are taken
/// per baseline, not per event, so the steady-state zero-clone invariant is
/// untouched.)
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RouteArena {
    routes: Vec<Route>,
    // lint: order-independent probed per intern by 64-bit route hash,
    // never iterated — ids come from arrival order in `routes`
    index: HashMap<u64, Bucket>,
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
    /// route vector's capacity and the hash index's bucket table. Bucket
    /// ids live inline (overflow `Vec`s exist only for genuine hash
    /// collisions), so after the first prefix a worker interning a similar
    /// route volume stops growing either allocation. Ids minted after a
    /// reset restart from zero, exactly as on a fresh arena — reuse is
    /// invisible to id-assignment determinism.
    pub fn reset(&mut self) {
        self.routes.clear();
        self.index.clear();
    }

    /// Interns `route`, returning the id of the already-stored identical
    /// route when one exists (dropping `route` without copying it anywhere)
    /// and storing `route` under a fresh id otherwise.
    pub fn intern(&mut self, route: Route) -> RouteId {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        route.hash(&mut hasher);
        let mint = |routes: &mut Vec<Route>, route: Route| {
            // lint: infallible distinct routes are bounded by the event
            // budget, orders of magnitude below u32::MAX
            let id = RouteId(u32::try_from(routes.len()).expect("more than u32::MAX routes"));
            routes.push(route);
            id
        };
        match self.index.entry(hasher.finish()) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Prefix {
        "10.0.0.0/8".parse().unwrap()
    }

    fn route(lp: u32, path: &[u32], from: u32) -> Route {
        Route {
            prefix: p(),
            path: AsPath::from_asns(path.iter().map(|&n| Asn::new(n))),
            origin: Origin::Igp,
            communities: vec![],
            large_communities: vec![],
            source: RouteSource::Ebgp(Asn::new(from)),
            local_pref: lp,
            med: 0,
            blackholed: false,
            pending_prepend: 0,
            own_tags: Vec::new(),
        }
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
        let r = Route::originate(p(), vec![Community::new(1, 100)]);
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
    fn re_interning_does_not_clone() {
        let mut arena = RouteArena::new();
        arena.intern(route(100, &[2, 1], 2));
        let template = route(100, &[2, 1], 2);
        let before = route_clones();
        // Moving an already-known route into the arena drops it; nothing on
        // the intern path ever calls Route::clone.
        arena.intern(template);
        assert_eq!(route_clones() - before, 0);
    }
}
