//! The observation store — Layer 0 of the passive pipeline (see
//! `ARCHITECTURE.md`, "The passive pipeline"): a feed read **once** into
//! interned tables, flat columns and two shared indexes. It has two ways
//! in, one per input kind: MRT bytes ([`ObservationSet::from_archives`])
//! or rows a caller already holds ([`ObservationSet::from_rows`]). Both
//! feed one private builder, through the same de-prepending.
//!
//! Every table is sorted, so *id order is value order*: an analysis counts
//! into a `Vec` indexed by id and renders its `BTreeMap`-ordered output by
//! walking ids. Rows cannot change after construction, so the indexes
//! cannot go stale.
//!
//! A feed repeats its attributes: the same path and communities reach a
//! collector over many sessions and for many prefixes. The store keeps
//! each distinct attribute set (de-prepended path, prepend runs, raw hop
//! count, communities, large communities) once, in a table of spans over
//! the columns, and a [`Row`] holds a 4-byte id into it. So a row is 48
//! bytes, not the 80 it took with its spans inline, and the per-set work
//! of `finish` (owners' path positions) runs once per set, not per row.
//! Both ways in intern by the same rule: the builder appends a set's
//! values, looks their hash up among the sets already kept, and takes the
//! appended tail back when an equal set is there.
//!
//! The §4 counts that deduplicate by (prefix, peer, community) read that
//! triple's first occurrence in feed order through one walk,
//! [`ObservationSet::first_tags`], which holds one prefix's tags at a
//! time instead of a feed-sized set of triples.

pub use bgpworms_mrt::ArchiveInput;
use bgpworms_mrt::{Bgp4mpMessage, MrtError, UpdateStream};
use bgpworms_types::{AsPath, Asn, Community, LargeCommunity, PathAttributes, Prefix};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{Deref, Range};

/// "No such position": an off-path owner's; a row's ids until `finish`.
const NONE: u32 = u32::MAX;

/// One observation as an owned record: what [`Observation::to_record`]
/// gives back. The set itself stores columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateObservation {
    /// Platform the collector belongs to (RIS / RV / IS / PCH).
    pub platform: String,
    /// Collector name.
    pub collector: String,
    /// Observation time (Unix seconds).
    pub time: u32,
    /// The collector's peer session (also `path[0]` for announcements).
    pub peer: Asn,
    /// The prefix.
    pub prefix: Prefix,
    /// De-prepended AS path, collector-first (`path[0]` = peer,
    /// `path.last()` = origin). Empty for withdrawals.
    pub path: Vec<Asn>,
    /// Hop count of the path *before* de-prepending (for Fig 5b's length
    /// buckets the de-prepended length is used; this preserves the raw).
    pub raw_hop_count: usize,
    /// Prepend evidence from the raw path: ASes that appeared in
    /// consecutive runs of length > 1, with the run length. Steering
    /// inference needs to know *which* AS was prepended (§9 future agenda).
    pub prepends: Vec<(Asn, usize)>,
    /// Attached communities.
    pub communities: Vec<Community>,
    /// Attached RFC 8092 large communities (the paper's footnote-1 future
    /// work; analysed in [`crate::large`]).
    pub large_communities: Vec<LargeCommunity>,
    /// True for withdrawals.
    pub is_withdrawal: bool,
}

/// One row of a feed as [`ObservationSet::from_rows`] reads it: one
/// message of a collector session about one prefix, its attributes
/// borrowed from wherever the caller holds them.
#[derive(Debug, Clone, Copy)]
pub struct FeedRow<'a> {
    /// Observation time (Unix seconds).
    pub time: u32,
    /// The collector's peer session.
    pub peer: Asn,
    /// The prefix.
    pub prefix: Prefix,
    /// What an announcement carries; `None` for a withdrawal.
    pub announced: Option<FeedAttrs<'a>>,
}

/// The attributes of an announcement the store keeps, as received: the
/// raw path (de-prepended on the way in), the communities and the large
/// communities.
#[derive(Debug, Clone, Copy)]
pub struct FeedAttrs<'a> {
    /// The AS path as announced, prepends included, collector-first.
    pub path: &'a AsPath,
    /// Attached communities.
    pub communities: &'a [Community],
    /// Attached RFC 8092 large communities.
    pub large_communities: &'a [LargeCommunity],
}

impl<'a> From<&'a PathAttributes> for FeedAttrs<'a> {
    fn from(attrs: &'a PathAttributes) -> Self {
        FeedAttrs {
            path: &attrs.as_path,
            communities: &attrs.communities,
            large_communities: &attrs.large_communities,
        }
    }
}

/// A list that can be read (`len()`, indexing, `iter()` through `Deref`)
/// but neither grown nor edited: what keeps an [`ObservationSet`]'s public
/// fields in step with its indexes.
#[derive(Debug, PartialEq, Eq)]
pub struct Frozen<T>(Vec<T>);

impl<T> Deref for Frozen<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

/// A run of one column.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Where one distinct attribute set sits in the columns. Every row that
/// carries the set points at it by id; id 0 is the empty set a withdrawal
/// points at.
#[derive(Debug, Clone, Copy, Default)]
struct Attrs {
    path: Span,
    communities: Span,
    prepends: Span,
    large: Span,
    raw_hop_count: u32,
}

/// One row of the store: the scalar fields plus where its attributes sit
/// in the columns. Read the attributes through [`Observation`].
#[derive(Debug)]
pub struct Row {
    /// Observation time (Unix seconds).
    pub time: u32,
    /// The collector's peer session (also `path[0]` for announcements).
    pub peer: Asn,
    /// The prefix.
    pub prefix: Prefix,
    /// True for withdrawals.
    pub is_withdrawal: bool,
    session: u32,
    peer_id: u32,
    prefix_id: u32,
    /// Index into [`ObservationSet::attrs`].
    attrs: u32,
}

// A feed keeps one row per prefix of every update it read, but far fewer
// distinct attribute sets: the row holds the set's id, not its spans
// (36 bytes), and a field that widens the row widens the whole set.
const _: () = assert!(
    size_of::<Row>() <= 48,
    "Row outgrows 48 bytes: a feed holds one per prefix per update"
);

/// `items[start[k]..start[k + 1]]` are the items of key `k`, in the order
/// they were fed.
#[derive(Debug)]
struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Counting sort of `(key, item)` pairs over `keys` keys.
    fn build(keys: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut start = vec![0u32; keys + 1];
        for (key, _) in pairs.clone() {
            start[key as usize + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut items = vec![0u32; start[keys] as usize];
        for (key, item) in pairs {
            items[next[key as usize] as usize] = item;
            next[key as usize] += 1;
        }
        Csr { start, items }
    }

    fn get(&self, key: u32) -> &[u32] {
        &self.items[self.start[key as usize] as usize..self.start[key as usize + 1] as usize]
    }
}

/// One step of a multiply-rotate mix: `state` with `word` folded in.
fn mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95)
}

/// Picks a slot of the lossy caches below: the multiply-rotate mix. A bad
/// spread costs cache hits, never correctness.
#[derive(Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes a key that is a mixed hash already by keeping its bits.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0 << 8 | u64::from(byte);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The slot of `value` in a cache of `2^bits` of them.
fn slot_of<T: Hash>(value: &T, bits: u32) -> usize {
    let mut hasher = SlotHasher::default();
    value.hash(&mut hasher);
    (hasher.finish() >> (64 - bits)) as usize
}

/// The distinct values of `values`, ascending. A feed repeats few values
/// many times: a direct-mapped cache of the values last seen drops most
/// repeats before the sort, and `dedup` catches what it lets through.
fn sorted_distinct<T: Ord + Hash + Copy>(bits: u32, values: impl Iterator<Item = T>) -> Vec<T> {
    let mut recent: Vec<Option<T>> = vec![None; 1 << bits];
    let mut table: Vec<T> = values
        .filter(|v| recent[slot_of(v, bits)].replace(*v) != Some(*v))
        .collect();
    table.sort_unstable();
    table.dedup();
    table
}

/// Looks values up in the sorted table they were interned into, the same
/// kind of cache in front of the binary search.
struct Ids<'t, T> {
    table: &'t [T],
    recent: Vec<Option<(T, u32)>>,
    bits: u32,
}

impl<'t, T: Ord + Hash + Copy> Ids<'t, T> {
    fn new(bits: u32, table: &'t [T]) -> Self {
        Ids {
            table,
            recent: vec![None; 1 << bits],
            bits,
        }
    }

    fn of(&mut self, value: T) -> u32 {
        let cached = &mut self.recent[slot_of(&value, self.bits)];
        match *cached {
            Some((hit, id)) if hit == value => id,
            _ => {
                // lint: infallible every caller looks up a value the table was interned from
                let id = self
                    .table
                    .binary_search(&value)
                    .expect("value was interned") as u32;
                *cached = Some((value, id));
                id
            }
        }
    }
}

/// The full observation set: one [`Row`] per observed (update, prefix),
/// the interned tables behind the rows' dense ids, and the two indexes
/// every consumer shares.
#[derive(Debug)]
pub struct ObservationSet {
    /// All parsed observations (announcements *and* withdrawals), in feed
    /// order.
    pub observations: Frozen<Row>,
    /// Raw MRT message count per archive: (platform, collector, messages).
    pub messages: Frozen<(String, String, u64)>,

    // Tables, each sorted ascending: id order is value order.
    sessions: Vec<(String, String)>,
    asns: Vec<Asn>,
    communities: Vec<Community>,
    edges: Vec<(Asn, Asn)>,
    prefixes: Vec<Prefix>,
    /// Community id → ASN id of its owner. Ascends: communities sort
    /// owner-major and ASN ids keep ASN order, so each AS owns one run of
    /// community ids.
    owner_ids: Vec<u32>,

    // Columns; a row's [`Attrs`] spans them.
    path: Vec<Asn>,
    path_ids: Vec<u32>,
    /// Aligned with `path`: the id of the edge from position `j + 1` to
    /// `j`. A path's last position holds the id of no edge (`edges.len()`),
    /// which [`Observation::edge_ids`] never shows.
    edge_ids: Vec<u32>,
    comms: Vec<Community>,
    comm_ids: Vec<u32>,
    /// Aligned with `comms`: first position of the community's owner on the
    /// row's path, [`NONE`] if off-path.
    owner_pos: Vec<u32>,
    prepends: Vec<(Asn, usize)>,
    large: Vec<LargeCommunity>,
    /// The distinct attribute sets a row's `attrs` indexes, each spanning
    /// the columns above once; 0 is the empty set.
    attrs: Vec<Attrs>,

    /// Prefix id → rows announcing it **with a non-empty path**, in feed
    /// order. The one place the empty-path rule is stated: no edge, holder
    /// or tagger candidate can come from an empty path.
    groups: Csr,
    /// Community id → ids of the prefixes some announcement carries it on.
    carrying: Csr,
}

/// Collects rows, raw columns and distinct attribute sets;
/// [`Builder::finish`] interns values and indexes.
struct Builder {
    rows: Vec<Row>,
    /// Distinct (platform, collector) pairs in first-seen order; a row's
    /// `session` indexes this until `finish` sorts the table.
    sessions: Vec<(String, String)>,
    path: Vec<Asn>,
    /// Where each non-empty path kept ends in `path`.
    path_ends: Vec<usize>,
    comms: Vec<Community>,
    prepends: Vec<(Asn, usize)>,
    large: Vec<LargeCommunity>,
    /// The attribute sets kept, the empty set first.
    attrs: Vec<Attrs>,
    /// Content hash of a kept set → its id. A set whose hash is taken by
    /// a different content is kept all the same, unlisted. The mix is
    /// unkeyed, so a feed crafted to collide slows the parse, never
    /// changes what it reads.
    // lint: order-independent lookups only, never iterated
    kept: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
}

/// An attribute set's values: raw hop count, de-prepended path, prepend
/// runs, communities, large communities.
type Content<'c> = (
    u32,
    &'c [Asn],
    &'c [(Asn, usize)],
    &'c [Community],
    &'c [LargeCommunity],
);

fn span_of<T>(column: &[T], added: usize) -> Span {
    Span {
        start: (column.len() - added) as u32,
        len: added as u32,
    }
}

impl Builder {
    fn new() -> Self {
        Builder {
            rows: Vec::new(),
            sessions: Vec::new(),
            path: Vec::new(),
            path_ends: Vec::new(),
            comms: Vec::new(),
            prepends: Vec::new(),
            large: Vec::new(),
            attrs: vec![Attrs::default()],
            kept: Default::default(),
        }
    }

    fn session(&mut self, platform: &str, collector: &str) -> u32 {
        let known = self
            .sessions
            .iter()
            .rposition(|(p, c)| p == platform && c == collector);
        known.unwrap_or_else(|| {
            self.sessions.push((platform.into(), collector.into()));
            self.sessions.len() - 1
        }) as u32
    }

    /// Puts an announcement's attributes in the columns, the path
    /// de-prepended with its raw hop count and prepend runs beside it, and
    /// returns the id of the set. A set equal to one kept already is taken
    /// back out of the columns, and the kept one's id returned.
    fn attrs(&mut self, announced: FeedAttrs<'_>) -> u32 {
        let FeedAttrs {
            path,
            communities,
            large_communities,
        } = announced;
        let (path_before, prepends_before) = (self.path.len(), self.prepends.len());
        self.path.extend(path.deprepended_asns());
        let has_path = self.path.len() > path_before;
        if has_path {
            self.path_ends.push(self.path.len());
        }
        self.comms.extend_from_slice(communities);
        self.prepends.extend(path.prepend_runs());
        self.large.extend_from_slice(large_communities);
        let attrs = Attrs {
            path: span_of(&self.path, self.path.len() - path_before),
            communities: span_of(&self.comms, communities.len()),
            prepends: span_of(&self.prepends, self.prepends.len() - prepends_before),
            large: span_of(&self.large, large_communities.len()),
            // lint: infallible an AS_PATH fits a BGP message, far below 2^32 hops
            raw_hop_count: u32::try_from(path.hop_count()).expect("hop count fits u32"),
        };
        let fresh = self.attrs.len() as u32;
        let id = *self.kept.entry(self.content_hash(attrs)).or_insert(fresh);
        if id != fresh && self.content(self.attrs[id as usize]) == self.content(attrs) {
            self.path.truncate(attrs.path.start as usize);
            if has_path {
                self.path_ends.pop();
            }
            self.comms.truncate(attrs.communities.start as usize);
            self.prepends.truncate(attrs.prepends.start as usize);
            self.large.truncate(attrs.large.start as usize);
            return id;
        }
        self.attrs.push(attrs);
        fresh
    }

    /// What makes two attribute sets the same: the raw hop count and the
    /// four lists. The hash and the hit test both read a set through this.
    fn content(&self, a: Attrs) -> Content<'_> {
        (
            a.raw_hop_count,
            &self.path[a.path.range()],
            &self.prepends[a.prepends.range()],
            &self.comms[a.communities.range()],
            &self.large[a.large.range()],
        )
    }

    /// The multiply-rotate mix of a set's content as `u32` words, two to a
    /// step, the lists' lengths first. (A length or run past `u32` would
    /// wrap here, which costs a hash collision, not correctness.)
    fn content_hash(&self, attrs: Attrs) -> u64 {
        let (hops, path, prepends, comms, large) = self.content(attrs);
        let pair = |lo: u32, hi: u32| u64::from(lo) | u64::from(hi) << 32;
        let mut h = mix(0, pair(hops, path.len() as u32));
        h = mix(h, pair(prepends.len() as u32, comms.len() as u32));
        h = mix(h, large.len() as u64);
        for two in path.chunks(2) {
            h = mix(h, pair(two[0].get(), two.get(1).map_or(0, |a| a.get())));
        }
        for &(asn, run) in prepends {
            h = mix(h, pair(asn.get(), run as u32));
        }
        for two in comms.chunks(2) {
            let second = two.get(1).map_or(0, |c| c.as_u32());
            h = mix(h, pair(two[0].as_u32(), second));
        }
        for l in large {
            h = mix(mix(h, pair(l.global, l.local1)), u64::from(l.local2));
        }
        h
    }

    /// `attrs` is `None` for a withdrawal.
    fn row(&mut self, session: u32, time: u32, peer: Asn, prefix: Prefix, attrs: Option<u32>) {
        self.rows.push(Row {
            time,
            peer,
            prefix,
            is_withdrawal: attrs.is_none(),
            session,
            peer_id: NONE,
            prefix_id: NONE,
            attrs: attrs.unwrap_or(0),
        });
    }

    fn finish(self, messages: Vec<(String, String, u64)>) -> ObservationSet {
        let Builder {
            mut rows,
            sessions: first_seen,
            path,
            path_ends,
            comms,
            prepends,
            large,
            attrs,
            kept: _,
        } = self;
        // Row numbers, column offsets and ids are `u32`, `NONE` excluded.
        let longest = [
            rows.len(),
            path.len(),
            comms.len(),
            prepends.len(),
            large.len(),
            attrs.len(),
        ];
        assert!(
            longest.iter().all(|&n| n < NONE as usize),
            "an observation set holds fewer than 2^32 - 1 rows and column entries"
        );

        // Caches of the interning below: 16 K slots, fewer for a small set.
        let bits = (usize::BITS - rows.len().leading_zeros()).clamp(4, 14);

        // `first_seen` is distinct already.
        let mut sessions = first_seen.clone();
        sessions.sort_unstable();
        let session_ids: Vec<u32> = (first_seen.iter())
            // lint: infallible `sessions` is `first_seen`, sorted
            .map(|s| sessions.binary_search(s).expect("session was interned") as u32)
            .collect();
        let communities = sorted_distinct(bits, comms.iter().copied());
        let asns = sorted_distinct(
            bits,
            path.iter()
                .copied()
                .chain(rows.iter().map(|r| r.peer))
                .chain(communities.iter().map(|c| c.owner())),
        );
        let prefixes = sorted_distinct(bits, rows.iter().map(|r| r.prefix));
        let mut asn_ids = Ids::new(bits, &asns);
        let mut prefix_ids = Ids::new(bits, &prefixes);
        for row in &mut rows {
            row.session = session_ids[row.session as usize];
            row.peer_id = asn_ids.of(row.peer);
            row.prefix_id = prefix_ids.of(row.prefix);
        }
        let path_ids: Vec<u32> = path.iter().map(|&a| asn_ids.of(a)).collect();
        let owner_ids: Vec<u32> = communities.iter().map(|c| asn_ids.of(c.owner())).collect();
        let mut community_ids = Ids::new(bits, &communities);
        let comm_ids: Vec<u32> = comms.iter().map(|&c| community_ids.of(c)).collect();

        let mut owner_pos = vec![NONE; comms.len()];
        for set in &attrs {
            let hops = &path_ids[set.path.range()];
            let span = set.communities.range();
            for (pos, &c) in owner_pos[span.clone()].iter_mut().zip(&comm_ids[span]) {
                let owner = owner_ids[c as usize];
                if let Some(at) = hops.iter().position(|&a| a == owner) {
                    *pos = at as u32;
                }
            }
        }

        // An edge's key is its two ASN ids, exporter first; `edge_keys`
        // walks the path column path by path. `NO_EDGE` closes each path
        // and sorts last.
        const NO_EDGE: u64 = u64::MAX;
        let edge_keys = || {
            let ids: &[u32] = &path_ids;
            // Each path starts where the one before it ends.
            let starts = [0].into_iter().chain(path_ends.iter().copied());
            starts.zip(&path_ends).flat_map(move |(start, &end)| {
                // Announcement direction: w[1] exported to w[0].
                (ids[start..end].windows(2))
                    .map(|w| u64::from(w[1]) << 32 | u64::from(w[0]))
                    .chain([NO_EDGE])
            })
        };
        let edge_table = sorted_distinct(bits, edge_keys());
        let mut edge_ids_of = Ids::new(bits, &edge_table);
        let edge_ids: Vec<u32> = edge_keys().map(|k| edge_ids_of.of(k)).collect();
        let edges: Vec<(Asn, Asn)> = (edge_table.iter())
            .filter(|&&k| k != NO_EDGE)
            .map(|k| (asns[(k >> 32) as usize], asns[(k & 0xFFFF_FFFF) as usize]))
            .collect();

        let with_path = (rows.iter().zip(0u32..))
            .filter(|(r, _)| attrs[r.attrs as usize].path.len > 0)
            .map(|(r, i)| (r.prefix_id, i));
        let groups = Csr::build(prefixes.len(), with_path);

        // The distinct (community, prefix) pairs, community-major.
        let pairs = sorted_distinct(
            bits,
            rows.iter().flat_map(|r| {
                let span = attrs[r.attrs as usize].communities.range();
                comm_ids[span].iter().map(|&c| (c, r.prefix_id))
            }),
        );
        let carrying = Csr::build(communities.len(), pairs.iter().copied());

        ObservationSet {
            observations: Frozen(rows),
            messages: Frozen(messages),
            sessions,
            asns,
            communities,
            edges,
            prefixes,
            owner_ids,
            path,
            path_ids,
            edge_ids,
            comms,
            comm_ids,
            owner_pos,
            prepends,
            large,
            attrs,
            groups,
            carrying,
        }
    }
}

impl ObservationSet {
    /// Parses a batch of archives. Multi-NLRI updates explode into one
    /// observation per prefix (sharing the update's attributes). Every
    /// update is decoded into one scratch message, and its path, prepend
    /// runs and communities go straight into the columns.
    pub fn from_archives(archives: &[ArchiveInput]) -> Result<Self, MrtError> {
        let mut b = Builder::new();
        let mut messages = Vec::with_capacity(archives.len());
        let mut msg = Bgp4mpMessage::default();
        for archive in archives {
            let session = b.session(&archive.platform, &archive.collector);
            let mut count = 0u64;
            let mut stream = UpdateStream::new(&archive.mrt);
            while stream.next_into(&mut msg)? {
                count += 1;
                let (time, peer, update) = (msg.header.timestamp, msg.peer_as, &msg.update);
                if !update.announced.is_empty() {
                    let attrs = b.attrs(FeedAttrs::from(&update.attrs));
                    for prefix in &update.announced {
                        b.row(session, time, peer, *prefix, Some(attrs));
                    }
                }
                for prefix in &update.withdrawn {
                    b.row(session, time, peer, *prefix, None);
                }
            }
            messages.push((archive.platform.clone(), archive.collector.clone(), count));
        }
        Ok(b.finish(messages))
    }

    /// Reads a feed held in memory: `(platform, collector, rows)` per
    /// session, each session's rows in feed order. Each row is one message,
    /// so a session's message count is its row count, and a session
    /// without rows is listed all the same. Where each message of an
    /// archive names one prefix, as a collector's do, the set built from
    /// its rows equals the one [`from_archives`](Self::from_archives)
    /// builds from its bytes.
    pub fn from_rows<'a, R>(sessions: impl IntoIterator<Item = (&'a str, &'a str, R)>) -> Self
    where
        R: IntoIterator<Item = FeedRow<'a>>,
    {
        let mut b = Builder::new();
        let mut messages = Vec::new();
        for (platform, collector, rows) in sessions {
            let session = b.session(platform, collector);
            let mut count = 0u64;
            for row in rows {
                count += 1;
                let attrs = row.announced.map(|announced| b.attrs(announced));
                b.row(session, row.time, row.peer, row.prefix, attrs);
            }
            messages.push((platform.to_owned(), collector.to_owned(), count));
        }
        b.finish(messages)
    }

    /// The `i`-th observation, in feed order.
    pub fn row(&self, i: usize) -> Observation<'_> {
        Observation {
            set: self,
            row: &self.observations[i],
        }
    }

    /// Every observation, in feed order.
    pub fn iter(&self) -> impl Iterator<Item = Observation<'_>> {
        self.observations
            .iter()
            .map(move |row| Observation { set: self, row })
    }

    /// Announcement observations only.
    pub fn announcements(&self) -> impl Iterator<Item = Observation<'_>> {
        self.iter().filter(|o| !o.is_withdrawal)
    }

    /// All platforms present, sorted.
    pub fn platforms(&self) -> Vec<String> {
        let mut platforms: Vec<String> = self.messages.iter().map(|(p, _, _)| p.clone()).collect();
        platforms.sort();
        platforms.dedup();
        platforms
    }

    /// The distinct (platform, collector) pairs; a row's
    /// [`session`](Observation::session) indexes this table.
    pub fn sessions(&self) -> &[(String, String)] {
        &self.sessions
    }

    /// A platform as a set of session ids — `true` at each session of it;
    /// `None` is every session.
    pub fn sessions_of(&self, platform: Option<&str>) -> Vec<bool> {
        (self.sessions.iter())
            .map(|(p, _)| platform.is_none_or(|want| p == want))
            .collect()
    }

    /// Every AS on a path, peering with a collector or owning an observed
    /// community. Ids (`path_ids`, `peer_id`, `owner_id`) index this table.
    pub fn asns(&self) -> &[Asn] {
        &self.asns
    }

    /// Every community on an announcement.
    pub fn communities(&self) -> &[Community] {
        &self.communities
    }

    /// The id of `community`, if any announcement carries it.
    pub fn community_id(&self, community: Community) -> Option<u32> {
        self.communities
            .binary_search(&community)
            .ok()
            .map(|i| i as u32)
    }

    /// What `ask` says of each community, asked once per distinct one:
    /// indexed by community id.
    pub fn community_flags(&self, ask: impl Fn(Community) -> bool) -> Vec<bool> {
        self.communities.iter().map(|&c| ask(c)).collect()
    }

    /// The ASN id of a community's owner.
    pub fn owner_id(&self, community_id: u32) -> u32 {
        self.owner_ids[community_id as usize]
    }

    /// Every directed edge `(exporter, importer)` on an announcement path.
    pub fn edges(&self) -> &[(Asn, Asn)] {
        &self.edges
    }

    /// Every prefix announced or withdrawn.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// The announcements of `prefix` that have a path, in feed order (none
    /// for a prefix never announced).
    pub fn group(&self, prefix: Prefix) -> impl Iterator<Item = Observation<'_>> {
        let rows = match self.prefixes.binary_search(&prefix) {
            Ok(id) => self.groups.get(id as u32),
            Err(_) => &[],
        };
        rows.iter().map(move |&i| self.row(i as usize))
    }

    /// The non-empty [`group`](Self::group)s as row numbers, in `Prefix`
    /// order.
    pub fn groups(&self) -> impl Iterator<Item = (Prefix, &[u32])> {
        (self.prefixes.iter())
            .zip(0u32..)
            .map(|(&prefix, id)| (prefix, self.groups.get(id)))
            .filter(|(_, rows)| !rows.is_empty())
    }

    /// The prefixes some announcement carries community `community_id` on,
    /// ascending, as ids in [`prefixes`](Self::prefixes).
    pub fn prefixes_carrying(&self, community_id: u32) -> &[u32] {
        self.carrying.get(community_id)
    }

    /// How many distinct attribute sets the announcements carry: each is
    /// kept once, however many rows carry it.
    pub fn attribute_sets(&self) -> usize {
        self.attrs.len() - 1
    }

    /// The tag at position `k` of the community columns.
    fn tag(&self, k: usize) -> Tag {
        Tag {
            community: self.comms[k],
            id: self.comm_ids[k],
            owner_pos: match self.owner_pos[k] {
                NONE => None,
                at => Some(at as usize),
            },
        }
    }

    /// Visits each (prefix, peer, community) the announcements carry once,
    /// at its first occurrence in feed order among the tags `keep` admits,
    /// with the announcement that carries it there. Announcements with an
    /// empty path, whose tags are all off-path, count like any other.
    ///
    /// The walk goes one prefix at a time, ascending; within a prefix it
    /// visits in (peer id, community id) order. It holds one prefix's tags
    /// at a time, and a list of the empty-path announcements, which the
    /// prefix groups leave out.
    pub fn first_tags(
        &self,
        keep: impl Fn(Tag) -> bool,
        mut visit: impl FnMut(Observation<'_>, Tag),
    ) {
        let mut pathless: Vec<(u32, u32)> = (self.observations.iter().zip(0u32..))
            .filter(|(r, _)| {
                let attrs = self.attrs[r.attrs as usize];
                !r.is_withdrawal && attrs.path.len == 0 && attrs.communities.len > 0
            })
            .map(|(r, i)| (r.prefix_id, i))
            .collect();
        pathless.sort_unstable();
        let mut pathless = pathless.as_slice();
        // (peer id << 32 | community id, row, community column position):
        // sorted, a triple's first entry is its first occurrence.
        let mut tags: Vec<(u64, u32, u32)> = Vec::new();
        for prefix in 0..self.prefixes.len() as u32 {
            let empty = pathless.iter().take_while(|&&(p, _)| p == prefix).count();
            let (here, rest) = pathless.split_at(empty);
            pathless = rest;
            tags.clear();
            for &i in self
                .groups
                .get(prefix)
                .iter()
                .chain(here.iter().map(|(_, i)| i))
            {
                let row = &self.observations[i as usize];
                let peer = u64::from(row.peer_id) << 32;
                for k in self.attrs[row.attrs as usize].communities.range() {
                    if keep(self.tag(k)) {
                        tags.push((peer | u64::from(self.comm_ids[k]), i, k as u32));
                    }
                }
            }
            tags.sort_unstable();
            tags.dedup_by_key(|t| t.0);
            for &(_, i, k) in &tags {
                visit(self.row(i as usize), self.tag(k as usize));
            }
        }
    }
}

/// One community on an announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    /// The community.
    pub community: Community,
    /// Its id in [`ObservationSet::communities`].
    pub id: u32,
    /// First position of the community's owner on the carrying path (0 =
    /// peer); `None` if the owner is off-path.
    pub owner_pos: Option<usize>,
}

/// One observation, read in place: the [`Row`]'s fields by `Deref`, the
/// attributes as slices of the set's columns, as values and as dense ids.
#[derive(Clone, Copy)]
pub struct Observation<'a> {
    set: &'a ObservationSet,
    row: &'a Row,
}

impl Deref for Observation<'_> {
    type Target = Row;
    fn deref(&self) -> &Row {
        self.row
    }
}

impl<'a> Observation<'a> {
    /// Where the row's attribute set sits in the columns.
    fn attrs(self) -> Attrs {
        self.set.attrs[self.row.attrs as usize]
    }

    /// Platform the collector belongs to (RIS / RV / IS / PCH).
    fn platform(self) -> &'a str {
        &self.set.sessions[self.row.session as usize].0
    }

    /// Collector name.
    pub fn collector(self) -> &'a str {
        &self.set.sessions[self.row.session as usize].1
    }

    /// Id of the (platform, collector) pair in [`ObservationSet::sessions`].
    pub fn session(self) -> u32 {
        self.row.session
    }

    /// Id of `peer` in [`ObservationSet::asns`].
    pub fn peer_id(self) -> u32 {
        self.row.peer_id
    }

    /// Id of `prefix` in [`ObservationSet::prefixes`].
    pub fn prefix_id(self) -> u32 {
        self.row.prefix_id
    }

    /// De-prepended AS path, collector-first (`path[0]` = peer,
    /// `path.last()` = origin). Empty for withdrawals.
    pub fn path(self) -> &'a [Asn] {
        &self.set.path[self.attrs().path.range()]
    }

    /// The path as ids in [`ObservationSet::asns`].
    pub fn path_ids(self) -> &'a [u32] {
        &self.set.path_ids[self.attrs().path.range()]
    }

    /// Ids in [`ObservationSet::edges`] of the path's hops: entry `j` is the
    /// edge on which `path[j + 1]` exported to `path[j]`.
    pub fn edge_ids(self) -> &'a [u32] {
        let hops = &self.set.edge_ids[self.attrs().path.range()];
        &hops[..hops.len().saturating_sub(1)]
    }

    /// Hop count of the path *before* de-prepending.
    fn raw_hop_count(self) -> usize {
        self.attrs().raw_hop_count as usize
    }

    /// Prepend evidence from the raw path: ASes that appeared in
    /// consecutive runs of length > 1, with the run length.
    pub fn prepends(self) -> &'a [(Asn, usize)] {
        &self.set.prepends[self.attrs().prepends.range()]
    }

    /// Attached communities.
    pub fn communities(self) -> &'a [Community] {
        &self.set.comms[self.attrs().communities.range()]
    }

    /// The communities as ids in [`ObservationSet::communities`].
    pub fn community_ids(self) -> &'a [u32] {
        &self.set.comm_ids[self.attrs().communities.range()]
    }

    /// The communities with their ids and their owners' path positions.
    pub fn tags(self) -> impl Iterator<Item = Tag> + 'a {
        let set = self.set;
        self.attrs().communities.range().map(move |k| set.tag(k))
    }

    /// Attached RFC 8092 large communities.
    pub fn large_communities(self) -> &'a [LargeCommunity] {
        &self.set.large[self.attrs().large.range()]
    }

    /// Origin AS, if any.
    pub fn origin(self) -> Option<Asn> {
        self.path().last().copied()
    }

    /// True if at least one community is attached.
    pub fn has_communities(self) -> bool {
        !self.communities().is_empty()
    }

    /// Index of `asn` in the de-prepended path (0 = peer).
    pub fn position_of(self, asn: Asn) -> Option<usize> {
        self.path().iter().position(|&a| a == asn)
    }

    /// The observation as an owned record.
    pub fn to_record(self) -> UpdateObservation {
        UpdateObservation {
            platform: self.platform().into(),
            collector: self.collector().into(),
            time: self.time,
            peer: self.peer,
            prefix: self.prefix,
            path: self.path().to_vec(),
            raw_hop_count: self.raw_hop_count(),
            prepends: self.prepends().to_vec(),
            communities: self.communities().to_vec(),
            large_communities: self.large_communities().to_vec(),
            is_withdrawal: self.is_withdrawal,
        }
    }
}

/// Identifies blackhole communities: the RFC 7999 well-known value, the
/// `ASN:666` convention, and an optional list of verified/inferred
/// communities (the paper uses the 307 verified ones from Giotsas et al.).
#[derive(Debug, Clone, Default)]
pub struct BlackholeDetector {
    /// Externally supplied known blackhole communities.
    known: BTreeSet<Community>,
}

impl BlackholeDetector {
    /// Detector with only the conventional rules.
    pub fn conventional() -> Self {
        BlackholeDetector::default()
    }

    /// Detector with an extra verified list.
    pub fn with_known<I: IntoIterator<Item = Community>>(known: I) -> Self {
        BlackholeDetector {
            known: known.into_iter().collect(),
        }
    }

    /// True if `c` is a blackhole community under this detector.
    pub fn is_blackhole(&self, c: Community) -> bool {
        c.has_blackhole_value() || self.known.contains(&c)
    }
}

/// Hand-written feeds for the analyses' unit tests: rows that own what a
/// [`FeedRow`] borrows.
#[cfg(test)]
pub(crate) mod written {
    use super::*;

    /// One row of a hand-written feed; `attrs` is `None` for a withdrawal.
    #[derive(Debug, Clone)]
    pub(crate) struct Written {
        pub(crate) platform: &'static str,
        pub(crate) collector: &'static str,
        pub(crate) time: u32,
        pub(crate) peer: Asn,
        pub(crate) prefix: Prefix,
        pub(crate) attrs: Option<PathAttributes>,
    }

    /// An announcement of `prefix` heard at RIS `rrc00` at time 0 from
    /// `peer`, over `path` (collector-first), carrying `comms`.
    pub(crate) fn announce(peer: u32, path: &[u32], comms: &[(u16, u16)], prefix: &str) -> Written {
        Written {
            platform: "RIS",
            collector: "rrc00",
            time: 0,
            peer: Asn::new(peer),
            prefix: prefix.parse().unwrap(),
            attrs: Some(PathAttributes {
                as_path: AsPath::from_asns(path.iter().map(|&n| Asn::new(n))),
                communities: comms.iter().map(|&(a, v)| Community::new(a, v)).collect(),
                ..PathAttributes::default()
            }),
        }
    }

    impl Written {
        /// The same row heard at `collector` of `platform`.
        pub(crate) fn at(self, platform: &'static str, collector: &'static str) -> Written {
            Written {
                platform,
                collector,
                ..self
            }
        }

        /// The same row as a withdrawal.
        pub(crate) fn withdrawn(self) -> Written {
            Written {
                attrs: None,
                ..self
            }
        }

        fn row(&self) -> FeedRow<'_> {
            FeedRow {
                time: self.time,
                peer: self.peer,
                prefix: self.prefix,
                announced: self.attrs.as_ref().map(FeedAttrs::from),
            }
        }
    }

    /// The set of `rows`: sessions in the order they first appear, each
    /// session's rows in the order given.
    pub(crate) fn set(rows: &[Written]) -> ObservationSet {
        let mut sessions: Vec<(&'static str, &'static str)> = Vec::new();
        for r in rows {
            if !sessions.contains(&(r.platform, r.collector)) {
                sessions.push((r.platform, r.collector));
            }
        }
        ObservationSet::from_rows(sessions.into_iter().map(|(platform, collector)| {
            let of_session = rows
                .iter()
                .filter(move |r| (r.platform, r.collector) == (platform, collector));
            (platform, collector, of_session.map(Written::row))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::written::{announce, set, Written};
    use super::*;
    use bgpworms_mrt::MrtWriter;
    use bgpworms_types::RouteUpdate;

    fn archive_with(updates: &[RouteUpdate]) -> ArchiveInput {
        let mut w = MrtWriter::new(Vec::new());
        for (i, u) in updates.iter().enumerate() {
            bgpworms_mrt::write_update_into(
                &mut w,
                100 + i as u32,
                u.attrs.as_path.head().unwrap_or(Asn::new(65_000)),
                Asn::new(64_496),
                "10.0.0.2".parse().unwrap(),
                u,
            )
            .unwrap();
        }
        ArchiveInput {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            mrt: w.into_inner(),
        }
    }

    fn update(path: &[u32], comms: &[(u16, u16)], prefixes: &[&str]) -> RouteUpdate {
        let mut attrs = PathAttributes {
            as_path: AsPath::from_asns(path.iter().map(|&n| Asn::new(n))),
            next_hop: Some("10.0.0.1".parse().unwrap()),
            ..PathAttributes::default()
        };
        attrs.communities = comms.iter().map(|&(a, v)| Community::new(a, v)).collect();
        RouteUpdate {
            withdrawn: vec![],
            attrs,
            announced: prefixes.iter().map(|p| p.parse().unwrap()).collect(),
        }
    }

    #[test]
    fn parses_multi_nlri_and_withdrawals() {
        let mut w = update(&[3, 2, 1], &[(2, 100)], &["10.0.0.0/16", "20.0.0.0/16"]);
        w.withdrawn.push("30.0.0.0/16".parse().unwrap());
        let set = ObservationSet::from_archives(&[archive_with(&[w])]).unwrap();
        assert_eq!(set.observations.len(), 3);
        assert_eq!(set.announcements().count(), 2);
        let wd: Vec<_> = set
            .observations
            .iter()
            .filter(|o| o.is_withdrawal)
            .collect();
        assert_eq!(wd.len(), 1);
        assert_eq!(*set.messages, [("RIS".into(), "rrc00".into(), 1)]);
    }

    /// The rows `from_archives` yields, field for field, as the owned
    /// records it built before the store went columnar.
    #[test]
    fn archive_rows_read_back_as_the_same_records() {
        let mut w = update(
            &[3, 3, 2, 1],
            &[(2, 100), (7, 1)],
            &["10.0.0.0/16", "20.0.0.0/16"],
        );
        w.withdrawn.push("30.0.0.0/16".parse().unwrap());
        let plain = update(&[4, 1], &[], &["10.0.0.0/16"]);
        let set = ObservationSet::from_archives(&[archive_with(&[w, plain])]).unwrap();
        let record = |time, peer: u32, prefix: &str, path: &[u32]| UpdateObservation {
            platform: "RIS".into(),
            collector: "rrc00".into(),
            time,
            peer: Asn::new(peer),
            prefix: prefix.parse().unwrap(),
            path: path.iter().map(|&n| Asn::new(n)).collect(),
            raw_hop_count: 0,
            prepends: vec![],
            communities: vec![],
            large_communities: vec![],
            is_withdrawal: path.is_empty(),
        };
        let tagged = |prefix| UpdateObservation {
            raw_hop_count: 4,
            prepends: vec![(Asn::new(3), 2)],
            communities: vec![Community::new(2, 100), Community::new(7, 1)],
            ..record(100, 3, prefix, &[3, 2, 1])
        };
        let want = vec![
            tagged("10.0.0.0/16"),
            tagged("20.0.0.0/16"),
            record(100, 3, "30.0.0.0/16", &[]),
            UpdateObservation {
                raw_hop_count: 2,
                ..record(101, 4, "10.0.0.0/16", &[4, 1])
            },
        ];
        let got: Vec<UpdateObservation> = set.iter().map(Observation::to_record).collect();
        assert_eq!(got, want);
        // The two prefixes of the first update share its attribute span.
        check_ids(&set);
        assert_eq!(set.row(0).edge_ids(), set.row(1).edge_ids());
        assert_eq!(set.edges().len(), 3);
    }

    /// A feed of one prefix per message, the shape a collector archives,
    /// builds the same set from its rows as from its archive, messages and
    /// a session without any included.
    #[test]
    fn rows_of_an_archive_build_the_archive_set() {
        let mut tagged = update(&[3, 3, 2, 1], &[(2, 100), (7, 1)], &["10.0.0.0/16"]);
        tagged.attrs.large_communities = vec![LargeCommunity::new(400_000, 1, 2)];
        let mut withdrawal = update(&[], &[], &[]);
        withdrawal.withdrawn.push("30.0.0.0/16".parse().unwrap());
        let updates = [tagged, withdrawal, update(&[4, 1], &[], &["10.0.0.0/16"])];
        let mut silent = archive_with(&[]);
        silent.collector = "rrc01".into();
        let from_bytes = ObservationSet::from_archives(&[archive_with(&updates), silent]).unwrap();

        let rows: Vec<FeedRow<'_>> = (updates.iter().zip(100u32..))
            .map(|(u, time)| FeedRow {
                time,
                peer: u.attrs.as_path.head().unwrap_or(Asn::new(65_000)),
                prefix: *u.announced.iter().chain(&u.withdrawn).next().unwrap(),
                announced: (!u.announced.is_empty()).then(|| FeedAttrs::from(&u.attrs)),
            })
            .collect();
        let from_rows =
            ObservationSet::from_rows([("RIS", "rrc00", rows), ("RIS", "rrc01", Vec::new())]);
        assert_eq!(format!("{from_rows:?}"), format!("{from_bytes:?}"));
        assert_eq!(
            *from_rows.messages,
            [
                ("RIS".into(), "rrc00".into(), 3),
                ("RIS".into(), "rrc01".into(), 0)
            ]
        );
    }

    #[test]
    fn deprepends_paths_but_keeps_raw_count() {
        let u = update(&[3, 3, 3, 2, 1], &[], &["10.0.0.0/16"]);
        let set = ObservationSet::from_archives(&[archive_with(&[u])]).unwrap();
        let obs = set.row(0);
        assert_eq!(obs.path(), vec![Asn::new(3), Asn::new(2), Asn::new(1)]);
        assert_eq!(obs.raw_hop_count(), 5);
        assert_eq!(obs.origin(), Some(Asn::new(1)));
        assert_eq!(obs.position_of(Asn::new(2)), Some(1));
        assert_eq!(obs.peer, Asn::new(3));
    }

    #[test]
    fn community_owner_extraction() {
        let u = update(&[3, 2, 1], &[(2, 100), (2, 200), (7, 1)], &["10.0.0.0/16"]);
        let set = ObservationSet::from_archives(&[archive_with(&[u])]).unwrap();
        let obs = set.row(0);
        assert!(obs.has_communities());
        let owners: Vec<Asn> = obs.communities().iter().map(|c| c.owner()).collect();
        assert_eq!(owners, vec![Asn::new(2), Asn::new(2), Asn::new(7)]);
    }

    #[test]
    fn platform_slicing() {
        let a = archive_with(&[update(&[3, 2, 1], &[], &["10.0.0.0/16"])]);
        let mut b = archive_with(&[update(&[4, 1], &[], &["20.0.0.0/16"])]);
        b.platform = "PCH".into();
        b.collector = "pch001".into();
        let set = ObservationSet::from_archives(&[a, b]).unwrap();
        assert_eq!(set.platforms(), vec!["PCH".to_string(), "RIS".to_string()]);
        let ris = set.sessions_of(Some("RIS"));
        let in_ris: Vec<_> = set.iter().filter(|o| ris[o.session() as usize]).collect();
        assert_eq!(in_ris.len(), 1);
        let peers: BTreeSet<Asn> = in_ris.iter().map(|o| o.peer).collect();
        assert_eq!(peers.len(), 1);
        assert_eq!(in_ris[0].platform(), "RIS");
        assert_eq!(set.sessions_of(None), vec![true, true]);
    }

    fn obs(collector: &'static str, path: &[u32], comms: &[(u16, u16)], prefix: &str) -> Written {
        let peer = path.first().copied().unwrap_or(9);
        announce(peer, path, comms, prefix).at("RIS", collector)
    }

    /// A set with every shape the indexes treat specially: a repeated AS,
    /// an off-path owner, an empty-path announcement, a withdrawal, two
    /// sessions, a 4-byte ASN.
    fn shapes() -> ObservationSet {
        set(&[
            obs("rrc01", &[5, 3, 2, 1], &[(2, 9), (77, 1)], "20.0.0.0/16"),
            obs("rrc01", &[8, 1], &[(8, 8)], "40.0.0.0/16").withdrawn(),
            obs("rrc00", &[4, 3, 4, 1], &[(4, 1), (3, 5)], "10.0.0.0/16"),
            obs("rrc00", &[], &[(3, 5)], "10.0.0.0/16"),
            obs("rrc00", &[400_000, 1], &[(1, 7)], "10.0.0.0/16"),
            obs("rrc00", &[], &[(6, 6)], "30.0.0.0/16"),
        ])
    }

    fn strictly_sorted<T: Ord>(table: &[T]) -> bool {
        table.windows(2).all(|w| w[0] < w[1])
    }

    /// Every table strictly sorted; every id of every row back to its value.
    fn check_ids(set: &ObservationSet) {
        assert!(strictly_sorted(set.sessions()));
        assert!(strictly_sorted(set.asns()));
        assert!(strictly_sorted(set.communities()));
        assert!(strictly_sorted(set.edges()));
        assert!(strictly_sorted(set.prefixes()));
        for (id, &c) in set.communities().iter().enumerate() {
            assert_eq!(set.community_id(c), Some(id as u32));
            assert_eq!(set.asns()[set.owner_id(id as u32) as usize], c.owner());
        }
        for obs in set.iter() {
            assert_eq!(set.sessions()[obs.session() as usize].1, obs.collector());
            assert_eq!(set.asns()[obs.peer_id() as usize], obs.peer);
            assert_eq!(set.prefixes()[obs.prefix_id() as usize], obs.prefix);
            let path: Vec<Asn> = (obs.path_ids().iter())
                .map(|&a| set.asns()[a as usize])
                .collect();
            assert_eq!(path, obs.path());
            let hops: Vec<(Asn, Asn)> = (obs.edge_ids().iter())
                .map(|&e| set.edges()[e as usize])
                .collect();
            let want: Vec<(Asn, Asn)> = obs.path().windows(2).map(|w| (w[1], w[0])).collect();
            assert_eq!(hops, want);
            let tags: Vec<_> = obs.tags().collect();
            assert_eq!(tags.len(), obs.communities().len());
            for (tag, (&c, &id)) in
                (tags.iter()).zip(obs.communities().iter().zip(obs.community_ids()))
            {
                assert_eq!((tag.community, tag.id), (c, id));
                assert_eq!(set.communities()[id as usize], c);
                assert_eq!(
                    tag.owner_pos,
                    obs.position_of(c.owner()),
                    "first occurrence"
                );
            }
        }
    }

    #[test]
    fn tables_are_sorted_and_ids_round_trip() {
        let set = shapes();
        check_ids(&set);
        assert_eq!(set.community_id(Community::new(8, 8)), None, "withdrawn");
        // AS4 sits at positions 0 and 2 of its path: the first counts.
        assert_eq!(set.row(2).tags().next().unwrap().owner_pos, Some(0));
        let wd = set.row(1);
        assert!(wd.is_withdrawal && wd.path().is_empty() && wd.communities().is_empty());
    }

    #[test]
    fn groups_hold_each_announcement_with_a_path_once_in_prefix_order() {
        let set = shapes();
        let groups: Vec<(Prefix, Vec<u32>)> =
            set.groups().map(|(p, rows)| (p, rows.to_vec())).collect();
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        // 30/16 has only an empty-path announcement, 40/16 only a
        // withdrawal: neither is a group.
        assert_eq!(
            groups,
            vec![(p("10.0.0.0/16"), vec![2, 4]), (p("20.0.0.0/16"), vec![0])]
        );
        let mut indexed: Vec<u32> = groups.iter().flat_map(|(_, rows)| rows.clone()).collect();
        indexed.sort_unstable();
        let want: Vec<u32> = (set.iter().zip(0u32..))
            .filter(|(o, _)| !o.is_withdrawal && !o.path().is_empty())
            .map(|(_, i)| i)
            .collect();
        assert_eq!(indexed, want);
        let times: Vec<usize> = set
            .group(p("10.0.0.0/16"))
            .map(|o| o.path().len())
            .collect();
        assert_eq!(times, vec![4, 2]);
        assert_eq!(set.group(p("30.0.0.0/16")).count(), 0);
        assert_eq!(set.group(p("99.0.0.0/16")).count(), 0);
    }

    #[test]
    fn carrying_index_lists_every_announcing_prefix_ascending() {
        let set = shapes();
        for (id, &c) in set.communities().iter().enumerate() {
            let want: BTreeSet<Prefix> = set
                .announcements()
                .filter(|o| o.communities().contains(&c))
                .map(|o| o.prefix)
                .collect();
            let got: Vec<Prefix> = (set.prefixes_carrying(id as u32).iter())
                .map(|&p| set.prefixes()[p as usize])
                .collect();
            assert_eq!(got, want.into_iter().collect::<Vec<_>>(), "{c}");
        }
        // The empty-path announcements still carry their communities.
        let id = set.community_id(Community::new(6, 6)).unwrap();
        assert_eq!(set.prefixes_carrying(id).len(), 1);
    }

    #[test]
    fn blackhole_detector_rules() {
        let det = BlackholeDetector::conventional();
        assert!(det.is_blackhole(Community::BLACKHOLE));
        assert!(det.is_blackhole(Community::new(3320, 666)));
        assert!(!det.is_blackhole(Community::new(3320, 667)));
        let det = BlackholeDetector::with_known([Community::new(1, 9999)]);
        assert!(det.is_blackhole(Community::new(1, 9999)));
        assert!(!det.is_blackhole(Community::new(1, 9998)));
    }
}
