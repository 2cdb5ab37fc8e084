//! The schedule driver — the one loop that takes a schedule apart by
//! prefix and floods it — streaming per-prefix outcomes into a
//! caller-supplied fold instead of accumulating them.
//!
//! A [`Campaign`] shards the per-prefix loop into bounded **work chunks**,
//! folds every [`PrefixOutcome`] into a [`CampaignSink`] the moment its
//! prefix finishes, and merges finished chunk sinks into the running
//! aggregate in chunk order. Nothing per-prefix survives the fold, so a
//! full-table run over the ~62 K-AS April-2018 Internet keeps
//! `O(aggregate)` state where holding every retained route would be
//! `O(prefixes × ASes)`. [`CompiledSim::run`] is the campaign whose sink
//! does keep everything, finished into one [`crate::SimResult`] — the
//! right shape for attack scenarios over a handful of prefixes.
//!
//! # Determinism contract
//!
//! The driver fixes the fold/merge call sequence independent of the worker
//! count: within a chunk, prefixes are folded in ascending prefix order
//! into that chunk's own sink (created by the caller's factory); finished
//! chunks are merged into the aggregate in ascending chunk order, whichever
//! worker finished first. A sink therefore observes **exactly** the same
//! call sequence under `threads = 1` and `threads = N` — locked in by
//! property tests in `tests/determinism.rs` — so any deterministic
//! `fold`/`merge` implementation yields thread-count-independent results;
//! no commutativity is required of the sink.
//!
//! # Flood memoization: class-count cost for full tables
//!
//! A full routing table is mostly *duplicate floods*: two prefixes
//! originated by the same AS, with the same origination attributes and no
//! prefix-sensitive policy in their way, propagate identically up to the
//! prefix label — and one full-Internet flood costs ~42 ms of pure
//! propagation work. The driver therefore keys every prefix of the
//! schedule by its **equivalence class** (`classify`): the
//! episode shapes (origin, time, attributes, withdraw/forge flags), a
//! compiled prefix-length bucket, per-episode IRR/RPKI registration bits,
//! the retention bit, and a singleton escape for prefixes named by
//! exact-match policy. The first member of a class to reach a worker is
//! **simulated**; every other member **replays** the stored
//! [`PrefixOutcome`] with its observations' labels rewritten
//! ([`PrefixOutcome::relabeled`]; routes carry none) — microseconds instead
//! of a flood, so a full table costs its class count (collapsing toward
//! the number of distinct origins), not its prefix count.
//!
//! Memoization changes nothing observable. The fold/merge sequence is
//! untouched; classifier soundness (any member's simulated outcome,
//! relabeled, equals any other's) makes the folded values independent of
//! which member a worker happens to simulate first, so
//! `sink(threads = 1) ≡ sink(threads = N)` still holds — and
//! `memoized ≡ unmemoized` is itself property-locked bit-for-bit in
//! `tests/determinism.rs`, including worlds whose per-prefix policies
//! force singleton classes. [`Campaign::class_stats`] classifies a
//! schedule without running it, and every run/checkpoint reports
//! `class_sims`/`class_hits` counters: *schedule statistics*, counted
//! identically by the memoized driver and the unmemoized reference, where
//! the first member of each class (in ascending prefix order) counts as
//! the simulation and the rest as hits. So is [`CampaignRun::stats`], what
//! the floods did (`stats`): a class's slot keeps its representative's
//! counters beside its outcome, and every member folds them, so memoizing
//! changes no counter — and a classifier that merged two prefixes whose
//! floods differ would show there. The memo's own work, cloning the stored
//! outcome, is counted apart in [`CampaignRun::replay_clones`].
//!
//! # Campaigns vs. delta re-convergence
//!
//! The other O(aggregate) tool is the snapshot/delta layer
//! ([`CompiledSim::run_snapshot`] / [`CompiledSim::run_delta_prefix`]):
//! converge a baseline once, then replay perturbations of **one prefix**
//! at the cost of their blast radius. The two compose — wild-experiment
//! sweeps run one campaign for the background prefixes, snapshot the
//! experiment prefix's plain announcement, and delta-replay each candidate
//! community — but they deliberately do not nest: a campaign never keeps
//! a snapshot, because a snapshot is the scratch its flood converged on,
//! and a memoized class *hit* replays a stored outcome without ever
//! building one — while a simulated member's scratch is recycled for the
//! next prefix. A snapshot comes from [`CompiledSim::run_snapshot`], over
//! the one prefix's schedule, not from a campaign option.
//!
//! # Checkpointing and durable resume
//!
//! A campaign's totals — aggregate sink, events, class counters, diverged
//! prefixes, chunk count — live in one type, [`CampaignRun`]: each chunk
//! produces one, the aggregate merges them in chunk order, and a
//! [`CampaignCheckpoint`] is the aggregate of the completed chunks plus the
//! chunk size and schedule digest that bind it to its schedule. A campaign
//! can stop after any number of chunks and hand back that checkpoint;
//! [`Campaign::resume`] continues from the first incomplete chunk and
//! hands back the checkpoint's run, now covering every chunk —
//! bit-identical to an uninterrupted run (same fold/merge sequence, just
//! spread over several calls). That is the full-table safety net: a
//! multi-hour campaign interrupted at chunk `k` re-runs only chunks `k..`,
//! not the table. A resume refuses a checkpoint whose chunk size, schedule
//! digest, chunk count or class counters do not fit the live schedule.
//! Checkpoints whose sink implements [`crate::DurableSink`] also serialize
//! to (and restore from) a hand-rolled JSON text
//! ([`CampaignCheckpoint::to_json`] / [`CampaignCheckpoint::from_json`]),
//! so the safety net survives process death, not just an in-process
//! pause. A dead process loses its memory and nothing else, so "resume
//! from the text persisted after chunk `k`" is the whole recovery
//! contract: `tests/resume.rs` checks it for every `k`, across thread
//! counts and with memoization on and off.
//!
//! # Divergence: the one failure a run can meet
//!
//! Every result is a pure function of (topology, configs, schedule), so a
//! prefix that panicked would panic again on every retry; a panic aborts
//! the campaign, naming its chunk. What a run *can* meet is a policy set
//! that never converges. The event budget cuts such a flood, the campaign
//! folds what it reached, and the prefix is tallied in
//! [`CampaignRun::diverged`], in fold order: a run with an empty list
//! converged everywhere.
//!
//! ```
//! use bgpworms_routesim::{Campaign, CampaignSink, Origination, PrefixOutcome, SimSpec};
//! use bgpworms_topology::{Tier, Topology};
//! use bgpworms_types::{Asn, Prefix};
//!
//! /// Aggregate: how many ASes converged a route, per prefix — O(prefixes)
//! /// retained, O(ASes) streamed.
//! #[derive(Default)]
//! struct ReachCount(std::collections::BTreeMap<Prefix, usize>);
//!
//! impl CampaignSink for ReachCount {
//!     fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
//!         let n = outcome.final_routes.map(|r| r.len()).unwrap_or(0);
//!         self.0.insert(prefix, n);
//!     }
//!     fn merge(&mut self, other: Self) {
//!         self.0.extend(other.0);
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! topo.add_simple(Asn::new(1), Tier::Tier1);
//! topo.add_simple(Asn::new(2), Tier::Stub);
//! topo.add_edge(Asn::new(1), Asn::new(2), bgpworms_topology::EdgeKind::ProviderToCustomer);
//! let sim = SimSpec::new(&topo).retain(bgpworms_routesim::RetainRoutes::All).compile();
//! let eps = vec![Origination::announce(Asn::new(2), "10.0.0.0/16".parse().unwrap(), vec![])];
//! let run = Campaign::new(&sim).run(&eps, ReachCount::default);
//! assert!(run.converged);
//! assert_eq!(run.sink.0.len(), 1);
//! ```

use crate::classify::ClassKey;
use crate::engine::{CompiledSim, Origination, PrefixOutcome, ScratchReader};
use crate::shard;
use crate::stats::FloodStats;
use bgpworms_types::Prefix;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// A streaming fold over per-prefix outcomes.
///
/// Implementations must be deterministic functions of the call sequence;
/// the [`Campaign`] driver guarantees that sequence is independent of the
/// worker-thread count (see the module docs). `fold` consumes the outcome —
/// take what the aggregate needs and let the rest drop; that is what bounds
/// a full-table run's memory.
pub trait CampaignSink: Sized {
    /// Absorbs one finished prefix. Called in ascending prefix order within
    /// a work chunk, on the chunk's own sink instance.
    fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome);

    /// Absorbs a finished chunk's sink into the running aggregate. Called
    /// in ascending chunk order, on the aggregate.
    fn merge(&mut self, other: Self);
}

/// Keeps every outcome, which fold and merge order leave in ascending
/// prefix order, as [`CompiledSim::finish`] takes them.
impl CampaignSink for Vec<(Prefix, PrefixOutcome)> {
    fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
        self.push((prefix, outcome));
    }

    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// The campaign driver: a chunked, streaming view of one compiled session,
/// and the one schedule loop under its API ([`CompiledSim::run`] included).
/// `threads` comes from the session.
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'s, 't> {
    sim: &'s CompiledSim<'t>,
    memoize: bool,
}

/// The most prefixes a work chunk holds: small enough that a checkpoint is
/// never far away and chunk sinks stay cheap, large enough that per-chunk
/// bookkeeping vanishes next to per-prefix convergence cost. A checkpoint
/// records it, and one taken under another bound is refused.
const DEFAULT_CHUNK_SIZE: usize = 32;

/// Target minimum number of chunks a non-trivial schedule is split into
/// (schedules with at least this many prefixes yield at least half of it
/// after rounding; smaller schedules get one prefix per chunk): keeps
/// small campaigns parallelizable, since chunks — not prefixes — are what
/// workers claim. Comfortably above any realistic core count while keeping
/// per-chunk overhead irrelevant.
const MIN_SCHEDULABLE_CHUNKS: usize = 64;

/// A resumable campaign position: the totals of the chunks completed so
/// far (`run.chunks` of them), plus what binds them to a schedule.
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint<S> {
    /// The completed chunks' aggregate and counters; resuming folds the
    /// remaining chunks into it, and finishing hands it back as is.
    pub(crate) run: CampaignRun<S>,
    pub(crate) chunk_size: usize,
    /// Digest of the prefix list this checkpoint was taken against
    /// (`None` until the first [`Campaign::run_chunks`] call touches a
    /// schedule); chunk boundaries derive from the prefix set, so resuming
    /// against a drifted schedule — changed count *or* changed membership —
    /// is rejected instead of silently mis-chunked. FNV-1a over the
    /// prefixes' canonical text, so a digest persisted by
    /// [`CampaignCheckpoint::to_json`] means the same thing in another
    /// process.
    pub(crate) schedule_digest: Option<u64>,
}

impl<S> CampaignCheckpoint<S> {
    /// Completed chunks.
    pub fn chunks_done(&self) -> usize {
        self.run.chunks
    }
}

/// A campaign's totals: of a finished run, of the chunks a checkpoint has
/// completed, or of one chunk before it is merged into the aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun<S> {
    /// The fully merged aggregate.
    pub sink: S,
    /// Total update events across all prefixes.
    pub events: u64,
    /// True if every prefix converged within its event budget.
    pub converged: bool,
    /// Work chunks processed (including any from a resumed checkpoint).
    pub chunks: usize,
    /// Prefixes simulated as the first member of their equivalence class
    /// (a schedule statistic).
    pub class_sims: u64,
    /// Prefixes folded as later members of an already-counted class.
    pub class_hits: u64,
    /// Prefixes that exhausted their event budget, in ascending fold order
    /// — the structured form of `!converged`. A cut flood is folded, not
    /// an abort.
    pub diverged: Vec<Prefix>,
    /// Always empty — the element type has no values: a deterministic
    /// engine has no prefix to quarantine. Kept for the repo benchmark,
    /// which reads its length (ROADMAP item 7 removes it).
    pub failures: Vec<std::convert::Infallible>,
    /// What the floods behind the folded outcomes did, added in fold
    /// order: a replayed class member adds its representative's counters,
    /// so this is the same at any thread count, memoized or not. Not
    /// persisted in a checkpoint: a resumed run counts the chunks its own
    /// process ran.
    pub stats: FloodStats,
    /// Route handles replays cloned out of their representatives' stored
    /// outcomes — the campaign's own work, which the unmemoized reference
    /// does not do. Not persisted either.
    pub replay_clones: u64,
}

impl<S> CampaignRun<S> {
    /// The totals of no chunk at all, around `sink`.
    pub(crate) fn empty(sink: S) -> Self {
        CampaignRun {
            sink,
            events: 0,
            converged: true,
            chunks: 0,
            class_sims: 0,
            class_hits: 0,
            diverged: Vec::new(),
            failures: Vec::new(),
            stats: FloodStats::default(),
            replay_clones: 0,
        }
    }
}

impl<S: CampaignSink> CampaignRun<S> {
    /// Folds the totals of the chunks that follow these ones in.
    fn merge(&mut self, later: CampaignRun<S>) {
        self.sink.merge(later.sink);
        self.events += later.events;
        self.converged &= later.converged;
        self.chunks += later.chunks;
        self.class_sims += later.class_sims;
        self.class_hits += later.class_hits;
        self.diverged.extend(later.diverged);
        self.stats += later.stats;
        self.replay_clones += later.replay_clones;
    }
}

/// The classification summary of one schedule under one session — what
/// [`Campaign::class_stats`] computes without simulating anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Distinct prefixes in the schedule.
    pub prefixes: usize,
    /// Equivalence classes they collapse into — the floods a campaign
    /// simulates.
    pub classes: usize,
}

/// The schedule's class structure: each prefix's class id, with classes
/// numbered in order of first appearance over the ascending prefix list —
/// so a class's first member (its representative in the counters) is its
/// lowest prefix, independent of chunking and thread count.
struct ClassTable {
    class_of: Vec<u32>,
    is_first: Vec<bool>,
    n_classes: usize,
}

impl ClassTable {
    fn build(
        sim: &CompiledSim<'_>,
        prefixes: &[Prefix],
        by_prefix: &BTreeMap<Prefix, Vec<&Origination>>,
    ) -> ClassTable {
        // lint: order-independent probed by key while walking `prefixes`
        // in schedule order; the map itself is never iterated, so class
        // ids are assigned in first-appearance order regardless of hasher
        let mut ids: HashMap<ClassKey<'_>, u32> = HashMap::with_capacity(prefixes.len());
        let mut class_of = Vec::with_capacity(prefixes.len());
        let mut is_first = Vec::with_capacity(prefixes.len());
        for prefix in prefixes {
            let key = sim.class_key(*prefix, &by_prefix[prefix]);
            let next = ids.len() as u32;
            let id = *ids.entry(key).or_insert(next);
            class_of.push(id);
            is_first.push(id == next);
        }
        ClassTable {
            class_of,
            is_first,
            n_classes: ids.len(),
        }
    }
}

/// One class's memoization slot: the stored outcome and its flood's
/// counters (filled by whichever member a worker simulates first) and how
/// many members of this advance's prefix range still have to fold it — the
/// last one moves the outcome out instead of cloning.
struct ClassSlot {
    outcome: Option<(PrefixOutcome, FloodStats)>,
    remaining: usize,
}

/// Per-advance outcome memo, one slot per class. Workers lock a slot only
/// for their own class's fill-or-replay, so distinct classes never contend;
/// simulation happens *under* the slot lock, which is exactly what makes a
/// second member arriving mid-simulation wait for the outcome instead of
/// redundantly re-flooding.
struct ClassMemo {
    slots: Vec<Mutex<ClassSlot>>,
}

impl ClassMemo {
    /// A memo for the prefix-index range `lo..hi` this advance executes.
    /// A resumed campaign rebuilds the memo for its remaining range, so a
    /// class whose representative folded before the checkpoint is simply
    /// re-simulated once on demand — correctness never depends on memo
    /// state surviving a checkpoint.
    fn for_range(table: &ClassTable, lo: usize, hi: usize) -> ClassMemo {
        let mut remaining = vec![0usize; table.n_classes];
        for &c in &table.class_of[lo..hi] {
            remaining[c as usize] += 1;
        }
        ClassMemo {
            slots: remaining
                .into_iter()
                .map(|remaining| {
                    Mutex::new(ClassSlot {
                        outcome: None,
                        remaining,
                    })
                })
                .collect(),
        }
    }
}

impl<'s, 't> Campaign<'s, 't> {
    /// A memoizing campaign over `sim`.
    pub fn new(sim: &'s CompiledSim<'t>) -> Self {
        Campaign { sim, memoize: true }
    }

    /// The oracle flood memoization is tested against: [`Campaign::new`]
    /// with every prefix simulated individually — bit-identical results for
    /// class-hit count times the flood work, so only tests want it.
    #[doc(hidden)]
    pub fn unmemoized_reference(sim: &'s CompiledSim<'t>) -> Self {
        Campaign {
            memoize: false,
            ..Campaign::new(sim)
        }
    }

    /// Classifies a schedule without simulating anything: how many
    /// distinct prefixes it announces and how many equivalence classes
    /// they collapse into under this session — the flood count a run will
    /// actually pay.
    pub fn class_stats(&self, originations: &[Origination]) -> ClassStats {
        let by_prefix = group_by_prefix(originations);
        let prefixes: Vec<Prefix> = by_prefix.keys().copied().collect();
        let table = ClassTable::build(self.sim, &prefixes, &by_prefix);
        ClassStats {
            prefixes: prefixes.len(),
            classes: table.n_classes,
        }
    }

    /// The chunk size used for a schedule of `n_prefixes`: the
    /// `DEFAULT_CHUNK_SIZE` (32) bound, shrunk so the schedule splits into at
    /// least `MIN_SCHEDULABLE_CHUNKS` (64) chunks. Chunks are the parallel work
    /// unit, so without this a 24-prefix campaign would be one chunk — i.e.
    /// fully serial no matter how many worker threads the session has. The
    /// formula depends only on the prefix count, never on the thread count,
    /// which is what keeps chunk boundaries (and hence the sink's
    /// fold/merge sequence and checkpoint grain) identical across
    /// `threads = 1/N`.
    pub fn effective_chunk_size(&self, n_prefixes: usize) -> usize {
        DEFAULT_CHUNK_SIZE
            .min(n_prefixes.div_ceil(MIN_SCHEDULABLE_CHUNKS))
            .max(1)
    }

    /// An empty checkpoint wrapping the campaign's aggregate sink; feed it
    /// to [`Campaign::run_chunks`] to execute incrementally.
    pub fn begin<S: CampaignSink>(&self, sink: S) -> CampaignCheckpoint<S> {
        CampaignCheckpoint {
            run: CampaignRun::empty(sink),
            chunk_size: DEFAULT_CHUNK_SIZE,
            schedule_digest: None,
        }
    }

    /// Runs the whole campaign: every prefix of `originations`, streamed
    /// through per-chunk sinks from `new_sink` into one aggregate (also
    /// from `new_sink`).
    pub fn run<S, F>(&self, originations: &[Origination], new_sink: F) -> CampaignRun<S>
    where
        S: CampaignSink + Send,
        F: Fn() -> S + Sync,
    {
        self.resume(originations, self.begin(new_sink()), new_sink)
    }

    /// Continues an interrupted campaign to completion. Equivalent — sink
    /// call sequence and all — to having run uninterrupted.
    pub fn resume<S, F>(
        &self,
        originations: &[Origination],
        checkpoint: CampaignCheckpoint<S>,
        new_sink: F,
    ) -> CampaignRun<S>
    where
        S: CampaignSink + Send,
        F: Fn() -> S + Sync,
    {
        self.advance(originations, checkpoint, &new_sink, None)
            .0
            .run
    }

    /// Executes at most `max_chunks` further chunks and returns the new
    /// checkpoint plus whether the campaign is finished.
    pub fn run_chunks<S, F>(
        &self,
        originations: &[Origination],
        checkpoint: CampaignCheckpoint<S>,
        new_sink: F,
        max_chunks: usize,
    ) -> (CampaignCheckpoint<S>, bool)
    where
        S: CampaignSink + Send,
        F: Fn() -> S + Sync,
    {
        self.advance(originations, checkpoint, &new_sink, Some(max_chunks))
    }

    /// The core loop: runs the not-yet-done chunk range on the crate's
    /// worker pool (`shard.rs`: item = chunk, one scratch per worker recycled
    /// across every prefix of every chunk it claims) and merges finished
    /// chunk sinks into the aggregate in chunk order.
    fn advance<S, F>(
        &self,
        originations: &[Origination],
        mut cp: CampaignCheckpoint<S>,
        new_sink: &F,
        max_chunks: Option<usize>,
    ) -> (CampaignCheckpoint<S>, bool)
    where
        S: CampaignSink + Send,
        F: Fn() -> S + Sync,
    {
        assert_eq!(
            cp.chunk_size, DEFAULT_CHUNK_SIZE,
            "checkpoint was taken with chunk_size {} but this build chunks by {} — chunk \
             boundaries would not line up, silently skipping or re-folding prefixes",
            cp.chunk_size, DEFAULT_CHUNK_SIZE
        );
        let by_prefix = group_by_prefix(originations);
        let prefixes: Vec<Prefix> = by_prefix.keys().copied().collect();

        // Chunk boundaries are recomputed from the prefix list, so a
        // checkpoint is only meaningful against the schedule it was taken
        // from: a drifted schedule — fewer, more, or simply *different*
        // prefixes — would silently skip or re-fold work.
        let digest = schedule_digest(&prefixes);
        match cp.schedule_digest {
            Some(d) => assert_eq!(
                d, digest,
                "checkpoint was taken against a different schedule"
            ),
            None => cp.schedule_digest = Some(digest),
        }

        let chunk_size = self.effective_chunk_size(prefixes.len());
        let n_chunks = prefixes.len().div_ceil(chunk_size);
        // A checkpoint past the last chunk (a forged or corrupt file) would
        // otherwise report a finished run that folded nothing.
        let first = cp.run.chunks;
        assert!(
            first <= n_chunks,
            "checkpoint claims {first} chunks done but this schedule has {n_chunks}"
        );

        // The schedule's class structure — cheap (no simulation), computed
        // for the unmemoized reference too, so the class-hit counters are
        // schedule statistics: both report identical totals, and the done
        // chunks' share of them is known before anything runs.
        let classes = ClassTable::build(self.sim, &prefixes, &by_prefix);
        let folded = (first * chunk_size).min(prefixes.len());
        let sims = classes.is_first[..folded].iter().filter(|&&f| f).count() as u64;
        let hits = folded as u64 - sims;
        assert!(
            (cp.run.class_sims, cp.run.class_hits) == (sims, hits),
            "checkpoint claims {} class sims and {} class hits but the schedule's first \
             {first} chunks hold {sims} and {hits}",
            cp.run.class_sims,
            cp.run.class_hits
        );

        let end = match max_chunks {
            Some(m) => n_chunks.min(first.saturating_add(m)),
            None => n_chunks,
        };
        if first >= end {
            return (cp, first >= n_chunks);
        }
        let memo = self.memoize.then(|| {
            ClassMemo::for_range(
                &classes,
                first * chunk_size,
                (end * chunk_size).min(prefixes.len()),
            )
        });
        let memo = memo.as_ref();

        let ran = shard::for_each_ordered(
            self.sim.threads(),
            end - first,
            || self.sim.new_scratch(),
            |scratch, k| {
                let ci = first + k;
                self.run_chunk(
                    scratch, ci, chunk_size, &prefixes, &by_prefix, &classes, memo, new_sink,
                )
            },
            |_, chunk| cp.run.merge(chunk),
        );
        if let Err((k, msg)) = ran {
            let ci = first + k;
            let range = chunk_range(ci, chunk_size, prefixes.len());
            panic!(
                "campaign worker panicked in chunk {ci} (prefixes {}..={}): {msg}",
                prefixes[range.start],
                prefixes[range.end - 1]
            );
        }
        (cp, end >= n_chunks)
    }

    /// Runs one chunk's prefixes (ascending order) into a fresh sink, on
    /// the calling worker's reusable `scratch`. `chunk_size` is the
    /// effective size `advance` computed for this schedule.
    ///
    /// With `memo` present, each prefix consults its class slot: the first
    /// member to take the slot lock simulates and fills it, later members
    /// clone (or, when they are the slot's last member in this advance,
    /// move) the stored outcome and relabel it. The fold itself still
    /// happens here, in ascending prefix order, so the sink cannot tell a
    /// replayed outcome from a simulated one.
    #[allow(clippy::too_many_arguments)]
    fn run_chunk<S, F>(
        &self,
        scratch: &mut crate::scratch::SimScratch,
        ci: usize,
        chunk_size: usize,
        prefixes: &[Prefix],
        by_prefix: &BTreeMap<Prefix, Vec<&Origination>>,
        classes: &ClassTable,
        memo: Option<&ClassMemo>,
        new_sink: &F,
    ) -> CampaignRun<S>
    where
        S: CampaignSink,
        F: Fn() -> S,
    {
        let range = chunk_range(ci, chunk_size, prefixes.len());
        let mut out = CampaignRun {
            chunks: 1,
            ..CampaignRun::empty(new_sink())
        };
        for gi in range {
            let prefix = prefixes[gi];
            if classes.is_first[gi] {
                out.class_sims += 1;
            } else {
                out.class_hits += 1;
            }
            let (outcome, stats, replay_clones) =
                self.prefix_outcome(scratch, prefix, gi, by_prefix, classes, memo);
            if !outcome.converged {
                out.diverged.push(prefix);
            }
            out.events += outcome.events;
            out.converged &= outcome.converged;
            out.stats += stats;
            out.replay_clones += replay_clones;
            out.sink.fold(prefix, outcome);
        }
        out
    }

    /// One prefix's outcome and the counters of the flood behind it:
    /// simulated, through the class memo when it applies — with the route
    /// handles a replay cloned out of the stored outcome.
    fn prefix_outcome(
        &self,
        scratch: &mut crate::scratch::SimScratch,
        prefix: Prefix,
        gi: usize,
        by_prefix: &BTreeMap<Prefix, Vec<&Origination>>,
        classes: &ClassTable,
        memo: Option<&ClassMemo>,
    ) -> (PrefixOutcome, FloodStats, u64) {
        let episodes = &by_prefix[&prefix];
        let Some(memo) = memo else {
            let (outcome, stats) =
                self.sim
                    .run_prefix(scratch, prefix, episodes, ScratchReader::Nobody);
            return (outcome, stats, 0);
        };
        // A poisoned slot is still consistent (a panicking simulation never
        // half-fills `outcome`); that panic aborts the campaign under its
        // own chunk's name.
        let mut slot = memo.slots[classes.class_of[gi] as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.outcome.is_none() {
            let outcome = self
                .sim
                .run_prefix(scratch, prefix, episodes, ScratchReader::Nobody);
            slot.outcome = Some(outcome);
        }
        slot.remaining -= 1;
        let ((stored, stats), cloned) = if slot.remaining == 0 {
            // lint: infallible filled under this same lock guard by the
            // is_none branch above
            (slot.outcome.take().expect("slot filled above"), 0)
        } else {
            // lint: infallible same guard, same fill
            let kept = slot.outcome.as_ref().expect("slot filled above");
            (kept.clone(), kept.0.route_handles())
        };
        drop(slot);
        (stored.relabeled(prefix), stats, cloned)
    }
}

/// The prefix-index range of chunk `ci`; never empty for a chunk that ran.
fn chunk_range(ci: usize, chunk_size: usize, n_prefixes: usize) -> std::ops::Range<usize> {
    let lo = ci * chunk_size;
    lo..lo.saturating_add(chunk_size).min(n_prefixes)
}

/// Groups episodes by prefix: each prefix's episodes in time order, stably
/// (same-time duplicates keep schedule order). The one statement of a
/// prefix's episode order, for a campaign and for a snapshot or delta.
pub(crate) fn group_by_prefix(originations: &[Origination]) -> BTreeMap<Prefix, Vec<&Origination>> {
    let mut by_prefix: BTreeMap<Prefix, Vec<&Origination>> = BTreeMap::new();
    for o in originations {
        by_prefix.entry(o.prefix).or_default().push(o);
    }
    for eps in by_prefix.values_mut() {
        eps.sort_by_key(|o| o.time);
    }
    by_prefix
}

/// Digest of a schedule's sorted prefix list, binding checkpoints to the
/// exact prefix set (and order) their chunk boundaries were computed over.
/// Checkpoints persist across processes ([`CampaignCheckpoint::to_json`]),
/// so the digest is hand-rolled FNV-1a over the prefixes' canonical text —
/// process- and platform-independent, unlike `DefaultHasher`.
fn schedule_digest(prefixes: &[Prefix]) -> u64 {
    use std::fmt::Write;
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    let mut text = String::with_capacity(24);
    for prefix in prefixes {
        text.clear();
        // lint: infallible `fmt::Write` for `String` never errors
        write!(text, "{prefix}").expect("String formatting is infallible");
        // Separator byte 0xff: never appears in prefix text, so adjacent
        // prefixes cannot alias across the boundary.
        for &b in text.as_bytes().iter().chain(&[0xff]) {
            state ^= u64::from(b);
            state = state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{panic_message, RetainRoutes, SimSpec};
    use crate::Origination;
    use bgpworms_topology::{PrefixAllocation, TopologyParams};
    use bgpworms_types::{Asn, Community};
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Order-sensitive sink: records the exact fold/merge call sequence, so
    /// any thread-count dependence in the driver shows up as a sequence
    /// diff, plus per-prefix event counts for cross-checks against
    /// `CompiledSim::run`.
    #[derive(Debug, Default, PartialEq)]
    struct Trace {
        calls: Vec<String>,
        events: u64,
        routes: usize,
    }

    impl CampaignSink for Trace {
        fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
            self.calls.push(format!("fold {prefix}"));
            self.events += outcome.events;
            self.routes += outcome.final_routes.map(|r| r.len()).unwrap_or(0);
        }
        fn merge(&mut self, other: Self) {
            self.calls.push("merge".into());
            self.calls.extend(other.calls);
            self.events += other.events;
            self.routes += other.routes;
        }
    }

    fn world() -> (bgpworms_topology::Topology, Vec<Origination>) {
        let topo = TopologyParams::tiny().seed(6).build();
        let alloc = PrefixAllocation::assign(
            &topo,
            bgpworms_topology::addressing::AddressingParams::default(),
        );
        let eps: Vec<Origination> = alloc
            .iter()
            .map(|(asn, prefix)| Origination::announce(asn, prefix, vec![]))
            .collect();
        (topo, eps)
    }

    #[test]
    fn campaign_matches_run_totals() {
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let reference = sim.run(&eps);
        let run = Campaign::new(&sim).run(&eps, Trace::default);
        assert_eq!(run.events, reference.events);
        assert_eq!(run.converged, reference.converged);
        let ref_routes: usize = reference.final_routes.values().map(|m| m.len()).sum();
        assert_eq!(run.sink.routes, ref_routes);
        assert!(run.chunks >= 2, "tiny world still spans chunks");
    }

    #[test]
    fn small_schedules_still_split_into_many_chunks() {
        // Chunks are the parallel work unit, so a schedule smaller than
        // the configured bound must shrink its chunks, not collapse into
        // one serial chunk.
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo).compile();
        let campaign = Campaign::new(&sim); // default bound: 32
        assert_eq!(campaign.effective_chunk_size(24), 1);
        assert_eq!(campaign.effective_chunk_size(1), 1);
        assert_eq!(campaign.effective_chunk_size(0), 1);
        assert_eq!(campaign.effective_chunk_size(640), 10);
        assert_eq!(campaign.effective_chunk_size(64_000), 32);

        let n_prefixes = eps
            .iter()
            .map(|o| o.prefix)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        let effective = campaign.effective_chunk_size(n_prefixes);
        assert!(
            effective < DEFAULT_CHUNK_SIZE,
            "world of {n_prefixes} prefixes must shrink its chunks"
        );
        let run = campaign.run(&eps, Trace::default);
        assert_eq!(
            run.chunks,
            n_prefixes.div_ceil(effective),
            "chunk count must follow the effective size"
        );
        assert!(
            run.chunks >= (MIN_SCHEDULABLE_CHUNKS / 2).min(n_prefixes),
            "small schedules must still expose enough parallel work units"
        );
    }

    #[test]
    fn sink_call_sequence_is_thread_count_independent() {
        let (topo, eps) = world();
        let spec = SimSpec::new(&topo).retain(RetainRoutes::All);
        let seq = Campaign::new(&spec.clone().compile()).run(&eps, Trace::default);
        let par = Campaign::new(&spec.threads(4).compile()).run(&eps, Trace::default);
        assert_eq!(seq.sink, par.sink, "fold/merge sequence diverged");
        assert_eq!(seq.events, par.events);
        assert_eq!(
            seq.stats, par.stats,
            "flood counters depend on the thread count"
        );
        assert_eq!(seq.replay_clones, par.replay_clones);
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted() {
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let campaign = Campaign::new(&sim);
        let full = campaign.run(&eps, Trace::default);

        // Stop-and-go: one chunk per call until done.
        let mut cp = campaign.begin(Trace::default());
        let mut guard = 0;
        loop {
            let (next, finished) = campaign.run_chunks(&eps, cp, Trace::default, 1);
            cp = next;
            guard += 1;
            assert!(guard < 100, "campaign never finished");
            if finished {
                break;
            }
        }
        let resumed = cp.run;
        assert_eq!(resumed.sink, full.sink);
        assert_eq!(resumed.events, full.events);
        assert_eq!(resumed.chunks, full.chunks);
        assert_eq!(
            (resumed.class_sims, resumed.class_hits),
            (full.class_sims, full.class_hits),
            "a resumed campaign must report the same class statistics"
        );
    }

    #[test]
    fn resume_after_partial_run_completes() {
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let campaign = Campaign::new(&sim);
        let full = campaign.run(&eps, Trace::default);
        let (cp, finished) =
            campaign.run_chunks(&eps, campaign.begin(Trace::default()), Trace::default, 2);
        assert!(!finished);
        assert_eq!(cp.chunks_done(), 2);
        let resumed = campaign.resume(&eps, cp, Trace::default);
        assert_eq!(resumed.sink, full.sink);
    }

    #[test]
    #[should_panic(expected = "different schedule")]
    fn checkpoint_rejects_drifted_schedule() {
        let (topo, mut eps) = world();
        let sim = SimSpec::new(&topo).compile();
        let campaign = Campaign::new(&sim);
        let (cp, _) =
            campaign.run_chunks(&eps, campaign.begin(Trace::default()), Trace::default, 1);
        // One prefix is *swapped* between checkpoint and resume — the
        // count is unchanged, but chunk contents would shift, so the
        // resume must still refuse.
        let last = eps.last_mut().expect("non-empty schedule");
        last.prefix = "203.0.113.0/24".parse().unwrap();
        let _ = campaign.resume(&eps, cp, Trace::default);
    }

    /// The panic text of resuming `cp`, which must be refused.
    fn refusal(
        campaign: &Campaign<'_, '_>,
        eps: &[Origination],
        cp: CampaignCheckpoint<Trace>,
    ) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| {
            campaign.resume(eps, cp, Trace::default)
        }))
        .expect_err("the checkpoint must be refused");
        panic_message(&*err)
    }

    #[test]
    fn checkpoint_rejects_mismatched_chunking_naming_both_sizes() {
        // A checkpoint file records the chunk bound it was taken under, and
        // chunk boundaries derive from it: one taken under another bound
        // would silently skip or re-fold prefixes. The guard must reject —
        // and its message must name *both* sizes, so the operator of a
        // multi-hour campaign knows what the file and the build disagree on.
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo).compile();
        let campaign = Campaign::new(&sim);
        let mut cp = campaign.begin(Trace::default());
        cp.chunk_size = 2;
        let msg = refusal(&campaign, &eps, cp);
        assert!(
            msg.contains("checkpoint was taken with chunk_size 2 but this build chunks by 32"),
            "message must name the checkpoint's size and the build's, got: {msg}"
        );

        // A partially-run checkpoint (digest already bound) is rejected the
        // same way — the chunk-size guard fires before the digest check.
        let (mut cp, _) =
            campaign.run_chunks(&eps, campaign.begin(Trace::default()), Trace::default, 1);
        cp.chunk_size = 5;
        let msg = refusal(&campaign, &eps, cp);
        assert!(
            msg.contains("chunk_size 5") && msg.contains("chunks by 32"),
            "got: {msg}"
        );
    }

    #[test]
    fn checkpoint_past_the_last_chunk_is_refused_naming_both_counts() {
        // A forged or corrupt checkpoint claiming more chunks than the
        // schedule has must not resume into a "finished" run that folded
        // nothing.
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo).compile();
        let campaign = Campaign::new(&sim);
        let (mut cp, _) =
            campaign.run_chunks(&eps, campaign.begin(Trace::default()), Trace::default, 1);
        let n_chunks = campaign.run(&eps, Trace::default).chunks;
        cp.run.chunks = 999;
        let msg = refusal(&campaign, &eps, cp);
        assert!(
            msg.contains(&format!(
                "checkpoint claims 999 chunks done but this schedule has {n_chunks}"
            )),
            "got: {msg}"
        );
    }

    #[test]
    fn a_flood_cut_by_its_budget_is_folded_and_tallied() {
        // The one failure a deterministic run can meet is a flood that does
        // not converge within its event budget. Budget 0 cuts every flood
        // at its first event: each prefix is still folded — what it reached
        // is its outcome — and listed in `diverged`, and memoization
        // changes nothing.
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo)
            .retain(RetainRoutes::All)
            .compile()
            .with_event_budget(0);
        let run = Campaign::new(&sim).run(&eps, Trace::default);
        let prefixes: Vec<Prefix> = group_by_prefix(&eps).into_keys().collect();
        assert!(!run.converged && !run.diverged.is_empty());
        assert_eq!(run.diverged, prefixes, "every prefix, in fold order");
        let folds = run.sink.calls.iter().filter(|c| c.starts_with("fold "));
        assert_eq!(folds.count(), prefixes.len(), "a cut flood is folded");
        // Everything but the memo's own clones, which the reference skips.
        assert_eq!(
            CampaignRun {
                replay_clones: 0,
                ..run
            },
            Campaign::unmemoized_reference(&sim).run(&eps, Trace::default)
        );
    }

    #[test]
    fn empty_schedule_finishes_immediately() {
        let topo = TopologyParams::tiny().seed(6).build();
        let sim = SimSpec::new(&topo).compile();
        let run = Campaign::new(&sim).run(&[], Trace::default);
        assert!(run.converged);
        assert_eq!(run.events, 0);
        assert_eq!(run.chunks, 0);
        assert!(run.sink.calls.is_empty());
    }

    #[test]
    fn worker_panic_names_the_chunk() {
        // A panicking fold inside a parallel chunk must surface, not hang.
        #[derive(Debug)]
        struct Bomb;
        impl CampaignSink for Bomb {
            fn fold(&mut self, _prefix: Prefix, _outcome: PrefixOutcome) {
                panic!("sink exploded");
            }
            fn merge(&mut self, _other: Self) {}
        }
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo).threads(2).compile();
        let err =
            std::panic::catch_unwind(AssertUnwindSafe(|| Campaign::new(&sim).run(&eps, || Bomb)))
                .expect_err("panic must propagate");
        let msg = panic_message(&*err);
        assert!(msg.contains("campaign worker panicked"), "got: {msg}");
    }

    #[test]
    fn retained_routes_stream_through_the_fold() {
        // Only the experiment prefix is retained; the sink must see its
        // routes and nothing for the rest.
        let (topo, eps) = world();
        let keep = eps[0].prefix;
        let sim = SimSpec::new(&topo)
            .retain(RetainRoutes::Prefixes {
                prefixes: BTreeSet::from([keep]),
                readers: BTreeSet::new(),
            })
            .compile();
        let run = Campaign::new(&sim).run(&eps, Trace::default);
        let reference = sim.run(&eps);
        assert_eq!(
            run.sink.routes,
            reference
                .final_routes
                .get(&keep)
                .map(|m| m.len())
                .unwrap_or(0)
        );
    }

    #[test]
    fn memoized_run_matches_unmemoized() {
        // The tentpole soundness check at unit granularity: replaying a
        // class representative's outcome must be indistinguishable from
        // simulating every member, for the exact same fold/merge sequence.
        let (topo, eps) = world();
        for threads in [1, 4] {
            let sim = SimSpec::new(&topo)
                .retain(RetainRoutes::All)
                .threads(threads)
                .compile();
            let [memoized, reference] = [Campaign::new(&sim), Campaign::unmemoized_reference(&sim)]
                .map(|driver| driver.run(&eps, Trace::default));
            assert_eq!(memoized.sink, reference.sink, "threads = {threads}");
            assert_eq!(memoized.events, reference.events);
            assert_eq!(memoized.converged, reference.converged);
            assert_eq!(
                memoized.stats, reference.stats,
                "a replay reports its flood"
            );
            assert_eq!(reference.replay_clones, 0, "the reference replays nothing");
        }
    }

    #[test]
    fn class_counters_are_schedule_statistics() {
        // sims + hits always partitions the prefix set; sims equals the
        // class count; and the unmemoized reference counts the same (they
        // describe the schedule, not the execution strategy).
        let (topo, eps) = world();
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let campaign = Campaign::new(&sim);
        let stats = campaign.class_stats(&eps);
        let n_prefixes = eps
            .iter()
            .map(|o| o.prefix)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        assert_eq!(stats.prefixes, n_prefixes);
        assert!(stats.classes >= 1 && stats.classes <= stats.prefixes);

        let memoized = campaign.run(&eps, Trace::default);
        let plain = Campaign::unmemoized_reference(&sim).run(&eps, Trace::default);
        assert_eq!(memoized.class_sims, stats.classes as u64);
        assert_eq!(memoized.class_sims + memoized.class_hits, n_prefixes as u64);
        assert_eq!(memoized.class_sims, plain.class_sims);
        assert_eq!(memoized.class_hits, plain.class_hits);
    }

    #[test]
    fn replayed_outcomes_are_relabeled() {
        // Two prefixes from the same origin with identical attributes share
        // a class; the replayed member's outcome must carry *its* prefix in
        // every observation the sink sees, and — routes naming no prefix —
        // the very routes the simulated member's did.
        use bgpworms_topology::{EdgeKind, Tier, Topology};
        let mut topo = Topology::new();
        topo.add_simple(Asn::new(1), Tier::Tier1);
        topo.add_simple(Asn::new(2), Tier::Stub);
        topo.add_edge(Asn::new(1), Asn::new(2), EdgeKind::ProviderToCustomer);
        let eps = vec![
            Origination::announce(Asn::new(2), "10.0.0.0/24".parse().unwrap(), vec![]),
            Origination::announce(Asn::new(2), "10.0.1.0/24".parse().unwrap(), vec![]),
        ];
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let campaign = Campaign::new(&sim);
        assert_eq!(campaign.class_stats(&eps).classes, 1, "must share a class");

        #[derive(Debug, Default)]
        struct LabelCheck {
            finals: Vec<crate::FinalRoutes>,
        }
        impl CampaignSink for LabelCheck {
            fn fold(&mut self, prefix: Prefix, outcome: PrefixOutcome) {
                for obs in outcome.observations.iter().flatten() {
                    assert_eq!(obs.prefix, prefix);
                }
                self.finals.extend(outcome.final_routes);
            }
            fn merge(&mut self, other: Self) {
                self.finals.extend(other.finals);
            }
        }
        let run = campaign.run(&eps, LabelCheck::default);
        assert_eq!(run.class_hits, 1, "second prefix must be a replay");
        let [simulated, replayed] = run.sink.finals.as_slice() else {
            panic!("both members retain their routes")
        };
        assert_eq!(simulated.len(), 2);
        assert_eq!(simulated, replayed, "a class's members hold equal routes");
    }

    #[test]
    fn a_replay_copies_no_attributes() {
        // Five prefixes of one origin with equal attributes are one class:
        // the campaign floods the first and replays four. A replay is a
        // label and reference counts — the observation's route and the two
        // retained finals are handles on what the one flood made — so the
        // campaign copies exactly the attributes the one-member campaign
        // does (AS2's export and AS1's to its collector): each member
        // reports that one flood's counters, and what the memo did on top
        // is clone handles. At any thread count.
        use crate::collector::{CollectorSpec, FeedKind};
        use bgpworms_topology::{EdgeKind, Tier, Topology};
        let mut topo = Topology::new();
        topo.add_simple(Asn::new(1), Tier::Tier1);
        topo.add_simple(Asn::new(2), Tier::Stub);
        topo.add_edge(Asn::new(1), Asn::new(2), EdgeKind::ProviderToCustomer);
        let eps: Vec<Origination> = (0..5)
            .map(|i| {
                let prefix = format!("10.0.{i}.0/24").parse().unwrap();
                Origination::announce(Asn::new(2), prefix, vec![Community::new(2, 7)])
            })
            .collect();
        for threads in [1, 3] {
            let sim = SimSpec::new(&topo)
                .retain(RetainRoutes::All)
                .collector(CollectorSpec {
                    name: "rrc00".into(),
                    platform: "RIS".into(),
                    collector_id: 1,
                    peers: vec![(Asn::new(1), FeedKind::Full)],
                })
                .threads(threads)
                .compile();
            let campaign = Campaign::new(&sim);
            let one = campaign.run(&eps[..1], Trace::default);
            let five = campaign.run(&eps, Trace::default);
            assert_eq!((one.class_hits, five.class_hits), (0, 4));
            assert_eq!(
                five.sink.routes,
                5 * one.sink.routes,
                "replays carry routes"
            );
            assert_eq!(one.stats.attr_copies, [0, 2, 0], "threads = {threads}");
            let mut floods = FloodStats::default();
            for _ in 0..5 {
                floods += one.stats;
            }
            assert_eq!(five.stats, floods, "a member reports the flood it replays");
            // The memo's own work: four of the five members clone the stored
            // outcome (one observation, two finals), the last moves it — and
            // a clone copies no attribute, so the campaign copied the 2 its
            // one flood did.
            assert_eq!((one.replay_clones, five.replay_clones), (0, 4 * 3));
            assert_eq!(
                five.class_sims, 1,
                "one flood: its 2 copies are all there are"
            );
        }
    }

    #[test]
    fn origins_resolve_like_the_session_api() {
        // An origination whose origin is not in the topology is skipped by
        // `run_prefix`; the campaign must agree with `run` on that.
        let (topo, mut eps) = world();
        eps.push(Origination::announce(
            Asn::new(999_999),
            "99.99.0.0/16".parse().unwrap(),
            vec![],
        ));
        let sim = SimSpec::new(&topo).retain(RetainRoutes::All).compile();
        let reference = sim.run(&eps);
        let run = Campaign::new(&sim).run(&eps, Trace::default);
        assert_eq!(run.events, reference.events);
        let ref_routes: usize = reference.final_routes.values().map(|m| m.len()).sum();
        assert_eq!(run.sink.routes, ref_routes);
    }
}
