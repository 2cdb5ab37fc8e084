//! What a flood did, as plain counters: [`FloodStats`].
//!
//! The convergence loop fills one through a `&mut` as it works, at the
//! sites it counts. Nothing reads a clock and nothing allocates, so the
//! counts are a pure function of the session and the schedule: equal at any
//! thread count, and equal whether a campaign floods a prefix or replays
//! the outcome of its class's representative (which reports the
//! representative's counts — the flood it stands for). Who reads them:
//!
//! * a campaign adds each folded prefix's counts into
//!   [`crate::CampaignRun::stats`] in fold order; what a replay cloned is
//!   the campaign's own counter, [`crate::CampaignRun::replay_clones`];
//! * a snapshot keeps its capture flood's ([`crate::SimSnapshot::stats`]);
//! * [`crate::CompiledSim::run_delta_prefix`] returns its delta's beside the
//!   outcome;
//! * `bgpworms-bench`'s `Snapshot` keeps the [`crate::CampaignRun`] of the
//!   flood that made its feed, whose outcomes [`crate::CompiledSim::finish`]
//!   turned into that feed; `repro flood-stats` prints its counts.
//!
//! A checkpoint persists none of them: a resumed campaign counts the chunks
//! its own process ran.

use crate::collector::Carried;
use std::ops::AddAssign;

/// Where a flood clones a route handle — an attribute pointer and the
/// annotation, no attribute: the index into [`FloodStats::handle_clones`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloneSite {
    /// An accepted import: the Adj-RIB-In route shares the advertisement's
    /// attributes.
    Import,
    /// An ordinary export, before its edits.
    Export,
    /// A route server's export, before its edits.
    RouteServerExport,
    /// A collector observation of an announcement.
    Observation,
    /// A retained final route.
    RetainedFinal,
    /// A snapshot's copy of its baseline outcome, and a delta's copy of the
    /// snapshot (its arena and its baseline observations).
    SnapshotClone,
}

/// Where a flood copies a route's attributes — a path and two community
/// lists — because an edit found them shared: the index into
/// [`FloodStats::attr_copies`]. These are the only places that edit the
/// attributes of a route another handle still reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopySite {
    /// An import that adds `NO_EXPORT`.
    Import,
    /// An ordinary export: it prepends.
    Export,
    /// A route server's export: it strips control communities.
    RouteServerExport,
}

/// How an emitted collector update relates to what its session last said
/// about the prefix: the index into [`FloodStats::updates`]. After "Keep
/// your Communities Clean" (Krenc et al.), which splits a feed's
/// announcements into path changes, community-only changes and duplicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// An announcement where the session held no route: the first, or the
    /// first after a withdrawal.
    First,
    /// An announcement whose AS path differs from the one it replaces.
    PathChange,
    /// An announcement with the replaced path whose communities or large
    /// communities differ.
    CommunityOnly,
    /// An announcement whose path and communities equal the replaced ones.
    Duplicate,
    /// A withdrawal.
    Withdrawal,
}

impl UpdateKind {
    /// The kind of an update carrying `now` after one that carried
    /// `before` (`None`: a withdrawal, or nothing yet). Compares what a
    /// collector reads, [`Carried`]: the path with its prepends, the
    /// communities and the large communities. Origin and next hop are not
    /// compared — a parsed feed does not keep them, and within one session
    /// the simulator never changes them without changing the path.
    pub(crate) fn of(before: Option<Carried<'_>>, now: Option<Carried<'_>>) -> UpdateKind {
        match (before, now) {
            (_, None) => UpdateKind::Withdrawal,
            (None, Some(_)) => UpdateKind::First,
            (Some(before), Some(now)) if before.path != now.path => UpdateKind::PathChange,
            (Some(before), Some(now))
                if before.communities != now.communities
                    || before.large_communities != now.large_communities =>
            {
                UpdateKind::CommunityOnly
            }
            (Some(_), Some(_)) => UpdateKind::Duplicate,
        }
    }
}

/// What one or more floods did, counted. Plain counters: no clock, fixed
/// size, `Copy`, and `+=` adds two of them. Arrays are indexed by the enum
/// they name (`stats.handle_clones[CloneSite::Export as usize]`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloodStats {
    /// Convergence rounds: batched export sweeps over a non-empty dirty
    /// set.
    pub rounds: u64,
    /// Rounds by dirty-set width, log2-bucketed: entry `k` counts the
    /// rounds that swept `2^k` to `2^(k+1) - 1` nodes.
    pub dirty_width_log2: [u64; 32],
    /// Deliveries popped off the in-flight queue within the event budget.
    /// A converged flood on a fresh scratch drains exactly
    /// [`crate::PrefixOutcome::events`] of them.
    pub deliveries: u64,
    /// Deliveries dropped at an unread leaf without admission. With
    /// `admissions` they partition `deliveries`.
    pub dropped_unread: u64,
    /// Deliveries admitted or refused, by
    /// [`crate::router::ImportVerdict`] (`verdict as usize`).
    pub admissions: [u64; 5],
    /// Routes handed to the arena: originations, accepted imports and
    /// computed exports.
    pub interns: u64,
    /// Of those, the ones the arena stored as new.
    pub mints: u64,
    /// Route-handle clones, by [`CloneSite`].
    pub handle_clones: [u64; 6],
    /// Attribute copies, by [`CopySite`].
    pub attr_copies: [u64; 3],
    /// Export passes run: dirty nodes whose best route moved.
    pub passes: u64,
    /// Dirty nodes whose pass the best-id check skipped.
    pub passes_skipped: u64,
    /// Adj-RIB-In slots the dirty nodes' best-route scans visited (a
    /// node's degree each, none for a node that originates).
    pub slots_scanned: u64,
    /// Exports a pass answered from its per-role memo, by the neighbour's
    /// role: customer, provider, peer.
    pub memo_hits: [u64; 3],
    /// Exports `diff_export` suppressed: the neighbour already holds them.
    pub exports_suppressed: u64,
    /// Collector sessions the end-of-episode sweeps evaluated.
    pub sessions_evaluated: u64,
    /// Nodes the flood stamped live, on first touch.
    pub nodes_touched: u64,
    /// Emitted collector updates, by [`UpdateKind`].
    pub updates: [u64; 5],
}

/// Element-wise `a += b`.
fn add<const N: usize>(a: &mut [u64; N], b: [u64; N]) {
    for (a, b) in a.iter_mut().zip(b) {
        *a += b;
    }
}

impl AddAssign for FloodStats {
    fn add_assign(&mut self, other: FloodStats) {
        // Destructured, so a counter added later cannot be left out.
        let FloodStats {
            rounds,
            dirty_width_log2,
            deliveries,
            dropped_unread,
            admissions,
            interns,
            mints,
            handle_clones,
            attr_copies,
            passes,
            passes_skipped,
            slots_scanned,
            memo_hits,
            exports_suppressed,
            sessions_evaluated,
            nodes_touched,
            updates,
        } = other;
        self.rounds += rounds;
        add(&mut self.dirty_width_log2, dirty_width_log2);
        self.deliveries += deliveries;
        self.dropped_unread += dropped_unread;
        add(&mut self.admissions, admissions);
        self.interns += interns;
        self.mints += mints;
        add(&mut self.handle_clones, handle_clones);
        add(&mut self.attr_copies, attr_copies);
        self.passes += passes;
        self.passes_skipped += passes_skipped;
        self.slots_scanned += slots_scanned;
        add(&mut self.memo_hits, memo_hits);
        self.exports_suppressed += exports_suppressed;
        self.sessions_evaluated += sessions_evaluated;
        self.nodes_touched += nodes_touched;
        add(&mut self.updates, updates);
    }
}

impl FloodStats {
    /// Counts one convergence round that swept `width` dirty nodes.
    pub(crate) fn round(&mut self, width: usize) {
        self.rounds += 1;
        self.dirty_width_log2[width.max(1).ilog2() as usize] += 1;
    }
}
